"""The step log of multi-insertion against the eager oracles and the step API.

Routes, queues and events of a result are derived from its log; over the
criterion-2 sweep they must equal what the eager implementation built as it
went, and the queues must equal the seed-then-one-step sequence.
"""

import random
from dataclasses import FrozenInstanceError
from itertools import product

import pytest

from cyltab.crsk import crsk
from cyltab.geometry import Box
from cyltab.insertion import InsertionQueue, full_multi, one_step_multi, seed_multi
from cyltab.marbles import arrangement
from cyltab.reverse import (
    ReverseQueue,
    reverse_full_multi,
    reverse_one_step_multi,
    seed_reverse_multi,
)
from sweeps import (
    full_multi_boxes_oracle,
    full_multi_oracle,
    random_crsk_pairs,
    removal_pairs,
    reverse_full_multi_boxes_oracle,
    reverse_full_multi_oracle,
    sweep_pairs,
)


def _fields(res, new_set):
    return res.tableau, new_set, res.routes, res.queues, res.events


def _step_queues(seed, one_step, t, strip):
    state, queue = seed(t, strip)
    queues = [queue]
    while queue.items:
        state, queue = one_step(state, queue)
        queues.append(queue)
    return tuple(queues)


def test_forward_log_matches_oracle_and_step_api():
    cases = 0
    for t, strips in sweep_pairs():
        for strip in strips:
            res = full_multi(t, strip)
            assert _fields(res, res.new_set) == full_multi_oracle(t, strip)
            assert res.queues == _step_queues(seed_multi, one_step_multi, t, strip)
            cases += 1
    assert cases == 8756


def test_reverse_log_matches_oracle_and_step_api():
    cases = 0
    for t, strips in removal_pairs():
        for strip in strips:
            res = reverse_full_multi(t, strip)
            assert _fields(res, res.reverse_new_set) == reverse_full_multi_oracle(t, strip)
            assert res.queues == _step_queues(
                seed_reverse_multi, reverse_one_step_multi, t, strip
            )
            cases += 1
    assert cases == 8756


def test_seed_rows_match_oracle():
    for t, strips in sweep_pairs(max_k=3, max_width=2, max_boxes=3, strip_size=2):
        for strip in strips:
            for seed in range(t.params.k):
                fwd = full_multi(t, strip, seed_row=seed)
                assert _fields(fwd, fwd.new_set) == full_multi_oracle(t, strip, seed)
                rev = reverse_full_multi(fwd.tableau, fwd.new_set, seed_row=seed)
                assert _fields(rev, rev.reverse_new_set) == reverse_full_multi_oracle(
                    fwd.tableau, fwd.new_set, seed
                )


# Each kind of Box list the differential test draws, and the message every
# invalid kind is expected to raise at least once over the draws.
FORWARD_ERRORS = {
    "outside": "row outside",
    "misplaced": "lies in the inner shape",
    "gap": "do not extend the inner shape contiguously",
    "wrap": "inner shape plus boxes violates the wrap",
    "nonstrip": "boxes do not form a horizontal strip",
    "partition": "inner shape plus boxes is not a partition",
}
REVERSE_ERRORS = {
    "outside": "row outside",
    "misplaced": "lies outside the outer shape",
    "gap": "do not peel the outer shape contiguously",
    "wrap": "outer shape minus boxes violates the wrap",
    "nonstrip": "boxes do not form a horizontal strip",
    "partition": "outer shape minus boxes is not a partition",
}
KINDS = ("valid", "duplicate", *FORWARD_ERRORS)


def _random_box_list(rng, t, forward, kind):
    """A Box list of the given kind against the inner (forward) or outer shape of t.

    A strip is valid exactly when each row's count is at most a marble count
    of the frame's arrangement (player r going forward, player r + 1 in
    reverse), so valid strips are drawn under those caps and broken ones past them.
    """
    k = t.params.k
    frame = list(t.inner.window if forward else t.outer.window)
    caps = list(arrangement(t.inner if forward else t.outer).counts)
    if not forward:
        caps = caps[1:] + caps[:1]  # removing from row i is capped by player i + 1
    counts = [rng.randint(0, c) for c in caps]
    if kind == "wrap":
        # one end row stays put while the other moves a box past the period
        grow, stay = (0, k - 1) if forward else (k - 1, 0)
        counts[stay] = 0
        counts[grow] = caps[grow] + 1
    elif kind == "nonstrip":
        r = rng.randrange(k)
        counts[r] = caps[r] + 1
    elif kind == "partition":
        counts = [rng.randint(0, 4) for _ in range(k)]

    def cols(r, n):
        start = frame[r] + 1 if forward else frame[r] - n + 1
        return range(start, start + n)

    boxes = [Box(r, c) for r in range(k) for c in cols(r, counts[r])]
    r = rng.randrange(k)
    if kind == "duplicate" and boxes:
        boxes.append(rng.choice(boxes))
    elif kind == "outside":
        boxes.append(Box(rng.choice((-1, k, k + 2)), frame[0] + 1))
    elif kind == "misplaced":
        # one or two boxes past the frame; the first one met in seeding order is named
        step = -1 if forward else 1
        start = frame[r] if forward else frame[r] + 1
        boxes += [Box(r, start + step * i) for i in range(rng.randint(1, 2))]
    elif kind == "gap":
        n = counts[r] + 1
        boxes.append(Box(r, frame[r] + n + 1 if forward else frame[r] - n))
    rng.shuffle(boxes)
    return boxes


def _outcome(run, t, boxes, seed_row):
    try:
        return run(t, boxes, seed_row)
    except Exception as e:  # the class and the message must match the oracle's
        return type(e), str(e)


@pytest.mark.parametrize("forward", [True, False], ids=["full_multi", "reverse_full_multi"])
def test_counts_seeder_matches_box_list_oracle(forward):
    # tableau, new set, log and rounds (dataclass equality), or the same error
    run, oracle, errors = (
        (full_multi, full_multi_boxes_oracle, FORWARD_ERRORS)
        if forward
        else (reverse_full_multi, reverse_full_multi_boxes_oracle, REVERSE_ERRORS)
    )
    rng = random.Random(17)
    tableaux = [x for t, u in random_crsk_pairs(3) for x in (t, crsk(t, u).p)]
    seen = {kind: set() for kind in KINDS}
    for t, kind, _ in product(tableaux, KINDS, range(3)):
        boxes = _random_box_list(rng, t, forward, kind)
        seed_row = rng.randint(-2, 3)
        got = _outcome(run, t, boxes, seed_row)
        assert got == _outcome(oracle, t, boxes, seed_row), (t, boxes, seed_row)
        seen[kind].add(got[1] if isinstance(got, tuple) else "ok")
    for kind in ("valid", "duplicate"):
        assert seen[kind] == {"ok"}
    for kind, message in errors.items():
        assert any(message in m for m in seen[kind]), (kind, seen[kind])


@pytest.mark.parametrize("cls", [InsertionQueue, ReverseQueue])
def test_queue_build_keeps_its_class_and_takes_rows_mod_k(cls):
    q = cls.build([(3, 5), (2, -1), (4, 1)], 3)
    assert type(q) is cls
    assert q == cls(((3, 2), (2, 2), (4, 1)), 3)
    assert hash(q) == hash(cls(((3, 2), (2, 2), (4, 1)), 3))
    assert len(q) == 3 and len(cls((), 3)) == 0
    assert repr(q) == f"{cls.__name__}(items=((3, 2), (2, 2), (4, 1)), k=3)"
    with pytest.raises(FrozenInstanceError):
        q.items = ()


def test_forward_and_reverse_queues_are_distinct_types():
    up, down, tie = ((1, 0), (3, 1), (2, 0)), ((2, 0), (3, 1), (1, 0)), ((2, 0), (2, 0))
    assert InsertionQueue(up, 2) != ReverseQueue(up, 2)
    assert ReverseQueue(up, 2) != InsertionQueue(up, 2)
    assert InsertionQueue(up, 2).is_regular() and not ReverseQueue(up, 2).is_reverse_regular()
    assert ReverseQueue(down, 2).is_reverse_regular() and not InsertionQueue(down, 2).is_regular()
    assert InsertionQueue(tie, 2).is_regular() and ReverseQueue(tie, 2).is_reverse_regular()
