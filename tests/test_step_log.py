"""The step log of multi-insertion against the eager oracles and the step API.

Routes, queues and events of a result are derived from its log; over the
criterion-2 sweep they must equal what the eager implementation built as it
went, and the queues must equal the seed-then-one-step sequence.
"""

from dataclasses import FrozenInstanceError

import pytest

from cyltab.insertion import InsertionQueue, full_multi, one_step_multi, seed_multi
from cyltab.reverse import (
    ReverseQueue,
    reverse_full_multi,
    reverse_one_step_multi,
    seed_reverse_multi,
)
from sweeps import (
    full_multi_oracle,
    removal_pairs,
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
