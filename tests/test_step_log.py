"""The step log of multi-insertion against the eager oracles and the step API.

Routes, queues and events of a result are derived from its log; over the
criterion-2 sweep they must equal what the eager implementation built as it
went, and the queues must equal the seed-then-one-step sequence.
"""

import cyltab as ct
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
            res = ct.full_multi(t, strip)
            assert _fields(res, res.new_set) == full_multi_oracle(t, strip)
            assert res.queues == _step_queues(ct.seed_multi, ct.one_step_multi, t, strip)
            cases += 1
    assert cases == 8756


def test_reverse_log_matches_oracle_and_step_api():
    cases = 0
    for t, strips in removal_pairs():
        for strip in strips:
            res = ct.reverse_full_multi(t, strip)
            assert _fields(res, res.reverse_new_set) == reverse_full_multi_oracle(t, strip)
            assert res.queues == _step_queues(
                ct.seed_reverse_multi, ct.reverse_one_step_multi, t, strip
            )
            cases += 1
    assert cases == 8756


def test_seed_rows_match_oracle():
    for t, strips in sweep_pairs(max_k=3, max_width=2, max_boxes=3, strip_size=2):
        for strip in strips:
            for seed in range(t.params.k):
                fwd = ct.full_multi(t, strip, seed_row=seed)
                assert _fields(fwd, fwd.new_set) == full_multi_oracle(t, strip, seed)
                rev = ct.reverse_full_multi(fwd.tableau, fwd.new_set, seed_row=seed)
                assert _fields(rev, rev.reverse_new_set) == reverse_full_multi_oracle(
                    fwd.tableau, fwd.new_set, seed
                )

