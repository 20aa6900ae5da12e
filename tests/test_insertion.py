import pytest

from cyltab.geometry import Box, CylParams, CylPartition, SkewShape
from cyltab.insertion import (
    InsertionQueue,
    NotInsideCocorner,
    PreconditionViolated,
    QueueNotRegular,
    TableauState,
    full_multi,
    inside_cocorners,
    internal_insert,
    one_step_multi,
    seed_multi,
)
from cyltab.tableau import empty_tableau, tableau_validate
from sweeps import addable_strips, check_forward_call, iter_params, iter_tableaux

K2N4 = CylParams(2, 4)
K3N5 = CylParams(3, 5)
K3N6 = CylParams(3, 6)


def shape(params, outer, inner):
    return SkewShape(CylPartition(params, outer), CylPartition(params, inner))


# The running three-row example: insert the box holding 1 in the top row.
CHAIN_INPUT = tableau_validate(
    shape(K3N5, (5, 5, 5), (3, 2, 2)), [[1, 4], [2, 5, 6], [3, 7, 7]]
)

# The multi-insertion example tableau and its strip of three boxes.
MULTI_INPUT = tableau_validate(
    shape(K3N6, (7, 5, 4), (4, 3, 1)), [[2, 3, 5], [2, 6], [1, 2, 4]]
)
MULTI_STRIP = [Box(1, 4), Box(2, 2), Box(2, 3)]


class TestInternalInsert:
    def test_worked_chain(self):
        out, route = internal_insert(CHAIN_INPUT, Box(0, 4))
        assert out.inner.window == (4, 2, 2)
        assert out.outer.window == (6, 5, 5)
        assert out.rows == ((3, 7), (1, 4, 6), (2, 5, 7))
        assert [(p.x, p.y) for p in route.points] == [
            (0, 4), (1, 3), (2, 3), (3, 3), (4, 2), (5, 2), (6, 2),
        ]

    def test_degenerate_branch(self):
        t = empty_tableau(CylPartition(K2N4, (0, 0)))
        out, route = internal_insert(t, Box(0, 1))
        assert out.inner.window == (1, 0) and out.outer.window == (1, 0)
        assert out.size() == 0
        assert len(route.points) == 1

    def test_two_box_trace(self):
        t = tableau_validate(shape(K2N4, (1, 1), (0, 0)), [[1], [2]])
        out, _ = internal_insert(t, Box(0, 1))
        assert out.inner.window == (1, 0) and out.outer.window == (2, 1)
        assert out.entry(Box(1, 1)) == 1
        assert out.entry(Box(0, 2)) == 2

    def test_rejects_non_cocorner(self):
        with pytest.raises(NotInsideCocorner):
            internal_insert(MULTI_INPUT, Box(0, 7))


class TestOneStepMulti:
    def seeded(self):
        state, q0 = seed_multi(MULTI_INPUT, MULTI_STRIP, seed_row=0)
        return state, q0

    def test_seed_queue(self):
        state, q0 = self.seeded()
        assert q0.items == ((2, 2), (1, 0), (2, 0))
        assert state.mu == [4, 4, 3]

    def test_first_step(self):
        state, q0 = self.seeded()
        state, q1 = one_step_multi(state, q0)
        assert q1.items == ((4, 0), (2, 1), (3, 1))
        assert state.rows == [[1, 2, 5], [6], [2]]

    def test_second_step(self):
        state, q0 = self.seeded()
        state, q1 = one_step_multi(state, q0)
        state, q2 = one_step_multi(state, q1)
        assert q2.items == ((5, 1), (6, 2))

    def test_empty_queue(self):
        state, _ = self.seeded()
        before = state.copy()
        after, q = one_step_multi(state, InsertionQueue((), 3))
        assert not q.items and after.rows == before.rows

    def test_rejects_irregular_queue(self):
        state, _ = self.seeded()
        with pytest.raises(QueueNotRegular):
            one_step_multi(state, InsertionQueue(((2, 0), (1, 0)), 3))

    def test_rows_canonicalized(self):
        # (3, 5) and (2, 2) address the same row when k = 3
        q = InsertionQueue.build([(3, 5), (2, 2)], 3)
        assert not q.is_regular()


class TestFullMulti:
    def test_worked_example(self):
        res = full_multi(MULTI_INPUT, MULTI_STRIP)
        assert [q.items for q in res.queues] == [
            ((2, 2), (1, 0), (2, 0)),
            ((4, 0), (2, 1), (3, 1)),
            ((5, 1), (6, 2)),
            (),
        ]
        assert res.tableau.rows == ((1, 2, 4), (2, 3, 5), (2, 6))
        assert res.tableau.inner.window == (4, 4, 3)
        assert res.tableau.outer.window == (7, 7, 5)
        assert res.new_set == frozenset({Box(1, 6), Box(1, 7), Box(2, 5)})

    def test_empty_strip(self):
        res = full_multi(MULTI_INPUT, [])
        assert res.tableau == MULTI_INPUT and not res.new_set

    def test_rejects_bad_strips(self):
        with pytest.raises(PreconditionViolated):
            full_multi(MULTI_INPUT, [Box(1, 5)])  # gap after the inner frontier
        with pytest.raises(PreconditionViolated):
            full_multi(MULTI_INPUT, [Box(0, 4)])  # already inside the inner shape

    def test_singleton_matches_internal_insert(self):
        for params in iter_params(max_k=3, max_width=3):
            for t in iter_tableaux(params, max_boxes=4, letters=3):
                for b in inside_cocorners(t):
                    direct, route = internal_insert(t, b)
                    multi = full_multi(t, [b])
                    assert multi.tableau == direct
                    assert multi.routes[0].points == route.points

    def test_seed_row_independence(self):
        for seed in range(3):
            res = full_multi(MULTI_INPUT, MULTI_STRIP, seed_row=seed)
            assert res.tableau.rows == ((1, 2, 4), (2, 3, 5), (2, 6))
            assert res.new_set == frozenset({Box(1, 6), Box(1, 7), Box(2, 5)})

    def test_route_properties_on_worked_example(self):
        res = full_multi(MULTI_INPUT, MULTI_STRIP)
        check_forward_call(MULTI_INPUT, MULTI_STRIP, res)

    def test_route_properties_small_sweep(self):
        # focused sweep; the acceptance suite runs the full space
        params = CylParams(2, 4)
        for t in iter_tableaux(params, max_boxes=3, letters=2):
            for strip in addable_strips(t.inner, 2):
                res = full_multi(t, strip)
                check_forward_call(t, strip, res)


class TestStateRoundTrip:
    def test_state_to_tableau(self):
        st = TableauState.from_tableau(MULTI_INPUT)
        assert st.to_tableau() == MULTI_INPUT
