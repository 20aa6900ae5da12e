import pytest

from cyltab.geometry import Box, CylParams, CylPartition, SkewShape, flip_box, project
from cyltab.insertion import full_multi, internal_insert
from cyltab.reverse import (
    NotOutsideCorner,
    QueueNotReverseRegular,
    ReversePreconditionViolated,
    ReverseQueue,
    outside_corners,
    reverse_full_multi,
    reverse_insert,
    reverse_one_step_multi,
    seed_reverse_multi,
)
from cyltab.tableau import empty_tableau, flip_tableau, tableau_validate
from sweeps import (
    addable_strips,
    check_retrace,
    check_reverse_call,
    iter_tableaux,
    removable_strips,
)

K2N4 = CylParams(2, 4)
K3N5 = CylParams(3, 5)
K3N6 = CylParams(3, 6)


def shape(params, outer, inner):
    return SkewShape(CylPartition(params, outer), CylPartition(params, inner))


# Result of the forward multi-insertion example; peeling its new set undoes it.
GROWN = tableau_validate(
    shape(K3N6, (7, 7, 5), (4, 4, 3)), [[1, 2, 4], [2, 3, 5], [2, 6]]
)
GROWN_STRIP = [Box(1, 6), Box(1, 7), Box(2, 5)]

ORIGINAL = tableau_validate(
    shape(K3N6, (7, 5, 4), (4, 3, 1)), [[2, 3, 5], [2, 6], [1, 2, 4]]
)


class TestReverseInsert:
    def test_retraces_the_insertion_chain(self):
        start = tableau_validate(
            shape(K3N5, (6, 5, 5), (4, 2, 2)), [[3, 7], [1, 4, 6], [2, 5, 7]]
        )
        out, route = reverse_insert(start, Box(0, 6))
        assert out.rows == ((1, 4), (2, 5, 6), (3, 7, 7))
        assert out.inner.window == (3, 2, 2) and out.outer.window == (5, 5, 5)
        fwd, fwd_route = internal_insert(out, Box(0, 4))
        assert fwd == start
        projected = [project(p, K3N5) for p in route.points]
        assert projected == [project(p, K3N5) for p in reversed(fwd_route.points)]

    def test_degenerate_branch(self):
        t = empty_tableau(CylPartition(K2N4, (1, 0)))
        out, route = reverse_insert(t, Box(0, 1))
        assert out.inner.window == (0, 0) and out.outer.window == (0, 0)
        assert len(route.points) == 1

    def test_inverts_two_box_example(self):
        t = tableau_validate(shape(K2N4, (2, 1), (1, 0)), [[2], [1]])
        out, _ = reverse_insert(t, Box(0, 2))
        assert out.inner.window == (0, 0) and out.outer.window == (1, 1)
        assert out.rows == ((1,), (2,))

    def test_rejects_non_corner(self):
        with pytest.raises(NotOutsideCorner):
            reverse_insert(GROWN, Box(0, 7))


class TestReverseOneStep:
    def seeded(self):
        return seed_reverse_multi(GROWN, GROWN_STRIP, seed_row=1)

    def test_seed_queue(self):
        state, q0 = self.seeded()
        assert q0.items == ((5, 0), (3, 0), (6, 1))

    def test_first_step(self):
        state, q0 = self.seeded()
        state, q1 = reverse_one_step_multi(state, q0)
        assert q1.items == ((4, 2), (2, 2), (2, 0))
        assert state.rows == [[1, 3, 5], [6], [2]]

    def test_second_step(self):
        state, q0 = self.seeded()
        state, q1 = reverse_one_step_multi(state, q0)
        state, q2 = reverse_one_step_multi(state, q1)
        assert q2.items == ((2, 1), (1, 2))

    def test_empty_queue(self):
        state, _ = self.seeded()
        after, q = reverse_one_step_multi(state, ReverseQueue((), 3))
        assert not q.items

    def test_rejects_irregular(self):
        state, _ = self.seeded()
        with pytest.raises(QueueNotReverseRegular):
            reverse_one_step_multi(state, ReverseQueue(((1, 0), (2, 0)), 3))


class TestReverseFullMulti:
    def test_worked_example(self):
        res = reverse_full_multi(GROWN, GROWN_STRIP, seed_row=1)
        assert res.tableau == ORIGINAL
        assert res.reverse_new_set == frozenset(
            {Box(1, 4), Box(2, 2), Box(2, 3)}
        )

    def test_empty_strip(self):
        res = reverse_full_multi(GROWN, [])
        assert res.tableau == GROWN and not res.reverse_new_set

    def test_rejects_bad_strip(self):
        with pytest.raises(ReversePreconditionViolated):
            reverse_full_multi(GROWN, [Box(1, 6)])  # leaves a gap at the edge

    def test_round_trip_small_sweep(self):
        params = CylParams(2, 4)
        for t in iter_tableaux(params, max_boxes=3, letters=2):
            for strip in addable_strips(t.inner, 2):
                fwd = full_multi(t, strip)
                back = reverse_full_multi(fwd.tableau, fwd.new_set)
                assert back.tableau == t
                assert back.reverse_new_set == frozenset(strip)
                check_reverse_call(fwd.tableau, fwd.new_set, back)
                check_retrace(fwd, back)

    def test_flip_conjugation_small_sweep(self):
        # removing a strip equals flip, insert the flipped strip, flip back
        params = CylParams(2, 4)
        bound = 2
        for t in iter_tableaux(params, max_boxes=3, letters=bound):
            for strip in removable_strips(t.outer, 2):
                direct = reverse_full_multi(t, strip)
                ft = flip_tableau(t, alphabet_bound=bound)
                fstrip = [flip_box(b, params) for b in strip]
                via_flip = full_multi(ft, fstrip)
                assert flip_tableau(via_flip.tableau, alphabet_bound=bound) == direct.tableau
                assert {flip_box(b, params) for b in via_flip.new_set} == set(
                    direct.reverse_new_set
                )

    def test_corner_enumeration(self):
        assert Box(1, 7) in outside_corners(GROWN)
        assert Box(0, 7) not in outside_corners(GROWN)
