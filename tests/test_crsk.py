import importlib

import pytest

from cyltab.crsk import MismatchedInnerShapes, MismatchedOuterShapes, crsk, crsk_inverse
from cyltab.enumeration import enumerate_outer, enumerate_ssct
from cyltab.geometry import CylParams, CylPartition, SkewShape
from cyltab.insertion import TableauState, _insert_strip, full_multi
from cyltab.reverse import _remove_strip, reverse_full_multi
from cyltab.tableau import empty_tableau, tableau_validate, weight
from sweeps import (
    addable_strips,
    anchored_partitions,
    crsk_criterion_4_instances,
    crsk_inverse_per_batch_oracle,
    crsk_per_batch_oracle,
    from_box_entries,
    iter_params,
    iter_tableaux,
    random_crsk_pairs,
    removable_strips,
)

K3N6 = CylParams(3, 6)


def shape(params, outer, inner):
    return SkewShape(CylPartition(params, outer), CylPartition(params, inner))


MU = CylPartition(K3N6, (4, 3, 1))
T = tableau_validate(shape(K3N6, (7, 5, 4), (4, 3, 1)), [[2, 3, 5], [2, 6], [1, 2, 4]])
U = tableau_validate(shape(K3N6, (6, 6, 5), (4, 3, 1)), [[2, 4], [1, 3, 5], [1, 1, 3, 4]])

EXPECTED_P = tableau_validate(
    shape(K3N6, (9, 8, 8), (6, 6, 5)), [[1, 2, 3], [2, 5], [2, 4, 6]]
)
EXPECTED_Q = tableau_validate(
    shape(K3N6, (9, 8, 8), (7, 5, 4)), [[2, 4], [1, 1, 3], [1, 3, 4, 5]]
)


def small_instances(params, alphabet=2, budget=2):
    """All (mu, T, U) with bounded boxes on each side, anchored windows."""
    for mu in anchored_partitions(params):
        t_list = [
            t
            for j in range(budget + 1)
            for alpha in enumerate_outer(mu, mu, j)
            for t in enumerate_ssct(SkewShape(alpha, mu), alphabet)
        ]
        for t in t_list:
            for u in t_list:
                yield mu, t, u


class TestWorkedExample:
    def test_forward(self):
        out = crsk(T, U)
        assert out.lam.window == (9, 8, 8)
        assert out.p == EXPECTED_P
        assert out.q == EXPECTED_Q

    def test_backward(self):
        back = crsk_inverse(EXPECTED_P, EXPECTED_Q)
        assert back.t == T and back.u == U and back.mu == MU

    def test_weights_preserved(self):
        out = crsk(T, U)
        assert weight(out.p) == weight(T)
        assert weight(out.q) == weight(U)


class TestEdgeCases:
    def test_empty_u(self):
        alpha = T.outer
        empty_u = empty_tableau(MU)
        out = crsk(T, empty_u)
        assert out.p == T
        assert out.q == empty_tableau(alpha)
        assert out.lam == alpha

    def test_empty_q(self):
        back = crsk_inverse(T, empty_tableau(T.outer))
        assert back.t == T
        assert back.u == empty_tableau(T.inner)
        assert back.mu == T.inner

    def test_mismatched_shapes(self):
        other = tableau_validate(shape(K3N6, (5, 4, 2), (4, 4, 2)), [[5], [], []])
        with pytest.raises(MismatchedInnerShapes, match=r"^inner shapes differ: \(4, 3, 1\) vs \(4, 4, 2\)$"):
            crsk(T, other)
        with pytest.raises(MismatchedOuterShapes, match=r"^outer shapes differ: \(7, 5, 4\) vs \(5, 4, 2\)$"):
            crsk_inverse(T, other)

    def test_different_cylinders_are_named(self):
        # equal windows on different cylinders: the detail names both cylinders
        k2n4, k2n5 = CylParams(2, 4), CylParams(2, 5)
        t = tableau_validate(shape(k2n4, (2, 1), (0, 0)), [[1, 2], [3]])
        with pytest.raises(MismatchedInnerShapes) as info:
            crsk(t, empty_tableau(CylPartition(k2n5, (0, 0))))
        assert str(info.value) == (
            "inner shapes lie on different cylinders: CylParams(k=2, n=4) vs CylParams(k=2, n=5)"
        )
        with pytest.raises(MismatchedOuterShapes) as info:
            crsk_inverse(t, empty_tableau(CylPartition(k2n5, (2, 1))))
        assert str(info.value) == (
            "outer shapes lie on different cylinders: CylParams(k=2, n=4) vs CylParams(k=2, n=5)"
        )

    def test_diagonal_symmetry(self):
        out = crsk(T, T)
        assert out.p == out.q


class TestSweep:
    def test_round_trip_and_symmetry(self):
        params = CylParams(2, 4)
        for mu, t, u in small_instances(params):
            out = crsk(t, u)
            assert weight(out.p) == weight(t)
            assert weight(out.q) == weight(u)
            back = crsk_inverse(out.p, out.q)
            assert (back.t, back.u, back.mu) == (t, u, mu)
            swapped = crsk(u, t)
            assert (swapped.p, swapped.q, swapped.lam) == (out.q, out.p, out.lam)

    def test_inverse_symmetry(self):
        params = CylParams(2, 4)
        seen = 0
        for mu, t, u in small_instances(params, budget=1):
            out = crsk(t, u)
            a = crsk_inverse(out.p, out.q)
            b = crsk_inverse(out.q, out.p)
            assert (b.t, b.u, b.mu) == (a.u, a.t, a.mu)
            seen += 1
        assert seen > 0

    def test_intermediate_recording_tableaux_semistandard(self):
        # replay the loop by hand; partial recordings must always validate
        for mu, t, u in small_instances(CylParams(2, 4), budget=1):
            p = t
            recorded = {}
            for i in sorted(set(u.entries())):
                res = full_multi(p, [b for b in u.boxes() if u.entry(b) == i])
                p = res.tableau
                for b in res.new_set:
                    recorded[b] = i
                # building validates semistandardness
                from_box_entries(p.outer, t.outer, recorded)

    def test_intermediate_input_tableaux_semistandard(self):
        # replay crsk_inverse by hand; partial inputs must always validate
        for mu, t, u in small_instances(CylParams(2, 4), budget=1):
            out = crsk(t, u)
            cur = out.p
            recorded = {}
            for i in sorted(set(out.q.entries()), reverse=True):
                res = reverse_full_multi(cur, [b for b in out.q.boxes() if out.q.entry(b) == i])
                cur = res.tableau
                for b in res.reverse_new_set:
                    recorded[b] = i
                # building validates semistandardness
                from_box_entries(out.p.inner, cur.inner, recorded)
            assert (cur, from_box_entries(out.p.inner, cur.inner, recorded)) == (t, u)

    def test_every_working_state_builds_a_valid_tableau(self, monkeypatch):
        # crsk and crsk_inverse validate only their results; check each batch's state here
        states = []

        def checked(core):
            def run(st, counts):
                core(st, counts)
                states.append(st.to_tableau())

            return run

        module = importlib.import_module("cyltab.crsk")
        monkeypatch.setattr(module, "_insert_strip", checked(module._insert_strip))
        monkeypatch.setattr(module, "_remove_strip", checked(module._remove_strip))
        for mu, t, u in small_instances(CylParams(2, 4)):
            batches = len(set(u.entries()))
            del states[:]
            out = crsk(t, u)
            back = crsk_inverse(out.p, out.q)
            assert len(states) == 2 * batches
            if batches:
                assert states[batches - 1] == out.p and states[-1] == back.t


class TestPerBatchOracle:
    """One working state per run gives what one validated tableau per batch gives."""

    @staticmethod
    def check(t, u):
        out = crsk(t, u)
        expect = crsk_per_batch_oracle(t, u)
        assert (out.p, out.q, out.lam) == (expect.p, expect.q, expect.lam)
        back = crsk_inverse(out.p, out.q)
        expect_back = crsk_inverse_per_batch_oracle(out.p, out.q)
        assert (back.t, back.u, back.mu) == (expect_back.t, expect_back.u, expect_back.mu)
        # (t, u) is itself an input of crsk_inverse when the outer shapes agree
        if t.outer == u.outer:
            a, b = crsk_inverse(t, u), crsk_inverse_per_batch_oracle(t, u)
            assert (a.t, a.u, a.mu) == (b.t, b.u, b.mu)

    def test_criterion_4_instances(self):
        seen = 0
        for mu, t, u in crsk_criterion_4_instances():
            self.check(t, u)
            seen += 1
        assert seen == 495

    def test_small_instances(self):
        for mu, t, u in small_instances(CylParams(2, 4)):
            self.check(t, u)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_marble_pairs(self, seed):
        pairs = list(random_crsk_pairs(seed))
        assert {t.params.k for t, _ in pairs} == {3, 4, 5}
        for t, u in pairs:
            self.check(t, u)


def strip_counts_of(params, boxes):
    return [sum(b.row == r for b in boxes) for r in range(params.k)]


class TestLogFreeCores:
    """crsk's log-free cores against the logged cascade of the public step API."""

    def test_each_strip_gives_the_logged_result(self):
        seen = 0
        for params in iter_params(max_k=3, max_width=3):
            for t in iter_tableaux(params, max_boxes=4, letters=2):
                for strip in addable_strips(t.inner, 3):
                    st = TableauState.from_tableau(t)
                    _insert_strip(st, strip_counts_of(params, strip))
                    assert st.to_tableau() == full_multi(t, strip).tableau
                    seen += 1
                for strip in removable_strips(t.outer, 3):
                    st = TableauState.from_tableau(t)
                    _remove_strip(st, strip_counts_of(params, strip))
                    assert st.to_tableau() == reverse_full_multi(t, strip).tableau
                    seen += 1
        assert seen == 5306
