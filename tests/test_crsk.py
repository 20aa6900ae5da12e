import pytest

from cyltab.crsk import MismatchedInnerShapes, MismatchedOuterShapes, crsk, crsk_inverse
from cyltab.enumeration import enumerate_outer, enumerate_ssct
from cyltab.geometry import CylParams, CylPartition, SkewShape
from cyltab.insertion import full_multi
from cyltab.tableau import empty_tableau, from_box_entries, tableau_validate, weight
from sweeps import anchored_partitions

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
        with pytest.raises(MismatchedInnerShapes):
            crsk(T, other)
        with pytest.raises(MismatchedOuterShapes):
            crsk_inverse(T, other)

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
