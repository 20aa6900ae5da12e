from collections import Counter
from itertools import combinations_with_replacement, permutations, product, zip_longest

import pytest

from cyltab.enumeration import (
    EnumerationError,
    _expand,
    _expand_sides,
    _strip_chains,
    _windows,
    cauchy_sides,
    count_standard,
    enumerate_inner,
    enumerate_outer,
    enumerate_regular_ssyt,
    enumerate_ssct,
    regular_normalize,
    regular_partitions_of,
    regular_skew_schur,
    schur_poly,
    skew_reduction_cross_check,
    skew_reduction_embedding_params,
    skew_reduction_embedding_sides,
    skew_reduction_sides,
    verify_cauchy,
    verify_fcount,
    verify_oneschur,
    verify_skew_reduction,
)
from cyltab.errors import CyltabError
from cyltab.geometry import (
    CylParams,
    CylPartition,
    GeometryError,
    ParamsMismatch,
    SkewShape,
    cyl_embed,
    flip_partition,
    partition_contains,
)
from cyltab.polynomials import IdentityReport, PolynomialError, SparsePolynomial
from cyltab.tableau import is_standard

from sweeps import (
    anchored_partitions,
    cauchy_sides_per_shape,
    count_standard_bitmask_oracle,
    enumerate_regular_ssyt_oracle,
    enumerate_ssct_oracle,
    enumerate_tableaux_with_inner,
    enumerate_tableaux_with_outer,
    expand_oracle,
    iter_params,
    iter_shapes,
    oneschur_sides_per_shape,
    regular_partitions_of_oracle,
    regular_subpartitions_oracle,
    regular_superpartitions_oracle,
    schur_poly_by_enumeration,
    schur_poly_per_shape,
    skew_reduction_sides_oracle,
    verify_fcount_per_shape_oracle,
)

K2N4 = CylParams(2, 4)
# the regular partitions of the skew reduction sweeps
REGULAR = ((), (1,), (2,), (1, 1), (3,), (2, 1))


def part(window, params=K2N4):
    return CylPartition(params, window)


def shape(outer, inner, params=K2N4):
    return SkewShape(part(outer, params), part(inner, params))


def brute_inner(alpha, beta, m, span=6):
    """Window-wise brute force over a wide cube, as an independent oracle."""
    params = alpha.params
    k = params.k
    found = set()
    for w in product(range(min(alpha.window) - span, max(alpha.window) + 1), repeat=k):
        try:
            mu = CylPartition(params, w)
        except GeometryError:
            continue
        if (
            partition_contains(mu, alpha)
            and partition_contains(mu, beta)
            and sum(alpha.window[i] - w[i] for i in range(k)) == m
        ):
            found.add(w)
    return found


def filtered_inner(alpha, beta, m):
    """Every window in the bounding box of enumerate_inner, filtered by size."""
    lo = [a - m for a in alpha.window]
    hi = [min(a, b) for a, b in zip(alpha.window, beta.window)]
    fits = (w for w in _windows(lo, hi, alpha.params.width) if sum(alpha.window) - sum(w) == m)
    return sorted(fits)


def filtered_outer(alpha, beta, m):
    """Every window in the bounding box of enumerate_outer, filtered by size."""
    lo = [max(a, b) for a, b in zip(alpha.window, beta.window)]
    hi = [b + m for b in beta.window]
    fits = (w for w in _windows(lo, hi, alpha.params.width) if sum(w) - sum(beta.window) == m)
    return sorted(fits)


def excess(a, b):
    """Boxes of a outside b, window by window."""
    return sum(max(0, x - y) for x, y in zip(a.window, b.window))


def excess_regular(a, b):
    return sum(max(0, x - y) for x, y in zip_longest(a, b, fillvalue=0))


class TestShapeEnumeration:
    def test_inner_examples(self):
        assert [p.window for p in enumerate_inner(part((0, 0)), part((0, 0)), 1)] == [(0, -1)]
        assert enumerate_inner(part((0, 0)), part((0, 0)), 0) == [part((0, 0))]
        assert enumerate_inner(part((1, 0)), part((0, 0)), 0) == []

    def test_inner_against_brute_force(self):
        for m in range(4):
            got = {p.window for p in enumerate_inner(part((1, 0)), part((0, 0)), m)}
            assert got == brute_inner(part((1, 0)), part((0, 0)), m)

    def test_outer_examples(self):
        assert [p.window for p in enumerate_outer(part((0, 0)), part((0, 0)), 1)] == [(1, 0)]
        assert enumerate_outer(part((0, 0)), part((0, 0)), 0) == [part((0, 0))]
        got = enumerate_outer(part((1, 0)), part((0, 0)), 1)
        assert [p.window for p in got] == [(1, 0)]

    def test_pruned_enumeration_matches_filtered_sweep(self):
        # k <= 5 at width <= 2 and k <= 3 at width 3..4, beta shifted -1..1 columns
        # against alpha, m <= 5; each list in order
        cases = 0
        wide = [p for p in iter_params(max_k=3, max_width=4) if p.width >= 3]
        for params in [*iter_params(max_k=5, max_width=2), *wide]:
            parts = anchored_partitions(params)
            betas = [b.shifted(s) for b in parts for s in (-1, 0, 1)]
            for alpha in parts:
                for beta in betas:
                    for m in range(6):
                        inner = [p.window for p in enumerate_inner(alpha, beta, m)]
                        assert inner == filtered_inner(alpha, beta, m), (alpha, beta, m)
                        outer = [p.window for p in enumerate_outer(alpha, beta, m)]
                        assert outer == filtered_outer(alpha, beta, m), (alpha, beta, m)
                        cases += 2
        assert cases == 28584

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_inner(part((0, 0)), part((0, 0)), -1)
        with pytest.raises(ValueError):
            enumerate_outer(part((0, 0)), part((0, 0)), -1)

    def test_outer_mirrors_inner_under_flip(self):
        alpha, beta = part((1, 0)), part((0, -1))
        for m in range(4):
            flipped = {
                flip_partition(p).window
                for p in enumerate_outer(alpha, beta, m)
            }
            direct = {
                p.window
                for p in enumerate_inner(
                    flip_partition(beta), flip_partition(alpha), m
                )
            }
            assert flipped == direct


class TestTableauEnumeration:
    def test_examples(self):
        assert len(enumerate_ssct(shape((1, 0), (0, 0)), 2)) == 2
        assert len(enumerate_ssct(shape((1, 1), (0, 0)), 2)) == 1
        fillings = enumerate_ssct(shape((2, 0), (0, 0)), 2)
        assert [t.rows[0] for t in fillings] == [(1, 1), (1, 2), (2, 2)]

    def test_count_matches_all_ones_evaluation(self):
        for sh in [shape((2, 1), (0, 0)), shape((2, 0), (0, -1))]:
            for v in (2, 3):
                assert len(enumerate_ssct(sh, v)) == sum(c for _, c in schur_poly(sh, v).terms())

    def test_wrap_constraints_respected(self):
        # single-row cylinder: width-separated entries must strictly increase
        params = CylParams(1, 3)
        sh = shape((3,), (0,), params)
        for t in enumerate_ssct(sh, 3):
            row = t.rows[0]
            assert row[0] < row[2]

    def test_matches_the_oracle_sweep(self):
        # same tableaux in the same order: k <= 4, width <= 4, at most 6 boxes, 0-3 letters
        cases = 0
        for params in iter_params(max_k=4, max_width=4):
            for sh in iter_shapes(params, 6):
                for v in range(4):
                    assert enumerate_ssct(sh, v) == enumerate_ssct_oracle(sh, v), (sh, v)
                    cases += 1
        assert cases == 11004


class TestStandardCounts:
    def test_examples(self):
        assert count_standard(shape((1, 0), (0, 0))) == 1
        assert count_standard(shape((1, 1), (0, 0))) == 1
        assert count_standard(shape((2, 0), (0, 0))) == 1

    @pytest.mark.parametrize("window", [(0, 0), (2, 1)])
    def test_empty_shape_has_one_filling(self, window):
        assert count_standard(shape(window, window)) == 1

    def test_against_filtered_enumeration(self):
        shapes = [
            shape((2, 1), (0, 0)),
            shape((2, 0), (0, -1)),
            shape((2, 2), (1, 0)),
            shape((1, 0, 0), (0, 0, 0), CylParams(3, 6)),
        ]
        for sh in shapes:
            m = sh.size()
            oracle = sum(1 for t in enumerate_ssct(sh, m) if is_standard(t))
            assert count_standard(sh) == oracle

    def test_equals_distinct_monomial_coefficient(self):
        sh = shape((2, 1), (0, 0))
        m = sh.size()
        poly = schur_poly(sh, m)
        assert count_standard(sh) == poly.coefficient((1,) * m)

    def test_matches_bitmask_oracle_on_sweep(self):
        cases = 0
        for params in iter_params(max_k=4, max_width=4):
            for sh in iter_shapes(params, 8):
                # the 180-degree rotation has as many standard fillings (letters reversed)
                flipped = SkewShape(flip_partition(sh.inner), flip_partition(sh.outer))
                want = count_standard_bitmask_oracle(sh)
                assert count_standard(sh) == want == count_standard(flipped), sh
                cases += 1
        assert cases == 3918


class TestSchurPolynomials:
    def test_single_box(self):
        assert schur_poly(shape((1, 0), (0, 0)), 2) == SparsePolynomial(
            2, {(1, 0): 1, (0, 1): 1}
        )

    def test_two_in_a_row(self):
        assert schur_poly(shape((2, 0), (0, 0)), 2) == SparsePolynomial(
            2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}
        )

    def test_empty_shape(self):
        assert schur_poly(shape((0, 0), (0, 0)), 2) == SparsePolynomial(2, {(0, 0): 1})

    def test_strip_chain_dp_matches_enumeration_sweep(self):
        # every shape with k <= 3, width <= 3, at most 6 boxes, over 0..4 letters
        cases = 0
        for params in iter_params(max_k=3, max_width=3):
            for sh in iter_shapes(params, 6):
                for v in range(5):
                    got = schur_poly(sh, v)
                    assert got.terms() == schur_poly_by_enumeration(sh, v).terms(), (sh, v)
                    assert got.arity == v
                    cases += 1
        assert cases == 1985

    def test_matches_per_shape_dp_sweep(self):
        # past the enumeration sweep: k <= 4, width <= 3, at most 7 boxes, 5 letters
        cases = 0
        for params in iter_params(max_k=4, max_width=3):
            for sh in iter_shapes(params, 7):
                assert schur_poly(sh, 5) == schur_poly_per_shape(sh, 5), sh
                cases += 1
        assert cases == 1258

    def test_symmetric_in_the_variables(self):
        # cylindric skew Schur polynomials are symmetric (Gessel-Krattenthaler 1997;
        # Postnikov 2005); schur_poly is symmetric by construction, so check the
        # polynomials built without that assumption, on the same 1,985 cases as the
        # enumeration sweep and on the 1,258 cases of the per-shape DP sweep
        def asymmetric(poly):
            return sum(
                any(poly.coefficient(p) != c for p in set(permutations(e))) for e, c in poly.terms()
            )

        cases = bad = 0
        for params in iter_params(max_k=3, max_width=3):
            for sh in iter_shapes(params, 6):
                for v in range(5):
                    bad += asymmetric(schur_poly_by_enumeration(sh, v))
                    cases += 1
        assert (cases, bad) == (1985, 0)
        cases = 0
        for params in iter_params(max_k=4, max_width=3):
            for sh in iter_shapes(params, 7):
                bad += asymmetric(schur_poly_per_shape(sh, 5))
                cases += 1
        assert (cases, bad) == (1258, 0)

    def test_engine_counts_the_dominant_terms_of_the_per_shape_dp(self):
        # down from outer to inner, and down the rotation from flip(inner) to flip(outer),
        # the run the upper families of the identities make, on the 1,985 sweep cases
        cases = 0
        for params in iter_params(max_k=3, max_width=3):
            for sh in iter_shapes(params, 6):
                inner, outer, width = sh.inner.window, sh.outer.window, params.width
                top, bottom = flip_partition(sh.inner).window, flip_partition(sh.outer).window
                for v in range(5):
                    full = schur_poly_per_shape(sh, v).terms()
                    want = {e: c for e, c in full if list(e) == sorted(e, reverse=True)}
                    down = _strip_chains(outer, v, width, sh.size(), inner)
                    rotated = _strip_chains(top, v, width, sh.size(), bottom)
                    assert down.get(inner, {}) == want == rotated.get(bottom, {}), (sh, v)
                    cases += 1
        assert cases == 1985

    def test_no_letters(self):
        assert schur_poly(shape((0, 0), (0, 0)), 0) == SparsePolynomial(0, {(): 1})
        assert schur_poly(shape((1, 0), (0, 0)), 0).is_zero()

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError):
            schur_poly(shape((0, 0), (0, 0)), -1)

    def test_homogeneous_of_box_degree(self):
        sh = shape((2, 1), (0, -1))
        poly = schur_poly(sh, 3)
        assert all(sum(e) == sh.size() for e, _ in poly.terms())

    def test_expand_gives_each_dominant_term_to_its_block_rearrangements(self):
        dominant = {(2, 1, 1, 0, 3, 3): 5, (1, 0, 0, 0, 2, 0): 7}
        poly = _expand(dominant, (4, 2))
        # term counts are products of multinomials: 4!/(1!2!1!) * 2!/2! and 4!/(1!3!) * 2!/(1!1!)
        assert poly.arity == 6 and len(poly.terms()) == 12 * 1 + 4 * 2
        assert poly.coefficient((1, 0, 2, 1, 3, 3)) == 5
        assert poly.coefficient((0, 0, 1, 0, 0, 2)) == 7
        assert sum(c for _, c in poly.terms()) == 12 * 5 + 8 * 7
        empty_x = _expand({(2, 0): 3}, (0, 2))  # the (0, 2) budget: no x variables
        assert empty_x == SparsePolynomial(2, {(2, 0): 3, (0, 2): 3})
        assert _expand({(): 4}, (0, 0)) == SparsePolynomial(0, {(): 4})
        assert _expand({}, (2,)).is_zero()

    def test_expand_matches_the_oracle_on_every_small_dominant_key(self):
        cases = 0
        for blocks in ((0, 2), (1, 1), (2, 2), (3, 1), (3, 3), (4, 2)):
            runs = [combinations_with_replacement(range(3, -1, -1), b) for b in blocks]
            for parts in product(*runs):  # weakly decreasing in each block, entries 0-3
                dominant = {sum(parts, ()): cases + 1}
                assert _expand(dominant, blocks).terms() == expand_oracle(dominant, blocks).terms()
                cases += 1
        assert cases == 10 + 16 + 100 + 80 + 400 + 350

    def test_unequal_dominant_dicts_are_expanded_apart(self):
        lhs = {(2, 1, 1, 0, 3, 3): 5, (1, 0, 0, 0, 2, 0): 7}
        for rhs in (
            {(2, 1, 1, 0, 3, 3): 5, (1, 1, 0, 0, 2, 0): 7},  # one key moved
            {(2, 1, 1, 0, 3, 3): 5, (1, 0, 0, 0, 2, 0): 6},  # one coefficient changed
        ):
            got = _expand_sides(lhs, rhs, (4, 2))
            want = expand_oracle(lhs, (4, 2)), expand_oracle(rhs, (4, 2))
            assert got[0] is not got[1] and got == want
            report = IdentityReport(*got)
            assert not report.equal and report.mismatches == IdentityReport(*want).mismatches


class TestIdentities:
    def test_cauchy_degree_zero(self):
        same = verify_cauchy(part((0, 0)), part((0, 0)), 0, 2, 2)
        assert same.equal and same.lhs == SparsePolynomial(4, {(0, 0, 0, 0): 1})
        diff = verify_cauchy(part((1, 0)), part((0, -1)), 0, 2, 2)
        assert diff.equal and diff.lhs.is_zero()

    def test_cauchy_small(self):
        report = verify_cauchy(part((0, 0)), part((0, 0)), 3, 2, 2)
        assert report.equal
        assert not report.mismatches

    def test_cauchy_sides_built_independently(self):
        # both sides nonzero and genuinely different enumerations
        lhs, rhs = cauchy_sides(part((1, 0)), part((0, 0)), 2, 2, 2)
        assert not lhs.is_zero()
        assert lhs == rhs

    def test_sides_match_per_shape_oracles(self):
        # windows anchored at 0 and shifted by -1; Cauchy pairs at most one box
        # apart each way, and every anchored window for the one-shape identity
        budgets = [(d, vx, vy) for d in range(4) for vx, vy in ((0, 2), (1, 1), (2, 2), (3, 1))]
        cases = 0
        for k, n in ((1, 3), (2, 4), (2, 5), (3, 5), (3, 6), (4, 7)):
            anchored = anchored_partitions(CylParams(k, n))
            windows = anchored + [w.shifted(-1) for w in anchored]
            for alpha in anchored:
                for d, v in product(range(4), range(4)):
                    report = verify_oneschur(alpha, d, v)
                    assert (report.lhs, report.rhs) == oneschur_sides_per_shape(alpha, d, v)
                    cases += 1
                for beta in windows:
                    if excess(alpha, beta) + excess(beta, alpha) > 1:
                        continue
                    for d, vx, vy in budgets:
                        got = cauchy_sides(alpha, beta, d, vx, vy)
                        assert got == cauchy_sides_per_shape(alpha, beta, d, vx, vy), (
                            alpha, beta, d, vx, vy,
                        )
                        cases += 1
        assert cases == 3504

    def test_cauchy_degree_eight_matches_per_shape_oracle(self):
        params = CylParams(3, 6)
        alpha, beta = part((1, 0, -1), params), part((0, 0, -1), params)
        lhs, rhs = cauchy_sides(alpha, beta, 8, 4, 4)
        assert (lhs, rhs) == cauchy_sides_per_shape(alpha, beta, 8, 4, 4)
        assert lhs is rhs and len(lhs.terms()) == 6864
        # the terms weakly decreasing within x and within y
        dominant = {e: c for e, c in lhs.terms() if all(e[i] >= e[i + 1] for i in (0, 1, 2, 4, 5, 6))}
        assert _expand(dominant, (4, 4)).terms() == expand_oracle(dominant, (4, 4)).terms()
        assert expand_oracle(dominant, (4, 4)) == lhs

    def test_equal_sides_share_one_expansion(self):
        # one instance of each bench identity class; skew reaches cauchy_sides
        # through the cylindric embeddings of its cross-check
        k3n6, k2n5 = CylParams(3, 6), CylParams(2, 5)
        reports = [
            verify_cauchy(part((2, 1, 0), k3n6), part((1, 1, 0), k3n6), 4, 3, 3),
            verify_cauchy(part((3, 1, 0), k3n6), part((2, 1, 0), k3n6), 5, 3, 3),
            verify_oneschur(part((2, 0), k2n5), 6, 4),
            verify_oneschur(part((3, 0), k2n5), 7, 4),
        ]
        for report in reports:
            assert report.equal and report.lhs is report.rhs and not report.lhs.is_zero()
        for a, b, d in (((1,), (2,), 2), ((2, 1), (1, 1), 3)):
            lower, upper = skew_reduction_cross_check(a, b, d, 2)
            assert lower.equal and upper.equal and lower.rhs is upper.rhs

    def test_embedding_sides_match_per_shape_oracle(self):
        # the regular pairs of the skew cross-check, at most degree - 1 boxes apart
        cases = 0
        for d in range(1, 4):
            for a in REGULAR:
                for b in REGULAR:
                    if max(excess_regular(a, b), excess_regular(b, a)) >= d:
                        continue
                    params = skew_reduction_embedding_params(a, b, d)
                    alpha = cyl_embed(regular_normalize(a), params)
                    beta = cyl_embed(regular_normalize(b), params)
                    sides = skew_reduction_embedding_sides(a, b, d, 2)
                    assert sides == cauchy_sides_per_shape(alpha, beta, d, 2, 2), (a, b, d)
                    cases += 1
        assert cases == 60

    def test_oneschur(self):
        assert verify_oneschur(part((0, 0)), 0, 2).equal
        assert verify_oneschur(part((0, 0)), 2, 2).equal
        assert verify_oneschur(part((1, 0)), 2, 2).equal

    def test_negative_budgets_rejected(self):
        alpha = part((0, 0))
        for call in (
            lambda: verify_cauchy(alpha, alpha, -1, 0, 0),
            lambda: verify_cauchy(alpha, alpha, 1, -1, 2),
            lambda: verify_cauchy(alpha, alpha, 1, 2, -1),
            lambda: verify_oneschur(alpha, -1, 2),
            lambda: verify_oneschur(alpha, 1, -1),
            lambda: verify_fcount(alpha, alpha, -1),
            lambda: verify_skew_reduction((), (), -1, 2),
            lambda: verify_skew_reduction((), (), 1, -1),
            lambda: skew_reduction_cross_check((), (), 1, -1),
        ):
            with pytest.raises(ValueError):
                call()

    def test_negative_counts_are_cyltab_errors(self):
        # A count must be an exact int: True would read as 1, and 2.0 fail deep inside.
        alpha = part((0, 0))
        for call in (
            lambda m: enumerate_inner(alpha, alpha, m),
            lambda m: enumerate_outer(alpha, alpha, m),
            lambda m: schur_poly(shape((0, 0), (0, 0)), m),
            lambda m: verify_cauchy(alpha, alpha, m, 2, 2),
            lambda m: verify_cauchy(alpha, alpha, 1, 2, m),
            lambda m: verify_oneschur(alpha, m, 2),
            lambda m: verify_fcount(alpha, alpha, m),
            lambda m: verify_skew_reduction((), (), 1, m),
            lambda m: skew_reduction_cross_check((), (), m, 2),
            lambda m: enumerate_ssct(shape((0, 0), (0, 0)), m),
            lambda m: enumerate_regular_ssyt((), (), m),
        ):
            with pytest.raises(CyltabError, match="must be nonnegative, got -2"):
                call(-2)
            for bad in (True, 2.0, "2"):
                with pytest.raises(EnumerationError, match=rf"must be an integer, got {bad!r}"):
                    call(bad)

    def test_fcount(self):
        assert verify_fcount(part((0, 0)), part((0, 0)), 1) == (1, 1)
        assert verify_fcount(part((0, 0)), part((0, 0)), 0) == (1, 1)
        assert verify_fcount(part((1, 0)), part((0, -1)), 0) == (0, 0)
        # |beta| < |alpha| - m: no mu has m boxes in alpha/mu and any in beta/mu
        assert verify_fcount(part((2, 1)), part((0, 0)), 1) == (0, 0)
        lhs, rhs = verify_fcount(part((1, 0)), part((0, 0)), 3)
        assert lhs == rhs

    def test_fcount_matches_per_shape_oracle_on_anchored_pairs(self):
        cases, zeros = 0, 0
        for params in iter_params(max_k=3, max_width=3):
            parts = anchored_partitions(params)
            for alpha in parts:
                for beta in parts:
                    for m in range(6):
                        got = verify_fcount(alpha, beta, m)
                        assert got == verify_fcount_per_shape_oracle(alpha, beta, m), (alpha, beta, m)
                        cases += 1
                        zeros += got == (0, 0)
        assert (cases, zeros) == (1062, 155)

    def test_fcount_matches_per_shape_oracle_on_close_pairs(self):
        """Windows ending in 0 at most two boxes apart, at m = 6..10."""
        cases = 0
        for params in (CylParams(2, 5), CylParams(3, 6), CylParams(3, 7)):
            ends = [
                CylPartition(params, tuple(p - w.window[-1] for p in w.window))
                for w in anchored_partitions(params)
            ]
            pairs = [
                (a, b)
                for a in ends
                for b in ends
                if sum(abs(x - y) for x, y in zip(a.window, b.window)) <= 2
            ]
            for m in range(6, 11):
                for alpha, beta in pairs:
                    lhs, rhs = verify_fcount(alpha, beta, m)
                    assert lhs > 0
                    assert (lhs, rhs) == verify_fcount_per_shape_oracle(alpha, beta, m), (alpha, beta, m)
                    cases += 1
        assert cases == 945

    def test_different_cylinders_rejected(self):
        alpha, other = part((0, 0)), part((0, 0), CylParams(2, 5))
        message = "^alpha and beta live on different cylinders$"
        with pytest.raises(ParamsMismatch, match=message):
            verify_fcount(alpha, other, 1)
        with pytest.raises(ParamsMismatch, match=message):
            verify_cauchy(alpha, other, 1, 1, 1)
        # The cylinder check comes before the count and budget checks.
        with pytest.raises(ParamsMismatch, match=message):
            verify_fcount(alpha, other, -1)
        with pytest.raises(ParamsMismatch, match=message):
            verify_cauchy(alpha, other, -1, 1, 1)
        for enumerate_shapes in (enumerate_inner, enumerate_outer):
            for m in (1, -1):
                with pytest.raises(ParamsMismatch, match=message):
                    enumerate_shapes(alpha, other, m)


class TestIdentityReport:
    def test_equal_report_has_no_mismatches(self):
        lhs = SparsePolynomial(2, {(1, 0): 1, (0, 1): 2})
        report = IdentityReport(lhs, SparsePolynomial(2, {(0, 1): 2, (1, 0): 1}))
        assert report.equal and report.mismatches == ()
        shared = IdentityReport(lhs, lhs)  # one polynomial on both sides
        assert shared.equal and shared.mismatches == ()

    def test_unequal_report_lists_every_mismatch_in_order(self):
        lhs = SparsePolynomial(2, {(2, 0): 3, (0, 1): 2, (1, 0): 1})
        rhs = SparsePolynomial(2, {(0, 2): 5, (1, 0): 4, (0, 1): 2})
        report = IdentityReport(lhs, rhs)
        assert not report.equal
        assert report.mismatches == (((0, 2), 0, 5), ((1, 0), 1, 4), ((2, 0), 3, 0))

    def test_reversed_variables_mismatch(self):
        # one side's variables reversed: the terms that differ, in exponent order
        lhs, rhs = cauchy_sides(part((1, 0)), part((0, 0)), 2, 1, 2)
        report = IdentityReport(lhs, SparsePolynomial(3, {e[::-1]: c for e, c in rhs.terms()}))
        assert not report.equal
        assert report.mismatches == (
            ((0, 0, 1), 0, 1),
            ((0, 1, 2), 0, 1),
            ((1, 0, 0), 1, 0),
            ((1, 0, 2), 0, 1),
            ((2, 0, 1), 1, 0),
            ((2, 1, 0), 1, 0),
        )


class TestSparsePolynomialConstructor:
    def test_zero_coefficients_are_dropped(self):
        p = SparsePolynomial(2, {(1, 0): 0, (0, 1): 3, (2, 0): 0})
        assert p.terms() == [((0, 1), 3)]
        assert SparsePolynomial(2, {(1, 0): 0}).is_zero()
        assert SparsePolynomial(2, {(1, 0): 0}) == SparsePolynomial(2)

    def test_arity_error_names_the_first_nonzero_offender(self):
        # zero terms are dropped before the check, so a bad-arity zero is ignored
        assert SparsePolynomial(2, {(1,): 0, (1, 1): 2}).terms() == [((1, 1), 2)]
        coeffs = {(1, 0): 1, (1,): 0, (1, 2, 3): 4, (2,): 5}
        with pytest.raises(PolynomialError, match=r"^exponent vector \(1, 2, 3\) has arity != 2$"):
            SparsePolynomial(2, coeffs)

    def test_the_callers_dict_is_copied(self):
        coeffs = {(1, 0): 1, (0, 1): 0}
        p = SparsePolynomial(2, coeffs)
        coeffs[(1, 0)] = 7
        coeffs[(2, 0)] = 1
        assert p.terms() == [((1, 0), 1)]
        assert coeffs == {(1, 0): 7, (0, 1): 0, (2, 0): 1}

    def test_counter_input_is_accepted(self):
        p = SparsePolynomial(2, Counter({(0, 1): 2, (1, 0): 1, (1, 1): 0}))
        assert p.terms() == [((0, 1), 2), ((1, 0), 1)]


class TestSparsePolynomialErrors:
    def test_exponent_arity_rejected(self):
        with pytest.raises(PolynomialError, match=r"^exponent vector \(1,\) has arity != 2$"):
            SparsePolynomial(2, {(1,): 1})

    def test_sum_arity_mismatch_rejected(self):
        with pytest.raises(PolynomialError, match="^arity mismatch: 1 vs 2$"):
            SparsePolynomial(1) + SparsePolynomial(2)

    def test_embed_into_smaller_arity_rejected(self):
        with pytest.raises(PolynomialError, match="^embedding does not fit the target arity$"):
            SparsePolynomial(2).embed(1)


class TestRegular:
    def test_skew_schur_examples(self):
        assert regular_skew_schur((1,), (), 2) == SparsePolynomial(2, {(1, 0): 1, (0, 1): 1})
        assert regular_skew_schur((2,), (), 2) == SparsePolynomial(
            2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}
        )
        assert regular_skew_schur((1, 1), (), 2) == SparsePolynomial(2, {(1, 1): 1})

    def test_ssyt_enumeration_counts(self):
        # hook shape (2,1): standard count 2 over exactly 3 letters with all distinct
        fillings = list(enumerate_regular_ssyt((2, 1), (), 3))
        assert len(fillings) == 8
        assert regular_skew_schur((2, 1), (), 3).coefficient((1, 1, 1)) == 2

    def test_inner_not_contained_is_a_cyltab_error(self):
        # raised at call time, before the fillings are iterated
        for outer, inner in (((1,), (2,)), ((2,), (1, 1)), ((), (1,))):
            with pytest.raises(CyltabError, match="inner not contained in outer"):
                enumerate_regular_ssyt(outer, inner, 2)

    def test_ssyt_matches_the_oracle_sweep(self):
        # same fillings in the same order: every inner inside every outer of at
        # most 7 boxes, 0-3 letters
        sizes = [p for size in range(8) for p in regular_partitions_of(size)]
        cases = 0
        for outer, inner in product(sizes, repeat=2):
            if len(inner) <= len(outer) and all(p <= q for p, q in zip(inner, outer)):
                for v in range(4):
                    want = list(enumerate_regular_ssyt_oracle(outer, inner, v))
                    assert list(enumerate_regular_ssyt(outer, inner, v)) == want, (outer, inner, v)
                    cases += 1
        assert cases == 1796

    def test_partitions_of(self):
        assert regular_partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert regular_partitions_of(0) == [()]
        assert regular_partitions_of(3, max_rows=2) == [(3,), (2, 1)]
        assert regular_partitions_of(3, max_rows=0) == []

    def test_windows_with_no_parts_meet_only_a_zero_total(self):
        assert list(_windows((), (), 0)) == [()]
        assert list(_windows((), (), 0, 0)) == [()]
        assert list(_windows((), (), 0, -1)) == []
        assert list(_windows((), (), 2, 2)) == []

    def test_one_enumerator_matches_the_three_it_replaced(self):
        # _windows as a regular enumerator: the mu and lam lists of
        # skew_reduction_sides for every pair of partitions inside (3, 2, 1)
        # and j = 0..3, and the partitions of each size 0..8 with at most
        # None, 1, 2 or 3 rows; a window as wide as its total never wraps
        inside = sorted({regular_normalize(p) for p in product(range(4), range(3), range(2)) if p[0] >= p[1] >= p[2]})
        assert len(inside) == 14

        def regular(lo, hi, total):
            return sorted(regular_normalize(w) for w in _windows(lo, hi, total, total))

        cases = 0
        for a, b in product(inside, repeat=2):
            pairs = list(zip_longest(a, b, fillvalue=0))
            cap = tuple(min(p) for p in pairs)
            base = tuple(max(p) for p in pairs)
            for j in range(4):
                size = sum(b) + j
                assert regular((0,) * len(cap), cap, sum(a) - j) == sorted(regular_subpartitions_oracle(cap, a, j))
                assert regular(base + (0,) * j, (size,) * (len(base) + j), size) == sorted(
                    regular_superpartitions_oracle(base, b, j)
                )
                cases += 1
        for size in range(9):
            for max_rows in (None, 1, 2, 3):
                assert regular_partitions_of(size, max_rows) == regular_partitions_of_oracle(size, max_rows)
                cases += 1
        assert cases == 14 * 14 * 4 + 9 * 4

    def test_skew_reduction(self):
        assert verify_skew_reduction((), (), 1, 2).equal
        assert verify_skew_reduction((), (), 0, 2).equal
        assert verify_skew_reduction((1,), (), 2, 2).equal

    def test_non_partition_is_a_geometry_error(self):
        with pytest.raises(GeometryError):
            verify_skew_reduction((1, 2), (), 1, 2)

    def test_skew_reduction_cross_check(self):
        lhs_rep, rhs_rep = skew_reduction_cross_check((1,), (), 1, 2)
        assert lhs_rep.equal and rhs_rep.equal

    def test_sides_match_the_algebra_oracle(self):
        # every pair of REGULAR at degrees 0-3 with 2 variables and 0-2 with 3
        cases = 0
        for a, b in product(REGULAR, repeat=2):
            for num_vars, degrees in ((2, range(4)), (3, range(3))):
                for d in degrees:
                    got = skew_reduction_sides(a, b, d, num_vars)
                    assert got == skew_reduction_sides_oracle(a, b, d, num_vars), (a, b, d, num_vars)
                    cases += 1
        assert cases == 36 * 7

    def test_cross_check_sweep_matches_the_algebra_oracle(self):
        # the pairs of the embedding sweep: both regular sides equal the oracle's
        # and the cylindric embedding's
        cases = 0
        for d in range(1, 4):
            for a, b in product(REGULAR, repeat=2):
                if max(excess_regular(a, b), excess_regular(b, a)) >= d:
                    continue
                lhs_rep, rhs_rep = skew_reduction_cross_check(a, b, d, 2)
                assert (lhs_rep.lhs, rhs_rep.lhs) == skew_reduction_sides_oracle(a, b, d, 2), (a, b, d)
                assert lhs_rep.equal and rhs_rep.equal, (a, b, d)
                cases += 1
        assert cases == 60


class TestTableauxByShape:
    def test_inner_outer_counts_agree(self):
        mu = part((0, 0))
        for t_letters in (1, 2):
            inner_count = len(enumerate_tableaux_with_inner(mu, t_letters))
            outer_count = len(enumerate_tableaux_with_outer(mu, t_letters))
            assert inner_count == outer_count
