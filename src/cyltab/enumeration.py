"""Exhaustive enumerators and exact verification of the Schur-type identities.

Everything here is exact integer combinatorics. One window enumerator lists shapes,
one pruned filler lists tableaux (regular ones on a cylinder wider than any part).
Schur polynomials and standard counts are chains of window moves, a horizontal strip
or one box per step, run once per identity family and compared coefficientwise.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, product, starmap
from operator import add, lt
from typing import Iterable, Iterator, Sequence

from .errors import CyltabError, exact_ints
from .geometry import (
    CylParams,
    CylPartition,
    GeometryError,
    ParamsMismatch,
    SkewShape,
    cyl_embed,
    flip_partition,
    flip_window,
    project,  # noqa: F401  (no longer called here; bench/tracer.py rebinds it)
)
from .polynomials import IdentityReport, SparsePolynomial
from .tableau import CylTableau

Terms = dict[tuple[int, ...], int]  # exponent vector -> coefficient


class EnumerationError(CyltabError):
    """A count or shape the enumerators cannot take."""


def _require_nonnegative(**counts: int) -> None:
    for name, value in counts.items():
        if not exact_ints(value):
            raise EnumerationError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise EnumerationError(f"{name} must be nonnegative, got {value}")


def _windows(
    lo: Sequence[int], hi: Sequence[int], width: int, total: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All valid windows w with lo[i] <= w[i] <= hi[i], in lexicographic order.

    w has k = len(lo) parts and period width. A regular partition with at most k
    rows is a window for any width at least its largest part: the wrap never binds.
    With a total, only windows with sum(w) == total: each part's range is clamped
    so that the parts after it can still make up the total.
    """
    k = len(lo)
    tail_lo = [sum(lo[i + 1 :]) for i in range(k)]
    tail_hi = [sum(hi[i + 1 :]) for i in range(k)]
    prefix: list[int] = []

    def rec(i: int, acc: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            if total is None or acc == total:
                yield tuple(prefix)
            return
        upper = min(hi[i], prefix[i - 1]) if i else hi[i]
        lower = lo[i]
        if i == k - 1 and k > 1:
            lower = max(lower, prefix[0] - width)
        if total is not None:
            lower = max(lower, total - acc - tail_hi[i])
            upper = min(upper, total - acc - tail_lo[i])
        for v in range(lower, upper + 1):
            prefix.append(v)
            yield from rec(i + 1, acc + v)
            prefix.pop()

    # For k == 1 the wrap bound always holds; for k == 0 only the leaf test checks the total.
    yield from rec(0, 0)


def enumerate_inner(
    alpha: CylPartition, beta: CylPartition, m: int
) -> list[CylPartition]:
    """All mu contained in both alpha and beta with exactly m boxes in alpha/mu."""
    if alpha.params != beta.params:
        raise ParamsMismatch("alpha and beta live on different cylinders")
    _require_nonnegative(m=m)
    params = alpha.params
    lo, hi = [p - m for p in alpha.window], list(map(min, alpha.window, beta.window))
    return [CylPartition(params, w) for w in _windows(lo, hi, params.width, sum(alpha.window) - m)]


def enumerate_outer(
    alpha: CylPartition, beta: CylPartition, m: int
) -> list[CylPartition]:
    """All lam containing both alpha and beta with exactly m boxes in lam/beta.

    The rotation reverses containment and keeps skew sizes, so these are the
    rotations of enumerate_inner(flip(beta), flip(alpha), m), in window order.
    """
    inner = enumerate_inner(flip_partition(beta), flip_partition(alpha), m)
    return sorted(map(flip_partition, inner), key=lambda lam: lam.window)


def _fillings(
    inner: Sequence[int], outer: Sequence[int], width: int, num_letters: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Semistandard row fillings of the window outer / inner over {1..num_letters}.

    Row r holds columns inner[r]+1 .. outer[r]. Cells are filled row-major, each
    bounded by its left neighbour and by whichever column neighbours are already
    filled: the box above (0, c) is (k-1, c - width) and the box below (k-1, c)
    is (0, c + width), in the same row when k = 1. The output order is
    lexicographic on the row-major entry vector. The count is checked at call
    time; the fillings come lazily.
    """
    _require_nonnegative(num_letters=num_letters)
    k = len(inner)
    cells = [(r, c) for r in range(k) for c in range(inner[r] + 1, outer[r] + 1)]
    index = {cell: i for i, cell in enumerate(cells)}
    # Flat indices of (left, above, below); index -2 reads 0 and -1 reads
    # num_letters + 1, so a missing or not yet filled neighbour binds nothing.
    bounds = []
    for i, (r, c) in enumerate(cells):
        above = index.get((r - 1, c) if r else (k - 1, c - width), -2)
        below = index.get((r + 1, c) if r < k - 1 else (0, c + width), -1)
        left = i - 1 if c > inner[r] + 1 else -2
        bounds.append((left, above if above < i else -2, below if below < i else -1))
    vals = [0] * len(cells) + [0, num_letters + 1]
    cuts = list(accumulate((hi - lo for lo, hi in zip(inner, outer)), initial=0))

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(cells):
            yield tuple(tuple(vals[a:b]) for a, b in zip(cuts, cuts[1:]))
            return
        left, above, below = bounds[i]
        for v in range(max(vals[left], vals[above] + 1), vals[below]):
            vals[i] = v
            yield from rec(i + 1)

    return rec(0)


def enumerate_ssct(shape: SkewShape, num_letters: int) -> list[CylTableau]:
    """All semistandard fillings over {1..num_letters}, lexicographic row-major."""
    fillings = _fillings(shape.inner.window, shape.outer.window, shape.params.width, num_letters)
    return [CylTableau(shape, rows) for rows in fillings]


def _box_chains(
    start: Sequence[int], steps: int, width: int, bound: Sequence[int]
) -> dict[tuple[int, ...], int]:
    """Map each window reached from start by steps one-box removals to its number of chains.

    Row i shrinks while w[i] > max(w[i+1], bound[i]), w[k] read as w[0] - width.
    """
    states = {tuple(start): 1}
    for _ in range(steps):
        successors: dict[tuple[int, ...], int] = {}
        for w, chains in states.items():
            nbrs = w[1:] + (w[0] - width,)
            for i, v in enumerate(w):
                if v > nbrs[i] and v > bound[i]:
                    nxt = w[:i] + (v - 1,) + w[i + 1 :]
                    successors[nxt] = successors.get(nxt, 0) + chains
        states = successors
    return states


def count_standard(shape: SkewShape) -> int:
    """Number of standard fillings: chains of one-box removals down from outer to inner."""
    inner = shape.inner.window
    return _box_chains(shape.outer.window, shape.size(), shape.params.width, inner).get(inner, 0)


def _strip_chains(
    start: tuple[int, ...], num_vars: int, width: int, budget: int, bound: Sequence[int]
) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Count the chains of num_vars cylindric horizontal strips removed from the window start.

    Maps each window at most budget boxes below start to {exponent vector:
    number of chains}. A step removes a strip rho / nu with
    max(rho[i+1], bound[i]) <= nu[i] <= rho[i], rho[k] read as rho[0] - width;
    these bounds also make each window valid. Letters go last first, so each new
    exponent is prepended. Only weakly decreasing (dominant) vectors are counted;
    their suffixes are dominant too. That is exact: a window's polynomial is a
    cylindric skew Schur polynomial, which is symmetric (Gessel-Krattenthaler
    1997; Postnikov 2005), so _expand recovers its other terms.
    """
    base = sum(start)
    states = {start: {(): 1}}
    for step in range(num_vars):
        successors: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for cur, suffixes in states.items():
            size = sum(cur)
            slack = (budget - base + size) // (num_vars - step)  # later strips are no smaller
            below = zip(cur, cur[1:] + (cur[0] - width,), bound)
            for nxt in product(*[range(max(r, f, c - slack), c + 1) for c, r, f in below]):
                d = size - sum(nxt)
                if d > slack:
                    continue
                for ex, c in suffixes.items():
                    if not ex or ex[0] <= d:
                        ex = (d,) + ex
                        chains = successors.setdefault(nxt, {})
                        chains[ex] = chains.get(ex, 0) + c
        states = successors
    return states


@lru_cache(maxsize=1024)  # blocks recur across the keys of an expansion and across calls
def _arrangements(e: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct rearrangements of e: each distinct letter first, then the rest."""
    rest = {x: e[:i] + e[i + 1 :] for i, x in enumerate(e)}  # e less one x, still sorted
    return tuple((x,) + r for x, others in rest.items() for r in _arrangements(others)) or ((),)


def _expand(dominant: Terms, blocks: Sequence[int]) -> SparsePolynomial:
    """The polynomial, symmetric in each block of variables, with these dominant terms.

    Each key, weakly decreasing within each block (consecutive runs of the given
    lengths), gives its coefficient to every block-wise rearrangement of itself.
    """
    cuts = list(accumulate(blocks, initial=0))
    expanded: dict[tuple[int, ...], int] = {}
    for e, c in dominant.items():
        keys = ((),)
        for i, j in zip(cuts, cuts[1:]):
            keys = starmap(add, product(keys, _arrangements(e[i:j])))
        expanded.update(dict.fromkeys(keys, c))
    return SparsePolynomial(cuts[-1], expanded)


def _expand_sides(
    lhs: Terms, rhs: Terms, blocks: Sequence[int]
) -> tuple[SparsePolynomial, SparsePolynomial]:
    """Expand both sides; equal dominant dicts give one shared polynomial."""
    left = _expand(lhs, blocks)
    return left, left if rhs == lhs else _expand(rhs, blocks)


def _pair(acc: Terms, xs: Terms, ys: Terms) -> None:
    """Add each product of an x term and a y term to acc, keyed by the exponents ex + ey."""
    for ey, cy in ys.items():
        for ex, cx in xs.items():
            e = ex + ey
            acc[e] = acc.get(e, 0) + cx * cy


def schur_poly(shape: SkewShape, num_vars: int) -> SparsePolynomial:
    """Truncated Schur polynomial: sum of weight monomials over all fillings.

    A filling over {1..v} is a chain inner = nu_0 <= ... <= nu_v = outer of
    horizontal strips (letter j fills nu_j / nu_(j-1)): a strip chain down from outer.
    """
    _require_nonnegative(num_vars=num_vars)
    inner = shape.inner.window
    chains = _strip_chains(shape.outer.window, num_vars, shape.params.width, shape.size(), inner)
    return _expand(chains.get(inner, {}), (num_vars,))


def cauchy_sides(
    alpha: CylPartition,
    beta: CylPartition,
    max_degree: int,
    num_vars_x: int,
    num_vars_y: int,
) -> tuple[SparsePolynomial, SparsePolynomial]:
    """Both sides of the cylindric Cauchy identity, truncated by x-degree.

    Each family shares its top (every s(alpha/mu) starts at alpha; every s(lam/beta)
    is counted on its rotation flip(beta) / flip(lam), which has the same polynomial),
    so it is one strip-chain DP down from there. A side pairs its families' dominant
    x and y terms on the windows mu (or flip(lam)) both reach, then expands once,
    since each product is symmetric in x and in y; equal sides share one expansion.
    """
    if alpha.params != beta.params:
        raise ParamsMismatch("alpha and beta live on different cylinders")
    _require_nonnegative(max_degree=max_degree, num_vars_x=num_vars_x, num_vars_y=num_vars_y)
    a, b, width = alpha.window, beta.window, alpha.params.width
    vx, vy, d = num_vars_x, num_vars_y, max_degree
    d_y = sum(b) - sum(a) + d  # |beta/mu| = |alpha/mu| + |beta| - |alpha|, as for lam
    sides = []
    for x_from, y_from in ((a, b), (flip_window(b, width), flip_window(a, width))):
        bound = [p - d for p in x_from]
        ys = _strip_chains(y_from, vy, width, d_y, bound)
        acc: Terms = {}
        for window, xterms in _strip_chains(x_from, vx, width, d, bound).items():
            _pair(acc, xterms, ys.get(window, {}))
        sides.append(acc)
    return _expand_sides(*sides, (vx, vy))


def verify_cauchy(
    alpha: CylPartition,
    beta: CylPartition,
    max_degree: int,
    num_vars_x: int,
    num_vars_y: int,
) -> IdentityReport:
    """Check the two-shape summation identity exactly up to the degree budget.

    Only finitely many inner shapes mu and outer shapes lam contribute terms
    of x-degree at most max_degree; both sums are computed exactly over those
    and compared coefficientwise.
    """
    lhs, rhs = cauchy_sides(alpha, beta, max_degree, num_vars_x, num_vars_y)
    return IdentityReport(lhs, rhs)


def verify_oneschur(alpha: CylPartition, max_degree: int, num_vars: int) -> IdentityReport:
    """Check the one-shape summation identity exactly up to the degree budget."""
    _require_nonnegative(max_degree=max_degree, num_vars=num_vars)
    width, d = alpha.params.width, max_degree
    lhs, rhs = Counter(), Counter()
    # each s(lam/alpha) is counted on its rotation flip(alpha) / flip(lam)
    for side, start in ((lhs, alpha.window), (rhs, flip_window(alpha.window, width))):
        for terms in _strip_chains(start, num_vars, width, d, [p - d for p in start]).values():
            side.update(terms)
    return IdentityReport(*_expand_sides(lhs, rhs, (num_vars,)))


def verify_fcount(alpha: CylPartition, beta: CylPartition, m: int) -> tuple[int, int]:
    """Standard-count identity: sum f(alpha/mu) f(beta/mu) against sum f(lam/alpha) f(lam/beta).

    As in cauchy_sides, each family is one _box_chains run down from the partition it
    shares, an upper family f(lam/beta) on its rotation flip(beta) / flip(lam), paired
    on the windows both runs reach: the mu above alpha - m, the flip(lam) above flip(beta) - m.
    """
    if alpha.params != beta.params:
        raise ParamsMismatch("alpha and beta live on different cylinders")
    _require_nonnegative(m=m)
    a, b, width = alpha.window, beta.window, alpha.params.width
    m_y = sum(b) - sum(a) + m  # |beta/mu| = |alpha/mu| + |beta| - |alpha|, as for lam
    sides = []
    for x, y in ((a, b), (flip_window(b, width), flip_window(a, width))):
        bound = [p - m for p in x]
        ys = _box_chains(y, m_y, width, bound)
        sides.append(sum(c * ys.get(w, 0) for w, c in _box_chains(x, m, width, bound).items()))
    return sides[0], sides[1]


# ---------------------------------------------------------------------------
# Regular (non-cylindric) partitions, for the skew reduction identity.


def regular_normalize(parts: Iterable[int]) -> tuple[int, ...]:
    ps = tuple(parts)
    if not exact_ints(*ps):
        raise GeometryError(f"partition parts must be integers, got {ps}")
    if any(map(lt, ps, ps[1:])) or min(ps, default=0) < 0:
        raise GeometryError(f"{ps} is not a partition")
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    return ps


def enumerate_regular_ssyt(
    outer: tuple[int, ...], inner: tuple[int, ...], num_letters: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Row fillings of a regular skew shape: rows weakly, columns strictly increase.

    The shape is filled as a cylindric window as wide as its first row, so the
    wrap never binds. Bad input raises at call time; the fillings come lazily.
    """
    outer = regular_normalize(outer)
    inner = regular_normalize(inner)
    if len(inner) > len(outer) or any(p > q for p, q in zip(inner, outer)):
        raise EnumerationError("inner not contained in outer")
    inner += (0,) * (len(outer) - len(inner))
    return _fillings(inner, outer, max(outer, default=0), num_letters)


def _regular_counts(outer: tuple[int, ...], inner: tuple[int, ...], num_vars: int) -> Terms:
    """{exponent vector: number of fillings} of a regular skew shape, by enumeration."""
    counts: Terms = {}
    for rows in enumerate_regular_ssyt(outer, inner, num_vars):
        e = tuple(map(sum(rows, ()).count, range(1, num_vars + 1)))
        counts[e] = counts.get(e, 0) + 1
    return counts


def regular_skew_schur(
    outer: Iterable[int], inner: Iterable[int], num_vars: int
) -> SparsePolynomial:
    """Schur polynomial of a regular skew shape: the filling counts skew_reduction_sides pairs."""
    return SparsePolynomial(num_vars, _regular_counts(tuple(outer), tuple(inner), num_vars))


def skew_reduction_sides(
    alpha: Iterable[int], beta: Iterable[int], max_degree: int, num_vars: int
) -> tuple[SparsePolynomial, SparsePolynomial]:
    """Both sides of the regular-partition reduction identity, x-degree truncated.

    Every skew Schur count comes from one generator, enumerate_regular_ssyt, paired
    in x and y straight into exponent keys. The left side is the sum of s(alpha/mu)(x)
    s(beta/mu)(y), of x-degree j = |alpha/mu|, times the sum of s(gamma)(x) s(gamma)(y),
    of x-degree g = |gamma|; both are kept by degree, and only j + g <= max_degree is
    multiplied. The right side sums s(lam/beta)(x) s(lam/alpha)(y), |lam/beta| = j.
    """
    _require_nonnegative(max_degree=max_degree, num_vars=num_vars)
    a = regular_normalize(alpha)
    b = regular_normalize(beta)
    rows = max(len(a), len(b))
    a, b = (p + (0,) * (rows - len(p)) for p in (a, b))
    v, d = num_vars, max_degree
    cap, base = tuple(map(min, a, b)), tuple(map(max, a, b))
    diag: list[Terms] = [{} for _ in range(d + 1)]  # by g; each gamma as a v-part window
    for g, terms in enumerate(diag):
        for gamma in _windows((0,) * v, (g,) * v, g, g):
            s = _regular_counts(gamma, (), v)
            _pair(terms, s, s)
    lhs: Terms = {}
    rhs: Terms = {}
    for j in range(d + 1):
        pair_sum: Terms = {}  # the pairs of x-degree j
        size = sum(a) - j
        for mu in _windows((0,) * rows, cap, size, size):
            _pair(pair_sum, _regular_counts(a, mu, v), _regular_counts(b, mu, v))
        for terms in diag[: d + 1 - j]:
            for e2, c2 in terms.items():
                for e1, c1 in pair_sum.items():
                    e = tuple(map(add, e1, e2))
                    lhs[e] = lhs.get(e, 0) + c1 * c2
        size = sum(b) + j
        for lam in _windows(base + (0,) * j, (size,) * (rows + j), size, size):
            _pair(rhs, _regular_counts(lam, b, v), _regular_counts(lam, a, v))
    return SparsePolynomial(2 * v, lhs), SparsePolynomial(2 * v, rhs)


def verify_skew_reduction(
    alpha: Iterable[int], beta: Iterable[int], max_degree: int, num_vars: int
) -> IdentityReport:
    """Check the regular-partition reduction identity up to the degree budget."""
    lhs, rhs = skew_reduction_sides(alpha, beta, max_degree, num_vars)
    return IdentityReport(lhs, rhs)


def skew_reduction_embedding_params(
    alpha: Iterable[int], beta: Iterable[int], max_degree: int
) -> CylParams:
    """Cylinder parameters large enough to embed the regular identity at this degree."""
    a = regular_normalize(alpha)
    b = regular_normalize(beta)
    k = max(len(a), len(b)) + 2 * max_degree + 1
    n = k + max(a[:1] + b[:1], default=0) + 2 * max_degree + 1
    return CylParams(k, n)


def skew_reduction_embedding_sides(
    alpha: Iterable[int], beta: Iterable[int], max_degree: int, num_vars: int
) -> tuple[SparsePolynomial, SparsePolynomial]:
    """The Cauchy sides of the cylindric embeddings of alpha and beta."""
    a = regular_normalize(alpha)
    b = regular_normalize(beta)
    params = skew_reduction_embedding_params(a, b, max_degree)
    return cauchy_sides(
        cyl_embed(a, params), cyl_embed(b, params), max_degree, num_vars, num_vars
    )


def skew_reduction_cross_check(
    alpha: Iterable[int], beta: Iterable[int], max_degree: int, num_vars: int
) -> tuple[IdentityReport, IdentityReport]:
    """Compare the regular identity sides against their cylindric embeddings."""
    a = regular_normalize(alpha)
    b = regular_normalize(beta)
    lhs_reg, rhs_reg = skew_reduction_sides(a, b, max_degree, num_vars)
    lhs_cyl, rhs_cyl = skew_reduction_embedding_sides(a, b, max_degree, num_vars)
    return IdentityReport(lhs_reg, lhs_cyl), IdentityReport(rhs_reg, rhs_cyl)
