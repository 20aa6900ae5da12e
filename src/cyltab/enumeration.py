"""Exhaustive enumerators and exact verification of the Schur-type identities.

Everything here is exact integer combinatorics: shapes are enumerated within
degree budgets, tableaux by pruned backtracking, and both sides of each
identity are compared coefficient by coefficient.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Iterable, Iterator, Sequence

from .geometry import (
    Box,
    CylParams,
    CylPartition,
    GeometryError,
    ParamsMismatch,
    Point,
    SkewShape,
    cyl_embed,
    project,
    skew_boxes,
)
from .polynomials import IdentityReport, SparsePolynomial
from .tableau import CylTableau


def _require_nonnegative(**counts: int) -> None:
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _windows(
    lo: Sequence[int], hi: Sequence[int], params: CylParams, total: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All valid partition windows w with lo[i] <= w[i] <= hi[i], in lexicographic order.

    With a total, only windows with sum(w) == total: each part's range is
    clamped so that the parts after it can still make up the total.
    """
    k, width = params.k, params.width
    tail_lo = [sum(lo[i + 1 :]) for i in range(k)]
    tail_hi = [sum(hi[i + 1 :]) for i in range(k)]
    prefix: list[int] = []

    def rec(i: int, acc: int) -> Iterator[tuple[int, ...]]:
        if i == k:
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

    # For k == 1 the wrap constraint w[0] >= w[0] - width always holds.
    yield from rec(0, 0)


def enumerate_inner(
    alpha: CylPartition, beta: CylPartition, m: int
) -> list[CylPartition]:
    """All mu contained in both alpha and beta with exactly m boxes in alpha/mu."""
    if alpha.params != beta.params:
        raise ParamsMismatch("alpha and beta live on different cylinders")
    _require_nonnegative(m=m)
    params = alpha.params
    lo = [alpha.window[i] - m for i in range(params.k)]
    hi = [min(a, b) for a, b in zip(alpha.window, beta.window)]
    return [CylPartition(params, w) for w in _windows(lo, hi, params, sum(alpha.window) - m)]


def enumerate_outer(
    alpha: CylPartition, beta: CylPartition, m: int
) -> list[CylPartition]:
    """All lam containing both alpha and beta with exactly m boxes in lam/beta."""
    if alpha.params != beta.params:
        raise ParamsMismatch("alpha and beta live on different cylinders")
    _require_nonnegative(m=m)
    params = alpha.params
    lo = [max(a, b) for a, b in zip(alpha.window, beta.window)]
    hi = [beta.window[i] + m for i in range(params.k)]
    return [CylPartition(params, w) for w in _windows(lo, hi, params, sum(beta.window) + m)]


def enumerate_ssct(shape: SkewShape, num_letters: int) -> list[CylTableau]:
    """All semistandard fillings over the alphabet {1..num_letters}.

    Cells are filled row-major with pruning; each adjacency (including the
    periodic wrap) is checked as soon as both of its cells are assigned, so
    the output order is lexicographic on the row-major entry vector.
    """
    params = shape.params
    k = params.k
    cells: list[Box] = []
    for r in range(k):
        lo, hi = shape.row_interval(r)
        cells.extend(Box(r, c) for c in range(lo + 1, hi + 1))
    in_shape = set(cells)
    assigned: dict[Box, int] = {}
    out: list[CylTableau] = []
    rows: list[list[int]] = [[] for _ in range(k)]

    def ok(b: Box, val: int) -> bool:
        if rows[b.row] and val < rows[b.row][-1]:
            return False
        up = project(Point(b.row - 1, b.col), params)
        if up in in_shape and up in assigned and assigned[up] >= val:
            return False
        down = project(Point(b.row + 1, b.col), params)
        if down in in_shape and down in assigned and val >= assigned[down]:
            return False
        return True

    def rec(i: int) -> None:
        if i == len(cells):
            out.append(CylTableau(shape, tuple(tuple(r) for r in rows)))
            return
        b = cells[i]
        for val in range(1, num_letters + 1):
            if ok(b, val):
                assigned[b] = val
                rows[b.row].append(val)
                rec(i + 1)
                rows[b.row].pop()
                del assigned[b]

    rec(0)
    return out


def count_standard(shape: SkewShape) -> int:
    """Number of standard fillings, counted as linear extensions of the box order."""
    params = shape.params
    boxes = sorted(skew_boxes(shape), key=lambda b: (b.row, b.col))
    m = len(boxes)
    if m == 0:
        return 1
    index = {b: i for i, b in enumerate(boxes)}
    prereq = []
    for b in boxes:
        mask = 0
        for nb in (Box(b.row, b.col - 1), project(Point(b.row - 1, b.col), params)):
            if nb in index:
                mask |= 1 << index[nb]
        prereq.append(mask)
    full = (1 << m) - 1
    memo: dict[int, int] = {full: 1}

    def rec(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        total = 0
        for i in range(m):
            bit = 1 << i
            if not mask & bit and (prereq[i] & mask) == prereq[i]:
                total += rec(mask | bit)
        memo[mask] = total
        return total

    return rec(0)


def schur_poly(shape: SkewShape, num_vars: int) -> SparsePolynomial:
    """Truncated Schur polynomial: sum of weight monomials over all fillings.

    A filling over {1..v} is a chain inner = nu_0 <= ... <= nu_v = outer of
    horizontal strips (letter j fills nu_j / nu_(j-1)), so fillings are counted
    by a DP mapping each window nu_j to {exponent prefix: number of chains}.
    """
    _require_nonnegative(num_vars=num_vars)
    lam, width = shape.outer.window, shape.params.width
    states = {shape.inner.window: {(): 1}}
    # rho / nu is a strip inside lam iff nu[i] <= rho[i] <= min(lam[i], nu[i-1]),
    # with nu[-1] read as nu[k-1] + width; these bounds also make rho a window.
    # With r letters left after this one, rho[i] >= lam[i+r] keeps only the
    # windows from which lam is still reachable; r = 0 forces rho = lam.
    for r in reversed(range(num_vars)):
        floor = [shape.outer.part(i + r) for i in range(len(lam))]
        successors = {}
        for nu, prefixes in states.items():
            size = sum(nu)
            ranges = [
                range(a if a > f else f, (b if b < c else c) + 1)
                for a, f, b, c in zip(nu, floor, lam, (nu[-1] + width,) + nu[:-1])
            ]
            for rho in product(*ranges):
                d = (sum(rho) - size,)
                chains = successors.setdefault(rho, {})
                for ex, c in prefixes.items():
                    ex += d
                    chains[ex] = chains.get(ex, 0) + c
        states = successors
    return SparsePolynomial(num_vars, states.get(lam))


def _pair_sum(
    shapes: Iterable[tuple[SkewShape, SkewShape]], vx: int, vy: int
) -> SparsePolynomial:
    """Sum of s(sx; x) * s(sy; y) over the pairs, in disjoint variables x, y."""
    acc: dict[tuple[int, ...], int] = {}
    for sx, sy in shapes:
        ys = schur_poly(sy, vy).terms()
        for ex, cx in schur_poly(sx, vx).terms():
            for ey, cy in ys:
                e = ex + ey
                acc[e] = acc.get(e, 0) + cx * cy
    return SparsePolynomial(vx + vy, acc)


def cauchy_sides(
    alpha: CylPartition,
    beta: CylPartition,
    max_degree: int,
    num_vars_x: int,
    num_vars_y: int,
) -> tuple[SparsePolynomial, SparsePolynomial]:
    """Both sides of the cylindric Cauchy identity, truncated by x-degree."""
    _require_nonnegative(max_degree=max_degree, num_vars_x=num_vars_x, num_vars_y=num_vars_y)
    lhs_shapes = [
        (SkewShape(alpha, mu), SkewShape(beta, mu))
        for j in range(max_degree + 1)
        for mu in enumerate_inner(alpha, beta, j)
    ]
    rhs_shapes = [
        (SkewShape(lam, beta), SkewShape(lam, alpha))
        for j in range(max_degree + 1)
        for lam in enumerate_outer(alpha, beta, j)
    ]
    return (
        _pair_sum(lhs_shapes, num_vars_x, num_vars_y),
        _pair_sum(rhs_shapes, num_vars_x, num_vars_y),
    )


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


def verify_oneschur(
    alpha: CylPartition, max_degree: int, num_vars: int
) -> IdentityReport:
    """Check the one-shape summation identity exactly up to the degree budget."""
    _require_nonnegative(max_degree=max_degree, num_vars=num_vars)
    lhs, rhs = Counter(), Counter()
    for j in range(max_degree + 1):
        for mu in enumerate_inner(alpha, alpha, j):
            lhs.update(dict(schur_poly(SkewShape(alpha, mu), num_vars).terms()))
        for lam in enumerate_outer(alpha, alpha, j):
            rhs.update(dict(schur_poly(SkewShape(lam, alpha), num_vars).terms()))
    return IdentityReport(SparsePolynomial(num_vars, lhs), SparsePolynomial(num_vars, rhs))


def verify_fcount(alpha: CylPartition, beta: CylPartition, m: int) -> tuple[int, int]:
    """Standard-count identity: paired counts over inner and outer shapes."""
    lhs = sum(
        count_standard(SkewShape(alpha, mu)) * count_standard(SkewShape(beta, mu))
        for mu in enumerate_inner(alpha, beta, m)
    )
    rhs = sum(
        count_standard(SkewShape(lam, alpha)) * count_standard(SkewShape(lam, beta))
        for lam in enumerate_outer(alpha, beta, m)
    )
    return lhs, rhs


def enumerate_tableaux_with_inner(
    mu: CylPartition, num_letters: int
) -> list[CylTableau]:
    """All tableaux with the given inner shape over {1..num_letters}."""
    params = mu.params
    k = params.k
    lo = list(mu.window)
    hi = [mu.part(i - num_letters) for i in range(k)]
    out = []
    for w in _windows(lo, hi, params):
        lam = CylPartition(params, w)
        out.extend(enumerate_ssct(SkewShape(lam, mu), num_letters))
    return out


def enumerate_tableaux_with_outer(
    lam: CylPartition, num_letters: int
) -> list[CylTableau]:
    """All tableaux with the given outer shape over {1..num_letters}."""
    params = lam.params
    k = params.k
    lo = [lam.part(i + num_letters) for i in range(k)]
    hi = list(lam.window)
    out = []
    for w in _windows(lo, hi, params):
        mu = CylPartition(params, w)
        out.extend(enumerate_ssct(SkewShape(lam, mu), num_letters))
    return out


# ---------------------------------------------------------------------------
# Regular (non-cylindric) partitions, for the skew reduction identity.


def regular_normalize(parts: Iterable[int]) -> tuple[int, ...]:
    ps = tuple(parts)
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)) or any(p < 0 for p in ps):
        raise GeometryError(f"{ps} is not a partition")
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    return ps


def _regular_part(parts: tuple[int, ...], i: int) -> int:
    return parts[i] if i < len(parts) else 0


def enumerate_regular_ssyt(
    outer: tuple[int, ...], inner: tuple[int, ...], num_letters: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Row fillings of a regular skew shape: rows weakly, columns strictly increase."""
    outer = regular_normalize(outer)
    inner = regular_normalize(inner)
    if any(_regular_part(inner, i) > _regular_part(outer, i) for i in range(len(outer))):
        raise ValueError("inner not contained in outer")
    nrows = len(outer)
    rows: list[list[int]] = [[] for _ in range(nrows)]

    def rec(r: int, c: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == nrows:
            yield tuple(tuple(row) for row in rows)
            return
        lo, hi = _regular_part(inner, r), outer[r]
        if c > hi:
            yield from rec(r + 1, _regular_part(inner, r + 1) + 1 if r + 1 < nrows else 0)
            return
        lower = 1
        if c > lo + 1:
            lower = rows[r][-1]
        if r > 0 and _regular_part(inner, r - 1) < c <= outer[r - 1]:
            lower = max(lower, rows[r - 1][c - _regular_part(inner, r - 1) - 1] + 1)
        for val in range(lower, num_letters + 1):
            rows[r].append(val)
            yield from rec(r, c + 1)
            rows[r].pop()

    start = _regular_part(inner, 0) + 1 if nrows else 0
    if nrows == 0:
        yield ()
    else:
        yield from rec(0, start)


def regular_skew_schur(
    outer: Iterable[int], inner: Iterable[int], num_vars: int
) -> SparsePolynomial:
    """Schur polynomial of a regular skew shape by direct enumeration."""
    counts: Counter[tuple[int, ...]] = Counter()
    for rows in enumerate_regular_ssyt(tuple(outer), tuple(inner), num_vars):
        exps = [0] * num_vars
        for row in rows:
            for v in row:
                exps[v - 1] += 1
        counts[tuple(exps)] += 1
    return SparsePolynomial(num_vars, counts)


def regular_partitions_of(size: int, max_rows: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of the given size, optionally with bounded row count."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_rows is not None and len(prefix) == max_rows:
            return
        for v in range(min(cap, remaining), 0, -1):
            prefix.append(v)
            rec(remaining - v, v, prefix)
            prefix.pop()

    rec(size, size if size else 1, [])
    return out


def _regular_subpartitions(cap: tuple[int, ...], removed_from: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
    """Partitions mu <= cap componentwise with |removed_from| - |mu| = j."""
    target = sum(removed_from) - j
    if target < 0:
        return []
    nrows = len(cap)
    out: list[tuple[int, ...]] = []

    def rec(i: int, prev: int, acc: int, prefix: list[int]) -> None:
        if acc > target:
            return
        if i == nrows:
            if acc == target:
                out.append(regular_normalize(prefix))
            return
        for v in range(min(prev, cap[i]), -1, -1):
            prefix.append(v)
            rec(i + 1, v, acc + v, prefix)
            prefix.pop()

    rec(0, cap[0] if nrows else 0, 0, [])
    return out


def _regular_superpartitions(base: tuple[int, ...], over: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
    """Partitions lam >= base componentwise with |lam| - |over| = j."""
    target = sum(over) + j
    nrows = len(base) + j
    out: list[tuple[int, ...]] = []

    def rec(i: int, prev: int, acc: int, prefix: list[int]) -> None:
        if acc > target:
            return
        if i == nrows:
            if acc == target:
                out.append(regular_normalize(prefix))
            return
        lo = _regular_part(base, i)
        for v in range(min(prev, target - acc), lo - 1, -1):
            prefix.append(v)
            rec(i + 1, v, acc + v, prefix)
            prefix.pop()

    rec(0, target, 0, [])
    seen = set()
    uniq = []
    for p in out:
        if p not in seen:
            seen.add(p)
            uniq.append(p)
    return uniq


def skew_reduction_sides(
    alpha: Iterable[int], beta: Iterable[int], max_degree: int, num_vars: int
) -> tuple[SparsePolynomial, SparsePolynomial]:
    """Both sides of the regular-partition reduction identity, x-degree truncated."""
    _require_nonnegative(max_degree=max_degree, num_vars=num_vars)
    a = regular_normalize(alpha)
    b = regular_normalize(beta)
    v = num_vars
    arity = 2 * v
    cap = tuple(
        min(_regular_part(a, i), _regular_part(b, i))
        for i in range(max(len(a), len(b)))
    )
    pair_sum = SparsePolynomial.zero(arity)
    for j in range(max_degree + 1):
        for mu in _regular_subpartitions(cap, a, j):
            pair_sum = pair_sum + regular_skew_schur(a, mu, v).embed(
                arity, 0
            ) * regular_skew_schur(b, mu, v).embed(arity, v)
    diag = SparsePolynomial.zero(arity)
    for g in range(max_degree + 1):
        for gamma in regular_partitions_of(g, max_rows=v):
            s = regular_skew_schur(gamma, (), v)
            diag = diag + s.embed(arity, 0) * s.embed(arity, v)
    lhs = (pair_sum * diag).truncate(max_degree, slice(0, v))
    base = tuple(
        max(_regular_part(a, i), _regular_part(b, i))
        for i in range(max(len(a), len(b)))
    )
    rhs = SparsePolynomial.zero(arity)
    for j in range(max_degree + 1):
        for lam in _regular_superpartitions(base, b, j):
            rhs = rhs + regular_skew_schur(lam, b, v).embed(
                arity, 0
            ) * regular_skew_schur(lam, a, v).embed(arity, v)
    return lhs, rhs


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
    n = k + max(_regular_part(a, 0), _regular_part(b, 0)) + 2 * max_degree + 1
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
