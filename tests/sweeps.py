"""Shared exhaustive-space iterators and property checkers for the test suite.

Window values are anchored at 0 in the top row so each translation class of
shapes is enumerated once; every algorithm under test commutes with column
translation.
"""

import random
from collections import Counter, defaultdict
from itertools import accumulate, combinations, combinations_with_replacement, permutations, product
from operator import add

from cyltab import marbles, words
from cyltab.crsk import CrskInput, CrskOutput
from cyltab.enumeration import (
    EnumerationError,
    _require_nonnegative,
    _windows,
    enumerate_inner,
    enumerate_outer,
    enumerate_ssct,
    regular_normalize,
    regular_skew_schur,
)
from cyltab.geometry import (
    Box,
    CylParams,
    CylPartition,
    Point,
    SkewShape,
    is_horizontal_strip,
    lift,
    project,
    skew_boxes,
)
from cyltab.insertion import (
    BumpingRoute,
    InsertionEvent,
    InsertionQueue,
    MultiInsertResult,
    PreconditionViolated,
    TableauState,
    _cascade,
    _forward_round,
    full_multi,
)
from cyltab.polynomials import SparsePolynomial
from cyltab.reverse import (
    ReverseMultiResult,
    ReverseQueue,
    ReversePreconditionViolated,
    _reverse_round,
    reverse_full_multi,
)
from cyltab.tableau import CylTableau, weight


def iter_params(max_k=3, max_width=3):
    for k in range(1, max_k + 1):
        for width in range(1, max_width + 1):
            yield CylParams(k, k + width)


def anchored_partitions(params):
    """All valid windows with first part 0 (one representative per translation)."""
    k, width = params.k, params.width
    out = []

    def rec(prefix):
        if len(prefix) == k:
            if prefix[-1] >= -width:
                out.append(CylPartition(params, tuple(prefix)))
            return
        for v in range(-width, prefix[-1] + 1):
            rec(prefix + [v])

    rec([0])
    return out


def outer_partitions(mu, max_boxes):
    """All lam containing mu with at most max_boxes boxes in lam/mu."""
    out = []
    for m in range(max_boxes + 1):
        out.extend(enumerate_outer(mu, mu, m))
    return out


def iter_shapes(params, max_boxes):
    for mu in anchored_partitions(params):
        for lam in outer_partitions(mu, max_boxes):
            yield SkewShape(lam, mu)


def schur_poly_by_enumeration(shape, num_vars):
    """Reference Schur polynomial: sum of weight monomials over enumerate_ssct."""
    counts = Counter()
    for t in enumerate_ssct(shape, num_vars):
        w = weight(t)
        counts[tuple(w.get(a, 0) for a in range(1, num_vars + 1))] += 1
    return SparsePolynomial(num_vars, counts)


def schur_poly_per_shape(shape, num_vars):
    """Reference strip-chain DP for one shape, pruned to the chains that reach outer.

    A filling over {1..v} is a chain inner = nu_0 <= ... <= nu_v = outer of
    horizontal strips; with r letters left after the current one,
    rho[i] >= outer[i + r] keeps only the windows from which outer is still
    reachable, and r = 0 forces rho = outer.
    """
    lam, width = shape.outer.window, shape.params.width
    states = {shape.inner.window: {(): 1}}
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


def _add_pairs(acc, p, q):
    """Add p(x) q(y) to the dict acc: x the first variables, y the next ones."""
    ys = q.terms()
    for ex, cx in p.terms():
        for ey, cy in ys:
            e = ex + ey
            acc[e] = acc.get(e, 0) + cx * cy


def _pair_sum_per_shape(shapes, vx, vy):
    acc = {}
    for sx, sy in shapes:
        _add_pairs(acc, schur_poly_per_shape(sx, vx), schur_poly_per_shape(sy, vy))
    return SparsePolynomial(vx + vy, acc)


def cauchy_sides_per_shape(alpha, beta, max_degree, vx, vy):
    """Reference Cauchy sides: one DP per mu and per lam, summed pair by pair."""
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
    return _pair_sum_per_shape(lhs_shapes, vx, vy), _pair_sum_per_shape(rhs_shapes, vx, vy)


def oneschur_sides_per_shape(alpha, max_degree, num_vars):
    """Reference one-shape sides: one DP per mu and per lam, summed term by term."""
    lhs, rhs = Counter(), Counter()
    for j in range(max_degree + 1):
        for mu in enumerate_inner(alpha, alpha, j):
            lhs.update(dict(schur_poly_per_shape(SkewShape(alpha, mu), num_vars).terms()))
        for lam in enumerate_outer(alpha, alpha, j):
            rhs.update(dict(schur_poly_per_shape(SkewShape(lam, alpha), num_vars).terms()))
    return SparsePolynomial(num_vars, lhs), SparsePolynomial(num_vars, rhs)


def expand_oracle(dominant, blocks):
    """Reference expansion: each key's coefficient to every block-wise permutation of it.

    One list of rows per key, each block's rearrangements read from
    itertools.permutations rather than from the engine's _arrangements.
    """
    cuts = list(accumulate(blocks, initial=0))
    expanded = {}
    for e, c in dominant.items():
        rows = [()]
        for i, j in zip(cuts, cuts[1:]):
            rows = [r + p for r in rows for p in set(permutations(e[i:j]))]
        expanded.update(dict.fromkeys(rows, c))
    return SparsePolynomial(cuts[-1], expanded)


def count_standard_bitmask_oracle(shape):
    """Reference standard count: linear extensions of the box order, by a DP over box subsets."""
    params = shape.params
    boxes = sorted(skew_boxes(shape), key=lambda b: (b.row, b.col))
    m = len(boxes)
    index = {b: i for i, b in enumerate(boxes)}
    prereq = []
    for b in boxes:
        mask = 0
        for nb in (Box(b.row, b.col - 1), project(Point(b.row - 1, b.col), params)):
            if nb in index:
                mask |= 1 << index[nb]
        prereq.append(mask)
    full = (1 << m) - 1
    memo = {full: 1}

    def rec(mask):
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


def verify_fcount_per_shape_oracle(alpha, beta, m):
    """Reference standard-count sides: one bitmask count per shape, per mu and per lam."""
    lhs = sum(
        count_standard_bitmask_oracle(SkewShape(alpha, mu))
        * count_standard_bitmask_oracle(SkewShape(beta, mu))
        for mu in enumerate_inner(alpha, beta, m)
    )
    rhs = sum(
        count_standard_bitmask_oracle(SkewShape(lam, alpha))
        * count_standard_bitmask_oracle(SkewShape(lam, beta))
        for lam in enumerate_outer(alpha, beta, m)
    )
    return lhs, rhs


# Regular partitions between bounds, as the enumeration module listed them
# before one enumerator served the skew reduction identity: one recursion for
# the partitions of a size, one for the mu below the cap and one for the lam
# above the base.


def _regular_part(parts: tuple[int, ...], i: int) -> int:
    return parts[i] if i < len(parts) else 0


def regular_partitions_of_oracle(size: int, max_rows: int | None = None) -> list[tuple[int, ...]]:
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


def regular_subpartitions_oracle(cap: tuple[int, ...], removed_from: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
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


def regular_superpartitions_oracle(base: tuple[int, ...], over: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
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
    return list(dict.fromkeys(out))


def _dict_product(p, q):
    """The product of two polynomials given as dicts of exponent vectors, term by term."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def skew_reduction_sides_oracle(alpha, beta, max_degree, num_vars):
    """Both sides of the regular-partition reduction identity by polynomial algebra.

    Plain dicts throughout: each term's x and y factors concatenated, and the
    full product pair_sum * diag truncated afterwards.
    """
    _require_nonnegative(max_degree=max_degree, num_vars=num_vars)
    a = regular_normalize(alpha)
    b = regular_normalize(beta)
    rows = max(len(a), len(b))
    a, b = (p + (0,) * (rows - len(p)) for p in (a, b))
    v = num_vars
    cap = tuple(map(min, a, b))
    pair_sum = {}
    for j in range(max_degree + 1):
        size = sum(a) - j
        for mu in _windows((0,) * rows, cap, size, size):
            _add_pairs(pair_sum, regular_skew_schur(a, mu, v), regular_skew_schur(b, mu, v))
    diag = {}
    for g in range(max_degree + 1):
        for gamma in regular_partitions_of_oracle(g, max_rows=v):
            s = regular_skew_schur(gamma, (), v)
            _add_pairs(diag, s, s)
    lhs = {e: c for e, c in _dict_product(pair_sum, diag).items() if sum(e[:v]) <= max_degree}
    base = tuple(map(max, a, b))
    rhs = {}
    for j in range(max_degree + 1):
        size = sum(b) + j
        for lam in _windows(base + (0,) * j, (size,) * (rows + j), size, size):
            _add_pairs(rhs, regular_skew_schur(lam, b, v), regular_skew_schur(lam, a, v))
    return SparsePolynomial(2 * v, lhs), SparsePolynomial(2 * v, rhs)


def enumerate_tableaux_with_inner(mu, num_letters):
    """All tableaux with the given inner shape over {1..num_letters}."""
    k = mu.params.k
    hi = [mu.part(i - num_letters) for i in range(k)]
    out = []
    for w in _windows(mu.window, hi, mu.params.width):
        out.extend(enumerate_ssct(SkewShape(CylPartition(mu.params, w), mu), num_letters))
    return out


def enumerate_tableaux_with_outer(lam, num_letters):
    """All tableaux with the given outer shape over {1..num_letters}."""
    k = lam.params.k
    lo = [lam.part(i + num_letters) for i in range(k)]
    out = []
    for w in _windows(lo, lam.window, lam.params.width):
        out.extend(enumerate_ssct(SkewShape(lam, CylPartition(lam.params, w)), num_letters))
    return out


# Tableau fillers as the enumeration module had them before one filler served
# both: the cylindric one projected each neighbour onto the cylinder per check,
# the regular one indexed the row above directly.


def enumerate_ssct_oracle(shape, num_letters):
    """All semistandard fillings over {1..num_letters}, lexicographic row-major."""
    params = shape.params
    k = params.k
    cells = []
    for r in range(k):
        lo, hi = shape.row_interval(r)
        cells.extend(Box(r, c) for c in range(lo + 1, hi + 1))
    in_shape = set(cells)
    assigned = {}
    out = []
    rows = [[] for _ in range(k)]

    def ok(b, val):
        if rows[b.row] and val < rows[b.row][-1]:
            return False
        up = project(Point(b.row - 1, b.col), params)
        if up in in_shape and up in assigned and assigned[up] >= val:
            return False
        down = project(Point(b.row + 1, b.col), params)
        if down in in_shape and down in assigned and val >= assigned[down]:
            return False
        return True

    def rec(i):
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


def enumerate_regular_ssyt_oracle(outer, inner, num_letters):
    """Row fillings of a regular skew shape: rows weakly, columns strictly increase."""
    outer = regular_normalize(outer)
    inner = regular_normalize(inner)
    if len(inner) > len(outer) or any(p > q for p, q in zip(inner, outer)):
        raise EnumerationError("inner not contained in outer")
    nrows = len(outer)
    inner += (0,) * (nrows + 1 - len(inner))
    rows = [[] for _ in range(nrows)]

    def rec(r, c):
        if r == nrows:
            yield tuple(tuple(row) for row in rows)
            return
        lo, hi = inner[r], outer[r]
        if c > hi:
            yield from rec(r + 1, inner[r + 1] + 1)
            return
        lower = 1
        if c > lo + 1:
            lower = rows[r][-1]
        if r > 0 and inner[r - 1] < c <= outer[r - 1]:
            lower = max(lower, rows[r - 1][c - inner[r - 1] - 1] + 1)
        for val in range(lower, num_letters + 1):
            rows[r].append(val)
            yield from rec(r, c + 1)
            rows[r].pop()

    yield from rec(0, inner[0] + 1)


def iter_tableaux(params, max_boxes, letters):
    for shape in iter_shapes(params, max_boxes):
        yield from enumerate_ssct(shape, letters)


def addable_strips(inner, max_size):
    """Horizontal strips that can be absorbed into the inner shape."""
    strips = []
    for m in range(max_size + 1):
        for nu in enumerate_outer(inner, inner, m):
            shape = SkewShape(nu, inner)
            if is_horizontal_strip(shape):
                strips.append(frozenset(skew_boxes(shape)))
    return strips


def removable_strips(outer, max_size):
    """Horizontal strips that can be peeled off the outer shape."""
    strips = []
    for m in range(max_size + 1):
        for xi in enumerate_inner(outer, outer, m):
            shape = SkewShape(outer, xi)
            if is_horizontal_strip(shape):
                strips.append(frozenset(skew_boxes(shape)))
    return strips


def sweep_pairs(max_k=3, max_width=3, max_boxes=4, letters=3, strip_size=3):
    """(tableau, addable strips of its inner shape) over the exhaustive space."""
    for params in iter_params(max_k, max_width):
        for mu in anchored_partitions(params):
            strips = addable_strips(mu, strip_size)
            for lam in outer_partitions(mu, max_boxes):
                for t in enumerate_ssct(SkewShape(lam, mu), letters):
                    yield t, strips


def removal_pairs(max_k=3, max_width=3, max_boxes=4, letters=3, strip_size=3):
    """(tableau, removable strips of its outer shape) over the exhaustive space."""
    for params in iter_params(max_k, max_width):
        for mu in anchored_partitions(params):
            for lam in outer_partitions(mu, max_boxes):
                strips = removable_strips(lam, strip_size)
                for t in enumerate_ssct(SkewShape(lam, mu), letters):
                    yield t, strips


def _weakly_increasing(seq):
    return all(a <= b for a, b in zip(seq, seq[1:]))


def _route_rows_consecutive(route, step=1):
    xs = [p.x for p in route.points]
    return xs == list(range(xs[0], xs[0] + step * len(xs), step))


def point_order_le(p, q):
    """Total order on points: above, or same row and weakly right."""
    return p.x < q.x or (p.x == q.x and p.y >= q.y)


def point_order_lt(p, q):
    return p != q and point_order_le(p, q)


def _check_route_pairs(routes, forward):
    for gi, hi in combinations(range(len(routes)), 2):
        for G, H in ((routes[gi], routes[hi]), (routes[hi], routes[gi])):
            if not point_order_lt(G.points[0], H.points[0]):
                continue
            lo = max(min(p.x for p in G.points), min(p.x for p in H.points))
            hi_row = min(max(p.x for p in G.points), max(p.x for p in H.points))
            for r in range(lo, hi_row + 1):
                gp, hp = G.row_point(r), H.row_point(r)
                assert hp.y < gp.y, "later-starting route is not strictly left"
                gs, hs = G.row_step(r), H.row_step(r)
                if forward:
                    assert gs > hs, "forward: earlier route must reach each row first"
                else:
                    assert gs < hs, "reverse: earlier route must reach each row first"
            assert point_order_lt(G.points[-1], H.points[-1]), "start/end order differs"


def _check_uniqueness(routes, params):
    seen_points = set()
    box_owner = {}
    for idx, route in enumerate(routes):
        boxes_on_route = set()
        for p in route.points:
            assert p not in seen_points, "point on two routes"
            seen_points.add(p)
            bx = project(p, params)
            assert bx not in boxes_on_route, "box repeated within a cylindric route"
            boxes_on_route.add(bx)
            assert box_owner.setdefault(bx, idx) == idx, "box on two cylindric routes"


def _check_row_sequences(events, increasing):
    bumped = defaultdict(list)
    inserted = defaultdict(list)
    for e in events:
        if e.kind in ("seed", "bump") and e.bumped is not None:
            bumped[e.box.row].append(e.bumped)
        if e.kind in ("bump", "land") and e.inserted is not None:
            inserted[e.box.row].append(e.inserted)
    for seq in list(bumped.values()) + list(inserted.values()):
        ordered = seq if increasing else seq[::-1]
        assert _weakly_increasing(ordered), "per-row letter sequence out of order"


def check_forward_call(t, strip, res):
    """All row-bumping conclusions for one multi-insertion call."""
    params = t.params
    assert weight(res.tableau) == weight(t)
    grown = SkewShape(res.tableau.outer, t.outer)
    assert set(res.new_set) == set(skew_boxes(grown))
    assert is_horizontal_strip(grown), "new set is not a horizontal strip"
    max_letter = t.max_entry()
    routes = res.routes
    for route in routes:
        assert _route_rows_consecutive(route, 1)
        assert all(b.y <= a.y for a, b in zip(route.points, route.points[1:])), (
            "forward route fails to trend weakly left"
        )
        assert len(route.points) <= max_letter + 2, "route exceeds the letter bound"
    _check_route_pairs(routes, forward=True)
    _check_uniqueness(routes, params)
    _check_row_sequences(res.events, increasing=True)


def check_reverse_call(t, strip, res):
    """Mirrored conclusions for one reverse multi-insertion call."""
    params = t.params
    assert weight(res.tableau) == weight(t)
    shed = SkewShape(t.inner, res.tableau.inner)
    assert set(res.reverse_new_set) == set(skew_boxes(shed))
    assert is_horizontal_strip(shed), "reverse new set is not a horizontal strip"
    min_letter = min(t.entries(), default=0)
    max_letter = t.max_entry()
    routes = res.routes
    for route in routes:
        assert _route_rows_consecutive(route, -1)
        assert all(b.y >= a.y for a, b in zip(route.points, route.points[1:])), (
            "reverse route fails to trend weakly right"
        )
        assert len(route.points) <= max_letter - min_letter + 3
    _check_route_pairs(routes, forward=False)
    _check_uniqueness(routes, params)
    _check_row_sequences(res.events, increasing=False)


def check_retrace(forward_res, reverse_res):
    """Reverse routes must retrace forward routes boxwise, in reverse order."""
    params = forward_res.tableau.params
    fwd = Counter(
        tuple(project(p, params) for p in r.points) for r in forward_res.routes
    )
    bwd = Counter(
        tuple(project(p, params) for p in reversed(r.points))
        for r in reverse_res.routes
    )
    assert fwd == bwd, "reverse routes do not retrace the forward routes"


# Oracles: the eager multi-insertion that built routes, queues and events as it
# went, kept to check the step-log results field for field.


class _Tracker:
    def __init__(self):
        self.step = 0
        self.events = []
        self.route_points = []
        self.route_steps = []

    def new_route(self, p):
        self.route_points.append([p])
        self.route_steps.append([self.step])
        return len(self.route_points) - 1

    def extend(self, rid, p):
        self.route_points[rid].append(p)
        self.route_steps[rid].append(self.step)

    def emit(self, kind, box, inserted, bumped):
        self.events.append(InsertionEvent(self.step, kind, box, inserted, bumped))
        self.step += 1

    def routes(self):
        return tuple(
            BumpingRoute(tuple(ps), tuple(ss))
            for ps, ss in zip(self.route_points, self.route_steps)
        )


def _leftmost_greater(row, x):
    return next(i for i, v in enumerate(row) if v > x)


def _rightmost_less(row, x):
    return next(i for i in range(len(row) - 1, -1, -1) if row[i] < x)


def full_multi_oracle(t, boxes, seed_row=0):
    """(tableau, new_set, routes, queues, events) of a forward multi-insertion."""
    tr = _Tracker()
    params = t.params
    k = params.k
    bs = sorted(set(boxes), key=lambda b: (b.row, b.col))
    _check_strip_into_inner(params, t.inner.window, bs)
    st = TableauState.from_tableau(t)
    queue = []
    for h in range(seed_row, seed_row + k):
        r = h % k
        for b in sorted((b for b in bs if b.row == r), key=lambda b: b.col):
            rid = tr.new_route(lift(b, h, params))
            if b.col <= st.lam[r]:
                x = st.rows[r].pop(0)
                st.mu[r] += 1
                queue.append((x, (h + 1) % k, h + 1, rid))
                tr.emit("seed", b, None, x)
            else:
                st.mu[r] += 1
                tr.emit("seed_out", b, None, None)
    queues = [InsertionQueue(tuple((x, r) for x, r, _, _ in queue), k)]
    while queue:
        nxt = []
        for x, r, plane, rid in queue:
            row = st.rows[r]
            if not row or x >= row[-1]:
                row.append(x)
                box = Box(r, st.lam[r])
                tr.extend(rid, lift(box, plane, params))
                tr.emit("land", box, x, None)
            else:
                idx = _leftmost_greater(row, x)
                box = Box(r, st.mu[r] + 1 + idx)
                bumped = row[idx]
                row[idx] = x
                nxt.append((bumped, (r + 1) % k, plane + 1, rid))
                tr.extend(rid, lift(box, plane, params))
                tr.emit("bump", box, x, bumped)
        queue = nxt
        queues.append(InsertionQueue(tuple((x, r) for x, r, _, _ in queue), k))
    result = st.to_tableau()
    new_set = frozenset(skew_boxes(SkewShape(result.outer, t.outer)))
    return result, new_set, tr.routes(), tuple(queues), tuple(tr.events)


def reverse_full_multi_oracle(t, boxes, seed_row=0):
    """(tableau, reverse_new_set, routes, queues, events) of a reverse multi-insertion."""
    tr = _Tracker()
    params = t.params
    k = params.k
    bs = sorted(set(boxes), key=lambda b: (b.row, b.col))
    _check_strip_from_outer(params, t.outer.window, bs)
    st = TableauState.from_tableau(t)
    queue = []
    for h in range(seed_row, seed_row - k, -1):
        r = h % k
        for b in sorted((b for b in bs if b.row == r), key=lambda b: -b.col):
            rid = tr.new_route(lift(b, h, params))
            if b.col > st.mu[r]:
                x = st.rows[r].pop()
                queue.append((x, (h - 1) % k, h - 1, rid))
                tr.emit("seed", b, None, x)
            else:
                st.mu[r] -= 1
                tr.emit("seed_out", b, None, None)
    queues = [ReverseQueue(tuple((x, r) for x, r, _, _ in queue), k)]
    while queue:
        nxt = []
        for x, r, plane, rid in queue:
            row = st.rows[r]
            if not row or x <= row[0]:
                box = Box(r, st.mu[r])
                st.mu[r] -= 1
                row.insert(0, x)
                tr.extend(rid, lift(box, plane, params))
                tr.emit("land", box, x, None)
            else:
                idx = _rightmost_less(row, x)
                box = Box(r, st.mu[r] + 1 + idx)
                bumped = row[idx]
                row[idx] = x
                nxt.append((bumped, (r - 1) % k, plane - 1, rid))
                tr.extend(rid, lift(box, plane, params))
                tr.emit("bump", box, x, bumped)
        queue = nxt
        queues.append(ReverseQueue(tuple((x, r) for x, r, _, _ in queue), k))
    result = st.to_tableau()
    shed = frozenset(skew_boxes(SkewShape(t.inner, result.inner)))
    return result, shed, tr.routes(), tuple(queues), tuple(tr.events)


# ---------------------------------------------------------------------------
# Strips as Box lists, as the bijection layer handled them before each strip
# became a per-row count vector: the strip checks and seeders of
# full_multi/reverse_full_multi, and the marble codecs with one validated
# Arrangement per turn.


def _check_strip_into_inner(params, mu, boxes):
    k = params.k
    per_row = {}
    for b in boxes:
        if not 0 <= b.row < k:
            raise PreconditionViolated(f"box {b} row outside [0, {k})")
        if b.col <= mu[b.row]:
            raise PreconditionViolated(f"box {b} lies in the inner shape")
        per_row.setdefault(b.row, []).append(b.col)
    nu = list(mu)
    for r, cols in per_row.items():
        cols.sort()
        if cols != list(range(mu[r] + 1, mu[r] + len(cols) + 1)):
            raise PreconditionViolated(
                f"row {r} boxes {cols} do not extend the inner shape contiguously"
            )
        nu[r] = cols[-1]
    for i in range(k - 1):
        if nu[i] < nu[i + 1]:
            raise PreconditionViolated("inner shape plus boxes is not a partition")
    if nu[k - 1] < nu[0] - params.width:
        raise PreconditionViolated("inner shape plus boxes violates the wrap")
    for i in range(k):
        nxt = nu[i + 1] if i + 1 < k else nu[0] - params.width
        if mu[i] < nxt:
            raise PreconditionViolated("boxes do not form a horizontal strip")


def _check_strip_from_outer(params, lam, boxes):
    k = params.k
    per_row = {}
    for b in boxes:
        if not 0 <= b.row < k:
            raise ReversePreconditionViolated(f"box {b} row outside [0, {k})")
        if b.col > lam[b.row]:
            raise ReversePreconditionViolated(f"box {b} lies outside the outer shape")
        per_row.setdefault(b.row, []).append(b.col)
    xi = list(lam)
    for r, cols in per_row.items():
        cols.sort()
        if cols != list(range(lam[r] - len(cols) + 1, lam[r] + 1)):
            raise ReversePreconditionViolated(
                f"row {r} boxes {cols} do not peel the outer shape contiguously"
            )
        xi[r] = cols[0] - 1
    for i in range(k - 1):
        if xi[i] < xi[i + 1]:
            raise ReversePreconditionViolated("outer shape minus boxes is not a partition")
    if xi[k - 1] < xi[0] - params.width:
        raise ReversePreconditionViolated("outer shape minus boxes violates the wrap")
    for i in range(k):
        nxt = lam[i + 1] if i + 1 < k else lam[0] - params.width
        if xi[i] < nxt:
            raise ReversePreconditionViolated("boxes do not form a horizontal strip")


def _seed_forward_boxes(st, boxes, seed_row, log):
    """Absorb the strip row by row from seed_row, left to right; one route per box."""
    bs = sorted(set(boxes), key=lambda b: (b.row, b.col))
    _check_strip_into_inner(st.params, st.mu, bs)
    k = st.params.k
    queue = []  # letter, row, plane row, route id
    for h in range(seed_row, seed_row + k):
        r = h % k
        for b in bs:
            if b.row != r:
                continue
            rid = len(log)
            st.mu[r] += 1
            if st.rows[r]:
                x = st.rows[r].pop(0)
                queue.append((x, (h + 1) % k, h + 1, rid))
                log.append(("seed", r, b.col, h, rid, None, x))
            else:
                log.append(("seed_out", r, b.col, h, rid, None, None))
    return queue


def _seed_reverse_boxes(st, boxes, seed_row, log):
    """Peel the strip from seed_row downward in index, right to left; one route per box."""
    bs = sorted(set(boxes), key=lambda b: (b.row, -b.col))
    _check_strip_from_outer(st.params, st.lam, bs)
    k = st.params.k
    queue = []
    for h in range(seed_row, seed_row - k, -1):
        r = h % k
        for b in bs:
            if b.row != r:
                continue
            rid = len(log)
            if b.col > st.mu[r]:
                x = st.rows[r].pop()
                queue.append((x, (h - 1) % k, h - 1, rid))
                log.append(("seed", r, b.col, h, rid, None, x))
            else:
                st.mu[r] -= 1
                log.append(("seed_out", r, b.col, h, rid, None, None))
    return queue


def full_multi_boxes_oracle(t, boxes, seed_row=0):
    """full_multi with the strip seeded box by box from its Box list."""
    log = []
    st = TableauState.from_tableau(t)
    rounds = _cascade(st, _seed_forward_boxes(st, boxes, seed_row, log), log, _forward_round)
    result = st.to_tableau()
    new_set = frozenset(SkewShape(result.outer, t.outer).boxes())
    return MultiInsertResult(result, new_set, tuple(log), rounds)


def reverse_full_multi_boxes_oracle(t, boxes, seed_row=0):
    """reverse_full_multi with the strip peeled box by box from its Box list."""
    log = []
    st = TableauState.from_tableau(t)
    rounds = _cascade(st, _seed_reverse_boxes(st, boxes, seed_row, log), log, _reverse_round)
    result = st.to_tableau()
    shed = frozenset(SkewShape(t.inner, result.inner).boxes())
    return ReverseMultiResult(result, shed, tuple(log), rounds)


def boxes_by_letter(t):
    """Map each letter to the boxes holding it, in one pass over the rows."""
    out = {}
    for r, (row, lo) in enumerate(zip(t.rows, t.inner.window)):
        for c, v in enumerate(row, lo + 1):
            out.setdefault(v, []).append(Box(r, c))
    return out


def apply_turn_oracle(arr, turn):
    k = arr.params.k
    if len(turn) != k:
        raise marbles.MarbleError(f"turn {turn} has wrong length")
    if any(a < 0 for a in turn):
        raise marbles.MarbleError(f"turn {turn} passes a negative number of marbles")
    if any(turn[i] > arr.counts[i] for i in range(k)):
        raise marbles.MarbleError(f"turn {turn} passes more marbles than held in {arr.counts}")
    counts = tuple(arr.counts[i] - turn[i] + turn[(i - 1) % k] for i in range(k))
    return marbles.Arrangement(arr.params, counts)


def tableau_to_game_oracle(t, num_letters=None):
    """tableau_to_game through the boxes of each letter."""
    by_letter = boxes_by_letter(t)
    top = max(by_letter, default=0)
    m = top if num_letters is None else num_letters
    if top > m:
        raise marbles.MarbleError(f"tableau uses letters above {m}")
    low = min(by_letter, default=1)
    if low < 1:
        raise marbles.MarbleError(f"tableau uses letter {low}; letters start at 1")
    k = t.params.k
    turns = []
    for j in range(1, m + 1):
        turn = [0] * k
        for b in by_letter.get(j, ()):
            turn[b.row] += 1
        turns.append(tuple(turn))
    return marbles.MarbleGame(marbles.arrangement(t.inner), tuple(turns))


def game_to_tableau_oracle(mu, game):
    """game_to_tableau with one validated Arrangement per turn."""
    if game.params != mu.params:
        raise marbles.InitialMismatch("game and partition use different cylinder parameters")
    if game.initial != marbles.arrangement(mu):
        raise marbles.InitialMismatch(
            f"initial arrangement {game.initial.counts} is not Arr of {mu.window}"
        )
    k = mu.params.k
    frontier = list(mu.window)
    rows = [[] for _ in range(k)]
    arr = game.initial
    for idx, turn in enumerate(game.turns, start=1):
        try:
            arr = apply_turn_oracle(arr, turn)
        except marbles.MarbleError as e:
            raise marbles.InvalidTurn(idx, str(e)) from e
        for r in range(k):
            rows[r].extend([idx] * turn[r])
            frontier[r] += turn[r]
    lam = CylPartition(mu.params, tuple(frontier))
    return CylTableau(SkewShape(lam, mu), tuple(tuple(r) for r in rows))


def from_box_entries(outer, inner, entries):
    """Assemble a tableau from a box-to-letter map covering the whole shape."""
    shape = SkewShape(outer, inner)
    rows = []
    for r in range(outer.params.k):
        lo, hi = shape.row_interval(r)
        rows.append(tuple(entries[Box(r, c)] for c in range(lo + 1, hi + 1)))
    return CylTableau(shape, tuple(rows))


def crsk_per_batch_oracle(t, u):
    """crsk by one full_multi call per letter batch, each building a validated tableau."""
    assert t.inner == u.inner
    batches = boxes_by_letter(u)
    p = t
    recorded = {}
    for i in sorted(batches):
        res = full_multi(p, batches[i])
        p = res.tableau
        for b in res.new_set:
            recorded[b] = i
    return CrskOutput(p, from_box_entries(p.outer, t.outer, recorded), p.outer)


def crsk_inverse_per_batch_oracle(p, q):
    """crsk_inverse by one reverse_full_multi call per letter batch, in decreasing order."""
    assert p.outer == q.outer
    batches = boxes_by_letter(q)
    t = p
    recorded = {}
    for i in sorted(batches, reverse=True):
        res = reverse_full_multi(t, batches[i])
        t = res.tableau
        for b in res.reverse_new_set:
            recorded[b] = i
    return CrskInput(t, from_box_entries(p.inner, t.inner, recorded), t.inner)


def crsk_criterion_4_instances():
    """The (mu, T, U) triples of acceptance criterion 4: k = 2, n = 4, <= 3 boxes, 2 letters."""
    params = CylParams(2, 4)
    windows = [w for w in product((-1, 0, 1), repeat=2) if w[0] >= w[1] >= w[0] - params.width]
    for wa, wb in product(windows, repeat=2):
        alpha, beta = CylPartition(params, wa), CylPartition(params, wb)
        for j in range(4):
            for mu in enumerate_inner(alpha, beta, j):
                for t in enumerate_ssct(SkewShape(alpha, mu), 2):
                    for u in enumerate_ssct(SkewShape(beta, mu), 2):
                        yield mu, t, u


def _random_marble_tableau(rng, mu, letters):
    """Decode a random marble game of `letters` turns started at the arrangement of mu."""
    counts = list(marbles.arrangement(mu).counts)
    turns = []
    for _ in range(letters):
        turn = tuple(rng.randint(0, c) for c in counts)
        counts = [counts[i] - turn[i] + turn[i - 1] for i in range(len(counts))]
        turns.append(turn)
    return marbles.game_to_tableau(mu, marbles.MarbleGame(marbles.arrangement(mu), tuple(turns)))


def random_crsk_pairs(seed, per_k=20, ks=(3, 4, 5), letters=(6, 12)):
    """Seeded nonempty pairs (T, U) on (k, k + 4) sharing a random inner shape.

    The inner window comes from a random composition of the width into k
    marble counts; each tableau decodes a random game of 6-12 turns.
    """
    rng = random.Random(seed)
    for k in ks:
        params = CylParams(k, k + 4)
        made = 0
        while made < per_k:
            cuts = sorted(rng.randint(0, params.width) for _ in range(k - 1))
            counts = [b - a for a, b in zip([0, *cuts], [*cuts, params.width])]
            window = [0]
            for c in counts[1:]:
                window.append(window[-1] - c)
            mu = CylPartition(params, tuple(window))
            t = _random_marble_tableau(rng, mu, rng.randint(*letters))
            u = _random_marble_tableau(rng, mu, rng.randint(*letters))
            if t.size() and u.size():
                made += 1
                yield t, u


def knuth_permutations(max_m=7):
    """Every permutation of 1..m for m = 1..max_m (criterion 7: 5,913 of them)."""
    for m in range(1, max_m + 1):
        yield from permutations(range(1, m + 1))


def knuth_pairs(max_length=5, letters=3):
    """Every ordered pair of rearrangements of each multiset (criterion 7: 5,403)."""
    for length in range(1, max_length + 1):
        for content in combinations_with_replacement(range(1, letters + 1), length):
            arrangements = sorted(set(permutations(content)))
            for a in arrangements:
                for b in arrangements:
                    yield a, b


# ---------------------------------------------------------------------------
# Cyclic Knuth words, as the words module computed them before it replayed a
# run of rotations as one slice and resumed the switch scan next to the last
# switch: one tuple rebuilt per move, and a full rescan after every switch.


def apply_move_oracle(w, move):
    if move.kind == words.ROTATE:
        if not w:
            raise words.PatternMismatch(0, "cannot rotate the empty word")
        return (w[-1],) + w[:-1]
    p = move.pos
    if not 0 <= p <= len(w) - 3:
        raise words.PatternMismatch(p, f"no letter triple at {p} in a word of length {len(w)}")
    a, b, c = w[p], w[p + 1], w[p + 2]
    if move.kind == words.KPRIME:
        y, z, x = a, b, c
        if not x < y <= z:
            raise words.PatternMismatch(p, f"{(a, b, c)} does not match y z x with x < y <= z")
        triple = (y, x, z)
    elif move.kind == words.KPRIME_INV:
        y, x, z = a, b, c
        if not x < y <= z:
            raise words.PatternMismatch(p, f"{(a, b, c)} does not match y x z with x < y <= z")
        triple = (y, z, x)
    elif move.kind == words.KDPRIME:
        x, z, y = a, b, c
        if not x <= y < z:
            raise words.PatternMismatch(p, f"{(a, b, c)} does not match x z y with x <= y < z")
        triple = (z, x, y)
    elif move.kind == words.KDPRIME_INV:
        z, x, y = a, b, c
        if not x <= y < z:
            raise words.PatternMismatch(p, f"{(a, b, c)} does not match z x y with x <= y < z")
        triple = (x, z, y)
    else:
        raise words.WordError(f"unknown move kind {move.kind!r}")
    return w[:p] + triple + w[p + 3 :]


def replay_oracle(w, moves):
    for mv in moves:
        w = apply_move_oracle(w, mv)
    return w


def _strictly_between(y, a, b):
    lo, hi = (a, b) if a < b else (b, a)
    return lo < y < hi


def find_switch_oracle(w):
    m = len(w)
    for i in range(1, m):
        a, b = w[i - 1], w[i]
        left = w[i - 2] if i >= 2 else w[m - 1]
        right = w[i + 1] if i + 1 < m else w[0]
        if _strictly_between(left, a, b) or _strictly_between(right, a, b):
            return i
    return None


def _switch_moves_oracle(w, i):
    Move, m = words.Move, len(w)
    a, b = w[i - 1], w[i]
    if i >= 2:
        if _strictly_between(w[i - 2], a, b):
            return [Move(words.KPRIME if a > b else words.KPRIME_INV, i - 2)]
        return [Move(words.KDPRIME if a < b else words.KDPRIME_INV, i - 1)]
    if i + 1 < m and _strictly_between(w[i + 1], a, b):
        return [Move(words.KDPRIME, 0)] + [Move(words.ROTATE)] * (m - 1)
    return [Move(words.ROTATE), Move(words.KPRIME_INV, 0)] + [Move(words.ROTATE)] * (m - 2)


def word_transform_oracle(w):
    w = tuple(w)
    m = len(w)
    identity = tuple(range(1, m + 1))
    moves = []
    cur = w
    while cur and cur[0] != 1:
        moves.append(words.Move(words.ROTATE))
        cur = (cur[-1],) + cur[:-1]
    positions, seen, critical = [], [], []
    while cur != identity:
        i = find_switch_oracle(cur)
        moves.extend(_switch_moves_oracle(cur, i))
        if i == 1:
            cur = (1,) + cur[2:] + (cur[1],)
        else:
            cur = cur[: i - 1] + (cur[i], cur[i - 1]) + cur[i + 1 :]
        positions.append(i)
        seen.append(cur)
        critical.append(i == 1)
    return words.TransformResult(
        words.Certificate(w, tuple(moves), cur), tuple(positions), tuple(seen), tuple(critical)
    )


def sorting_moves_oracle(w):
    u, m = w, len(w)
    identity = tuple(range(1, m + 1))
    moves = []
    while True:
        p = words.lift_word(u).permutation
        while p[0] != 1:
            p = (p[-1],) + p[:-1]
            u = apply_move_oracle(u, words.Move(words.ROTATE))
            moves.append(words.Move(words.ROTATE))
        critical = False
        while p != identity:
            i = find_switch_oracle(p)
            for mv in _switch_moves_oracle(p, i):
                u = apply_move_oracle(u, mv)
                moves.append(mv)
            if i == 1:
                p = (1,) + p[2:] + (p[1],)
                critical = True
                break
            p = p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :]
        if not critical:
            break
    assert u == tuple(sorted(w))
    return tuple(moves)


# The words module's lift anchor and move preconditions as it wrote them out
# before it stated each rule once: the anchor by two branches on the last
# letter, and each triple move's precondition as its own comparison.


def lift_word_oracle(w):
    m, s = len(w), min(w)
    if w[-1] != s:
        t = w.index(s) + 1
    else:
        t = 1
        for i in range(2, m + 1):
            if w[i - 1] == s and w[i - 2] != s:
                t = i
                break
    keys = [(w[i], (i + 1 - t) % m) for i in range(m)]
    order = sorted(range(m), key=lambda i: keys[i])
    p = [0] * m
    for rank, i in enumerate(order, start=1):
        p[i] = rank
    return words.LiftedWord(tuple(p), t, s)


def applicable_moves_oracle(w):
    out = [words.Move(words.ROTATE)]
    for p in range(len(w) - 2):
        a, b, c = w[p], w[p + 1], w[p + 2]
        if c < a <= b:
            out.append(words.Move(words.KPRIME, p))
        if b < a <= c:
            out.append(words.Move(words.KPRIME_INV, p))
        if a <= c < b:
            out.append(words.Move(words.KDPRIME, p))
        if b <= c < a:
            out.append(words.Move(words.KDPRIME_INV, p))
    return out


def short_words(max_length=6, letters=4):
    """Every word of length 1..max_length over 1..letters (5,460 for 6 and 4)."""
    for length in range(1, max_length + 1):
        yield from product(range(1, letters + 1), repeat=length)
