"""Shared exhaustive-space iterators and property checkers for the test suite.

Window values are anchored at 0 in the top row so each translation class of
shapes is enumerated once; every algorithm under test commutes with column
translation.
"""

from collections import Counter, defaultdict
from itertools import combinations

import cyltab as ct
from cyltab.insertion import (
    InsertionEvent,
    TableauState,
    _check_strip_into_inner,
    point_order_lt,
)
from cyltab.reverse import _check_strip_from_outer


def iter_params(max_k=3, max_width=3):
    for k in range(1, max_k + 1):
        for width in range(1, max_width + 1):
            yield ct.CylParams(k, k + width)


def anchored_partitions(params):
    """All valid windows with first part 0 (one representative per translation)."""
    k, width = params.k, params.width
    out = []

    def rec(prefix):
        if len(prefix) == k:
            if prefix[-1] >= -width:
                out.append(ct.CylPartition(params, tuple(prefix)))
            return
        for v in range(-width, prefix[-1] + 1):
            rec(prefix + [v])

    rec([0])
    return out


def outer_partitions(mu, max_boxes):
    """All lam containing mu with at most max_boxes boxes in lam/mu."""
    out = []
    for m in range(max_boxes + 1):
        out.extend(ct.enumerate_outer(mu, mu, m))
    return out


def iter_shapes(params, max_boxes):
    for mu in anchored_partitions(params):
        for lam in outer_partitions(mu, max_boxes):
            yield ct.SkewShape(lam, mu)


def schur_poly_by_enumeration(shape, num_vars):
    """Reference Schur polynomial: sum of weight monomials over enumerate_ssct."""
    poly = ct.SparsePolynomial.zero(num_vars)
    for t in ct.enumerate_ssct(shape, num_vars):
        exps = [0] * num_vars
        for a, c in ct.weight(t).items():
            exps[a - 1] = c
        poly = poly + ct.SparsePolynomial.monomial(tuple(exps))
    return poly


def iter_tableaux(params, max_boxes, letters):
    for shape in iter_shapes(params, max_boxes):
        yield from ct.enumerate_ssct(shape, letters)


def addable_strips(inner, max_size):
    """Horizontal strips that can be absorbed into the inner shape."""
    strips = []
    for m in range(max_size + 1):
        for nu in ct.enumerate_outer(inner, inner, m):
            shape = ct.SkewShape(nu, inner)
            if ct.is_horizontal_strip(shape):
                strips.append(frozenset(ct.skew_boxes(shape)))
    return strips


def removable_strips(outer, max_size):
    """Horizontal strips that can be peeled off the outer shape."""
    strips = []
    for m in range(max_size + 1):
        for xi in ct.enumerate_inner(outer, outer, m):
            shape = ct.SkewShape(outer, xi)
            if ct.is_horizontal_strip(shape):
                strips.append(frozenset(ct.skew_boxes(shape)))
    return strips


def sweep_pairs(max_k=3, max_width=3, max_boxes=4, letters=3, strip_size=3):
    """(tableau, addable strips of its inner shape) over the exhaustive space."""
    for params in iter_params(max_k, max_width):
        for mu in anchored_partitions(params):
            strips = addable_strips(mu, strip_size)
            for lam in outer_partitions(mu, max_boxes):
                for t in ct.enumerate_ssct(ct.SkewShape(lam, mu), letters):
                    yield t, strips


def removal_pairs(max_k=3, max_width=3, max_boxes=4, letters=3, strip_size=3):
    """(tableau, removable strips of its outer shape) over the exhaustive space."""
    for params in iter_params(max_k, max_width):
        for mu in anchored_partitions(params):
            for lam in outer_partitions(mu, max_boxes):
                strips = removable_strips(lam, strip_size)
                for t in ct.enumerate_ssct(ct.SkewShape(lam, mu), letters):
                    yield t, strips


def _weakly_increasing(seq):
    return all(a <= b for a, b in zip(seq, seq[1:]))


def _route_rows_consecutive(route, step=1):
    xs = [p.x for p in route.points]
    return xs == list(range(xs[0], xs[0] + step * len(xs), step))


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
            bx = ct.project(p, params)
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
    assert ct.weight(res.tableau) == ct.weight(t)
    grown = ct.SkewShape(res.tableau.outer, t.outer)
    assert set(res.new_set) == set(ct.skew_boxes(grown))
    assert ct.is_horizontal_strip(grown), "new set is not a horizontal strip"
    max_letter = t.max_entry()
    for route in res.routes:
        assert _route_rows_consecutive(route, 1)
        assert all(b.y <= a.y for a, b in zip(route.points, route.points[1:])), (
            "forward route fails to trend weakly left"
        )
        assert len(route.points) <= max_letter + 2, "route exceeds the letter bound"
    _check_route_pairs(res.routes, forward=True)
    _check_uniqueness(res.routes, params)
    _check_row_sequences(res.events, increasing=True)


def check_reverse_call(t, strip, res):
    """Mirrored conclusions for one reverse multi-insertion call."""
    params = t.params
    assert ct.weight(res.tableau) == ct.weight(t)
    shed = ct.SkewShape(t.inner, res.tableau.inner)
    assert set(res.reverse_new_set) == set(ct.skew_boxes(shed))
    assert ct.is_horizontal_strip(shed), "reverse new set is not a horizontal strip"
    min_letter = min(t.entries(), default=0)
    max_letter = t.max_entry()
    for route in res.routes:
        assert _route_rows_consecutive(route, -1)
        assert all(b.y >= a.y for a, b in zip(route.points, route.points[1:])), (
            "reverse route fails to trend weakly right"
        )
        assert len(route.points) <= max_letter - min_letter + 3
    _check_route_pairs(res.routes, forward=False)
    _check_uniqueness(res.routes, params)
    _check_row_sequences(res.events, increasing=False)


def check_retrace(forward_res, reverse_res):
    """Reverse routes must retrace forward routes boxwise, in reverse order."""
    params = forward_res.tableau.params
    fwd = Counter(
        tuple(ct.project(p, params) for p in r.points) for r in forward_res.routes
    )
    bwd = Counter(
        tuple(ct.project(p, params) for p in reversed(r.points))
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
            ct.BumpingRoute(tuple(ps), tuple(ss))
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
    _check_strip_into_inner(t, bs)
    st = TableauState.from_tableau(t)
    queue = []
    for h in range(seed_row, seed_row + k):
        r = h % k
        for b in sorted((b for b in bs if b.row == r), key=lambda b: b.col):
            rid = tr.new_route(ct.lift(b, h, params))
            if b.col <= st.lam[r]:
                x = st.rows[r].pop(0)
                st.mu[r] += 1
                queue.append((x, (h + 1) % k, h + 1, rid))
                tr.emit("seed", b, None, x)
            else:
                st.mu[r] += 1
                st.lam[r] += 1
                tr.emit("seed_out", b, None, None)
    queues = [ct.InsertionQueue(tuple((x, r) for x, r, _, _ in queue), k)]
    while queue:
        nxt = []
        for x, r, plane, rid in queue:
            row = st.rows[r]
            if not row or x >= row[-1]:
                st.lam[r] += 1
                row.append(x)
                box = ct.Box(r, st.lam[r])
                tr.extend(rid, ct.lift(box, plane, params))
                tr.emit("land", box, x, None)
            else:
                idx = _leftmost_greater(row, x)
                box = ct.Box(r, st.mu[r] + 1 + idx)
                bumped = row[idx]
                row[idx] = x
                nxt.append((bumped, (r + 1) % k, plane + 1, rid))
                tr.extend(rid, ct.lift(box, plane, params))
                tr.emit("bump", box, x, bumped)
        queue = nxt
        queues.append(ct.InsertionQueue(tuple((x, r) for x, r, _, _ in queue), k))
    result = st.to_tableau()
    new_set = frozenset(ct.skew_boxes(ct.SkewShape(result.outer, t.outer)))
    return result, new_set, tr.routes(), tuple(queues), tuple(tr.events)


def reverse_full_multi_oracle(t, boxes, seed_row=0):
    """(tableau, reverse_new_set, routes, queues, events) of a reverse multi-insertion."""
    tr = _Tracker()
    params = t.params
    k = params.k
    bs = sorted(set(boxes), key=lambda b: (b.row, b.col))
    _check_strip_from_outer(t, bs)
    st = TableauState.from_tableau(t)
    queue = []
    for h in range(seed_row, seed_row - k, -1):
        r = h % k
        for b in sorted((b for b in bs if b.row == r), key=lambda b: -b.col):
            rid = tr.new_route(ct.lift(b, h, params))
            if b.col > st.mu[r]:
                x = st.rows[r].pop()
                st.lam[r] -= 1
                queue.append((x, (h - 1) % k, h - 1, rid))
                tr.emit("seed", b, None, x)
            else:
                st.mu[r] -= 1
                st.lam[r] -= 1
                tr.emit("seed_out", b, None, None)
    queues = [ct.ReverseQueue(tuple((x, r) for x, r, _, _ in queue), k)]
    while queue:
        nxt = []
        for x, r, plane, rid in queue:
            row = st.rows[r]
            if not row or x <= row[0]:
                box = ct.Box(r, st.mu[r])
                st.mu[r] -= 1
                row.insert(0, x)
                tr.extend(rid, ct.lift(box, plane, params))
                tr.emit("land", box, x, None)
            else:
                idx = _rightmost_less(row, x)
                box = ct.Box(r, st.mu[r] + 1 + idx)
                bumped = row[idx]
                row[idx] = x
                nxt.append((bumped, (r - 1) % k, plane - 1, rid))
                tr.extend(rid, ct.lift(box, plane, params))
                tr.emit("bump", box, x, bumped)
        queue = nxt
        queues.append(ct.ReverseQueue(tuple((x, r) for x, r, _, _ in queue), k))
    result = st.to_tableau()
    shed = frozenset(ct.skew_boxes(ct.SkewShape(t.inner, result.inner)))
    return result, shed, tr.routes(), tuple(queues), tuple(tr.events)
