"""Row insertion on the cylinder: single-box internal insertion and multi-insertion.

Multi-insertion removes a horizontal strip of boxes into the inner shape and
bumps the displaced entries downward row by row, driven by a FIFO queue of
(letter, row) pairs.  Every seed, bump and landing is one tuple of a flat
step log; the bumping routes (the chain of plane points each displaced box
travels through, always trending weakly left), the successive queues and
the events are derived from that log when they are read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .geometry import Box, CylParams, CylPartition, Point, SkewShape, lift
from .tableau import CylTableau, TableauError


class InsertionError(TableauError):
    pass


class NotInsideCocorner(InsertionError):
    pass


class QueueNotRegular(InsertionError):
    pass


class PreconditionViolated(InsertionError):
    def __init__(self, clause: str):
        self.clause = clause
        super().__init__(clause)


@dataclass(frozen=True, slots=True)
class InsertionQueue:
    """FIFO of (letter, row) pairs; rows are stored canonically in [0, k).

    Regular means that among pairs sharing a row, smaller letters come first.
    """

    items: tuple[tuple[int, int], ...]
    k: int

    @staticmethod
    def build(items: Iterable[tuple[int, int]], k: int) -> "InsertionQueue":
        return InsertionQueue(tuple((x, r % k) for x, r in items), k)

    def is_regular(self) -> bool:
        seen: dict[int, int] = {}
        for x, r in self.items:
            if r in seen and x < seen[r]:
                return False
            seen[r] = x
        return True

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class BumpingRoute:
    """Plane points visited by one insertion chain, with global step stamps.

    Rows are consecutive: increasing for forward routes, decreasing for
    reverse routes.
    """

    points: tuple[Point, ...]
    steps: tuple[int, ...]

    def _index(self, plane_row: int) -> int | None:
        first = self.points[0].x
        sign = 1 if len(self.points) < 2 or self.points[1].x > first else -1
        idx = (plane_row - first) * sign
        return idx if 0 <= idx < len(self.points) else None

    def row_point(self, plane_row: int) -> Point | None:
        idx = self._index(plane_row)
        return None if idx is None else self.points[idx]

    def row_step(self, plane_row: int) -> int | None:
        idx = self._index(plane_row)
        return None if idx is None else self.steps[idx]


@dataclass(frozen=True, slots=True)
class InsertionEvent:
    """One state change: a seed removal, a bump, or a landing."""

    step: int
    kind: str  # "seed", "seed_out", "bump", "land"
    box: Box
    inserted: int | None
    bumped: int | None


# One step of a cascade: (kind, row, col, plane_row, route_id, inserted, bumped).
# The box (row, col) is where the step happened and plane_row the plane row it
# lifts to; kind is "seed", "seed_out", "bump" or "land".
Step = tuple[str, int, int, int, int, int | None, int | None]


def _events(log: tuple[Step, ...]) -> tuple[InsertionEvent, ...]:
    """One event per step, stamped with its log index."""
    return tuple(
        InsertionEvent(i, kind, Box(r, c), inserted, bumped)
        for i, (kind, r, c, _, _, inserted, bumped) in enumerate(log)
    )


def _routes(log: tuple[Step, ...], params: CylParams) -> tuple[BumpingRoute, ...]:
    """One route per seeded box: the lifts of its steps, stamped with log indices."""
    points: list[list[Point]] = []
    stamps: list[list[int]] = []
    for i, (_, r, c, plane, rid, _, _) in enumerate(log):
        if rid == len(points):
            points.append([])
            stamps.append([])
        points[rid].append(lift(Box(r, c), plane, params))
        stamps[rid].append(i)
    return tuple(BumpingRoute(tuple(p), tuple(s)) for p, s in zip(points, stamps))


def _queues(log: tuple[Step, ...], rounds: tuple[int, ...], k: int, shift: int, queue_type):
    """Queue j holds the letters displaced in log segment j, bound for the next row."""
    out = []
    start = 0
    for end in rounds:
        items = tuple(
            (bumped, (r + shift) % k)
            for _, r, _, _, _, _, bumped in log[start:end]
            if bumped is not None
        )
        out.append(queue_type(items, k))
        start = end
    return tuple(out)


def _cascade(st: TableauState, queue: list, log: list[Step], one_round) -> tuple[int, ...]:
    """Run queue rounds until every chain lands; return the log length after each."""
    rounds = [len(log)]
    while queue:
        queue = one_round(st, queue, log)
        rounds.append(len(log))
    return tuple(rounds)


@dataclass(frozen=True, slots=True)
class MultiInsertResult:
    """A forward multi-insertion; routes, queues and events are views of its log."""

    tableau: CylTableau
    new_set: frozenset[Box]
    log: tuple[Step, ...]
    rounds: tuple[int, ...]

    @property
    def routes(self) -> tuple[BumpingRoute, ...]:
        return _routes(self.log, self.tableau.params)

    @property
    def queues(self) -> tuple[InsertionQueue, ...]:
        return _queues(self.log, self.rounds, self.tableau.params.k, 1, InsertionQueue)

    @property
    def events(self) -> tuple[InsertionEvent, ...]:
        return _events(self.log)


@dataclass
class TableauState:
    """Mutable working copy of a tableau; not necessarily valid mid-run."""

    params: CylParams
    mu: list[int]
    lam: list[int]
    rows: list[list[int]]

    @staticmethod
    def from_tableau(t: CylTableau) -> "TableauState":
        return TableauState(
            t.params,
            list(t.inner.window),
            list(t.outer.window),
            [list(r) for r in t.rows],
        )

    def copy(self) -> "TableauState":
        return TableauState(
            self.params, list(self.mu), list(self.lam), [list(r) for r in self.rows]
        )

    def to_tableau(self) -> CylTableau:
        shape = SkewShape(
            CylPartition(self.params, tuple(self.lam)),
            CylPartition(self.params, tuple(self.mu)),
        )
        return CylTableau(shape, tuple(tuple(r) for r in self.rows))


def point_order_le(p: Point, q: Point) -> bool:
    """Total order on points: above, or same row and weakly right."""
    return p.x < q.x or (p.x == q.x and p.y >= q.y)


def point_order_lt(p: Point, q: Point) -> bool:
    return p != q and point_order_le(p, q)


def inside_cocorners(t: CylTableau) -> list[Box]:
    """Boxes addable to the inner shape: left and upper neighbors lie in it."""
    mu = t.inner
    k = t.params.k
    out = []
    for r in range(k):
        c = mu.window[r] + 1
        if c <= mu.part(r - 1):
            out.append(Box(r, c))
    return out


def _check_strip_into_inner(t: CylTableau, boxes: Sequence[Box]) -> None:
    params = t.params
    k = params.k
    mu = list(t.inner.window)
    per_row: dict[int, list[int]] = {}
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


def one_step_multi(
    state: TableauState, queue: InsertionQueue
) -> tuple[TableauState, InsertionQueue]:
    """Insert every queued letter into its row, collecting the bumped letters.

    Returns a fresh state and the queue of bumped (letter, next row) pairs,
    which is again regular.
    """
    if not queue.is_regular():
        raise QueueNotRegular(f"queue {queue.items} is not regular")
    st = state.copy()
    out = _forward_round(st, [(x, r, r, 0) for x, r in queue.items], [])
    return st, InsertionQueue(tuple((x, r) for x, r, _, _ in out), queue.k)


def _forward_round(
    st: TableauState, queue: list[tuple[int, int, int, int]], log: list[Step]
) -> list[tuple[int, int, int, int]]:
    """Insert each queued (letter, row, plane row, route id); return the bumped ones.

    A letter bumps the leftmost greater entry of its row, or lands at the end
    of the row if there is none.  Rows stay weakly increasing throughout.
    """
    k = st.params.k
    rows, mu, lam = st.rows, st.mu, st.lam
    out = []
    for x, r, plane, rid in queue:
        row = rows[r]
        idx = bisect_right(row, x)
        if idx == len(row):
            row.append(x)
            lam[r] += 1
            log.append(("land", r, lam[r], plane, rid, x, None))
        else:
            bumped = row[idx]
            row[idx] = x
            log.append(("bump", r, mu[r] + 1 + idx, plane, rid, x, bumped))
            out.append((bumped, (r + 1) % k, plane + 1, rid))
    return out


def seed_multi(
    t: CylTableau, boxes: Iterable[Box], seed_row: int = 0
) -> tuple[TableauState, InsertionQueue]:
    """Remove a horizontal strip into the inner shape, yielding the start queue."""
    state, queue = _seed_forward(t, boxes, seed_row, [])
    return state, InsertionQueue(tuple((x, r) for x, r, _, _ in queue), t.params.k)


def _seed_forward(
    t: CylTableau, boxes: Iterable[Box], seed_row: int, log: list[Step]
) -> tuple[TableauState, list[tuple[int, int, int, int]]]:
    """Absorb the strip row by row from seed_row, left to right; one route per box."""
    bs = sorted(set(boxes), key=lambda b: (b.row, b.col))
    _check_strip_into_inner(t, bs)
    st = TableauState.from_tableau(t)
    k = st.params.k
    queue: list[tuple[int, int, int, int]] = []  # letter, row, plane row, route id
    for h in range(seed_row, seed_row + k):
        r = h % k
        for b in bs:
            if b.row != r:
                continue
            rid = len(log)
            st.mu[r] += 1
            if b.col <= st.lam[r]:
                x = st.rows[r].pop(0)
                queue.append((x, (h + 1) % k, h + 1, rid))
                log.append(("seed", r, b.col, h, rid, None, x))
            else:
                st.lam[r] += 1
                log.append(("seed_out", r, b.col, h, rid, None, None))
    return st, queue


def full_multi(t: CylTableau, boxes: Iterable[Box], seed_row: int = 0) -> MultiInsertResult:
    """Insert a horizontal strip of boxes into the inner shape of a tableau.

    The strip is removed row by row (left to right within a row) starting at
    seed_row, then the displaced entries cascade downward until every chain
    lands.  The result records the grown tableau, the set of boxes added to
    the outer shape (always a horizontal strip) and the log of every step,
    from which one bumping route per removed box and the successive queues
    are derived on demand.
    """
    log: list[Step] = []
    st, queue = _seed_forward(t, boxes, seed_row, log)
    rounds = _cascade(st, queue, log, _forward_round)
    result = st.to_tableau()
    # The new set is measured against the outer shape of the input tableau,
    # so boxes absorbed degenerately during seeding count as new.
    new_shape = SkewShape(result.outer, t.outer)
    return MultiInsertResult(result, frozenset(new_shape.boxes()), tuple(log), rounds)


def internal_insert(t: CylTableau, b: Box) -> tuple[CylTableau, BumpingRoute]:
    """Insert a single inside cocorner, bumping one chain of entries downward."""
    r = b.row
    if not (
        0 <= r < t.params.k
        and b.col == t.inner.window[r] + 1
        and b.col <= t.inner.part(r - 1)
    ):
        raise NotInsideCocorner(f"box {b} is not an inside cocorner")
    res = full_multi(t, [b], seed_row=r)
    return res.tableau, res.routes[0]
