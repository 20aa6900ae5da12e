"""Row insertion on the cylinder: single-box internal insertion and multi-insertion.

Multi-insertion removes a horizontal strip of boxes into the inner shape and
bumps the displaced entries downward row by row, driven by a FIFO queue of
(letter, row) pairs.  Every seed, bump and landing is one tuple of a flat
step log; the bumping routes (the chain of plane points each displaced box
travels through, always trending weakly left), the successive queues and
the events are derived from that log when they are read.  The core
`_insert_strip` works in place on one `TableauState` and takes the strip as
per-row counts; `full_multi` checks a `Box` list, converts it and wraps it.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import le
from typing import Iterable, Sequence

from .errors import Record
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


class _Queue(Record):
    """FIFO of (letter, row) pairs; rows are stored canonically in [0, k)."""

    items: tuple[tuple[int, int], ...]
    k: int

    @classmethod
    def build(cls, items: Iterable[tuple[int, int]], k: int):
        return cls(tuple((x, r % k) for x, r in items), k)

    def __len__(self) -> int:
        return len(self.items)

    def _rows_ordered(self, before) -> bool:
        """True iff before(earlier, later) holds for each two letters sharing a row."""
        seen: dict[int, int] = {}
        for x, r in self.items:
            if r in seen and not before(seen[r], x):
                return False
            seen[r] = x
        return True


class InsertionQueue(_Queue):
    """Regular means that among pairs sharing a row, smaller letters come first."""

    def is_regular(self) -> bool:
        return self._rows_ordered(le)


class BumpingRoute(Record):
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


class InsertionEvent(Record):
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


def _cascade(st: TableauState, queue: list, log: list[Step], one_round) -> tuple[int, ...]:
    """Run queue rounds until every chain lands; return the log length after each."""
    rounds = [len(log)]
    while queue:
        queue = one_round(st, queue, log)
        rounds.append(len(log))
    return tuple(rounds)


class _LogViews:
    """Routes, queues and events derived from a result's tableau, log and rounds."""

    __slots__ = ()

    @property
    def routes(self) -> tuple[BumpingRoute, ...]:
        """One route per seeded box: the lifts of its steps, stamped with log indices."""
        params = self.tableau.params
        points: list[list[Point]] = []
        stamps: list[list[int]] = []
        for i, (_, r, c, plane, rid, _, _) in enumerate(self.log):
            if rid == len(points):
                points.append([])
                stamps.append([])
            points[rid].append(lift(Box(r, c), plane, params))
            stamps[rid].append(i)
        return tuple(BumpingRoute(tuple(p), tuple(s)) for p, s in zip(points, stamps))

    @property
    def queues(self) -> tuple[_Queue, ...]:
        """Queue j holds the letters displaced in log segment j, bound for the next row."""
        k = self.tableau.params.k
        out = []
        for start, end in zip((0, *self.rounds), self.rounds):
            items = tuple(
                (bumped, (r + self._row_shift) % k)
                for _, r, _, _, _, _, bumped in self.log[start:end]
                if bumped is not None
            )
            out.append(self._queue_type(items, k))
        return tuple(out)

    @property
    def events(self) -> tuple[InsertionEvent, ...]:
        """One event per step, stamped with its log index."""
        return tuple(
            InsertionEvent(i, kind, Box(r, c), inserted, bumped)
            for i, (kind, r, c, _, _, inserted, bumped) in enumerate(self.log)
        )


class MultiInsertResult(_LogViews, Record):
    """A forward multi-insertion; routes, queues and events are views of its log."""

    tableau: CylTableau
    new_set: frozenset[Box]
    log: tuple[Step, ...]
    rounds: tuple[int, ...]

    _row_shift = 1
    _queue_type = InsertionQueue


class TableauState(Record):
    """Mutable working copy of a tableau; not necessarily valid mid-run."""

    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

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
        return CylTableau(shape, tuple([tuple(r) for r in self.rows]))


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


def _strip_into_inner(params: CylParams, mu: Sequence[int], boxes: Iterable[Box]) -> list[int]:
    """Per-row counts of a set of boxes, each row extending the inner shape contiguously."""
    k = params.k
    per_row: dict[int, list[int]] = {}
    for b in sorted(set(boxes), key=lambda b: (b.row, b.col)):
        if not 0 <= b.row < k:
            raise PreconditionViolated(f"box {b} row outside [0, {k})")
        if b.col <= mu[b.row]:
            raise PreconditionViolated(f"box {b} lies in the inner shape")
        per_row.setdefault(b.row, []).append(b.col)
    for r, cols in per_row.items():
        if cols != list(range(mu[r] + 1, mu[r] + len(cols) + 1)):
            raise PreconditionViolated(
                f"row {r} boxes {cols} do not extend the inner shape contiguously"
            )
    return [len(per_row.get(r, ())) for r in range(k)]


def _check_strip(
    params: CylParams, lower: list[int], upper: list[int], new: list[int], what: str, error: type
) -> None:
    """Raise error unless upper/lower is a horizontal strip and new, its moved side, a partition."""
    k, width = params.k, params.width
    for i in range(k - 1):
        if new[i] < new[i + 1]:
            raise error(f"{what} is not a partition")
    if new[k - 1] < new[0] - width:
        raise error(f"{what} violates the wrap")
    for i in range(k):
        nxt = upper[i + 1] if i + 1 < k else upper[0] - width
        if lower[i] < nxt:
            raise error("boxes do not form a horizontal strip")


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
    state = TableauState.from_tableau(t)
    queue = _seed_forward(state, _strip_into_inner(t.params, state.mu, boxes), seed_row, [])
    return state, InsertionQueue(tuple((x, r) for x, r, _, _ in queue), t.params.k)


def _seed_forward(
    st: TableauState, counts: Sequence[int], seed_row: int, log: list[Step]
) -> list[tuple[int, int, int, int]]:
    """Absorb counts[r] boxes into row r, each at column mu[r] + 1, from seed_row on."""
    k = st.params.k
    rows, mu, lam = st.rows, st.mu, st.lam
    nu = [m + c for m, c in zip(mu, counts)]
    _check_strip(st.params, mu, nu, nu, "inner shape plus boxes", PreconditionViolated)
    queue: list[tuple[int, int, int, int]] = []  # letter, row, plane row, route id
    for h in range(seed_row, seed_row + k):
        r = h % k
        for _ in range(counts[r]):
            rid = len(log)
            mu[r] += 1
            if mu[r] <= lam[r]:
                x = rows[r].pop(0)
                queue.append((x, (h + 1) % k, h + 1, rid))
                log.append(("seed", r, mu[r], h, rid, None, x))
            else:
                lam[r] += 1
                log.append(("seed_out", r, mu[r], h, rid, None, None))
    return queue


def _insert_strip(st: TableauState, counts: Sequence[int], seed_row: int, log: list) -> tuple:
    """Multi-insert a strip of counts[r] boxes per row into st in place; return the rounds."""
    return _cascade(st, _seed_forward(st, counts, seed_row, log), log, _forward_round)


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
    st = TableauState.from_tableau(t)
    rounds = _insert_strip(st, _strip_into_inner(st.params, st.mu, boxes), seed_row, log)
    result = st.to_tableau()
    # The new set is measured against the outer shape of the input tableau,
    # so boxes absorbed degenerately during seeding count as new.
    new_shape = SkewShape(result.outer, t.outer)
    return MultiInsertResult(result, frozenset(new_shape.boxes()), tuple(log), rounds)


def internal_insert(t: CylTableau, b: Box) -> tuple[CylTableau, BumpingRoute]:
    """Insert a single inside cocorner, bumping one chain of entries downward."""
    if b not in inside_cocorners(t):
        raise NotInsideCocorner(f"box {b} is not an inside cocorner")
    res = full_multi(t, [b], seed_row=b.row)
    return res.tableau, res.routes[0]
