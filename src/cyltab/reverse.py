"""Reverse row insertion: the inverse of forward multi-insertion.

A horizontal strip is removed from the outer shape and the displaced entries
bump upward, each chain landing on the inner frontier.  Reverse routes
retrace the forward routes point for point, in reverse order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

# `lift` is no longer called here but stays a module name: bench/tracer.py rebinds it.
from .geometry import Box, SkewShape, lift  # noqa: F401
from .insertion import (
    BumpingRoute,
    InsertionError,
    InsertionEvent,
    Step,
    TableauState,
    _cascade,
    _events,
    _queues,
    _routes,
)
from .tableau import CylTableau


class NotOutsideCorner(InsertionError):
    pass


class QueueNotReverseRegular(InsertionError):
    pass


class ReversePreconditionViolated(InsertionError):
    def __init__(self, clause: str):
        self.clause = clause
        super().__init__(clause)


@dataclass(frozen=True, slots=True)
class ReverseQueue:
    """FIFO of (letter, row) pairs; among equal rows, larger letters come first."""

    items: tuple[tuple[int, int], ...]
    k: int

    @staticmethod
    def build(items: Iterable[tuple[int, int]], k: int) -> "ReverseQueue":
        return ReverseQueue(tuple((x, r % k) for x, r in items), k)

    def is_reverse_regular(self) -> bool:
        seen: dict[int, int] = {}
        for x, r in self.items:
            if r in seen and x > seen[r]:
                return False
            seen[r] = x
        return True

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class ReverseMultiResult:
    """A reverse multi-insertion; routes, queues and events are views of its log."""

    tableau: CylTableau
    reverse_new_set: frozenset[Box]
    log: tuple[Step, ...]
    rounds: tuple[int, ...]

    @property
    def routes(self) -> tuple[BumpingRoute, ...]:
        return _routes(self.log, self.tableau.params)

    @property
    def queues(self) -> tuple[ReverseQueue, ...]:
        return _queues(self.log, self.rounds, self.tableau.params.k, -1, ReverseQueue)

    @property
    def events(self) -> tuple[InsertionEvent, ...]:
        return _events(self.log)


def outside_corners(t: CylTableau) -> list[Box]:
    """Boxes removable from the outer shape."""
    lam = t.outer
    out = []
    for r in range(t.params.k):
        c = lam.window[r]
        if c > lam.part(r + 1):
            out.append(Box(r, c))
    return out


def _check_strip_from_outer(t: CylTableau, boxes: list[Box]) -> None:
    params = t.params
    k = params.k
    lam = list(t.outer.window)
    per_row: dict[int, list[int]] = {}
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


def reverse_one_step_multi(
    state: TableauState, queue: ReverseQueue
) -> tuple[TableauState, ReverseQueue]:
    """Reverse-insert every queued letter into its row, collecting bumped letters."""
    if not queue.is_reverse_regular():
        raise QueueNotReverseRegular(f"queue {queue.items} is not reverse-regular")
    st = state.copy()
    out = _reverse_round(st, [(x, r, r, 0) for x, r in queue.items], [])
    return st, ReverseQueue(tuple((x, r) for x, r, _, _ in out), queue.k)


def _reverse_round(
    st: TableauState, queue: list[tuple[int, int, int, int]], log: list[Step]
) -> list[tuple[int, int, int, int]]:
    """Reverse-insert each queued (letter, row, plane row, route id); return the bumped.

    A letter bumps the rightmost smaller entry of its row, or lands just
    inside the inner shape if there is none.  Rows stay weakly increasing.
    """
    k = st.params.k
    rows, mu = st.rows, st.mu
    out = []
    for x, r, plane, rid in queue:
        row = rows[r]
        idx = bisect_left(row, x) - 1
        if idx < 0:
            log.append(("land", r, mu[r], plane, rid, x, None))
            mu[r] -= 1
            row.insert(0, x)
        else:
            bumped = row[idx]
            row[idx] = x
            log.append(("bump", r, mu[r] + 1 + idx, plane, rid, x, bumped))
            out.append((bumped, (r - 1) % k, plane - 1, rid))
    return out


def _seed_reverse(
    t: CylTableau, boxes: Iterable[Box], seed_row: int, log: list[Step]
) -> tuple[TableauState, list[tuple[int, int, int, int]]]:
    """Peel the strip from seed_row downward in index, right to left; one route per box."""
    bs = sorted(set(boxes), key=lambda b: (b.row, -b.col))
    _check_strip_from_outer(t, bs)
    st = TableauState.from_tableau(t)
    k = st.params.k
    queue: list[tuple[int, int, int, int]] = []
    for h in range(seed_row, seed_row - k, -1):
        r = h % k
        for b in bs:
            if b.row != r:
                continue
            rid = len(log)
            st.lam[r] -= 1
            if b.col > st.mu[r]:
                x = st.rows[r].pop()
                queue.append((x, (h - 1) % k, h - 1, rid))
                log.append(("seed", r, b.col, h, rid, None, x))
            else:
                st.mu[r] -= 1
                log.append(("seed_out", r, b.col, h, rid, None, None))
    return st, queue


def seed_reverse_multi(
    t: CylTableau, boxes: Iterable[Box], seed_row: int = 0
) -> tuple[TableauState, ReverseQueue]:
    """Remove a horizontal strip from the outer shape, yielding the start queue."""
    state, queue = _seed_reverse(t, boxes, seed_row, [])
    return state, ReverseQueue(tuple((x, r) for x, r, _, _ in queue), t.params.k)


def reverse_full_multi(
    t: CylTableau, boxes: Iterable[Box], seed_row: int = 0
) -> ReverseMultiResult:
    """Remove a horizontal strip from the outer shape and cascade entries upward.

    Rows are peeled from seed_row downward in index (right to left within a
    row); displaced entries bump the rightmost smaller entry of the row above
    until each chain lands just inside the inner shape.  The boxes shed by
    the inner shape form a horizontal strip.
    """
    log: list[Step] = []
    st, queue = _seed_reverse(t, boxes, seed_row, log)
    rounds = _cascade(st, queue, log, _reverse_round)
    result = st.to_tableau()
    # Measured against the inner shape of the input tableau, so boxes shed
    # degenerately during seeding count as part of the reverse new set.
    shed = SkewShape(t.inner, result.inner)
    return ReverseMultiResult(result, frozenset(shed.boxes()), tuple(log), rounds)


def reverse_insert(t: CylTableau, b: Box) -> tuple[CylTableau, BumpingRoute]:
    """Remove a single outside corner, bumping one chain of entries upward."""
    r = b.row
    lam = t.outer
    if not (0 <= r < t.params.k and b.col == lam.window[r] and b.col > lam.part(r + 1)):
        raise NotOutsideCorner(f"box {b} is not an outside corner")
    res = reverse_full_multi(t, [b], seed_row=r)
    return res.tableau, res.routes[0]
