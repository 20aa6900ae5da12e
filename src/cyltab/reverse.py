"""Reverse row insertion: the inverse of forward multi-insertion.

A horizontal strip is removed from the outer shape and the displaced entries
bump upward, each chain landing on the inner frontier.  Reverse routes
retrace the forward routes point for point, in reverse order.
`reverse_full_multi` checks a `Box` list, converts it to per-row counts and
runs the logged seeding and cascade on one `TableauState`; `_remove_strip`,
the core the inverse correspondence calls, does the same in place from row 0,
unlogged and unchecked.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import ge
from typing import Iterable, Sequence

from .errors import Record, exact_ints
# `lift` is no longer called here but stays a module name: bench/tracer.py rebinds it.
from .geometry import Box, CylParams, SkewShape, lift  # noqa: F401
from .insertion import (
    BumpingRoute,
    InsertionError,
    Step,
    TableauState,
    _cascade,
    _LogViews,
    _Queue,
    _check_strip,
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


class ReverseQueue(_Queue):
    """Reverse-regular means that among pairs sharing a row, larger letters come first."""

    def is_reverse_regular(self) -> bool:
        return self._rows_ordered(ge)


class ReverseMultiResult(_LogViews, Record):
    """A reverse multi-insertion; routes, queues and events are views of its log."""

    tableau: CylTableau
    reverse_new_set: frozenset[Box]
    log: tuple[Step, ...]
    rounds: tuple[int, ...]

    _row_shift = -1
    _queue_type = ReverseQueue


def outside_corners(t: CylTableau) -> list[Box]:
    """Boxes removable from the outer shape."""
    lam = t.outer
    out = []
    for r in range(t.params.k):
        c = lam.window[r]
        if c > lam.part(r + 1):
            out.append(Box(r, c))
    return out


def _strip_from_outer(params: CylParams, lam: Sequence[int], boxes: Iterable[Box]) -> list[int]:
    """Per-row counts of a set of boxes, each row peeling the outer shape contiguously."""
    k = params.k
    per_row: dict[int, list[int]] = {}
    for b in sorted(set(boxes), key=lambda b: (b.row, -b.col)):
        if not 0 <= b.row < k:
            raise ReversePreconditionViolated(f"box {b} row outside [0, {k})")
        if b.col > lam[b.row]:
            raise ReversePreconditionViolated(f"box {b} lies outside the outer shape")
        per_row.setdefault(b.row, []).append(b.col)
    for r, cols in per_row.items():
        cols.sort()
        if cols != list(range(lam[r] - len(cols) + 1, lam[r] + 1)):
            raise ReversePreconditionViolated(
                f"row {r} boxes {cols} do not peel the outer shape contiguously"
            )
    return [len(per_row.get(r, ())) for r in range(k)]


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
    st: TableauState, counts: Sequence[int], seed_row: int, log: list[Step]
) -> list[tuple[int, int, int, int]]:
    """Peel counts[r] boxes off row r, each at its end column, from seed_row downward."""
    if not exact_ints(seed_row):
        raise ReversePreconditionViolated(f"seed_row must be an integer, got {seed_row!r}")
    k = st.params.k
    rows, mu, lam = st.rows, st.mu, st.lam
    xi = [m - c for m, c in zip(lam, counts)]
    _check_strip(st.params, xi, lam, xi, "outer shape minus boxes", ReversePreconditionViolated)
    queue: list[tuple[int, int, int, int]] = []
    for h in range(seed_row, seed_row - k, -1):
        r = h % k
        for _ in range(counts[r]):
            rid = len(log)
            col = mu[r] + len(rows[r])
            if rows[r]:
                x = rows[r].pop()
                queue.append((x, (h - 1) % k, h - 1, rid))
                log.append(("seed", r, col, h, rid, None, x))
            else:
                mu[r] -= 1
                log.append(("seed_out", r, col, h, rid, None, None))
    return queue


def _remove_strip(st: TableauState, counts: Sequence[int]) -> None:
    """Reverse-insert a strip of counts[r] boxes per row out of st in place, from row 0.

    The log-free twin of _seed_reverse and _cascade: the same seeds and bumps
    in the same order, with each queued item just (letter, row).  Rows are
    peeled 0, k - 1, ..., 1, and the queue grows as it is read.  Unlike
    _seed_reverse it does not check the strip: crsk_inverse passes only Q's own strips.
    """
    k = st.params.k
    rows, mu = st.rows, st.mu
    above = [k - 1, *range(k - 1)]
    queue: list[tuple[int, int]] = []
    for r in (0, *range(k - 1, 0, -1)):
        c = counts[r]
        if c:
            row = rows[r]
            seeds = min(c, len(row))  # entries displaced, last first; boxes past them leave both
            queue += [(row.pop(), above[r]) for _ in range(seeds)]
            mu[r] -= c - seeds
    for x, r in queue:
        row = rows[r]
        idx = bisect_left(row, x) - 1
        if idx < 0:
            mu[r] -= 1
            row.insert(0, x)
        else:
            queue.append((row[idx], above[r]))
            row[idx] = x


def seed_reverse_multi(
    t: CylTableau, boxes: Iterable[Box], seed_row: int = 0
) -> tuple[TableauState, ReverseQueue]:
    """Remove a horizontal strip from the outer shape, yielding the start queue."""
    state = TableauState.from_tableau(t)
    queue = _seed_reverse(state, _strip_from_outer(t.params, state.lam, boxes), seed_row, [])
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
    st = TableauState.from_tableau(t)
    queue = _seed_reverse(st, _strip_from_outer(st.params, st.lam, boxes), seed_row, log)
    rounds = _cascade(st, queue, log, _reverse_round)
    result = st.to_tableau()
    # Measured against the inner shape of the input tableau, so boxes shed
    # degenerately during seeding count as part of the reverse new set.
    shed = SkewShape(t.inner, result.inner)
    return ReverseMultiResult(result, frozenset(shed.boxes()), tuple(log), rounds)


def reverse_insert(t: CylTableau, b: Box) -> tuple[CylTableau, BumpingRoute]:
    """Remove a single outside corner, bumping one chain of entries upward."""
    if b not in outside_corners(t):
        raise NotOutsideCorner(f"box {b} is not an outside corner")
    res = reverse_full_multi(t, [b], seed_row=b.row)
    return res.tableau, res.routes[0]
