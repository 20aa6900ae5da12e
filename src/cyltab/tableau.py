"""Semistandard cylindric tableaux: storage, validation, weight, flips, words."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .geometry import (
    Box,
    CylParams,
    CylPartition,
    GeometryError,
    SkewShape,
    flip_box,
    flip_partition,
)


class TableauError(GeometryError):
    pass


class RowLengthMismatch(TableauError):
    pass


class RowNotWeaklyIncreasing(TableauError):
    def __init__(self, row: int, col: int):
        self.row, self.col = row, col
        super().__init__(f"row {row} decreases at column {col}")


class ColumnNotStrictlyIncreasing(TableauError):
    def __init__(self, col: int):
        self.col = col
        super().__init__(f"column {col} is not strictly increasing")


@dataclass(frozen=True, slots=True)
class CylTableau:
    """A semistandard filling of a skew cylindric shape.

    Row r holds the entries of columns inner[r]+1 .. outer[r], left to right.
    Rows weakly increase; every cylinder column strictly increases downward,
    including across the periodic wrap.  Construction validates.
    """

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _validate(self.shape, self.rows)

    @property
    def params(self) -> CylParams:
        return self.shape.params

    @property
    def inner(self) -> CylPartition:
        return self.shape.inner

    @property
    def outer(self) -> CylPartition:
        return self.shape.outer

    def entry(self, b: Box) -> int:
        lo, hi = self.shape.row_interval(b.row)
        if not lo < b.col <= hi:
            raise TableauError(f"box {b} is not in the shape")
        return self.rows[b.row][b.col - lo - 1]

    def boxes(self) -> Iterator[Box]:
        return self.shape.boxes()

    def size(self) -> int:
        return self.shape.size()

    def entries(self) -> Iterator[int]:
        for row in self.rows:
            yield from row

    def max_entry(self, default: int = 0) -> int:
        return max(self.entries(), default=default)


def _validate(shape: SkewShape, rows: tuple[tuple[int, ...], ...]) -> None:
    k = shape.params.k
    width = shape.params.width
    if len(rows) != k:
        raise RowLengthMismatch(f"expected {k} rows, got {len(rows)}")
    for r in range(k):
        lo, hi = shape.row_interval(r)
        if len(rows[r]) != hi - lo:
            raise RowLengthMismatch(
                f"row {r} has {len(rows[r])} entries, shape wants {hi - lo}"
            )
        for j in range(len(rows[r]) - 1):
            if rows[r][j] > rows[r][j + 1]:
                raise RowNotWeaklyIncreasing(r, lo + j + 1)
    # Column strictness: compare each plane row r with plane row r+1, where
    # plane row k is the window row 0 shifted left by the horizontal period.
    # Columns of a skew shape are contiguous, so adjacent rows suffice.
    for r in range(k):
        lo_a, hi_a = shape.row_interval(r)
        if r + 1 < k:
            lo_b, hi_b = shape.row_interval(r + 1)
            below = rows[r + 1]
        else:
            lo_b, hi_b = shape.row_interval(0)
            lo_b, hi_b = lo_b - width, hi_b - width
            below = rows[0]
        for c in range(max(lo_a, lo_b) + 1, min(hi_a, hi_b) + 1):
            if rows[r][c - lo_a - 1] >= below[c - lo_b - 1]:
                raise ColumnNotStrictlyIncreasing(c)


def tableau_validate(shape: SkewShape, rows: Iterable[Iterable[int]]) -> CylTableau:
    """Build a tableau from dense row entry lists, raising if not semistandard."""
    return CylTableau(shape, tuple(tuple(row) for row in rows))


def empty_tableau(partition: CylPartition) -> CylTableau:
    """The empty tableau of shape partition/partition."""
    shape = SkewShape(partition, partition)
    return CylTableau(shape, tuple(() for _ in range(partition.params.k)))


def from_box_entries(
    outer: CylPartition, inner: CylPartition, entries: dict[Box, int]
) -> CylTableau:
    """Assemble a tableau from a box-to-letter map covering the whole shape."""
    shape = SkewShape(outer, inner)
    rows = []
    for r in range(outer.params.k):
        lo, hi = shape.row_interval(r)
        rows.append(tuple(entries[Box(r, c)] for c in range(lo + 1, hi + 1)))
    return CylTableau(shape, tuple(rows))


def boxes_by_letter(t: CylTableau) -> dict[int, list[Box]]:
    """Map each letter to the boxes holding it, in one pass over the rows."""
    out: dict[int, list[Box]] = {}
    for r, (row, lo) in enumerate(zip(t.rows, t.inner.window)):
        for c, v in enumerate(row, lo + 1):
            out.setdefault(v, []).append(Box(r, c))
    return out


def weight(t: CylTableau) -> Counter[int]:
    """Letter multiplicities of the tableau."""
    return Counter(t.entries())


def weight_monomial(t: CylTableau) -> dict[int, int]:
    """Exponent map of the weight monomial: variable index -> exponent."""
    return {a: c for a, c in sorted(weight(t).items()) if c}


def is_standard(t: CylTableau) -> bool:
    """True iff the entries are exactly 1..m, each in one box."""
    m = t.size()
    return sorted(t.entries()) == list(range(1, m + 1))


def flip_tableau(t: CylTableau, alphabet_bound: int | None = None) -> CylTableau:
    """Rotate a tableau 180 degrees and reverse the order of its entries.

    Entry a becomes alphabet_bound + 1 - a, which realizes order reversal
    while keeping letters positive.  Applying flip twice with the same bound
    returns the original tableau.
    """
    bound = t.max_entry() if alphabet_bound is None else alphabet_bound
    params = t.params
    outer = flip_partition(t.inner)
    inner = flip_partition(t.outer)
    entries: dict[Box, int] = {}
    for b in t.boxes():
        entries[flip_box(b, params)] = bound + 1 - t.entry(b)
    return from_box_entries(outer, inner, entries)


def tableau_word(t: CylTableau) -> tuple[int, ...]:
    """Reading word: each row left to right, rows in the order 0, k-1, ..., 1.

    This is the bottom-to-top reading of the drawn window including the
    repeated top row at the bottom of the diagram.
    """
    k = t.params.k
    order = [0] + list(range(k - 1, 0, -1))
    out: list[int] = []
    for r in order:
        out.extend(t.rows[r])
    return tuple(out)


def shift_rows(t: CylTableau, steps: int = 1) -> CylTableau:
    """Re-anchor the window one or more plane rows lower.

    The result describes the same cylindric object read from row `steps`,
    so window index i maps to old sequence index i + steps.
    """
    k = t.params.k
    outer = CylPartition(t.params, tuple(t.outer.part(i + steps) for i in range(k)))
    inner = CylPartition(t.params, tuple(t.inner.part(i + steps) for i in range(k)))
    rows = tuple(t.rows[(i + steps) % k] for i in range(k))
    return CylTableau(SkewShape(outer, inner), rows)
