"""Semistandard cylindric tableaux: storage, validation, weight, flips, words."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from .errors import Record, exact_ints
from .geometry import (
    Box,
    CylParams,
    CylPartition,
    GeometryError,
    SkewShape,
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


class CylTableau(Record):
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
    k, width = shape.params.k, shape.params.width
    inner, outer = shape.inner.window, shape.outer.window
    if len(rows) != k:
        raise RowLengthMismatch(f"expected {k} rows, got {len(rows)}")
    for r, (row, lo, hi) in enumerate(zip(rows, inner, outer)):
        if len(row) != hi - lo:
            raise RowLengthMismatch(f"row {r} has {len(row)} entries, shape wants {hi - lo}")
        if not exact_ints(*row):
            bad = next(v for v in row if not exact_ints(v))
            raise TableauError(f"entries must be integers, got {bad!r}")
        for j in range(len(row) - 1):
            if row[j] > row[j + 1]:
                raise RowNotWeaklyIncreasing(r, lo + j + 1)
    # Column strictness: compare each plane row r with plane row r+1, where
    # plane row k is the window row 0 shifted left by the horizontal period.
    # Columns of a skew shape are contiguous, so adjacent rows suffice.
    for r, row in enumerate(rows):
        b, shift = (r + 1, 0) if r + 1 < k else (0, width)
        lo_a, lo_b, below = inner[r], inner[b] - shift, rows[b]
        for c in range(max(lo_a, lo_b) + 1, min(outer[r], outer[b] - shift) + 1):
            if row[c - lo_a - 1] >= below[c - lo_b - 1]:
                raise ColumnNotStrictlyIncreasing(c)


def tableau_validate(shape: SkewShape, rows: Iterable[Iterable[int]]) -> CylTableau:
    """Build a tableau from dense row entry lists, raising if not semistandard."""
    return CylTableau(shape, tuple([tuple(row) for row in rows]))


def empty_tableau(partition: CylPartition) -> CylTableau:
    """The empty tableau of shape partition/partition."""
    shape = SkewShape(partition, partition)
    return CylTableau(shape, tuple(() for _ in range(partition.params.k)))


def strip_counts(t: CylTableau) -> dict[int, list[int]]:
    """Map each letter to its strip: its count in each row, which is its marble turn."""
    k = t.params.k
    out: dict[int, list[int]] = {}
    for r, row in enumerate(t.rows):
        for v in row:
            counts = out.get(v)
            if counts is None:
                counts = out[v] = [0] * k
            counts[r] += 1
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
    while keeping letters positive.  Row r of the result is row -r mod k of t
    read right to left.  Flipping twice with the same bound returns t.  A bound
    that is not an integer, or is below the largest entry, is a TableauError.
    """
    top = t.max_entry()
    bound = top if alphabet_bound is None else alphabet_bound
    if not exact_ints(bound):
        raise TableauError(f"alphabet bound must be an integer, got {bound!r}")
    if bound < top:
        raise TableauError(f"alphabet bound {bound} is below the largest entry {top}")
    k = t.params.k
    rows = tuple(tuple(bound + 1 - a for a in reversed(t.rows[-r % k])) for r in range(k))
    return CylTableau(SkewShape(flip_partition(t.inner), flip_partition(t.outer)), rows)


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
