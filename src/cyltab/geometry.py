"""Cylinder geometry: points, boxes, cylindric partitions, skew shapes.

The cylinder with parameters (k, n), n > k, is the integer plane modulo the
shift (-k, n - k).  The x axis points downward (rows), the y axis points
rightward (columns).  A cylindric partition is a bi-infinite weakly
decreasing integer sequence satisfying lam[m] = lam[m + k] + (n - k); it is
stored as the window (lam[0], ..., lam[k-1]).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import CyltabError, Record, exact_ints


class GeometryError(CyltabError):
    pass


class WindowNotDecreasing(GeometryError):
    pass


class WrapViolated(GeometryError):
    pass


class ParamsMismatch(GeometryError):
    pass


class LiftRowMismatch(GeometryError):
    pass


class TooManyParts(GeometryError):
    pass


class PartTooWide(GeometryError):
    pass


def _require_ints(record: Record) -> None:
    """Raise GeometryError naming the first field of record that is not an exact integer."""
    for name in record.__match_args__:
        if not exact_ints(value := getattr(record, name)):
            raise GeometryError(f"{name} must be an integer, got {value!r}")


class CylParams(Record):
    """Vertical period k and total period parameter n (n > k)."""

    k: int
    n: int

    def __post_init__(self) -> None:
        _require_ints(self)
        if self.k < 1:
            raise GeometryError(f"k must be positive, got {self.k}")
        if self.n <= self.k:
            raise GeometryError(f"n must exceed k, got n={self.n}, k={self.k}")

    @property
    def width(self) -> int:
        """Horizontal period n - k."""
        return self.n - self.k


class Point(Record):
    """Plane point (x, y): x is the plane row, y the plane column."""

    x: int
    y: int

    __post_init__ = _require_ints


class Box(Record):
    """Canonical representative of a point orbit: row in [0, k), col unbounded."""

    row: int
    col: int

    __post_init__ = _require_ints


def project(p: Point, params: CylParams) -> Box:
    """Project a plane point onto the cylinder.

    The orbit of (x, y) is {(x - m*k, y + m*(n-k))}; the representative with
    row in [0, k) is returned.
    """
    r = p.x % params.k
    q = (p.x - r) // params.k
    return Box(r, p.y + q * params.width)


def lift(b: Box, plane_row: int, params: CylParams) -> Point:
    """Return the unique preimage of box b lying in the given plane row."""
    if (plane_row - b.row) % params.k != 0:
        raise LiftRowMismatch(
            f"plane row {plane_row} is not congruent to {b.row} mod {params.k}"
        )
    q = (plane_row - b.row) // params.k
    return Point(plane_row, b.col - q * params.width)


def flip_box(b: Box, params: CylParams) -> Box:
    """Rotate a box 180 degrees about the origin (an involution)."""
    return project(Point(-b.row, -b.col), params)


class CylPartition(Record):
    """One window of a cylindric partition."""

    params: CylParams
    window: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.params.k
        w = self.window
        if len(w) != k:
            raise GeometryError(f"window length {len(w)} != k={k}")
        if not exact_ints(*w):
            bad = next(v for v in w if not exact_ints(v))
            raise GeometryError(f"window parts must be integers, got {bad!r}")
        for i in range(k - 1):
            if w[i] < w[i + 1]:
                raise WindowNotDecreasing(f"window {w} increases at index {i}")
        if w[k - 1] < w[0] - self.params.width:
            raise WrapViolated(
                f"window {w}: last part {w[k-1]} < {w[0]} - {self.params.width}"
            )

    def part(self, m: int) -> int:
        """The m-th term of the bi-infinite sequence, any integer m."""
        if not exact_ints(m):
            raise GeometryError(f"part index must be an integer, got {m!r}")
        k = self.params.k
        r = m % k
        return self.window[r] - ((m - r) // k) * self.params.width

    def contains_point(self, p: Point) -> bool:
        return p.y <= self.part(p.x)

    def shifted(self, cols: int) -> "CylPartition":
        """Translate every part by a constant number of columns."""
        return CylPartition(self.params, tuple(v + cols for v in self.window))

    def __le__(self, other: "CylPartition") -> bool:
        return partition_contains(self, other)


def partition_validate(window: Iterable[int], params: CylParams) -> CylPartition:
    """Build a partition from a window, raising if the invariant fails."""
    return CylPartition(params, tuple(window))


def partition_contains(mu: CylPartition, lam: CylPartition) -> bool:
    """True iff mu is contained in lam (mu[m] <= lam[m] for all m)."""
    if mu.params != lam.params:
        raise ParamsMismatch(f"params differ: {mu.params} vs {lam.params}")
    return all(a <= b for a, b in zip(mu.window, lam.window))


def flip_window(w: Sequence[int], width: int) -> tuple[int, ...]:
    """The rotated window: part m is -1 - lam[-m], and lam[-m] = w[k - m] + width for 0 < m < k."""
    return (-1 - w[0], *(-1 - width - p for p in reversed(w[1:])))


def flip_partition(lam: CylPartition) -> CylPartition:
    """The 180-degree rotation of a partition (an involution)."""
    return CylPartition(lam.params, flip_window(lam.window, lam.params.width))


def cyl_embed(parts: Iterable[int], params: CylParams) -> CylPartition:
    """Embed a regular partition as a cylindric one by zero-padding the window.

    Requires at most k parts, each at most n - k, so the wrap constraint holds.
    """
    ps = tuple(parts)
    if len(ps) > params.k:
        raise TooManyParts(f"{len(ps)} parts exceed k={params.k}")
    for i in range(len(ps) - 1):
        if ps[i] < ps[i + 1]:
            raise WindowNotDecreasing(f"parts {ps} increase at index {i}")
    if ps and (ps[0] > params.width or ps[-1] < 0):
        raise PartTooWide(f"parts {ps} do not fit width {params.width}")
    return CylPartition(params, ps + (0,) * (params.k - len(ps)))


class SkewShape(Record):
    """Ordered pair of partitions (outer, inner) with inner contained in outer.

    The pair itself is the shape; two shapes with equal box sets but
    different partition pairs are distinct.
    """

    outer: CylPartition
    inner: CylPartition

    def __post_init__(self) -> None:
        if not partition_contains(self.inner, self.outer):
            raise GeometryError(
                f"inner {self.inner.window} not contained in outer {self.outer.window}"
            )

    @property
    def params(self) -> CylParams:
        return self.outer.params

    def size(self) -> int:
        return sum(a - b for a, b in zip(self.outer.window, self.inner.window))

    def row_interval(self, r: int) -> tuple[int, int]:
        """Half-open column interval (inner[r], outer[r]] of row r, r in [0, k)."""
        return self.inner.window[r], self.outer.window[r]

    def boxes(self) -> Iterator[Box]:
        for r in range(self.params.k):
            lo, hi = self.row_interval(r)
            for c in range(lo + 1, hi + 1):
                yield Box(r, c)


def skew_boxes(shape: SkewShape) -> frozenset[Box]:
    """The finite set of boxes strictly between inner and outer."""
    return frozenset(shape.boxes())


def is_horizontal_strip(shape: SkewShape) -> bool:
    """True iff no two boxes of the shape share a cylinder column.

    Equivalent to outer[i] >= inner[i] >= outer[i+1] over one window, with
    the wrap outer[k] = outer[0] - (n - k).
    """
    lam, mu = shape.outer, shape.inner
    k = shape.params.k
    return all(mu.window[i] >= lam.part(i + 1) for i in range(k))
