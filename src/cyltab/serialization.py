"""JSON schemas for the domain values.  Exact integers only, no floats."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import cyltab

from .errors import CyltabError, exact_ints

# Each parser reaches the classes it builds as cyltab.<name>, so that reading
# one kind of document loads only the modules that define it.
if TYPE_CHECKING:
    from .geometry import Box, CylParams, CylPartition, SkewShape
    from .marbles import MarbleGame
    from .tableau import CylTableau
    from .words import Certificate, Move


class SchemaError(CyltabError):
    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def _expect_int(value: Any, path: str) -> int:
    if not exact_ints(value):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _each(read):
    """A reader of a list that reads item i with read at path[i]."""

    def read_list(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise SchemaError(path, f"expected a list, got {type(value).__name__}")
        return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read_list


_expect_ints = _each(_expect_int)


def _build(path: str, make):
    """Return make(); a GeometryError it raises is reported as a SchemaError at path."""
    try:
        return make()
    except cyltab.geometry.GeometryError as e:
        raise SchemaError(path, str(e)) from e


def _fields(value: Any, path: str, readers: dict) -> tuple:
    """Read an object with exactly the keys of readers, in order, each at path.key.

    Callers build readers inside the call, so a parser named there is the one
    bound in this module when the document is read, even if a tracer rebound it.
    """
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    missing = readers.keys() - value.keys()
    if missing:
        raise SchemaError(path, f"missing keys {sorted(missing)}")
    extra = value.keys() - readers.keys()
    if extra:
        raise SchemaError(path, f"unexpected keys {sorted(extra)}")
    return tuple(read(value[key], f"{path}.{key}") for key, read in readers.items())


def parse_partition(doc: Any, path: str = "partition") -> CylPartition:
    k, n, window = _fields(doc, path, {"k": _expect_int, "n": _expect_int, "window": _expect_ints})
    if len(window) != k:
        raise SchemaError(f"{path}.window", f"length {len(window)} != k={k}")
    return _build(path, lambda: cyltab.CylPartition(cyltab.CylParams(k, n), window))


def serialize_partition(p: CylPartition) -> dict:
    return {"k": p.params.k, "n": p.params.n, "window": list(p.window)}


def parse_box(doc: Any, path: str = "box") -> Box:
    return cyltab.Box(*_fields(doc, path, {"row": _expect_int, "col": _expect_int}))


def serialize_box(b: Box) -> dict:
    return {"row": b.row, "col": b.col}


def parse_shape(doc: Any, path: str = "shape") -> SkewShape:
    outer, inner = _fields(doc, path, {"outer": parse_partition, "inner": parse_partition})
    return _build(path, lambda: cyltab.SkewShape(outer, inner))


def serialize_shape(s: SkewShape) -> dict:
    return {"outer": serialize_partition(s.outer), "inner": serialize_partition(s.inner)}


def parse_tableau(doc: Any, path: str = "tableau") -> CylTableau:
    shape, rows = _fields(doc, path, {"shape": parse_shape, "rows": _each(_expect_ints)})
    return _build(path, lambda: cyltab.CylTableau(shape, rows))


def serialize_tableau(t: CylTableau) -> dict:
    return {"shape": serialize_shape(t.shape), "rows": [list(r) for r in t.rows]}


def parse_boxes(doc: Any, path: str = "boxes") -> list[Box]:
    return list(_each(parse_box)(doc, path))


def serialize_boxes(bs) -> list:
    return [serialize_box(b) for b in sorted(bs, key=lambda b: (b.row, b.col))]


def parse_game(doc: Any, params: CylParams, path: str = "game") -> MarbleGame:
    initial, turns = _fields(doc, path, {"initial": _expect_ints, "turns": _each(_expect_ints)})
    return _build(path, lambda: cyltab.MarbleGame(cyltab.Arrangement(params, initial), turns))


def serialize_game(g: MarbleGame) -> dict:
    return {"initial": list(g.initial.counts), "turns": [list(t) for t in g.turns]}


def parse_move(doc: Any, path: str = "move") -> Move:
    def kind(value: Any, path: str) -> str:
        if value not in cyltab.words.MOVE_KINDS:
            raise SchemaError(path, f"unknown kind {value!r}")
        return value

    return cyltab.Move(*_fields(doc, path, {"kind": kind, "pos": _expect_int}))


def serialize_move(m: Move) -> dict:
    return {"kind": m.kind, "pos": m.pos}


def parse_certificate(doc: Any, path: str = "certificate") -> Certificate:
    readers = {"start": _expect_ints, "end": _expect_ints, "moves": _each(parse_move)}
    start, end, moves = _fields(doc, path, readers)
    return cyltab.Certificate(start, moves, end)


def serialize_certificate(c: Certificate) -> dict:
    return {"start": list(c.start), "moves": [serialize_move(m) for m in c.moves], "end": list(c.end)}


def canonical_json(doc: Any) -> str:
    """Sorted keys, no whitespace variance: byte-exact golden comparisons."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
