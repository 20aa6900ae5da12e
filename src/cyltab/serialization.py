"""JSON schemas for the domain values.  Exact integers only, no floats."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .errors import CyltabError

# Each parser imports the classes it builds, so that reading one kind of
# document loads only the modules that define it.
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
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_ints(value: Any, path: str) -> tuple[int, ...]:
    return tuple(_expect_int(v, f"{path}[{i}]") for i, v in enumerate(_expect_list(value, path)))


def _build(path: str, make):
    """Return make(); a GeometryError it raises is reported as a SchemaError at path."""
    from .geometry import GeometryError

    try:
        return make()
    except GeometryError as e:
        raise SchemaError(path, str(e)) from e


def _expect_obj(value: Any, path: str, keys: set[str]) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    missing = keys - value.keys()
    if missing:
        raise SchemaError(path, f"missing keys {sorted(missing)}")
    extra = value.keys() - keys
    if extra:
        raise SchemaError(path, f"unexpected keys {sorted(extra)}")
    return value


def parse_partition(doc: Any, path: str = "partition") -> CylPartition:
    from .geometry import CylParams, CylPartition

    obj = _expect_obj(doc, path, {"k", "n", "window"})
    k = _expect_int(obj["k"], f"{path}.k")
    n = _expect_int(obj["n"], f"{path}.n")
    window = _expect_ints(obj["window"], f"{path}.window")
    if len(window) != k:
        raise SchemaError(f"{path}.window", f"length {len(window)} != k={k}")
    return _build(path, lambda: CylPartition(CylParams(k, n), window))


def serialize_partition(p: CylPartition) -> dict:
    return {"k": p.params.k, "n": p.params.n, "window": list(p.window)}


def parse_box(doc: Any, path: str = "box") -> Box:
    from .geometry import Box

    obj = _expect_obj(doc, path, {"row", "col"})
    return Box(_expect_int(obj["row"], f"{path}.row"), _expect_int(obj["col"], f"{path}.col"))


def serialize_box(b: Box) -> dict:
    return {"row": b.row, "col": b.col}


def parse_shape(doc: Any, path: str = "shape") -> SkewShape:
    from .geometry import SkewShape

    obj = _expect_obj(doc, path, {"outer", "inner"})
    outer = parse_partition(obj["outer"], f"{path}.outer")
    inner = parse_partition(obj["inner"], f"{path}.inner")
    return _build(path, lambda: SkewShape(outer, inner))


def serialize_shape(s: SkewShape) -> dict:
    return {"outer": serialize_partition(s.outer), "inner": serialize_partition(s.inner)}


def parse_tableau(doc: Any, path: str = "tableau") -> CylTableau:
    from .tableau import CylTableau

    obj = _expect_obj(doc, path, {"shape", "rows"})
    shape = parse_shape(obj["shape"], f"{path}.shape")
    rows = _expect_list(obj["rows"], f"{path}.rows")
    parsed = tuple(_expect_ints(row, f"{path}.rows[{r}]") for r, row in enumerate(rows))
    return _build(path, lambda: CylTableau(shape, parsed))


def serialize_tableau(t: CylTableau) -> dict:
    return {"shape": serialize_shape(t.shape), "rows": [list(r) for r in t.rows]}


def parse_boxes(doc: Any, path: str = "boxes") -> list[Box]:
    return [parse_box(b, f"{path}[{i}]") for i, b in enumerate(_expect_list(doc, path))]


def serialize_boxes(bs) -> list:
    return [serialize_box(b) for b in sorted(bs, key=lambda b: (b.row, b.col))]


def parse_game(doc: Any, params: CylParams, path: str = "game") -> MarbleGame:
    from .marbles import Arrangement, MarbleGame

    obj = _expect_obj(doc, path, {"initial", "turns"})
    initial = _expect_ints(obj["initial"], f"{path}.initial")
    turns = tuple(_expect_ints(t, f"{path}.turns[{j}]") for j, t in enumerate(_expect_list(obj["turns"], f"{path}.turns")))
    return _build(path, lambda: MarbleGame(Arrangement(params, initial), turns))


def serialize_game(g: MarbleGame) -> dict:
    return {"initial": list(g.initial.counts), "turns": [list(t) for t in g.turns]}


def parse_move(doc: Any, path: str = "move") -> Move:
    from .words import MOVE_KINDS, Move

    obj = _expect_obj(doc, path, {"kind", "pos"})
    kind = obj["kind"]
    if kind not in MOVE_KINDS:
        raise SchemaError(f"{path}.kind", f"unknown kind {kind!r}")
    return Move(kind, _expect_int(obj["pos"], f"{path}.pos"))


def serialize_move(m: Move) -> dict:
    return {"kind": m.kind, "pos": m.pos}


def parse_certificate(doc: Any, path: str = "certificate") -> Certificate:
    from .words import Certificate

    obj = _expect_obj(doc, path, {"start", "moves", "end"})
    start = _expect_ints(obj["start"], f"{path}.start")
    end = _expect_ints(obj["end"], f"{path}.end")
    moves = tuple(parse_move(m, f"{path}.moves[{i}]") for i, m in enumerate(_expect_list(obj["moves"], f"{path}.moves")))
    return Certificate(start, moves, end)


def serialize_certificate(c: Certificate) -> dict:
    return {"start": list(c.start), "moves": [serialize_move(m) for m in c.moves], "end": list(c.end)}


def canonical_json(doc: Any) -> str:
    """Sorted keys, no whitespace variance: byte-exact golden comparisons."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
