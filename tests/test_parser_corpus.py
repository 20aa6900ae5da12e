"""Replay a seeded corpus of JSON documents through the eight document parsers.

parser_corpus.json holds, one entry per line, a parser name, a document and
what the parser gave for it: the repr of the parsed value, or the class and
message of the exception it raised. About a quarter of the documents are
valid ones serialized from small objects of the library; the rest carry one
or two random changes (a value swapped for junk, a key dropped, renamed or
added, a list item dropped, repeated or replaced), so every reject path of
every parser is pinned, message and all. A game is read on CYLINDER. To
record the corpus again, write `dump(record(corpus()))` to the golden file.
"""

import json
import random
from pathlib import Path

import pytest

from cyltab import marbles
from cyltab import serialization as ser
from cyltab.geometry import CylParams, skew_boxes
from cyltab.words import MOVE_KINDS
from sweeps import iter_params, iter_tableaux

GOLDEN = Path(__file__).parent / "parser_corpus.json"
CYLINDER = CylParams(3, 7)
PARSERS = {
    "partition": ser.parse_partition,
    "box": ser.parse_box,
    "shape": ser.parse_shape,
    "tableau": ser.parse_tableau,
    "boxes": ser.parse_boxes,
    "game": lambda doc: ser.parse_game(doc, CYLINDER),
    "move": ser.parse_move,
    "certificate": ser.parse_certificate,
}
PER_PARSER = 250
JUNK = (None, True, False, 1.5, -1, 0, 9, "x", "Rotate", [], {}, [1, "a"], {"k": 1}, [[0]])


def _valid_documents(rng: random.Random) -> dict[str, list]:
    """Serialized small objects of the library, by parser name."""
    tableaux = [t for params in iter_params(3, 3) for t in iter_tableaux(params, 3, 2)]
    games = [marbles.tableau_to_game(t) for t in iter_tableaux(CYLINDER, 3, 2)]

    def word():
        return [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]

    def move():
        return {"kind": rng.choice(MOVE_KINDS), "pos": rng.randint(0, 3)}

    shapes = [t.shape for t in tableaux]
    return {
        "partition": [ser.serialize_partition(s.outer) for s in shapes],
        "box": [ser.serialize_box(b) for s in shapes for b in skew_boxes(s)],
        "shape": [ser.serialize_shape(s) for s in shapes],
        "tableau": [ser.serialize_tableau(t) for t in tableaux],
        "boxes": [ser.serialize_boxes(skew_boxes(s)) for s in shapes],
        "game": [ser.serialize_game(g) for g in games],
        "move": [move() for _ in range(50)],
        "certificate": [
            {"start": word(), "moves": [move() for _ in range(rng.randint(0, 3))], "end": word()}
            for _ in range(50)
        ],
    }


def _mutate(rng: random.Random, doc):
    """doc with one random change, made at a random depth."""
    children = list(doc) if isinstance(doc, dict) else range(len(doc)) if isinstance(doc, list) else []
    if children and rng.random() < 0.6:
        key = rng.choice(children)
        out = dict(doc) if isinstance(doc, dict) else list(doc)
        out[key] = _mutate(rng, doc[key])
        return out
    change = rng.randrange(4)
    if isinstance(doc, dict) and doc and change < 3:
        out, key = dict(doc), rng.choice(children)
        value = out.pop(key)
        if change == 1:
            out[key + "s"] = value
        elif change == 2:
            out[key], out["extra"] = value, rng.choice(JUNK)
        return out
    if isinstance(doc, list) and doc and change < 3:
        out, i = list(doc), rng.randrange(len(doc))
        if change == 0:
            del out[i]
        elif change == 1:
            out.insert(i, doc[i])
        else:
            out[i] = rng.choice(JUNK)
        return out
    if isinstance(doc, int) and not isinstance(doc, bool) and change < 3:
        return doc + rng.choice((-3, -1, 1, 2))
    return rng.choice(JUNK)


def corpus(seed: int = 25) -> list[tuple[str, object]]:
    """PER_PARSER (parser name, document) pairs per parser, a quarter left valid."""
    rng = random.Random(seed)
    out = []
    for name, valid in _valid_documents(rng).items():
        for n in range(PER_PARSER):
            doc = rng.choice(valid)
            for _ in range(0 if n % 4 == 0 else rng.randint(1, 2)):
                doc = _mutate(rng, doc)
            out.append((name, doc))
    return out


def outcome(name: str, doc) -> list:
    try:
        value = PARSERS[name](doc)
    except Exception as e:  # noqa: BLE001 - any escape is part of what is pinned
        return ["raised", type(e).__name__, str(e)]
    return ["parsed", repr(value)]


def record(pairs) -> list[dict]:
    return [{"parser": name, "doc": doc, "outcome": outcome(name, doc)} for name, doc in pairs]


def dump(entries: list[dict]) -> str:
    """The golden file's layout: one entry per line."""
    return "[\n" + ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries) + "\n]\n"


ENTRIES = json.loads(GOLDEN.read_text())


def test_corpus_covers_every_parser_and_outcome():
    assert {e["parser"] for e in ENTRIES} == set(PARSERS)
    for name in PARSERS:
        kinds = {e["outcome"][0] for e in ENTRIES if e["parser"] == name}
        assert kinds == {"parsed", "raised"}, name


@pytest.mark.parametrize("name", PARSERS)
def test_parser_replays_the_corpus(name):
    entries = [e for e in ENTRIES if e["parser"] == name]
    mismatches = [e for e in entries if outcome(name, e["doc"]) != e["outcome"]]
    assert not mismatches, mismatches[:3]


def test_nested_documents_are_read_by_the_parsers_bound_in_the_module(monkeypatch):
    """A parser rebound in its module, as a trace wrapper is, reads every nested document."""
    paths = []

    def spy(parse):
        return lambda doc, path: paths.append(path) or parse(doc, path)

    for name in ("parse_partition", "parse_shape", "parse_box", "parse_move"):
        monkeypatch.setattr(ser, name, spy(getattr(ser, name)))
    partition = {"k": 2, "n": 4, "window": [1, 0]}
    ser.parse_tableau({"shape": {"outer": partition, "inner": partition}, "rows": [[], []]})
    ser.parse_boxes([{"row": 0, "col": 1}, {"row": 1, "col": 0}])
    ser.parse_certificate({"start": [2, 1], "moves": [{"kind": "Rotate", "pos": 0}], "end": [1, 2]})
    assert paths == [
        "tableau.shape",
        "tableau.shape.outer",
        "tableau.shape.inner",
        "boxes[0]",
        "boxes[1]",
        "certificate.moves[0]",
    ]
