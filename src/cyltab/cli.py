"""Command-line interface: one binary, machine-readable JSON output only."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING

import cyltab

from . import serialization as ser
from .errors import CyltabError

# Each command reaches the library as cyltab.<name>, which loads the module
# that defines the name on first use, so a command loads only what it runs.
if TYPE_CHECKING:
    from .geometry import CylPartition
    from .polynomials import IdentityReport


class CliError(CyltabError):
    pass


def __getattr__(name: str):
    # The correspondence under the names this module has always exported.
    if name in ("run_crsk", "run_crsk_inverse"):
        return getattr(cyltab, name.removeprefix("run_"))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        # Bad JSON or UTF-8, an integer past Python's digit limit, or nesting too deep.
        raise CliError(f"{path} is not valid JSON: {e}") from e


def _parse_window(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as e:
        raise CliError(f"bad integer list {text!r}") from e


def nonnegative_int(text: str) -> int:
    """Argument type of budgets and variable counts: a negative one is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "," in text:
        return _parse_window(text)
    if not text.isdecimal():
        raise CliError(f"word {text!r} must be digits or comma-separated integers")
    return tuple(int(c) for c in text)


def _partition(k: int, n: int, text: str) -> CylPartition:
    window = _parse_window(text)  # read before the cylinder is checked
    return cyltab.CylPartition(cyltab.CylParams(k, n), window)


def _require_compared(both_zero: bool) -> None:
    if both_zero:
        raise CliError("both sides are zero: nothing was compared")


def _report_doc(report: IdentityReport, **flags: bool) -> dict:
    _require_compared(report.lhs.is_zero() and report.rhs.is_zero())
    lhs = report.lhs.terms()
    return {
        "equal": report.equal,
        "lhs": lhs,
        "rhs": lhs if report.equal else report.rhs.terms(),
        "mismatches": report.mismatches,
        **flags,
    }


# The builders of OPERATIONS. Their defaults are what the golden files fix:
# `insert` fixtures hold the routes, the `reverse` fixture does not.


def _valid_doc(file: str) -> dict:
    ser.parse_tableau(_load(file))
    return {"valid": True}


def _queues_doc(res, new_set: str, routes: bool) -> dict:
    doc = {
        "tableau": ser.serialize_tableau(res.tableau),
        new_set: ser.serialize_boxes(getattr(res, new_set)),
        "queues": [[[x, r] for x, r in q.items] for q in res.queues],
    }
    if routes:
        doc["routes"] = [[[p.x, p.y] for p in r.points] for r in res.routes]
    return doc


def _insert_doc(tableau, boxes, seed_row: int = 0, trace: bool = True) -> dict:
    return _queues_doc(cyltab.full_multi(tableau, boxes, seed_row=seed_row), "new_set", trace)


def _reverse_doc(tableau, boxes, seed_row: int = 0, trace: bool = False) -> dict:
    res = cyltab.reverse_full_multi(tableau, boxes, seed_row=seed_row)
    return _queues_doc(res, "reverse_new_set", trace)


def _crsk_doc(t, u) -> dict:
    out = cyltab.crsk(t, u)
    return {
        "p": ser.serialize_tableau(out.p),
        "q": ser.serialize_tableau(out.q),
        "lambda": ser.serialize_partition(out.lam),
    }


def _crsk_inverse_doc(p, q) -> dict:
    out = cyltab.crsk_inverse(p, q)
    return {
        "t": ser.serialize_tableau(out.t),
        "u": ser.serialize_tableau(out.u),
        "mu": ser.serialize_partition(out.mu),
    }


def _cauchy_doc(k, n, alpha, beta, degree, xvars, yvars) -> dict:
    alpha, beta = _partition(k, n, alpha), _partition(k, n, beta)
    return _report_doc(cyltab.verify_cauchy(alpha, beta, degree, xvars, yvars))


def _oneschur_doc(k, n, alpha, degree, vars) -> dict:
    alpha = _partition(k, n, alpha)
    return _report_doc(cyltab.verify_oneschur(alpha, degree, vars))


def _fcount_doc(k, n, alpha, beta, m) -> dict:
    alpha, beta = _partition(k, n, alpha), _partition(k, n, beta)
    lhs, rhs = cyltab.verify_fcount(alpha, beta, m)
    _require_compared(lhs == rhs == 0)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def _skew_doc(alpha, beta, degree, vars, cross_check) -> dict:
    alpha, beta = _parse_window(alpha), _parse_window(beta)
    if not cross_check:
        return _report_doc(cyltab.verify_skew_reduction(alpha, beta, degree, vars))
    lhs, rhs = cyltab.enumeration.skew_reduction_cross_check(alpha, beta, degree, vars)
    checks = {"embedding_lhs_equal": lhs.equal, "embedding_rhs_equal": rhs.equal}
    return _report_doc(cyltab.IdentityReport(lhs.lhs, rhs.lhs), **checks)


def _encode_doc(tableau, letters: int | None = None) -> dict:
    return {"game": ser.serialize_game(cyltab.tableau_to_game(tableau, letters))}


def _decode_doc(mu, game) -> dict:
    """The game document is read on mu's cylinder, so it is parsed here."""
    game = ser.parse_game(game, mu.params)
    return {"tableau": ser.serialize_tableau(cyltab.game_to_tableau(mu, game))}


def _critical_doc(res) -> dict:
    return {
        "critical_words": [list(w) for w in res.critical_words],
        "monovariants": [cyltab.monovariant(w) for w in res.critical_words],
    }


def _transform_doc(word: str) -> dict:
    res = cyltab.word_transform(_parse_word(word))
    return {
        "certificate": ser.serialize_certificate(res.certificate),
        "switch_positions": list(res.switch_positions),
        **_critical_doc(res),
    }


def _connect_doc(w: str, v: str, replay: bool) -> dict:
    cert = cyltab.connect(_parse_word(w), _parse_word(v))
    doc = {"certificate": ser.serialize_certificate(cert)}
    if replay:
        doc["replayed"] = list(cert.replay())
    return doc


def _transform_end_doc(word) -> dict:
    res = cyltab.word_transform(word)
    return {"end": list(res.certificate.end), **_critical_doc(res)}


def _lift_doc(word) -> dict:
    lifted = cyltab.lift_word(word)
    return {"permutation": list(lifted.permutation), "anchor": lifted.anchor}


def _tableau_word_doc(tableau) -> dict:
    return {"word": list(cyltab.tableau_word(tableau))}


def _weight_doc(tableau) -> dict:
    w = cyltab.weight(tableau)
    return {"weight": [w.get(i, 0) for i in range(1, max(w, default=0) + 1)]}


def _same(doc):
    return doc


# Every command but `fixtures run`, and every operation that `fixtures run`
# replays: its command words (none for an operation only a fixture runs), its
# input documents as (name, parser) pairs, read from `--<name>` files or the
# fixture payload, its other arguments as (flag, argparse keywords) pairs, and
# its builder, which takes each argument under the flag's dest.
_TABLEAU = ser.parse_tableau
_ONE_TABLEAU = (("tableau", _TABLEAU),)
_QUEUE_INPUTS = (*_ONE_TABLEAU, ("boxes", ser.parse_boxes))
_SWITCH = {"action": "store_true"}
_QUEUE_OPTIONS = (("--trace", _SWITCH), ("--seed-row", {"type": int, "default": 0}))
_INT, _TEXT = {"type": int, "required": True}, {"required": True}
_BUDGET = {"type": nonnegative_int, "required": True}
_VARS = {"type": nonnegative_int, "default": 2}
_ALPHA, _BETA, _DEGREE = ("--alpha", _TEXT), ("--beta", _TEXT), ("--degree", _BUDGET)
_SHAPE = (("--k", _INT), ("--n", _INT), _ALPHA)
OPERATIONS = {
    "validate": (("validate",), (), (("file", {}),), _valid_doc),
    "insert": (("insert",), _QUEUE_INPUTS, _QUEUE_OPTIONS, _insert_doc),
    "reverse": (("reverse",), _QUEUE_INPUTS, _QUEUE_OPTIONS, _reverse_doc),
    "crsk": (("crsk",), (("t", _TABLEAU), ("u", _TABLEAU)), (), _crsk_doc),
    "crsk_inverse": (("crsk-inv",), (("p", _TABLEAU), ("q", _TABLEAU)), (), _crsk_inverse_doc),
    "cauchy": (
        ("verify", "cauchy"),
        (),
        (*_SHAPE, _BETA, _DEGREE, ("--xvars", _VARS), ("--yvars", _VARS)),
        _cauchy_doc,
    ),
    "oneschur": (("verify", "oneschur"), (), (*_SHAPE, _DEGREE, ("--vars", _VARS)), _oneschur_doc),
    "fcount": (("verify", "fcount"), (), (*_SHAPE, _BETA, ("--m", _BUDGET)), _fcount_doc),
    "skew": (
        ("verify", "skew"),
        (),
        (_ALPHA, _BETA, _DEGREE, ("--vars", _VARS), ("--cross-check", _SWITCH)),
        _skew_doc,
    ),
    "marble_encode": (
        ("marble", "encode"), _ONE_TABLEAU, (("--letters", {"type": int}),), _encode_doc
    ),
    "marble_decode": (
        ("marble", "decode"), (("mu", ser.parse_partition), ("game", _same)), (), _decode_doc
    ),
    "word_transform": (("knuth", "transform"), (), (("word", {}),), _transform_doc),
    "connect": (
        ("knuth", "connect"), (), (("w", {}), ("v", {}), ("--replay", _SWITCH)), _connect_doc
    ),
    "knuth_transform": ((), (("word", tuple),), (), _transform_end_doc),
    "lift_word": ((), (("word", tuple),), (), _lift_doc),
    "tableau_word": ((), _ONE_TABLEAU, (), _tableau_word_doc),
    "weight": ((), _ONE_TABLEAU, (), _weight_doc),
}


def _build(name: str, values: dict, read=_same) -> dict:
    """Read and parse each document of operation `name` before the next, then build."""
    _, documents, arguments, build = OPERATIONS[name]
    docs = {doc: parse(read(values[doc])) for doc, parse in documents}
    dests = (flag.lstrip("-").replace("-", "_") for flag, _ in arguments)
    return build(**docs, **{dest: values[dest] for dest in dests if dest in values})


def cmd_operation(args) -> int:
    doc = _build(args.operation, vars(args), _load)
    sys.stdout.write(ser.canonical_json(doc) + "\n")
    # A verify document that records a failed identity exits 1.
    checks = ("equal", "embedding_lhs_equal", "embedding_rhs_equal")
    return 1 if any(doc.get(check) is False for check in checks) else 0


def run_fixtures(emit=print) -> int:
    # A plain directory read: importlib.resources loads inspect on Python 3.12+.
    failures = 0
    fixture_dir = os.path.join(os.path.dirname(__file__), "fixtures")
    names = sorted(name for name in os.listdir(fixture_dir) if name.endswith(".json"))
    for name in names:
        doc = _load(os.path.join(fixture_dir, name))
        got = _build(doc["operation"], doc["payload"])
        if ser.canonical_json(got) == ser.canonical_json(doc["expected"]):
            emit(f"ok      {doc['name']}")
        else:
            failures += 1
            emit(f"MISMATCH {doc['name']}")
            emit(f"  expected {ser.canonical_json(doc['expected'])}")
            emit(f"  got      {ser.canonical_json(got)}")
    emit(f"{len(names) - failures}/{len(names)} fixtures passed")
    return 0 if failures == 0 else 1


# The dest of the subcommand of each command that has subcommands.
_SUBCOMMANDS = {"verify": "identity", "marble": "direction", "knuth": "action"}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command, or, given a command line, of the commands it can run.

    argparse runs a command only if each of its words is a token of `argv`,
    so only those commands get their arguments. Every command keeps its
    parser, so help and invalid-choice texts read as with the full parser.
    """
    tokens = None if argv is None else set(argv)
    ap = argparse.ArgumentParser(prog="cyltab")
    # JSON is the only output format; the flag exists for interface stability.
    ap.add_argument("--json", action="store_true", default=True, help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    # A command's parser is made where the table first names it, so the choice
    # lists keep the table's order; `validate` alone has a help line. A command
    # with subcommands is kept as its list of subcommands.
    parsers = {"validate": sub.add_parser("validate", help="validate a tableau JSON file")}
    for op, (words, documents, arguments, _) in OPERATIONS.items():
        if not words:
            continue
        head, *rest = words
        if head not in parsers:
            p = sub.add_parser(head)
            parsers[head] = p.add_subparsers(dest=_SUBCOMMANDS[head], required=True) if rest else p
        p = parsers[head].add_parser(*rest) if rest else parsers[head]
        p.set_defaults(operation=op)
        if tokens is not None and not tokens.issuperset(words):
            continue
        for name, _ in documents:
            p.add_argument(f"--{name}", required=True)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        # argparse reads a "-"-led token that names no option as a value only
        # if it matches this negative-number pattern. Set after the options,
        # it matches every such token: `--alpha -1,-1` reads as `--alpha=-1,-1`,
        # and `knuth connect -1,2 2,-1` as `knuth connect -- -1,2 2,-1`.
        p._negative_number_matcher = re.compile("-")

    p = sub.add_parser("fixtures")
    p.add_argument("action", choices=["run"])

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return run_fixtures() if args.command == "fixtures" else cmd_operation(args)
    except CyltabError as e:
        sys.stderr.write(
            ser.canonical_json({"error": type(e).__name__, "detail": str(e)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
