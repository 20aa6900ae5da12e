"""Command-line interface: one binary, machine-readable JSON output only."""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import serialization as ser
from .errors import CyltabError

# Each command imports the library modules it runs, so that a command loads
# only what it needs.
if TYPE_CHECKING:
    from .geometry import CylPartition
    from .polynomials import IdentityReport


class CliError(CyltabError):
    pass


def __getattr__(name: str):
    # The correspondence under the names this module has always exported.
    if name in ("run_crsk", "run_crsk_inverse"):
        from .crsk import crsk, crsk_inverse

        return crsk if name == "run_crsk" else crsk_inverse
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


def _emit(doc) -> None:
    sys.stdout.write(ser.canonical_json(doc) + "\n")


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


def _partition(args, window: tuple[int, ...]) -> CylPartition:
    from .geometry import CylParams, CylPartition

    return CylPartition(CylParams(args.k, args.n), window)


def _report_doc(report: IdentityReport) -> dict:
    lhs = report.lhs.terms()
    return {
        "equal": report.equal,
        "lhs": lhs,
        "rhs": lhs if report.rhs is report.lhs else report.rhs.terms(),
        "mismatches": report.mismatches,
    }


# The builders of OPERATIONS. Their defaults are what the golden files fix:
# `insert` fixtures hold the routes, the `reverse` fixture does not.


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
    from . import insertion

    return _queues_doc(insertion.full_multi(tableau, boxes, seed_row=seed_row), "new_set", trace)


def _reverse_doc(tableau, boxes, seed_row: int = 0, trace: bool = False) -> dict:
    from . import reverse

    res = reverse.reverse_full_multi(tableau, boxes, seed_row=seed_row)
    return _queues_doc(res, "reverse_new_set", trace)


def _crsk_doc(t, u) -> dict:
    from .crsk import crsk as run_crsk

    out = run_crsk(t, u)
    return {
        "p": ser.serialize_tableau(out.p),
        "q": ser.serialize_tableau(out.q),
        "lambda": ser.serialize_partition(out.lam),
    }


def _crsk_inverse_doc(p, q) -> dict:
    from .crsk import crsk_inverse as run_crsk_inverse

    out = run_crsk_inverse(p, q)
    return {
        "t": ser.serialize_tableau(out.t),
        "u": ser.serialize_tableau(out.u),
        "mu": ser.serialize_partition(out.mu),
    }


def _encode_doc(tableau, letters: int | None = None) -> dict:
    from . import marbles

    return {"game": ser.serialize_game(marbles.tableau_to_game(tableau, letters))}


def _decode_doc(mu, game) -> dict:
    """The game document is read on mu's cylinder, so it is parsed here."""
    from . import marbles

    game = ser.parse_game(game, mu.params)
    return {"tableau": ser.serialize_tableau(marbles.game_to_tableau(mu, game))}


def _critical_doc(res) -> dict:
    from .words import monovariant

    return {
        "critical_words": [list(w) for w in res.critical_words],
        "monovariants": [monovariant(w) for w in res.critical_words],
    }


def cmd_validate(args) -> int:
    ser.parse_tableau(_load(args.file))
    _emit({"valid": True})
    return 0


def _same(doc):
    return doc


# Each operation that a command prints and `fixtures run` replays: its command
# words, its input documents as (name, parser) pairs, read from `--<name>` files
# or the fixture payload, its other options as (name, argparse keywords) pairs
# and its builder.
_TABLEAU = ser.parse_tableau
_QUEUE_INPUTS = (("tableau", _TABLEAU), ("boxes", ser.parse_boxes))
_QUEUE_OPTIONS = (("trace", {"action": "store_true"}), ("seed_row", {"type": int, "default": 0}))
OPERATIONS = {
    "insert": (("insert",), _QUEUE_INPUTS, _QUEUE_OPTIONS, _insert_doc),
    "reverse": (("reverse",), _QUEUE_INPUTS, _QUEUE_OPTIONS, _reverse_doc),
    "crsk": (("crsk",), (("t", _TABLEAU), ("u", _TABLEAU)), (), _crsk_doc),
    "crsk_inverse": (("crsk-inv",), (("p", _TABLEAU), ("q", _TABLEAU)), (), _crsk_inverse_doc),
    "marble_encode": (
        ("marble", "encode"), (("tableau", _TABLEAU),), (("letters", {"type": int}),), _encode_doc
    ),
    "marble_decode": (
        ("marble", "decode"), (("mu", ser.parse_partition), ("game", _same)), (), _decode_doc
    ),
}


def _build(name: str, values: dict, read=_same) -> dict:
    """Read and parse each document of operation `name` before the next, then build."""
    _, documents, options, build = OPERATIONS[name]
    docs = {doc: parse(read(values[doc])) for doc, parse in documents}
    return build(**docs, **{option: values[option] for option, _ in options if option in values})


def cmd_operation(args) -> int:
    _emit(_build(args.operation, vars(args), _load))
    return 0


def cmd_verify(args) -> int:
    from . import enumeration
    from .polynomials import IdentityReport

    if args.identity == "fcount":
        lhs, rhs = enumeration.verify_fcount(
            _partition(args, _parse_window(args.alpha)),
            _partition(args, _parse_window(args.beta)),
            args.m,
        )
        if lhs == rhs == 0:
            raise CliError("both sides are zero: nothing was compared")
        _emit({"lhs": lhs, "rhs": rhs, "equal": lhs == rhs})
        return 0 if lhs == rhs else 1
    checks = {}
    if args.identity == "cauchy":
        report = enumeration.verify_cauchy(
            _partition(args, _parse_window(args.alpha)),
            _partition(args, _parse_window(args.beta)),
            args.degree,
            args.xvars,
            args.yvars,
        )
    elif args.identity == "oneschur":
        report = enumeration.verify_oneschur(
            _partition(args, _parse_window(args.alpha)), args.degree, args.vars
        )
    else:
        alpha, beta = _parse_window(args.alpha), _parse_window(args.beta)
        if not args.cross_check:
            report = enumeration.verify_skew_reduction(alpha, beta, args.degree, args.vars)
        else:
            lhs_check, rhs_check = enumeration.skew_reduction_cross_check(
                alpha, beta, args.degree, args.vars
            )
            report = IdentityReport(lhs_check.lhs, rhs_check.lhs)
            checks = {"embedding_lhs_equal": lhs_check.equal, "embedding_rhs_equal": rhs_check.equal}
    if report.lhs.is_zero() and report.rhs.is_zero():
        raise CliError("both sides are zero: nothing was compared")
    _emit({**_report_doc(report), **checks})
    return 0 if report.equal and all(checks.values()) else 1


def cmd_knuth(args) -> int:
    from . import words

    if args.action == "transform":
        res = words.word_transform(_parse_word(args.word))
        _emit(
            {
                "certificate": ser.serialize_certificate(res.certificate),
                "switch_positions": list(res.switch_positions),
                **_critical_doc(res),
            }
        )
        return 0
    w, v = _parse_word(args.w), _parse_word(args.v)
    cert = words.connect(w, v)
    doc = {"certificate": ser.serialize_certificate(cert)}
    if args.replay:
        doc["replayed"] = list(cert.replay())
    _emit(doc)
    return 0


def _fx_knuth_transform(payload):
    from . import words

    res = words.word_transform(tuple(payload["word"]))
    return {"end": list(res.certificate.end), **_critical_doc(res)}


def _fx_lift_word(payload):
    from . import words

    lifted = words.lift_word(tuple(payload["word"]))
    return {"permutation": list(lifted.permutation), "anchor": lifted.anchor}


def _fx_tableau_word(payload):
    from . import tableau

    return {"word": list(tableau.tableau_word(ser.parse_tableau(payload["tableau"])))}


def _fx_weight(payload):
    from . import tableau

    t = ser.parse_tableau(payload["tableau"])
    w = tableau.weight(t)
    top = max(w, default=0)
    return {"weight": [w.get(i, 0) for i in range(1, top + 1)]}


# The fixture operations that no command prints.
FIXTURE_OPS = {
    "knuth_transform": _fx_knuth_transform,
    "lift_word": _fx_lift_word,
    "tableau_word": _fx_tableau_word,
    "weight": _fx_weight,
}


def run_fixtures(emit=print) -> int:
    from importlib import resources

    failures = 0
    fixture_dir = resources.files("cyltab").joinpath("fixtures")
    names = sorted(
        entry.name for entry in fixture_dir.iterdir() if entry.name.endswith(".json")
    )
    for name in names:
        doc = json.loads(fixture_dir.joinpath(name).read_text())
        op, payload = doc["operation"], doc["payload"]
        got = FIXTURE_OPS[op](payload) if op in FIXTURE_OPS else _build(op, payload)
        if ser.canonical_json(got) == ser.canonical_json(doc["expected"]):
            emit(f"ok      {doc['name']}")
        else:
            failures += 1
            emit(f"MISMATCH {doc['name']}")
            emit(f"  expected {ser.canonical_json(doc['expected'])}")
            emit(f"  got      {ser.canonical_json(got)}")
    emit(f"{len(names) - failures}/{len(names)} fixtures passed")
    return 0 if failures == 0 else 1


def cmd_fixtures(args) -> int:
    return run_fixtures()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cyltab")
    # JSON is the only output format; the flag exists for interface stability.
    ap.add_argument("--json", action="store_true", default=True, help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a tableau JSON file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    # Every other subcommand is made first, so the choice list keeps this order.
    names = ("insert", "reverse", "crsk", "crsk-inv", "verify", "marble", "knuth", "fixtures")
    parsers = {name: sub.add_parser(name) for name in names}
    ms = parsers["marble"].add_subparsers(dest="direction", required=True)
    for op, (words, documents, options, _) in OPERATIONS.items():
        p = parsers[words[0]] if len(words) == 1 else ms.add_parser(words[1])
        for name, _ in documents:
            p.add_argument(f"--{name}", required=True)
        for name, keywords in options:
            p.add_argument("--" + name.replace("_", "-"), **keywords)
        p.set_defaults(fn=cmd_operation, operation=op)

    p = parsers["verify"]
    vs = p.add_subparsers(dest="identity", required=True)
    pc = vs.add_parser("cauchy")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--alpha", required=True)
    pc.add_argument("--beta", required=True)
    pc.add_argument("--degree", type=nonnegative_int, required=True)
    pc.add_argument("--xvars", type=nonnegative_int, default=2)
    pc.add_argument("--yvars", type=nonnegative_int, default=2)
    po = vs.add_parser("oneschur")
    po.add_argument("--k", type=int, required=True)
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--alpha", required=True)
    po.add_argument("--degree", type=nonnegative_int, required=True)
    po.add_argument("--vars", type=nonnegative_int, default=2)
    pf = vs.add_parser("fcount")
    pf.add_argument("--k", type=int, required=True)
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--alpha", required=True)
    pf.add_argument("--beta", required=True)
    pf.add_argument("--m", type=nonnegative_int, required=True)
    ps = vs.add_parser("skew")
    ps.add_argument("--alpha", required=True)
    ps.add_argument("--beta", required=True)
    ps.add_argument("--degree", type=nonnegative_int, required=True)
    ps.add_argument("--vars", type=nonnegative_int, default=2)
    ps.add_argument("--cross-check", action="store_true", dest="cross_check")
    p.set_defaults(fn=cmd_verify)

    p = parsers["knuth"]
    ks = p.add_subparsers(dest="action", required=True)
    kt = ks.add_parser("transform")
    kt.add_argument("word")
    kc = ks.add_parser("connect")
    kc.add_argument("w")
    kc.add_argument("v")
    kc.add_argument("--replay", action="store_true")
    p.set_defaults(fn=cmd_knuth)

    p = parsers["fixtures"]
    p.add_argument("action", choices=["run"])
    p.set_defaults(fn=cmd_fixtures)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CyltabError as e:
        sys.stderr.write(
            ser.canonical_json({"error": type(e).__name__, "detail": str(e)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
