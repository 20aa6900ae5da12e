"""Command-line interface: one binary, machine-readable JSON output only."""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import enumeration, insertion, marbles, reverse, serialization as ser, tableau, words
from .crsk import crsk as run_crsk
from .crsk import crsk_inverse as run_crsk_inverse
from .geometry import CylParams, CylPartition, GeometryError
from .polynomials import IdentityReport
from .serialization import SchemaError
from .words import WordError


class CliError(ValueError):
    pass


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
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
    if not text.isdigit():
        raise CliError(f"word {text!r} must be digits or comma-separated integers")
    return tuple(int(c) for c in text)


def _partition(args, window: tuple[int, ...]) -> CylPartition:
    return CylPartition(CylParams(args.k, args.n), window)


def _routes_doc(routes) -> list:
    return [[[p.x, p.y] for p in r.points] for r in routes]


def _report_doc(report: IdentityReport) -> dict:
    return {
        "equal": report.equal,
        "lhs": report.lhs.to_jsonable(),
        "rhs": report.rhs.to_jsonable(),
        "mismatches": [[list(e), lc, rc] for e, lc, rc in report.mismatches],
    }


def cmd_validate(args) -> int:
    ser.parse_tableau(_load(args.file))
    _emit({"valid": True})
    return 0


def cmd_insert(args) -> int:
    t = ser.parse_tableau(_load(args.tableau))
    boxes = ser.parse_boxes(_load(args.boxes))
    res = insertion.full_multi(t, boxes, seed_row=args.seed_row)
    doc = {
        "tableau": ser.serialize_tableau(res.tableau),
        "new_set": ser.serialize_boxes(res.new_set),
        "queues": [[[x, r] for x, r in q.items] for q in res.queues],
    }
    if args.trace:
        doc["routes"] = _routes_doc(res.routes)
    _emit(doc)
    return 0


def cmd_reverse(args) -> int:
    t = ser.parse_tableau(_load(args.tableau))
    boxes = ser.parse_boxes(_load(args.boxes))
    res = reverse.reverse_full_multi(t, boxes, seed_row=args.seed_row)
    doc = {
        "tableau": ser.serialize_tableau(res.tableau),
        "reverse_new_set": ser.serialize_boxes(res.reverse_new_set),
        "queues": [[[x, r] for x, r in q.items] for q in res.queues],
    }
    if args.trace:
        doc["routes"] = _routes_doc(res.routes)
    _emit(doc)
    return 0


def cmd_crsk(args) -> int:
    t = ser.parse_tableau(_load(args.t))
    u = ser.parse_tableau(_load(args.u))
    out = run_crsk(t, u)
    _emit(
        {
            "p": ser.serialize_tableau(out.p),
            "q": ser.serialize_tableau(out.q),
            "lambda": ser.serialize_partition(out.lam),
        }
    )
    return 0


def cmd_crsk_inv(args) -> int:
    p = ser.parse_tableau(_load(args.p))
    q = ser.parse_tableau(_load(args.q))
    out = run_crsk_inverse(p, q)
    _emit(
        {
            "t": ser.serialize_tableau(out.t),
            "u": ser.serialize_tableau(out.u),
            "mu": ser.serialize_partition(out.mu),
        }
    )
    return 0


def cmd_verify(args) -> int:
    if args.identity == "cauchy":
        report = enumeration.verify_cauchy(
            _partition(args, _parse_window(args.alpha)),
            _partition(args, _parse_window(args.beta)),
            args.degree,
            args.xvars,
            args.yvars,
        )
        _emit(_report_doc(report))
        return 0 if report.equal else 1
    if args.identity == "oneschur":
        report = enumeration.verify_oneschur(
            _partition(args, _parse_window(args.alpha)), args.degree, args.vars
        )
        _emit(_report_doc(report))
        return 0 if report.equal else 1
    if args.identity == "fcount":
        lhs, rhs = enumeration.verify_fcount(
            _partition(args, _parse_window(args.alpha)),
            _partition(args, _parse_window(args.beta)),
            args.m,
        )
        _emit({"lhs": lhs, "rhs": rhs, "equal": lhs == rhs})
        return 0 if lhs == rhs else 1
    alpha, beta = _parse_window(args.alpha), _parse_window(args.beta)
    lhs, rhs = enumeration.skew_reduction_sides(alpha, beta, args.degree, args.vars)
    report = IdentityReport(lhs, rhs)
    doc = _report_doc(report)
    ok = report.equal
    if args.cross_check:
        lhs_cyl, rhs_cyl = enumeration.skew_reduction_embedding_sides(
            alpha, beta, args.degree, args.vars
        )
        doc["embedding_lhs_equal"] = IdentityReport(lhs, lhs_cyl).equal
        doc["embedding_rhs_equal"] = IdentityReport(rhs, rhs_cyl).equal
        ok = ok and doc["embedding_lhs_equal"] and doc["embedding_rhs_equal"]
    _emit(doc)
    return 0 if ok else 1


def cmd_marble(args) -> int:
    if args.direction == "encode":
        t = ser.parse_tableau(_load(args.tableau))
        game = marbles.tableau_to_game(t, args.letters)
        _emit({"game": ser.serialize_game(game)})
        return 0
    mu = ser.parse_partition(_load(args.mu))
    game = ser.parse_game(_load(args.game), mu.params)
    t = marbles.game_to_tableau(mu, game)
    _emit({"tableau": ser.serialize_tableau(t)})
    return 0


def cmd_knuth(args) -> int:
    if args.action == "transform":
        res = words.word_transform(_parse_word(args.word))
        _emit(
            {
                "certificate": ser.serialize_certificate(res.certificate),
                "switch_positions": list(res.switch_positions),
                "critical_words": [list(w) for w in res.critical_words],
                "monovariants": [words.monovariant(w) for w in res.critical_words],
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


FIXTURE_OPS = {}


def _fixture_op(name):
    def wrap(fn):
        FIXTURE_OPS[name] = fn
        return fn

    return wrap


@_fixture_op("insert")
def _fx_insert(payload):
    t = ser.parse_tableau(payload["tableau"])
    res = insertion.full_multi(
        t, ser.parse_boxes(payload["boxes"]), seed_row=payload.get("seed_row", 0)
    )
    return {
        "tableau": ser.serialize_tableau(res.tableau),
        "new_set": ser.serialize_boxes(res.new_set),
        "queues": [[[x, r] for x, r in q.items] for q in res.queues],
        "routes": _routes_doc(res.routes),
    }


@_fixture_op("reverse")
def _fx_reverse(payload):
    t = ser.parse_tableau(payload["tableau"])
    res = reverse.reverse_full_multi(
        t, ser.parse_boxes(payload["boxes"]), seed_row=payload.get("seed_row", 0)
    )
    return {
        "tableau": ser.serialize_tableau(res.tableau),
        "reverse_new_set": ser.serialize_boxes(res.reverse_new_set),
        "queues": [[[x, r] for x, r in q.items] for q in res.queues],
    }


@_fixture_op("crsk")
def _fx_crsk(payload):
    out = run_crsk(
        ser.parse_tableau(payload["t"]), ser.parse_tableau(payload["u"])
    )
    return {
        "p": ser.serialize_tableau(out.p),
        "q": ser.serialize_tableau(out.q),
        "lambda": ser.serialize_partition(out.lam),
    }


@_fixture_op("crsk_inverse")
def _fx_crsk_inverse(payload):
    out = run_crsk_inverse(
        ser.parse_tableau(payload["p"]), ser.parse_tableau(payload["q"])
    )
    return {
        "t": ser.serialize_tableau(out.t),
        "u": ser.serialize_tableau(out.u),
        "mu": ser.serialize_partition(out.mu),
    }


@_fixture_op("marble_encode")
def _fx_marble_encode(payload):
    t = ser.parse_tableau(payload["tableau"])
    game = marbles.tableau_to_game(t, payload.get("letters"))
    return {"game": ser.serialize_game(game)}


@_fixture_op("marble_decode")
def _fx_marble_decode(payload):
    mu = ser.parse_partition(payload["mu"])
    game = ser.parse_game(payload["game"], mu.params)
    return {"tableau": ser.serialize_tableau(marbles.game_to_tableau(mu, game))}


@_fixture_op("knuth_transform")
def _fx_knuth_transform(payload):
    res = words.word_transform(tuple(payload["word"]))
    return {
        "end": list(res.certificate.end),
        "critical_words": [list(w) for w in res.critical_words],
        "monovariants": [words.monovariant(w) for w in res.critical_words],
    }


@_fixture_op("lift_word")
def _fx_lift_word(payload):
    lifted = words.lift_word(tuple(payload["word"]))
    return {"permutation": list(lifted.permutation), "anchor": lifted.anchor}


@_fixture_op("tableau_word")
def _fx_tableau_word(payload):
    return {"word": list(tableau.tableau_word(ser.parse_tableau(payload["tableau"])))}


@_fixture_op("weight")
def _fx_weight(payload):
    t = ser.parse_tableau(payload["tableau"])
    w = tableau.weight(t)
    top = max(w, default=0)
    return {"weight": [w.get(i, 0) for i in range(1, top + 1)]}


def run_fixtures(emit=print) -> int:
    failures = 0
    fixture_dir = resources.files("cyltab").joinpath("fixtures")
    names = sorted(
        entry.name for entry in fixture_dir.iterdir() if entry.name.endswith(".json")
    )
    for name in names:
        doc = json.loads(fixture_dir.joinpath(name).read_text())
        got = FIXTURE_OPS[doc["operation"]](doc["payload"])
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

    for name, fn in (("insert", cmd_insert), ("reverse", cmd_reverse)):
        p = sub.add_parser(name)
        p.add_argument("--tableau", required=True)
        p.add_argument("--boxes", required=True)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--seed-row", type=int, default=0, dest="seed_row")
        p.set_defaults(fn=fn)

    p = sub.add_parser("crsk")
    p.add_argument("--t", required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(fn=cmd_crsk)

    p = sub.add_parser("crsk-inv")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=cmd_crsk_inv)

    p = sub.add_parser("verify")
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

    p = sub.add_parser("marble")
    ms = p.add_subparsers(dest="direction", required=True)
    me = ms.add_parser("encode")
    me.add_argument("--tableau", required=True)
    me.add_argument("--letters", type=int, default=None)
    md = ms.add_parser("decode")
    md.add_argument("--mu", required=True)
    md.add_argument("--game", required=True)
    p.set_defaults(fn=cmd_marble)

    p = sub.add_parser("knuth")
    ks = p.add_subparsers(dest="action", required=True)
    kt = ks.add_parser("transform")
    kt.add_argument("word")
    kc = ks.add_parser("connect")
    kc.add_argument("w")
    kc.add_argument("v")
    kc.add_argument("--replay", action="store_true")
    p.set_defaults(fn=cmd_knuth)

    p = sub.add_parser("fixtures")
    p.add_argument("action", choices=["run"])
    p.set_defaults(fn=cmd_fixtures)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GeometryError, SchemaError, WordError, CliError) as e:
        sys.stderr.write(
            ser.canonical_json({"error": type(e).__name__, "detail": str(e)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
