import json
import os
import string
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cyltab as ct
from cyltab import cli, enumeration, serialization as ser
from cyltab.cli import OPERATIONS, main, run_fixtures
from cyltab.geometry import CylParams
from cyltab.polynomials import IdentityReport, SparsePolynomial
from cyltab.serialization import SchemaError


PARTITION_DOC = {"k": 2, "n": 4, "window": [0, 0]}
TABLEAU_DOC = {
    "shape": {
        "outer": {"k": 2, "n": 4, "window": [2, 1]},
        "inner": {"k": 2, "n": 4, "window": [0, 0]},
    },
    "rows": [[1, 2], [3]],
}


SRC = str(Path(ct.__file__).resolve().parents[1])


def run_python(*args):
    """Run a fresh interpreter that imports cyltab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


class TestSchemas:
    def test_partition_round_trip(self):
        p = ser.parse_partition(PARTITION_DOC)
        assert p.window == (0, 0)
        assert ser.canonical_json(ser.serialize_partition(p)) == ser.canonical_json(PARTITION_DOC)

    def test_partition_length_mismatch(self):
        with pytest.raises(SchemaError):
            ser.parse_partition({"k": 2, "n": 4, "window": [0]})

    def test_reject_floats(self):
        with pytest.raises(SchemaError):
            ser.parse_partition({"k": 2, "n": 4, "window": [0.0, 0]})

    def test_tableau_round_trip(self):
        t = ser.parse_tableau(TABLEAU_DOC)
        assert ct.tableau_word(t) == (1, 2, 3)
        assert ser.parse_tableau(ser.serialize_tableau(t)) == t

    def test_crsk_input_fixture_parses(self):
        from importlib import resources

        doc = json.loads(
            resources.files("cyltab").joinpath("fixtures/crsk_pair.json").read_text()
        )
        t = ser.parse_tableau(doc["payload"]["t"])
        assert t.rows == ((2, 3, 5), (2, 6), (1, 2, 4))

    def test_game_round_trip(self):
        params = ct.CylParams(2, 4)
        doc = {"initial": [1, 1], "turns": [[1, 0], [0, 1]]}
        g = ser.parse_game(doc, params)
        assert ser.canonical_json(ser.serialize_game(g)) == ser.canonical_json(doc)

    def test_certificate_round_trip(self):
        cert = ct.connect((3, 1, 2), (1, 2, 3))
        doc = ser.serialize_certificate(cert)
        assert ser.parse_certificate(doc) == cert


def _window(window, k=2, n=4):
    return {"k": k, "n": n, "window": window}


def _tableau_doc(outer, rows):
    return {"shape": {"outer": _window(outer), "inner": _window([0, 0])}, "rows": rows}


def _parse_game_k2n4(doc):
    return ser.parse_game(doc, CylParams(2, 4))


# The exact report of each reader: a nested path, then each invariant that a
# constructor checks and the reader reports at the path of the whole value.
SCHEMA_ERRORS = {
    "nested-tableau-row": (
        ser.parse_tableau,
        _tableau_doc([2, 1], [[1, 2], ["x"]]),
        "tableau.rows[1][0]: expected an integer, got 'x'",
    ),
    "nested-game-turn": (
        _parse_game_k2n4,
        {"initial": [1, 1], "turns": [[0, 0], [1, 0], [0, True]]},
        "game.turns[2][1]: expected an integer, got True",
    ),
    "nested-certificate-end": (
        ser.parse_certificate,
        {"start": [1, 2], "moves": [], "end": [1.5]},
        "certificate.end[0]: expected an integer, got 1.5",
    ),
    "increasing-window": (
        ser.parse_partition,
        _window([0, 1]),
        "partition: window (0, 1) increases at index 0",
    ),
    "bad-cylinder": (
        ser.parse_partition,
        _window([0, 0], n=1),
        "partition: n must exceed k, got n=1, k=2",
    ),
    "inner-not-inside-outer": (
        ser.parse_shape,
        {"outer": _window([1, 0]), "inner": _window([2, 0])},
        "shape: inner (2, 0) not contained in outer (1, 0)",
    ),
    "column-not-increasing": (
        ser.parse_tableau,
        _tableau_doc([1, 1], [[2], [1]]),
        "tableau: column 1 is not strictly increasing",
    ),
    "marble-total": (
        _parse_game_k2n4,
        {"initial": [1, 2], "turns": []},
        "game: counts (1, 2) total 3, expected 2",
    ),
}


@pytest.mark.parametrize("case", SCHEMA_ERRORS.values(), ids=SCHEMA_ERRORS.keys())
def test_schema_error_text(case):
    parse, doc, message = case
    with pytest.raises(SchemaError) as info:
        parse(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "argv, files, stderr",
    [
        (
            ["validate"],
            [(None, _tableau_doc([2, 1], [[1, 2], ["x"]]))],
            """{"detail":"tableau.rows[1][0]: expected an integer, got 'x'","error":"SchemaError"}\n""",
        ),
        (
            ["marble", "decode"],
            [("--mu", _window([0, 0])), ("--game", {"initial": [1, 2], "turns": []})],
            '{"detail":"game: counts (1, 2) total 3, expected 2","error":"SchemaError"}\n',
        ),
    ],
    ids=["validate", "marble-decode"],
)
def test_schema_error_report_on_stderr(argv, files, stderr, tmp_path, capsys):
    assert _main_on_files(argv, files, tmp_path) == 1
    assert capsys.readouterr() == ("", stderr)


def _main_on_files(argv, files, tmp_path):
    """Run main with each (flag, document) written to a file and passed as flag path."""
    argv = list(argv)
    for i, (flag, doc) in enumerate(files):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(doc))
        argv += [str(path)] if flag is None else [flag, str(path)]
    return main(argv)


def _empty_k2n5(window):
    return {"shape": {"outer": _window(window, n=5), "inner": _window(window, n=5)}, "rows": [[], []]}


@pytest.mark.parametrize(
    "argv, files, stderr",
    [
        (
            ["crsk"],
            [("--t", _tableau_doc([2, 1], [[1, 2], [3]])), ("--u", _empty_k2n5([0, 0]))],
            '{"detail":"inner shapes lie on different cylinders: CylParams(k=2, n=4) vs CylParams(k=2, n=5)",'
            '"error":"MismatchedInnerShapes"}\n',
        ),
        (
            ["crsk-inv"],
            [("--p", _tableau_doc([2, 1], [[1, 2], [3]])), ("--q", _empty_k2n5([2, 1]))],
            '{"detail":"outer shapes lie on different cylinders: CylParams(k=2, n=4) vs CylParams(k=2, n=5)",'
            '"error":"MismatchedOuterShapes"}\n',
        ),
    ],
    ids=["crsk", "crsk-inv"],
)
def test_crsk_on_different_cylinders_is_reported(argv, files, stderr, tmp_path, capsys):
    assert _main_on_files(argv, files, tmp_path) == 1
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "skew", "--alpha", "", "--beta", "1", "--degree", "0", "--vars", "0"],
        ["verify", "cauchy", "--k", "1", "--n", "4", "--alpha", "1", "--beta", "0",
         "--degree", "2", "--xvars", "0", "--yvars", "0"],
        ["verify", "fcount", "--k", "2", "--n", "4", "--alpha", "1,0", "--beta", "0,-1", "--m", "0"],
    ],
    ids=["skew", "cauchy", "fcount"],
)
def test_verify_with_both_sides_zero_is_an_error(argv, capsys):
    # an identity whose two sides are both zero compares nothing
    assert main(argv) == 1
    stderr = '{"detail":"both sides are zero: nothing was compared","error":"CliError"}\n'
    assert capsys.readouterr() == ("", stderr)


def _poly(*terms):
    return SparsePolynomial(len(terms[0][0]), dict(terms))


_UNEQUAL = IdentityReport(_poly(((1, 0), 1)), _poly(((0, 1), 2)))
_UNEQUAL_DOC = '{"equal":false,"lhs":[[[1,0],1]],"mismatches":[[[0,1],0,2],[[1,0],1,0]],"rhs":[[[0,1],2]]}'
_SHAPE = ["--k", "2", "--n", "4", "--alpha", "0,0"]


@pytest.mark.parametrize(
    "function, result, argv, stdout",
    [
        (
            "verify_cauchy",
            _UNEQUAL,
            ["verify", "cauchy", *_SHAPE, "--beta", "0,0", "--degree", "1"],
            _UNEQUAL_DOC,
        ),
        ("verify_oneschur", _UNEQUAL, ["verify", "oneschur", *_SHAPE, "--degree", "1"], _UNEQUAL_DOC),
        (
            "verify_fcount",
            (3, 4),
            ["verify", "fcount", *_SHAPE, "--beta", "0,0", "--m", "1"],
            '{"equal":false,"lhs":3,"rhs":4}',
        ),
        (
            "verify_skew_reduction",
            _UNEQUAL,
            ["verify", "skew", "--alpha", "1", "--beta", "1", "--degree", "1"],
            _UNEQUAL_DOC,
        ),
        (
            "skew_reduction_cross_check",
            (
                IdentityReport(_poly(((1,), 1)), _poly(((1,), 1))),
                IdentityReport(_poly(((1,), 1)), _poly(((1,), 2))),
            ),
            ["verify", "skew", "--alpha", "1", "--beta", "1", "--degree", "1", "--cross-check"],
            '{"embedding_lhs_equal":true,"embedding_rhs_equal":false,"equal":true,'
            '"lhs":[[[1],1]],"mismatches":[],"rhs":[[[1],1]]}',
        ),
    ],
    ids=["cauchy", "oneschur", "fcount", "skew", "skew-cross-check"],
)
def test_verify_of_an_unequal_identity_prints_it_and_exits_one(
    function, result, argv, stdout, monkeypatch, capsys
):
    monkeypatch.setattr(enumeration, function, lambda *args: result)
    assert main(argv) == 1
    assert capsys.readouterr() == (stdout + "\n", "")


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        f.write_text(json.dumps(TABLEAU_DOC))
        assert main(["validate", str(f)]) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True}

    def test_validate_bad_exits_one(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        bad = json.loads(json.dumps(TABLEAU_DOC))
        bad["rows"] = [[2, 1], [3]]
        f.write_text(json.dumps(bad))
        assert main(["validate", str(f)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_insert_with_trace(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        b = tmp_path / "b.json"
        t.write_text(
            json.dumps(
                {
                    "shape": {
                        "outer": {"k": 2, "n": 4, "window": [0, 0]},
                        "inner": {"k": 2, "n": 4, "window": [0, 0]},
                    },
                    "rows": [[], []],
                }
            )
        )
        b.write_text(json.dumps([{"row": 0, "col": 1}]))
        assert main(["insert", "--tableau", str(t), "--boxes", str(b), "--trace"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["new_set"] == [{"row": 0, "col": 1}]
        assert out["routes"] == [[[0, 1]]]

    def test_verify_cauchy(self, capsys):
        code = main(
            [
                "verify", "cauchy", "--k", "2", "--n", "4",
                "--alpha", "0,0", "--beta", "0,0",
                "--degree", "3", "--xvars", "2", "--yvars", "2",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["equal"] is True

    def test_knuth_transform(self, capsys):
        assert main(["knuth", "transform", "159362847"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["monovariants"][0] == 152794863
        assert out["monovariants"][-1] == 123456789

    def test_knuth_connect_replay(self, capsys):
        assert main(["knuth", "connect", "1212", "1122", "--replay"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["replayed"] == [1, 1, 2, 2]

    def test_marble_round_trip(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        doc = {
            "shape": {
                "outer": {"k": 2, "n": 4, "window": [1, 0]},
                "inner": {"k": 2, "n": 4, "window": [0, 0]},
            },
            "rows": [[2], []],
        }
        t.write_text(json.dumps(doc))
        assert main(["marble", "encode", "--tableau", str(t), "--letters", "2"]) == 0
        game = json.loads(capsys.readouterr().out)["game"]
        assert game == {"initial": [2, 0], "turns": [[0, 0], [1, 0]]}
        mu = tmp_path / "mu.json"
        g = tmp_path / "g.json"
        mu.write_text(json.dumps({"k": 2, "n": 4, "window": [0, 0]}))
        g.write_text(json.dumps(game))
        assert main(["marble", "decode", "--mu", str(mu), "--game", str(g)]) == 0
        back = json.loads(capsys.readouterr().out)["tableau"]
        assert back == doc

    def test_marble_encode_rejects_letter_zero(self, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(json.dumps({**TABLEAU_DOC, "rows": [[0, 1], [2]]}))
        assert main(["validate", str(t)]) == 0
        res = run_python("-m", "cyltab.cli", "marble", "encode", "--tableau", str(t))
        assert res.returncode == 1, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "MarbleError"

    def test_verify_skew_cross_check_computes_sides_once(self, monkeypatch, capsys):
        calls = []
        sides = enumeration.skew_reduction_sides

        def counted(*args):
            calls.append(args)
            return sides(*args)

        monkeypatch.setattr(enumeration, "skew_reduction_sides", counted)
        argv = ["verify", "skew", "--alpha", "2,1", "--beta", "1", "--degree", "2"]
        assert main(argv + ["--cross-check"]) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["embedding_lhs_equal"] and doc["embedding_rhs_equal"]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert {k: v for k, v in doc.items() if not k.startswith("embedding_")} == plain

    def test_fixtures_all_pass(self):
        lines = []
        assert run_fixtures(emit=lines.append) == 0
        assert lines[-1].endswith("fixtures passed")

    def test_a_fixture_that_builds_another_document_is_a_mismatch(self, monkeypatch):
        build, calls = cli._build, []

        def build_first_wrong(operation, values, *rest):
            calls.append(operation)
            got = build(operation, values, *rest)
            return {**got, "tampered": 1} if len(calls) == 1 else got

        monkeypatch.setattr(cli, "_build", build_first_wrong)
        lines = []
        assert run_fixtures(emit=lines.append) == 1
        first = min(e.name for e in FIXTURE_DIR.iterdir() if e.name.endswith(".json"))
        doc = json.loads(FIXTURE_DIR.joinpath(first).read_text())
        assert lines[:3] == [
            f"MISMATCH {doc['name']}",
            f"  expected {ser.canonical_json(doc['expected'])}",
            f"  got      {ser.canonical_json({**doc['expected'], 'tampered': 1})}",
        ]
        assert all(line.startswith("ok ") for line in lines[3:-1])
        assert lines[-1] == f"{len(FIXTURES) - 1}/{len(FIXTURES)} fixtures passed"

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


# Each fixture operation that a command prints: the command, and the option
# that takes each payload field (a file for a document, the value for an int).
COMMANDS = {
    "insert": (["insert", "--trace"], {"tableau": "--tableau", "boxes": "--boxes", "seed_row": "--seed-row"}),
    "reverse": (["reverse"], {"tableau": "--tableau", "boxes": "--boxes", "seed_row": "--seed-row"}),
    "crsk": (["crsk"], {"t": "--t", "u": "--u"}),
    "crsk_inverse": (["crsk-inv"], {"p": "--p", "q": "--q"}),
    "marble_encode": (["marble", "encode"], {"tableau": "--tableau", "letters": "--letters"}),
    "marble_decode": (["marble", "decode"], {"mu": "--mu", "game": "--game"}),
}
FIXTURE_DIR = resources.files("cyltab").joinpath("fixtures")
FIXTURES = [json.loads(e.read_text()) for e in FIXTURE_DIR.iterdir() if e.name.endswith(".json")]
GOLDEN = sorted((doc for doc in FIXTURES if doc["operation"] in COMMANDS), key=lambda doc: doc["name"])


@pytest.mark.parametrize("doc", GOLDEN, ids=[doc["name"] for doc in GOLDEN])
def test_command_prints_the_golden_document(doc, tmp_path, capsys):
    argv, options = COMMANDS[doc["operation"]]
    argv = list(argv)
    for field, value in doc["payload"].items():
        if isinstance(value, int):
            argv += [options[field], str(value)]
        else:
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(value))
            argv += [options[field], str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ser.canonical_json(doc["expected"]) + "\n"


def test_every_fixture_operation_is_a_row_of_the_table():
    operations = {doc["operation"] for doc in FIXTURES}
    fixture_only = {op for op, (words, *_) in OPERATIONS.items() if not words}
    assert fixture_only == {"knuth_transform", "lift_word", "tableau_word", "weight"}
    assert operations <= set(OPERATIONS)
    assert set(COMMANDS) == {op for op in operations if OPERATIONS[op][0]}


# Input files for the argument fuzz, by name; "missing" is never written.
ARGUMENT_FILES = {
    "tableau": TABLEAU_DOC,
    "partition": PARTITION_DOC,
    "boxes": [{"row": 0, "col": 2}],
    "game": {"initial": [1, 1], "turns": [[1, 0]]},
    "junk": "not a document",
}
FILE = st.sampled_from([*ARGUMENT_FILES, "missing"]).map(lambda name: "@" + name)
BUDGET = st.integers(0, 3)
SMALL_INTS = st.lists(st.integers(-2, 4), max_size=4)
JUNK_TEXT = st.text(st.sampled_from("0123456789,- x\u00b2"), max_size=6)
PARTS = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(lambda v: sorted(v, reverse=True))
WINDOW = st.one_of(PARTS, PARTS, SMALL_INTS).map(lambda v: ",".join(map(str, v))) | JUNK_TEXT
WORD = WINDOW | SMALL_INTS.map(lambda v: "".join(str(abs(x)) for x in v))
# A strategy for each flag of the table; a row with a flag not listed here fails the fuzz.
ARGUMENTS = {
    "--k": st.integers(1, 3),
    "--n": st.integers(1, 6),
    "--alpha": WINDOW,
    "--beta": WINDOW,
    "--degree": BUDGET,
    "--m": BUDGET,
    "--vars": BUDGET,
    "--xvars": BUDGET,
    "--yvars": BUDGET,
    "--seed-row": st.integers(-2, 3),
    "--letters": st.integers(-1, 6),
    "word": WORD,
    "w": WORD,
    "v": WORD,
    "file": FILE,
}
COMMAND_ROWS = [row for row in OPERATIONS.values() if row[0]]


@st.composite
def row_arguments(draw):
    """The command words and (flag, value) pairs of one command of the table.

    Each value is drawn for its own flag; a switch's value is None. A
    document or file argument is "@name", a name of ARGUMENT_FILES or "missing".
    """
    words, documents, arguments, _ = draw(st.sampled_from(COMMAND_ROWS))
    pairs = [(f"--{name}", draw(FILE)) for name, _ in documents]
    for flag, keywords in arguments:
        if keywords.get("action") == "store_true":
            pairs += [(flag, None)] if draw(st.booleans()) else []
        elif not flag.startswith("-") or keywords.get("required") or draw(st.booleans()):
            pairs.append((flag, str(draw(ARGUMENTS[flag]))))
    return words, pairs


def spell(words, pairs, joined: bool) -> list[str]:
    """The argv of a command: each option as `--flag X` and each positional as X
    in table order, or, if joined, each option as `--flag=X` and the
    positionals last, after `--`."""
    argv, positionals = list(words), []
    for flag, value in pairs:
        if value is None:
            argv.append(flag)
        elif not flag.startswith("-"):
            (positionals if joined else argv).append(value)
        else:
            argv += [f"{flag}={value}"] if joined else [flag, value]
    return argv + (["--", *positionals] if positionals else [])


def run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(row_arguments())
def test_fuzzed_arguments_of_every_command(tmp_path, capsys, command):
    """Small arguments of every command end in a document, one report or a usage error.

    Exit 0 prints one canonical document, and exit 1 prints either a document
    that records a failed identity or one canonical {"error", "detail"} line on
    stderr. Exit 2 is argparse's usage error. Any other exception fails the test.
    Every value, even one that begins with "-", is read the same in both
    spellings: `--flag X` as `--flag=X`, and a positional X as `-- X`. The
    one token argparse reserves, "--" itself, is left out of that comparison.
    """
    for name, doc in ARGUMENT_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    words, pairs = command
    pairs = [(flag, str(tmp_path / v[1:]) if v and v.startswith("@") else v) for flag, v in pairs]
    code, out, err = run_main(spell(words, pairs, joined=False), capsys)
    if code == 2:
        assert not out and err.startswith("usage: cyltab")
    elif err:
        report = json.loads(err)
        assert (code, out) == (1, "")
        assert set(report) == {"error", "detail"} and err == ser.canonical_json(report) + "\n"
    else:
        doc = json.loads(out)
        assert out == ser.canonical_json(doc) + "\n"
        checks = ("equal", "embedding_lhs_equal", "embedding_rhs_equal")
        assert code == (1 if any(doc.get(check) is False for check in checks) else 0)
    if all(value != "--" for _, value in pairs):
        assert run_main(spell(words, pairs, joined=True), capsys) == (code, out, err)


# Input files that no JSON document can come from, by name and raw bytes.
MALFORMED = {
    "nested_200000_deep": b"[" * 200_000 + b"]" * 200_000,
    "utf16_byte_order_mark": b"\xff\xfe[\x00]\x00",
    "integer_of_5000_digits": b"1" + b"0" * 4999,
}


class TestUnreadableFiles:
    """A file that cannot be read or decoded ends in a CliError, never a traceback."""

    @pytest.mark.parametrize("name", [*MALFORMED, "missing"])
    @pytest.mark.parametrize(
        "command", [["validate", "FILE"], ["crsk", "--t", "FILE", "--u", "FILE"]], ids=["validate", "crsk"]
    )
    def test_reported_as_cli_error(self, name, command, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        if name in MALFORMED:
            path.write_bytes(MALFORMED[name])
        assert main([str(path) if word == "FILE" else word for word in command]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert '"error":"CliError"' in err

    def test_no_traceback_in_a_fresh_interpreter(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(MALFORMED["nested_200000_deep"])
        res = run_python("-m", "cyltab.cli", "validate", str(path))
        assert res.returncode == 1, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "CliError"


class TestBadVerifyInputs:
    """Bad verify inputs end in a usage error or a structured report, never a traceback."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "skew", "--alpha", "1,2", "--beta", "1", "--degree", "2"], 1),
            (["verify", "oneschur", "--k", "2", "--n", "4", "--alpha", "1,0",
              "--degree", "3", "--vars", "-1"], 2),
            (["verify", "cauchy", "--k", "2", "--n", "4", "--alpha", "0,0", "--beta", "0,0",
              "--degree", "-1", "--xvars", "0", "--yvars", "0"], 2),
            (["verify", "fcount", "--k", "2", "--n", "4", "--alpha", "1,0", "--beta", "0,0",
              "--m", "-1"], 2),
        ],
    )
    def test_exit_code_without_traceback(self, argv, code):
        res = run_python("-m", "cyltab.cli", *argv)
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        if code == 1:
            assert json.loads(res.stderr) == {
                "error": "GeometryError",
                "detail": "(1, 2) is not a partition",
            }


def test_import_loads_no_thread_pool():
    res = run_python("-c", "import sys, cyltab; print('concurrent.futures' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


class TestKnuthArguments:
    """Any text given as a knuth word ends in a result, a report or a usage error."""

    @pytest.mark.parametrize(
        "argv", [["knuth", "transform", "\u00b2"], ["knuth", "connect", "\u00b2", "\u00b2"]]
    )
    def test_non_decimal_digit_is_reported(self, argv):
        res = run_python("-m", "cyltab.cli", *argv)
        assert res.returncode == 1, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "CliError"

    # Decimal digits of several scripts, which int() reads, and numbers such
    # as superscripts, which str.isdigit accepts and int() rejects.  Fixed
    # alphabets spare Hypothesis from building its Unicode table.
    NUMBERS = "0123456789,-\u0663\u06f4\u0966\u0bec\u00b2\u00b3\u2460\u2474\u1369"
    WORD = st.text(
        st.sampled_from(string.printable + "\u00e9\u4e2d" + NUMBERS), max_size=10
    ) | st.text(st.sampled_from(NUMBERS), max_size=10)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.booleans(), WORD, WORD)
    def test_fuzzed_words(self, transform, w, v):
        argv = ["knuth", "transform", w] if transform else ["knuth", "connect", w, v]
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2
        else:
            assert code in (0, 1)


JUNK_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.sampled_from([0.5, "", "x"]),
    lambda c: st.lists(c, max_size=3)
    | st.dictionaries(st.sampled_from(["k", "n", "window", "shape", "rows", "row", "col", "turns"]), c, max_size=3),
    max_leaves=8,
)
NOT_JSON = st.text(st.sampled_from('{}[]",:-0123456789 ax'), max_size=8)


@st.composite
def json_inputs(draw):
    """One cyltab command whose input files hold random JSON documents.

    Each example draws one cylinder and one skew shape, and builds every
    tableau on that shape, so that pairs share the shape the correspondence
    needs.  Any file may instead hold an arbitrary small JSON
    value or text that is not JSON at all.
    """
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, k + 3))
    base = draw(st.integers(-1, 2))
    inner = sorted(draw(st.lists(st.integers(base, base + n - k), min_size=k, max_size=k)), reverse=True)
    lengths = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    outer = [a + b for a, b in zip(inner, lengths)]
    if outer != sorted(outer, reverse=True) or outer[-1] < outer[0] - (n - k):
        lengths = [min(lengths)] * k
        outer = [a + lengths[0] for a in inner]

    def partition(window):
        return {"k": k, "n": n, "window": window}

    def tableau():
        rows = [sorted(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))) for m in lengths]
        return {"shape": {"outer": partition(outer), "inner": partition(inner)}, "rows": rows}

    def boxes():
        return [
            {"row": r, "col": outer[r % k] + d}
            for r, d in draw(st.lists(st.tuples(st.integers(-1, k), st.integers(-1, 2)), max_size=3))
        ]

    def game():
        initial = [(inner[i - 1] if i else inner[-1] + n - k) - inner[i] for i in range(k)]
        turns = draw(st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k), max_size=3))
        return {"initial": initial, "turns": turns}

    def doc(build):
        kind = draw(st.sampled_from(["built", "built", "junk", "text"]))
        if kind == "built":
            return json.dumps(build())
        return json.dumps(draw(JUNK_JSON)) if kind == "junk" else draw(NOT_JSON)

    command = draw(st.sampled_from(["validate", "insert", "reverse", "crsk", "crsk-inv", "encode", "decode"]))
    if command == "validate":
        return ["validate"], [(None, doc(tableau))]
    if command in ("insert", "reverse"):
        flags = ["--seed-row", str(draw(st.integers(-2, 3)))] + (["--trace"] if draw(st.booleans()) else [])
        return [command, *flags], [("--tableau", doc(tableau)), ("--boxes", doc(boxes))]
    if command == "crsk":
        return ["crsk"], [("--t", doc(tableau)), ("--u", doc(tableau))]
    if command == "crsk-inv":
        return ["crsk-inv"], [("--p", doc(tableau)), ("--q", doc(tableau))]
    if command == "encode":
        letters = draw(st.none() | st.integers(-1, 6))
        flags = [] if letters is None else ["--letters", str(letters)]
        return ["marble", "encode", *flags], [("--tableau", doc(tableau))]
    return ["marble", "decode"], [("--mu", doc(lambda: partition(inner))), ("--game", doc(game))]


class TestJsonInputs:
    """Any JSON given to a file-reading command ends in a result, a report or a usage error."""

    @settings(
        derandomize=True,
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(json_inputs())
    def test_fuzzed_documents(self, tmp_path, capsys, command):
        argv, files = command
        argv = list(argv)
        for i, (flag, text) in enumerate(files):
            path = tmp_path / f"in{i}.json"
            path.write_text(text)
            argv += [str(path)] if flag is None else [flag, str(path)]
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        if code == 0:
            assert out and not err
        elif code == 1:
            assert not out and json.loads(err)["error"]
