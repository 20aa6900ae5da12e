import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyltab as ct
from cyltab import enumeration, serialization as ser
from cyltab.cli import main, run_fixtures
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

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


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
