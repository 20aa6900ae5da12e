"""The package and each command load only the modules they run.

Each check that counts loaded modules starts a fresh interpreter, since this
process has imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyltab
from cyltab import cli

SRC = str(Path(cyltab.__file__).resolve().parents[1])

# Runs the command in sys.argv[1:], then prints the cyltab submodules it
# loaded as the last line of stdout.
PROBE = """
import json, sys
from cyltab.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m[len("cyltab."):] for m in sys.modules if m.startswith("cyltab."))))
sys.exit(code)
"""

ALL = [
    "Arrangement", "Box", "BumpingRoute", "Certificate", "CrskInput", "CrskOutput",
    "CylParams", "CylPartition", "CylTableau", "CyltabError", "IdentityReport",
    "InsertionQueue", "MarbleGame", "Move", "MultiInsertResult", "Point",
    "ReverseMultiResult", "ReverseQueue", "SkewShape", "SparsePolynomial",
    "applicable_moves", "apply_move", "arrangement", "connect", "count_standard",
    "crsk", "crsk_inverse", "cyl_embed", "empty_tableau", "enumerate_inner",
    "enumerate_outer", "enumerate_ssct", "enumeration", "errors", "flip_box",
    "flip_partition", "flip_tableau", "full_multi", "game_to_tableau",
    "game_validate", "geometry", "insertion", "internal_insert",
    "is_horizontal_strip", "is_standard", "lift", "lift_word", "marbles",
    "monovariant", "one_step_multi", "partition_contains", "partition_validate",
    "polynomials", "project", "regular_skew_schur", "reverse", "reverse_full_multi",
    "reverse_insert", "reverse_one_step_multi", "schur_poly", "seed_multi",
    "seed_reverse_multi", "skew_boxes", "tableau", "tableau_to_game",
    "tableau_validate", "tableau_word", "verify_cauchy", "verify_fcount",
    "verify_oneschur", "verify_skew_reduction", "weight", "weight_monomial",
    "word_transform", "words",
]
SUBMODULES = {
    "errors", "geometry", "tableau", "insertion", "reverse", "crsk", "polynomials", "enumeration", "marbles", "words"
}

TABLEAU_DOC = {
    "shape": {
        "outer": {"k": 2, "n": 4, "window": [2, 1]},
        "inner": {"k": 2, "n": 4, "window": [0, 0]},
    },
    "rows": [[1, 2], [3]],
}


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout


def loaded_by(*argv) -> set[str]:
    return set(json.loads(run_python("-c", PROBE, *argv).splitlines()[-1]))


def test_import_loads_no_submodule_but_errors():
    out = run_python("-c", "import json, sys, cyltab; print(json.dumps(sorted(sys.modules)))")
    assert {m for m in json.loads(out) if m.startswith("cyltab.")} <= {"cyltab.errors"}


def test_knuth_loads_no_tableau_module():
    loaded = loaded_by("knuth", "transform", "3,1,2")
    assert "words" in loaded
    assert not loaded & {
        "geometry", "tableau", "insertion", "reverse", "crsk", "polynomials", "enumeration", "marbles"
    }


def test_verify_loads_no_bijection_module():
    loaded = loaded_by("verify", "fcount", "--k", "2", "--n", "4", "--alpha", "1,0", "--beta", "0,0", "--m", "2")
    assert "enumeration" in loaded
    assert not loaded & {"insertion", "reverse", "crsk", "marbles", "words"}


def test_validate_loads_only_the_tableau(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(TABLEAU_DOC))
    assert loaded_by("validate", str(path)) <= {"cli", "errors", "serialization", "geometry", "tableau"}


def test_all_is_unchanged_and_resolves():
    assert cyltab.__all__ == ALL
    assert SUBMODULES <= set(ALL)
    for name in ALL:
        value = getattr(cyltab, name)
        if name in SUBMODULES - {"crsk"}:
            assert value is sys.modules[f"cyltab.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)


def test_names_follow_their_module(monkeypatch):
    # A value cached in the package would outlive a rebinding in its module,
    # such as a trace wrapper, once the rebinding is undone.
    original = cyltab.connect
    monkeypatch.setattr(sys.modules["cyltab.words"], "connect", len)
    assert cyltab.connect is len
    monkeypatch.undo()
    assert cyltab.connect is original


def test_dir_lists_every_export():
    assert set(ALL) <= set(dir(cyltab))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyltab.no_such_name


@pytest.mark.parametrize(
    "stmt", ["from cyltab.crsk import MismatchedInnerShapes", "import cyltab.crsk", "from cyltab import crsk"]
)
def test_crsk_stays_the_function(stmt):
    out = run_python("-c", f"import cyltab\n{stmt}\nprint(cyltab.crsk.__module__, cyltab.crsk.__name__)")
    assert out.split() == ["cyltab.crsk", "crsk"]


def test_cli_exports_the_correspondence():
    from cyltab.crsk import crsk, crsk_inverse

    assert (cli.run_crsk, cli.run_crsk_inverse) == (crsk, crsk_inverse)
