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

# Standard modules that no command loads: dataclasses imports inspect, ast,
# dis and tokenize, 6-8 ms of start-up in all.
HEAVY = ("dataclasses", "inspect")
# Runs the command in sys.argv[1:], then prints the cyltab submodules it
# loaded, and which of HEAVY it loaded, as the last line of stdout.
PROBE = f"""
import json, sys
from cyltab.cli import main
code = main(sys.argv[1:])
names = [m[len("cyltab."):] for m in sys.modules if m.startswith("cyltab.")]
print(json.dumps(sorted(names + [m for m in {HEAVY!r} if m in sys.modules])))
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


def run_python(*args, code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == code, res.stderr
    return res.stdout


def loaded_by(*argv, code=0) -> set[str]:
    return set(json.loads(run_python("-c", PROBE, *argv, code=code).splitlines()[-1]))


# One succeeding command per command of cli.OPERATIONS, and `fixtures run`,
# with the exact modules it loads, recorded when each command still imported
# its modules itself. "@fixture:key" is the file of that fixture's payload
# document.
CORE = {"cli", "errors", "serialization"}
TABLEAUX = CORE | {"geometry", "tableau"}
IDENTITIES = TABLEAUX | {"enumeration", "polynomials"}
CORRESPONDENCE = TABLEAUX | {"crsk", "insertion", "reverse"}
PINNED = [
    (["validate", "@insert_single_box_chain:tableau"], TABLEAUX),
    (
        ["insert", "--tableau", "@insert_single_box_chain:tableau", "--boxes", "@insert_single_box_chain:boxes"],
        TABLEAUX | {"insertion"},
    ),
    (
        ["reverse", "--tableau", "@reverse_multi_queue_trace:tableau",
         "--boxes", "@reverse_multi_queue_trace:boxes", "--seed-row", "1"],
        TABLEAUX | {"insertion", "reverse"},
    ),
    (["crsk", "--t", "@crsk_pair:t", "--u", "@crsk_pair:u"], CORRESPONDENCE),
    (["crsk-inv", "--p", "@crsk_inverse_pair:p", "--q", "@crsk_inverse_pair:q"], CORRESPONDENCE),
    (["verify", "cauchy", "--k", "2", "--n", "4", "--alpha", "1,0", "--beta", "0,0", "--degree", "2"], IDENTITIES),
    (["verify", "oneschur", "--k", "2", "--n", "4", "--alpha", "0,0", "--degree", "2"], IDENTITIES),
    (["verify", "fcount", "--k", "2", "--n", "4", "--alpha", "1,0", "--beta", "0,0", "--m", "2"], IDENTITIES),
    (["verify", "skew", "--alpha", "2,1", "--beta", "1", "--degree", "2", "--cross-check"], IDENTITIES),
    (["marble", "encode", "--tableau", "@marble_turn_list:tableau", "--letters", "6"], TABLEAUX | {"marbles"}),
    (["marble", "decode", "--mu", "@marble_decode_round_trip:mu", "--game", "@marble_decode_round_trip:game"],
     TABLEAUX | {"marbles"}),
    (["knuth", "transform", "159362847"], CORE | {"words"}),
    (["knuth", "connect", "312", "231", "--replay"], CORE | {"words"}),
    (["fixtures", "run"], CORRESPONDENCE | {"marbles", "words"}),
]
# Refused inputs: a bad window or cylinder is refused before the checker, and
# the modules it runs on, are loaded.
REFUSED = [
    ["verify", "cauchy", "--k", "2", "--n", "4", "--alpha", alpha, "--beta", "0,0", "--degree", "1"]
    for alpha in ("0,1", "0,0,0", "3,0", "a,0")
] + [
    ["verify", "cauchy", "--k", "2", "--n", "2", "--alpha", "0,0", "--beta", "0,0", "--degree", "1"],
    ["verify", "skew", "--alpha", "1,x", "--beta", "1", "--degree", "1"],
    ["verify", "oneschur", "--k", "2", "--n", "4", "--alpha", "0,1", "--degree", "1"],
    ["verify", "oneschur", "--k", "3", "--n", "3", "--alpha", "0,0,0", "--degree", "1"],
    ["verify", "fcount", "--k", "2", "--n", "4", "--alpha", "0,1", "--beta", "0,0", "--m", "1"],
    ["verify", "fcount", "--k", "2", "--n", "4", "--alpha", "0,0", "--beta", "0", "--m", "1"],
]


def test_every_command_is_pinned():
    for words, *_ in cli.OPERATIONS.values():
        assert not words or any(argv[: len(words)] == list(words) for argv, _ in PINNED), words


def _command(argv: list[str]) -> str:
    return " ".join(a for a in argv[:2] if not a.startswith(("-", "@")))


@pytest.mark.parametrize("argv, modules", PINNED, ids=[_command(argv) for argv, _ in PINNED])
def test_command_loads_the_pinned_modules(argv, modules, tmp_path):
    def document(arg: str) -> str:
        if not arg.startswith("@"):
            return arg
        name, key = arg[1:].split(":")
        fixture = json.loads((Path(cyltab.__file__).parent / "fixtures" / f"{name}.json").read_text())
        path = tmp_path / f"{name}.{key}.json"
        path.write_text(json.dumps(fixture["payload"][key]))
        return str(path)

    loaded = loaded_by(*map(document, argv))
    assert loaded.isdisjoint(HEAVY)
    assert loaded == modules


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_input_loads_no_more_than_before(argv):
    assert loaded_by(*argv, code=1) <= CORE | {"geometry"}


def test_import_loads_no_submodule_but_errors():
    out = run_python("-c", "import json, sys, cyltab; print(json.dumps(sorted(sys.modules)))")
    assert {m for m in json.loads(out) if m.startswith("cyltab.")} <= {"cyltab.errors"}


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
