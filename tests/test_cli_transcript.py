"""Replay recorded `cyltab` commands and compare exit code, stdout and stderr byte for byte.

Each entry of cli_transcript.json holds an argv and what `cyltab.cli.main`
printed for it. A usage error (exit 2) is compared by its exit code only,
because argparse's usage text differs between Python versions. To record a
new entry, run `replay(argv)` and append the result.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from cyltab.cli import main

ENTRIES = json.loads((Path(__file__).parent / "cli_transcript.json").read_text())


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_transcript(entry):
    got = replay(entry["argv"])
    if entry["exit"] == 2:
        assert got["exit"] == 2
    else:
        assert got == entry
