"""Pin every argparse action of the `cyltab` parser against cli_interface.json.

The CLI transcript compares usage errors by exit code only, because
argparse's usage text differs between Python versions. cli_interface.json
holds what the text is made from instead; cli_pins.py describes its fields
and how to record it, and runs the same comparison without pytest.

`main` builds only the parsers its command line can reach; the full parser
that `build_parser()` returns is the oracle for it, compared in this
interpreter so that the usage and help texts must match byte for byte.
"""

import json

import pytest

from cli_pins import TRANSCRIPT, describe, interface, replay
from cyltab import cli


def test_parser_matches_the_recorded_interface():
    recorded, got = interface()
    assert got == recorded


def _oracle_inputs() -> list[list[str]]:
    transcript = [entry["argv"] for entry in json.loads(TRANSCRIPT.read_text())]
    entries = describe(cli.build_parser())
    # A path with a choice action takes one of its choices as the next word.
    branches = [e["path"] for e in entries if any(a["choices"] for a in e["actions"])]
    return (
        transcript
        + [[*e["path"], "-h"] for e in entries]
        + [[*path, "no-such-choice"] for path in branches]
        + [["--json", *argv] for argv in transcript]
    )


@pytest.mark.parametrize("argv", _oracle_inputs(), ids=" ".join)
def test_main_parser_acts_as_the_full_parser(argv, monkeypatch):
    got = replay(argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert got == replay(argv)
