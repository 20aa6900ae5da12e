"""Replay recorded `cyltab` commands and compare exit code, stdout and stderr byte for byte.

The entries, the rule for usage errors and how to record a new entry are
described in cli_pins.py, which runs the same comparison without pytest.
"""

import json

import pytest

from cli_pins import TRANSCRIPT, replay_entry

ENTRIES = json.loads(TRANSCRIPT.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_transcript(entry):
    recorded, got = replay_entry(entry)
    assert got == recorded
