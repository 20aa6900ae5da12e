"""Pin every argparse action of the `cyltab` parser against cli_interface.json.

The CLI transcript compares usage errors by exit code only, because
argparse's usage text differs between Python versions. cli_interface.json
holds what the text is made from instead; cli_pins.py describes its fields
and how to record it, and runs the same comparison without pytest.
"""

from cli_pins import interface


def test_parser_matches_the_recorded_interface():
    recorded, got = interface()
    assert got == recorded
