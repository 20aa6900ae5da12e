"""Pin every argparse action of the `cyltab` parser against cli_interface.json.

The CLI transcript compares usage errors by exit code only, because
argparse's usage text differs between Python versions. This record holds
what the text is made from instead: for each subcommand path, in order, each
action's option strings, dest, required, default, nargs, const, type name,
choices and whether its help is suppressed, and for a list of subcommands the
help line of each choice that has one. To record it again, write
`dump(describe(build_parser()))` to the golden file.
"""

import argparse
import json
from pathlib import Path

from cyltab.cli import build_parser

GOLDEN = Path(__file__).parent / "cli_interface.json"


def _action(action: argparse.Action) -> dict:
    choices = action.choices
    entry = {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "required": action.required,
        "default": action.default,
        "nargs": action.nargs,
        "const": action.const,
        "type": getattr(action.type, "__name__", None),
        "choices": None if choices is None else list(choices),
        "help_suppressed": action.help == argparse.SUPPRESS,
    }
    if isinstance(action, argparse._SubParsersAction):
        entry["choice_help"] = [[choice.dest, choice.help] for choice in action._choices_actions]
    return entry


def describe(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()) -> list[dict]:
    """One entry per subcommand path, parents before their subcommands."""
    entries = [{"path": list(path), "actions": [_action(a) for a in parser._actions]}]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                entries += describe(sub, (*path, name))
    return entries


def dump(entries: list[dict]) -> str:
    """The golden file's layout: one line per action, so a change shows as one line."""
    paths = (
        f'{{"path": {json.dumps(e["path"])}, "actions": [\n'
        + ",\n".join(f"  {json.dumps(a)}" for a in e["actions"])
        + "]}"
        for e in entries
    )
    return "[\n" + ",\n".join(paths) + "\n]\n"


def test_parser_matches_the_recorded_interface():
    assert describe(build_parser()) == json.loads(GOLDEN.read_text())
