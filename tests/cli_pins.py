"""The two golden files that pin the `cyltab` command line, checked with the standard library.

- cli_transcript.json: each entry holds an argv and the exit code, stdout and
  stderr that `cyltab.cli.main` gave for it, compared byte for byte. A usage
  error (exit 2) is compared by its exit code only, because argparse's usage
  text differs between Python versions. To record a new entry, run
  `replay(argv)` and append the result.
- cli_interface.json: what that usage text is made from. For each subcommand
  path, in order, each action's option strings, dest, required, default,
  nargs, const, type name, choices and whether its help is suppressed, and
  for a list of subcommands the help line of each choice that has one. To
  record it again, write `dump(describe(build_parser()))` to the file.

`PYTHONPATH=src python tests/cli_pins.py` checks both, so an interpreter
without pytest can; it exits 0 only if both match. The pytest files
test_cli_transcript.py and test_cli_interface.py run the same comparisons.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from cyltab import cli

TRANSCRIPT = Path(__file__).parent / "cli_transcript.json"
INTERFACE = Path(__file__).parent / "cli_interface.json"


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def replay_entry(entry: dict) -> tuple:
    """(recorded, got) for one transcript entry: a usage error is its exit code alone."""
    got = replay(entry["argv"])
    return (2, got["exit"]) if entry["exit"] == 2 else (entry, got)


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
    """The interface file's layout: one line per action, so a change shows as one line."""
    paths = (
        f'{{"path": {json.dumps(e["path"])}, "actions": [\n'
        + ",\n".join(f"  {json.dumps(a)}" for a in e["actions"])
        + "]}"
        for e in entries
    )
    return "[\n" + ",\n".join(paths) + "\n]\n"


def interface() -> tuple[list, list]:
    """(recorded, got) for the parser's interface."""
    return json.loads(INTERFACE.read_text()), describe(cli.build_parser())


def main() -> int:
    entries = json.loads(TRANSCRIPT.read_text())
    failed = 0
    for entry in entries:
        recorded, got = replay_entry(entry)
        if got != recorded:
            failed += 1
            print(f"MISMATCH {entry['argv']}\n  recorded {recorded}\n  got      {got}")
    print(f"{len(entries) - failed}/{len(entries)} transcript entries match")
    recorded, got = interface()
    print("interface " + ("matches" if got == recorded else "MISMATCH"))
    return 0 if failed == 0 and got == recorded else 1


if __name__ == "__main__":
    sys.exit(main())
