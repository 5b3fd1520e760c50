"""The CLI's option surface, pinned: every subcommand's options with their
spelling, dest, nargs, default, required, choices, action and converter.

A change to ``cli_surface_golden.json`` is a change to what a script may
type; re-record it with ``python tests/core/test_cli_surface.py`` and
say in CHANGES.md what moved."""

import argparse
import json
import pathlib

from repro.cli import build_parser

GOLDEN = pathlib.Path(__file__).with_name("cli_surface_golden.json")


def _option(action: argparse.Action, names: dict) -> dict:
    return {
        "dest": action.dest,
        "nargs": action.nargs,
        "default": action.default,
        "required": action.required,
        "choices": list(action.choices) if action.choices is not None else None,
        "action": names[type(action)],
        "type": getattr(action.type, "__name__", None),
    }


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """``{subcommand: {spelling: option}}``, help skipped; a positional is
    spelled by its dest."""
    names = {
        cls: name
        for name, cls in parser._registries["action"].items()
        if isinstance(name, str)
    }
    (commands,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        command: {
            "/".join(a.option_strings) or a.dest: _option(a, names)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for command, sub in commands.choices.items()
    }


def test_cli_surface_matches_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert cli_surface(build_parser()) == golden


if __name__ == "__main__":  # pragma: no cover - re-records the golden
    surface = json.dumps(cli_surface(build_parser()), indent=1, sort_keys=True)
    GOLDEN.write_text(surface + "\n", encoding="utf-8")
