"""The help text of ``qgamelab`` and of each subcommand, pinned byte for
byte.  The goldens were written by argparse on Python 3.11 at a terminal
width of 80 columns; other Python versions word argparse help
differently, so there the comparison is skipped."""

import json
import sys
from pathlib import Path

import pytest

from qgamelab.cli import build_parser, main

GOLDEN_PATH = Path(__file__).with_name("golden_cli_help.json")
COMMANDS = ("ewl-table", "ewl-nash", "ewl-state", "bayes-payoff",
            "bell-bound", "bell-value", "ghz-dist", "mermin", "diagram-eval",
            "diagram-check")

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the help goldens hold Python 3.11's argparse wording")


def test_golden_covers_every_subcommand():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    subparsers = build_parser()._subparsers._group_actions[0]
    assert sorted(subparsers.choices) == sorted(COMMANDS)
    assert sorted(golden) == sorted(
        ["--help"] + [f"{name} --help" for name in COMMANDS])


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"]
                                                 for name in COMMANDS],
                         ids=" ".join)
def test_help_matches_golden(argv, monkeypatch, capsys):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == golden[" ".join(argv)]
