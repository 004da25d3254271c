"""A diagram phase is a finite number.  ``1e400`` reads as inf under
``float`` and ``1e308pi`` overflows to it; each is now a
DiagramSyntaxError at the phase's number, worded like the finite-angle
rule of ``formats``, through ``parse`` and through the CLI, where both
used to end in a bare ``ValueError`` ("math domain error")."""

import json
import math

import pytest

from qgamelab.cli import main
from qgamelab.diagrams import PhaseElement, Spider, parse
from qgamelab.errors import DiagramSyntaxError


@pytest.mark.parametrize("text, shown, line, column", [
    ("spider(1,1,1e400)", "1e400", 1, 12),
    ("spider(1,1,-1e400)", "1e400", 1, 13),
    ("spider(1,1,1e308pi)", "1e308pi", 1, 12),
    ("spider(1,1, - 1e308 # huge\n pi)", "1e308pi", 1, 15),
    ("id(1) ;\n  spider(1, 1,\n\t9" + "9" * 400 + ")", "9" * 401, 3, 2),
    # the token path: this atom is malformed after its phase
    ("spider(1,1,1e400 x)", "1e400", 1, 12),
], ids=["1e400", "-1e400", "1e308pi", "spaced", "401 nines", "token path"])
def test_a_phase_that_is_not_finite_is_a_syntax_error(text, shown, line,
                                                       column):
    with pytest.raises(DiagramSyntaxError) as info:
        parse(text)
    assert str(info.value) == (f"{line}:{column}: phase {shown!r}: "
                               "expected a finite number")
    assert (info.value.line, info.value.column) == (line, column)
    assert info.value.expected == ()


def test_an_earlier_syntax_error_still_comes_first():
    with pytest.raises(DiagramSyntaxError) as info:
        parse("id(1) id(1) ; spider(1,1,1e400)")
    assert info.value.expected == ("*", ";", "end of input")
    assert (info.value.line, info.value.column) == (1, 7)


def test_finite_phases_read_as_before():
    assert parse("spider(1,1,1e300)") == Spider(1, 1,
                                                 PhaseElement.qubit(1e300))
    assert parse("spider(1,1,1e307pi)") == Spider(
        1, 1, PhaseElement.qubit(1e307 * math.pi))
    assert parse("spider(1,1,1e-400pi)") == Spider(1, 1,
                                                   PhaseElement.qubit(0.0))


@pytest.mark.parametrize("argv, shown", [
    (["diagram-check", "spider(1,1,1e400)"], "1e400"),
    (["diagram-eval", "spider(1,1,1e308pi)"], "1e308pi"),
])
def test_the_cli_reports_a_phase_that_is_not_finite(capsys, argv, shown):
    code = main([*argv, "--output", "json"])
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert code == 1
    assert error["type"] == "DiagramSyntaxError"
    assert error["message"] == (f"1:12: phase {shown!r}: expected a "
                                "finite number")
    assert captured.err == f"error: {error['message']}\n"
