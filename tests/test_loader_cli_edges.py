"""Loader and CLI edges: numbers past Python's int digit limit, tables
held in any Mapping, and abbreviations of ``--output`` in usage errors."""

import json
import sys
from collections import OrderedDict
from types import MappingProxyType

import pytest

from qgamelab import errors, formats
from qgamelab.bayes import chsh_expression, classical_optimum
from qgamelab.cli import main
from qgamelab.diagrams import parse
from qgamelab.errors import DiagramSyntaxError, FormatError, GameLabError

# 0 means no limit, as PYTHONINTMAXSTRDIGITS=0 sets
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not _DIGIT_LIMIT, reason="this Python reads ints of any length")
HUGE = "9" * (_DIGIT_LIMIT + 1)


def _json_error(capsys, argv):
    code = main(argv + ["--output", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    error = json.loads(captured.out)["error"]
    assert issubclass(getattr(errors, error["type"]), GameLabError)
    return error


# ------------------------------------------------- the int digit limit

@needs_digit_limit
@pytest.mark.parametrize("text, column", [
    ("id(" + HUGE + ")", 4),
    ("spider(1, " + HUGE + ")", 11),
    ("spider(" + HUGE + ", 1, pi)", 8),
], ids=["id", "spider-outputs", "spider-inputs"])
def test_a_nat_past_the_digit_limit_is_a_syntax_error(text, column):
    with pytest.raises(DiagramSyntaxError) as info:
        parse("cup ;\n" + text)
    assert (info.value.line, info.value.column) == (2, column)
    assert f"natural number has {len(HUGE)} digits" in str(info.value)


@needs_digit_limit
@pytest.mark.parametrize("command", ["diagram-eval", "diagram-check"])
def test_the_cli_reports_a_nat_past_the_digit_limit(command, capsys):
    error = _json_error(capsys, [command, "id(" + HUGE + ")"])
    assert error["type"] == "DiagramSyntaxError"
    assert error["message"].startswith("1:4: natural number has ")


@needs_digit_limit
def test_a_json_int_past_the_digit_limit_is_a_format_error(tmp_path,
                                                           capsys):
    text = '{"kind": "ewl", "players": ' + HUGE + '}'
    with pytest.raises(FormatError, match="^invalid JSON: "):
        formats.loads(text)
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    error = _json_error(capsys, ["ewl-table", str(path)])
    assert error["type"] == "FormatError"
    assert error["message"].startswith("invalid JSON: ")


def test_json_nested_past_the_stack_is_a_format_error(tmp_path, capsys):
    text = "[" * 100_000 + "]" * 100_000
    with pytest.raises(FormatError, match="^invalid JSON: "):
        formats.loads(text)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    error = _json_error(capsys, ["ewl-table", str(path)])
    assert error["type"] == "FormatError"
    assert error["message"].startswith("invalid JSON: ")


# ------------------------------------------------ tables in any Mapping

def _wrapped(doc, wrap):
    """``doc`` with its prior, payoffs and classical-advice tables (and
    each response row) held in ``wrap`` instead of a dict."""
    out = dict(doc, prior=wrap(doc["prior"]),
               payoffs=[wrap(per) for per in doc["payoffs"]])
    advice = doc["advice"]
    out["advice"] = dict(advice, rho=wrap(advice["rho"]), responses=[
        wrap({k: wrap(row) for k, row in per.items()})
        for per in advice["responses"]])
    return out


@pytest.mark.parametrize("wrap", [OrderedDict, MappingProxyType])
def test_tables_in_any_mapping_load_as_plain_dicts_do(wrap):
    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    doc["advice"] = formats.advice_to_json(
        classical_optimum(chsh_expression()).advice())
    plain = formats.dumps(*formats.bayes_from_json(doc))
    assert formats.dumps(*formats.bayes_from_json(_wrapped(doc, wrap))) \
        == plain


# ------------------------------------ abbreviations of --output

BAD_N = ["ghz-dist", "--n", "x", "--phases", "0,0"]


def _refusal(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("flag", [["--outp", "json"], ["--outp=json"],
                                  ["--o", "json"]])
def test_a_usage_error_under_an_abbreviated_output_json(flag, capsys):
    code, out, err = _refusal(capsys, BAD_N + flag)
    assert (code, err) == _refusal(capsys, BAD_N)[::2]
    assert json.loads(out) == {"error": {
        "type": "UsageError",
        "message": "qgamelab ghz-dist: argument --n: invalid int value: "
                   "'x'"}}


@pytest.mark.parametrize("flag", [["--outp", "table"], ["--outp"],
                                  ["--outp", "json", "--output", "table"]])
def test_a_usage_error_without_json_output_prints_nothing(flag, capsys):
    code, out, _ = _refusal(capsys, BAD_N + flag)
    assert (code, out) == (2, "")
