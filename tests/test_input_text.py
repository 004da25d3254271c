"""Text at the edges: digits are the ASCII digits 0-9, and input files
are UTF-8.

``str.isdigit`` and the regex ``\\d`` both take digits of every script
(and ``isdigit`` superscripts too), which ``int()`` then reads or
refuses with a bare error.  Every input below must get its documented
outcome instead: a syntax error, a ``FormatError`` or the constructor's
own ``ValueError`` message.
"""

import json

import pytest

from qgamelab import formats
from qgamelab.cli import main
from qgamelab.diagrams import Ket, parse
from qgamelab.errors import (
    DiagramSyntaxError,
    DomainMismatchError,
    FormatError,
)
from qgamelab.ewl import QuantumGameSpec, ewl_entangler
from qgamelab.linalg import BUILTIN_GATES, ascii_digits, ket

from test_cli import _json_error

ARABIC_ONE, ARABIC_TWO, ARABIC_ZERO = "١", "٢", "٠"
SUPERSCRIPT_TWO = "²"


def test_ascii_digits_is_the_digit_rule():
    assert ascii_digits("0") and ascii_digits("0123456789")
    for value in ("", SUPERSCRIPT_TWO, ARABIC_ONE, "1" + ARABIC_ZERO, "1.0",
                  " 1", 5, None, b"1", ["1"]):
        assert not ascii_digits(value), value


@pytest.mark.parametrize("text, column", [
    (f"ket({ARABIC_ONE})", 5),
    (f"id({ARABIC_TWO})", 4),
    (f"spider(1,1,{ARABIC_ONE}pi)", 12),
    (f"spider(1,1,0.{ARABIC_ONE})", 14),
    (f"id(1) ; ket(0{ARABIC_ONE})", 14),
])
def test_diagram_digits_are_ascii(text, column):
    with pytest.raises(DiagramSyntaxError) as info:
        parse(text)
    assert "unexpected character" in str(info.value)
    assert (info.value.line, info.value.column) == (1, column)


def test_cli_refuses_a_diagram_with_other_digits(capsys):
    for command in ("diagram-check", "diagram-eval"):
        error = _json_error(capsys, [command, f"ket({ARABIC_ONE})"])
        assert error["type"] == "DiagramSyntaxError"


def test_angles_take_ascii_digits_only():
    assert formats.parse_angle("1pi/2") == formats.parse_angle("pi/2")
    for text in (f"{ARABIC_ONE}pi/{ARABIC_TWO}", ARABIC_ONE,
                 f"pi/{ARABIC_TWO}", f"0.{ARABIC_ONE}", SUPERSCRIPT_TWO):
        with pytest.raises(FormatError, match="cannot parse angle"):
            formats.parse_angle(text)


def test_ghz_dist_refuses_phases_in_other_digits(capsys):
    error = _json_error(capsys, ["ghz-dist", f"--phases={ARABIC_ONE}"])
    assert error["type"] == "FormatError"
    assert "cannot parse angle" in error["message"]
    error = _json_error(capsys, ["ghz-dist",
                                 f"--phases=0,{ARABIC_ONE}pi/{ARABIC_TWO}"])
    assert error["type"] == "FormatError"


@pytest.mark.parametrize("value", [SUPERSCRIPT_TWO, ARABIC_ONE, 5, None, ""])
def test_kets_refuse_other_digits_with_their_messages(value):
    with pytest.raises(ValueError, match="ket needs a nonempty digit "
                                         "string, got"):
        Ket(value)
    with pytest.raises(ValueError, match="ket label must be a nonempty "
                                         "digit string, got"):
        ket(value)


def _pd_doc(initial_ket):
    doc = json.loads(formats.fixture_text("pd_ewl_3strat.json"))
    doc["initial_ket"] = initial_ket
    return json.dumps(doc, ensure_ascii=False)


@pytest.mark.parametrize("initial", [SUPERSCRIPT_TWO * 2,
                                     ARABIC_ONE + ARABIC_ZERO, "0" + "¹"])
def test_initial_ket_takes_ascii_digits_only(initial, tmp_path, capsys):
    message = f"initial ket {initial!r} is not a length-2 base-2 string"
    with pytest.raises(FormatError, match=message) as info:
        formats.loads(_pd_doc(initial))
    assert str(info.value).startswith("ewl spec: ")
    path = tmp_path / "spec.json"
    path.write_text(_pd_doc(initial), encoding="utf-8")
    error = _json_error(capsys, ["ewl-table", str(path)])
    assert error["type"] == "FormatError"
    assert message in error["message"]
    # the same document with ASCII digits loads
    assert formats.loads(_pd_doc("10"))[1].initial_ket == "10"


def test_spec_initial_ket_must_be_a_string():
    gates = {"I": BUILTIN_GATES["I"]}
    coeffs = {k: 0.0 for k in ("00", "01", "10", "11")}
    for initial in (10, ("1", "0"), SUPERSCRIPT_TWO * 2):
        with pytest.raises(DomainMismatchError, match="initial ket"):
            QuantumGameSpec(players=2, strategies=(gates, gates),
                            payoff_coeffs=(coeffs, coeffs),
                            entangler=ewl_entangler(2), initial_ket=initial)


FULLWIDTH_TWO = "２"


@pytest.mark.parametrize("argv, kind", [
    (["bell-bound", "spec.json", "--player"], "int"),
    (["bell-bound", "spec.json", "--limit"], "int"),
    (["ghz-dist", "--phases", "0,0", "--n"], "int"),
    (["diagram-eval", "id(1)", "--dim"], "int"),
    (["ewl-nash", "spec.json", "--tolerance"], "float"),
])
@pytest.mark.parametrize("value", [ARABIC_TWO, "1" + ARABIC_ZERO,
                                   FULLWIDTH_TWO, f"0.{ARABIC_ONE}"])
def test_numeric_options_take_ascii_digits_only(argv, kind, value, capsys):
    def refusal(text):
        with pytest.raises(SystemExit) as info:
            main(argv + [text])
        captured = capsys.readouterr()
        assert captured.out == ""
        return info.value.code, captured.err

    code, err = refusal(value)
    want_code, want = refusal("x")
    assert f"invalid {kind} value: 'x'" in want
    assert (code, err) == (want_code, want.replace("'x'", repr(value)))
    assert code == 2


# ------------------------------------------------------ non-UTF-8 files

def _latin1_spec():
    """pd_ewl_3strat.json with a strategy renamed "Café": valid JSON text
    apart from its encoding."""
    doc = json.loads(formats.fixture_text("pd_ewl_3strat.json"))
    doc["strategies"][0][0] = {"name": "Café", "matrix": [
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    return json.dumps(doc, ensure_ascii=False)


def test_a_latin1_spec_is_a_format_error_naming_the_path(tmp_path, capsys):
    utf8, latin1 = tmp_path / "utf8.json", tmp_path / "latin1.json"
    utf8.write_text(_latin1_spec(), encoding="utf-8")
    latin1.write_text(_latin1_spec(), encoding="latin-1")
    assert main(["ewl-table", str(utf8), "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strategies"][0][0] == "Café"
    error = _json_error(capsys, ["ewl-table", str(latin1)])
    assert error["type"] == "FormatError"
    assert error["message"].startswith(f"{latin1}: not UTF-8 text")


def test_a_latin1_diagram_file_is_a_gamelab_error(tmp_path, capsys):
    text = "# unitaire (café)\nid(1) ; spider(1, 1)\n"
    utf8, latin1 = tmp_path / "utf8.txt", tmp_path / "latin1.txt"
    utf8.write_text(text, encoding="utf-8")
    latin1.write_text(text, encoding="latin-1")
    assert main(["diagram-check", "--file", str(utf8)]) == 0
    capsys.readouterr()
    error = _json_error(capsys, ["diagram-check", "--file", str(latin1)])
    assert error["type"] == "GameLabError"
    assert error["message"].startswith(f"{latin1}: not UTF-8 text")
