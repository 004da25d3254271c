"""An angle string is finite in every part: its coefficient, its
denominator and its value.  A string of 400 nines reads as inf and
"pi/" followed by them as 0.0 under ``float``; each is now a FormatError
naming the angle, through ``parse_angle`` and through the CLI, with
nothing written to stderr but the error line."""

import json
import math

import pytest

from qgamelab import formats
from qgamelab.cli import main
from qgamelab.errors import FormatError

NINES = "9" * 400


@pytest.mark.parametrize("text", [NINES, "-" + NINES, "pi/" + NINES,
                                  NINES + "pi", "9" * 305 + "/0.0001",
                                  "9" * 308 + "pi", "9" * 308 + "/0.1"])
def test_a_string_angle_that_is_not_finite_is_a_format_error(text):
    with pytest.raises(FormatError, match=r"^angle '.*': expected a "
                                          r"finite number, got "):
        formats.parse_angle(text)


def test_finite_string_angles_read_as_before():
    assert formats.parse_angle("9" * 300) == float("9" * 300)
    assert formats.parse_angle("pi/" + "9" * 300) == \
        math.pi / float("9" * 300)
    assert formats.parse_angle("-3pi/4") == -3 * math.pi / 4
    assert formats.parse_angle("1/0." + "0" * 299 + "1") == 1 / 1e-300


def _error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)["error"], captured.err


@pytest.mark.parametrize("phase", [NINES, "pi/" + NINES])
def test_ghz_dist_refuses_an_angle_that_is_not_finite(capsys, phase):
    code, error, err = _error(capsys, ["ghz-dist", "--phases",
                                       f"{phase},0,0", "--output", "json"])
    assert code == 1
    assert error["type"] == "FormatError"
    assert error["message"].startswith(f"angle {phase!r}: expected a finite")
    assert err.count("\n") == 1 and err.startswith("error: angle ")


def test_bell_value_refuses_a_measurement_phase_that_is_not_finite(
        tmp_path, capsys):
    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    doc["advice"]["measurements"][1]["0"] = {"phase": NINES}
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, error, err = _error(capsys, ["bell-value", str(path),
                                       "--output", "json"])
    assert code == 1
    assert error["type"] == "FormatError"
    assert error["message"].startswith(f"angle {NINES!r}: expected a finite")
    assert err.count("\n") == 1 and err.startswith("error: angle ")
