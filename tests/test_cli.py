import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from qgamelab import formats
from qgamelab.bayes import BayesianGame, average_payoff
from qgamelab.cli import main
from qgamelab.errors import FormatError
from qgamelab.ewl import QuantumGameSpec, payoff_table

FIXTURES = formats.FIXTURE_NAMES


def _write_fixture(tmp_path, name):
    path = tmp_path / name
    path.write_text(formats.fixture_text(name), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- formats

def test_parse_angle_accepts_pi_fractions():
    assert formats.parse_angle("pi") == math.pi
    assert formats.parse_angle("pi/2") == math.pi / 2
    assert formats.parse_angle("-pi/4") == -math.pi / 4
    assert formats.parse_angle("2pi") == 2 * math.pi
    assert formats.parse_angle("0.5pi") == math.pi / 2
    assert formats.parse_angle("3pi/4") == 3 * math.pi / 4
    assert formats.parse_angle("1.25") == 1.25
    assert formats.parse_angle("-2") == -2.0
    assert formats.parse_angle(0.75) == 0.75
    assert formats.parse_angle(2) == 2.0


def test_parse_angle_rejects_garbage():
    for bad in ("pie", "", "pi/0", "--pi", True, None, [1.0]):
        with pytest.raises(FormatError):
            formats.parse_angle(bad)


def test_complex_codec_round_trip():
    for z in (0j, 1 + 2j, -0.25j, 3.5 + 0j):
        encoded = formats.complex_to_json(z)
        assert formats.complex_from_json(encoded, "here") == z
    assert formats.complex_from_json(2.5, "here") == 2.5 + 0j
    with pytest.raises(FormatError):
        formats.complex_from_json([1.0], "here")
    with pytest.raises(FormatError):
        formats.complex_from_json([True, False], "here")


def test_every_fixture_round_trips_to_identical_json():
    for name in FIXTURES:
        kind, loaded = formats.loads(formats.fixture_text(name))
        if kind == "ewl":
            text = formats.dumps(loaded)
        else:
            text = formats.dumps(loaded[0], loaded[1])
        kind2, loaded2 = formats.loads(text)
        assert kind2 == kind
        if kind == "ewl":
            again = formats.dumps(loaded2)
        else:
            again = formats.dumps(loaded2[0], loaded2[1])
        assert again == text, name


def test_ewl_fixture_semantics_survive_round_trip():
    _, spec = formats.load_fixture("pd_ewl_3strat.json")
    assert isinstance(spec, QuantumGameSpec)
    _, spec2 = formats.loads(formats.dumps(spec))
    table = payoff_table(spec)
    table2 = payoff_table(spec2)
    assert list(table) == list(table2)
    for profile in table:
        assert table[profile] == table2[profile]


def test_bayes_fixture_semantics_survive_round_trip():
    _, (game, advice) = formats.load_fixture("chsh_common_interest.json")
    assert isinstance(game, BayesianGame)
    assert advice is not None
    _, (game2, advice2) = formats.loads(formats.dumps(game, advice))
    assert average_payoff(game, advice) == average_payoff(game2, advice2)


def test_loads_rejects_bad_documents():
    with pytest.raises(FormatError):
        formats.loads("this is not json")
    with pytest.raises(FormatError):
        formats.loads('{"kind": "chess"}')
    with pytest.raises(FormatError):
        formats.loads('[1, 2, 3]')
    with pytest.raises(FormatError):
        formats.fixture_text("missing.json")


# ----------------------------------------------------------- ewl-nash

def test_cli_ewl_nash_json(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    code, out, _ = _run(capsys, ["ewl-nash", path, "--output", "json"])
    assert code == 0
    assert json.loads(out) == {"equilibria": [["H", "H"]]}


def test_cli_ewl_nash_with_pareto(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    code, out, _ = _run(capsys, ["ewl-nash", path, "--pareto",
                                 "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["equilibria"] == [["H", "H"]]
    assert ["I", "I"] in report["pareto"]
    assert ["H", "H"] not in report["pareto"]


def test_cli_ewl_nash_table_mentions_payoffs(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    code, out, _ = _run(capsys, ["ewl-nash", path])
    assert code == 0
    assert "H,H" in out
    assert "2.25" in out


# ---------------------------------------------------------- ewl-table

def test_cli_ewl_table_json(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    code, out, _ = _run(capsys, ["ewl-table", path, "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["players"] == 2
    assert report["strategies"] == [["I", "X", "H"], ["I", "X", "H"]]
    rows = {tuple(r["profile"]): r["payoffs"] for r in report["table"]}
    assert len(rows) == 9
    assert rows[("I", "H")] == [0.5, 3.0]
    assert rows[("H", "H")] == [2.25, 2.25]


def test_cli_ewl_table_classical_fixture(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_classical.json")
    code, out, _ = _run(capsys, ["ewl-table", path, "--output", "json"])
    assert code == 0
    rows = {tuple(r["profile"]): r["payoffs"]
            for r in json.loads(out)["table"]}
    assert rows == {("I", "I"): [3.0, 3.0], ("I", "X"): [0.0, 5.0],
                    ("X", "I"): [5.0, 0.0], ("X", "X"): [1.0, 1.0]}


# ---------------------------------------------------------- ewl-state

def test_cli_ewl_state_ih_profile(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    code, out, _ = _run(capsys, ["ewl-state", path, "--profile", "I,H",
                                 "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["profile"] == ["I", "H"]
    r = 0.707106781187  # 1/sqrt(2) at 12 significant digits
    assert report["state"] == [[0.0, 0.0], [r, 0.0],
                               [0.0, 0.0], [0.0, -r]]
    assert report["distribution"] == {"00": 0.0, "01": 0.5,
                                      "10": 0.0, "11": 0.5}
    assert report["payoffs"] == [0.5, 3.0]


def test_cli_ewl_state_table_output(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_ewl_4strat.json")
    code, out, _ = _run(capsys, ["ewl-state", path, "--profile", "Z,Z"])
    assert code == 0
    assert "payoffs: 3 3" in out


def test_cli_ewl_state_rejects_unknown_profile(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    code, _, err = _run(capsys, ["ewl-state", path, "--profile", "I,Q"])
    assert code == 1
    assert "error:" in err


# -------------------------------------------------------- bayes/bell

def test_cli_bayes_payoff_quantum_advice(tmp_path, capsys):
    path = _write_fixture(tmp_path, "chsh_common_interest.json")
    code, out, _ = _run(capsys, ["bayes-payoff", path, "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["advice"] == "quantum"
    assert report["payoffs"] == [0.853553390593, 0.853553390593]


def test_cli_bell_bound(tmp_path, capsys):
    path = _write_fixture(tmp_path, "chsh_common_interest.json")
    code, out, _ = _run(capsys, ["bell-bound", path, "--output", "json"])
    assert code == 0
    assert json.loads(out) == {"player": 0, "bound": 0.75}


def test_cli_bell_bound_limit_exit_code(tmp_path, capsys):
    path = _write_fixture(tmp_path, "chsh_common_interest.json")
    code, out, err = _run(capsys, ["bell-bound", path, "--limit", "1",
                                   "--output", "json"])
    assert code == 2
    assert "error:" in err
    doc = json.loads(out)
    assert doc["error"]["type"] == "EnumerationLimitError"
    assert "limit" in doc["error"]["message"]


def test_cli_bell_value(tmp_path, capsys):
    path = _write_fixture(tmp_path, "chsh_common_interest.json")
    code, out, _ = _run(capsys, ["bell-value", path, "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 0.853553390593
    assert report["advice"] == "quantum"


def test_cli_bell_value_mermin_fixture(tmp_path, capsys):
    path = _write_fixture(tmp_path, "mermin_ghz3.json")
    code, out, _ = _run(capsys, ["bell-value", path, "--output", "json"])
    assert code == 0
    assert json.loads(out)["value"] == 1.0
    code, out, _ = _run(capsys, ["bell-bound", path, "--output", "json"])
    assert code == 0
    assert json.loads(out)["bound"] == 0.5


# ------------------------------------------------------ ghz / mermin

def test_cli_ghz_dist(capsys):
    code, out, _ = _run(capsys, ["ghz-dist", "--phases", "pi/2,pi/2,0",
                                 "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 3
    assert report["distribution"] == {
        "000": 0.0, "001": 0.25, "010": 0.25, "011": 0.0,
        "100": 0.25, "101": 0.0, "110": 0.0, "111": 0.25}


def test_cli_ghz_dist_party_count_mismatch(capsys):
    code, _, err = _run(capsys, ["ghz-dist", "--n", "4",
                                 "--phases", "0,0,0"])
    assert code == 1
    assert "error:" in err


def test_cli_mermin(capsys):
    code, out, _ = _run(capsys, ["mermin", "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["quantum_expectations"] == [1.0, -1.0, -1.0, -1.0]
    assert report["satisfying_assignments"] == 0
    assert report["classical_assignments"] == 64
    assert report["inequivalent"] is True


# ------------------------------------------------------------ diagram

def test_cli_diagram_eval_cup(capsys):
    code, out, _ = _run(capsys, ["diagram-eval", "spider(0, 2)",
                                 "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["in_wires"] == 0
    assert report["out_wires"] == 2
    assert report["matrix"] == [[[1.0, 0.0]], [[0.0, 0.0]],
                                [[0.0, 0.0]], [[1.0, 0.0]]]


def test_cli_diagram_eval_from_file(tmp_path, capsys):
    path = tmp_path / "diagram.txt"
    path.write_text("id(1) * spider(0, 2) ; spider(2, 0) * id(1)\n",
                    encoding="utf-8")
    code, out, _ = _run(capsys, ["diagram-eval", "--file", str(path),
                                 "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == [[[1.0, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [1.0, 0.0]]]


def test_cli_diagram_check_reports_wires(capsys):
    code, out, _ = _run(capsys, ["diagram-check",
                                 "spider(1, 2) ; id(1) * spider(1, 1, pi)",
                                 "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert (report["in_wires"], report["out_wires"]) == (1, 2)


def test_cli_diagram_check_syntax_error(capsys):
    code, _, err = _run(capsys, ["diagram-check", "spider(1 2)"])
    assert code == 1
    assert "1:10" in err
    assert "expected one of" in err


def test_cli_diagram_check_wire_mismatch(capsys):
    code, _, err = _run(capsys, ["diagram-check", "spider(1, 2) ; id(3)"])
    assert code == 1
    assert "error:" in err


def test_cli_diagram_source_must_be_unambiguous(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("id(1)", encoding="utf-8")
    code, _, err = _run(capsys, ["diagram-eval", "id(1)",
                                 "--file", str(path)])
    assert code == 1
    code, _, err = _run(capsys, ["diagram-eval"])
    assert code == 1


def test_cli_diagram_eval_fourier_observable(capsys):
    code, out, _ = _run(capsys, ["diagram-eval", "spider(1, 1)",
                                 "--observable", "fourier",
                                 "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["observable"] == "fourier"
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    for row, want_row in zip(report["matrix"], identity):
        for entry, want in zip(row, want_row):
            assert entry == pytest.approx(want, abs=1e-12)


def test_cli_diagram_eval_qutrit(capsys):
    code, out, _ = _run(capsys, ["diagram-eval", "spider(0, 1)",
                                 "--dim", "3", "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == [[[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]]]


# ------------------------------------------------------- error paths

def test_cli_missing_file_exits_one(capsys):
    code, _, err = _run(capsys, ["ewl-table", "/nonexistent/game.json"])
    assert code == 1
    assert "error:" in err


def test_cli_invalid_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, ["ewl-table", str(path)])
    assert code == 1
    assert "error:" in err


def test_cli_wrong_kind_exits_one(tmp_path, capsys):
    path = _write_fixture(tmp_path, "chsh_common_interest.json")
    code, _, err = _run(capsys, ["ewl-table", str(path)])
    assert code == 1
    assert "error:" in err


def test_cli_error_json_shape(tmp_path, capsys):
    code, out, _ = _run(capsys, ["ewl-table", "/nonexistent/game.json",
                                 "--output", "json"])
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error"}
    assert set(doc["error"]) == {"type", "message"}


def test_cli_bayes_payoff_requires_advice(tmp_path, capsys):
    path = _write_fixture(tmp_path, "chsh_common_interest.json")
    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    del doc["advice"]
    stripped = tmp_path / "no_advice.json"
    stripped.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = _run(capsys, ["bayes-payoff", str(stripped)])
    assert code == 1
    assert "advice" in err


# -------------------------------------------------------- determinism

def test_cli_output_is_deterministic(tmp_path, capsys):
    paths = {name: _write_fixture(tmp_path, name) for name in FIXTURES}
    commands = [
        ["ewl-table", paths["pd_ewl_4strat.json"], "--output", "json"],
        ["ewl-nash", paths["pd_ewl_3strat.json"], "--pareto",
         "--output", "json"],
        ["ewl-state", paths["pd_ewl_3strat.json"], "--profile", "I,H",
         "--output", "json"],
        ["bayes-payoff", paths["chsh_common_interest.json"],
         "--output", "json"],
        ["bell-value", paths["mermin_ghz3.json"], "--output", "json"],
        ["mermin", "--output", "json"],
        ["ghz-dist", "--phases", "0.3,-0.7", "--output", "json"],
        ["diagram-eval", "spider(2, 1)", "--output", "json"],
    ]
    for argv in commands:
        first = _run(capsys, argv)
        second = _run(capsys, argv)
        assert first == second, argv
        assert first[0] == 0, argv


def test_cli_module_entry_point(tmp_path):
    path = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    proc = subprocess.run(
        [sys.executable, "-m", "qgamelab", "ewl-nash", path,
         "--output", "json"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"equilibria": [["H", "H"]]}


def test_cli_diagram_over_the_dimension_cap_exits_2(capsys):
    code, out, err = _run(capsys, ["diagram-eval", "id(17)",
                                   "--output", "json"])
    assert code == 2
    assert err.startswith("error: ")
    assert json.loads(out)["error"]["type"] == "DimensionLimitError"


def test_cli_deep_nesting_is_a_syntax_error(capsys):
    source = "(" * 500 + "id(1)" + ")" * 500
    for command in ("diagram-check", "diagram-eval"):
        code, out, err = _run(capsys, [command, source, "--output", "json"])
        assert code == 1
        assert err.startswith("error: ")
        assert json.loads(out)["error"]["type"] == "DiagramSyntaxError"


def test_cli_accepts_flags_only_where_they_are_read(tmp_path, capsys):
    game = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    chsh = _write_fixture(tmp_path, "chsh_common_interest.json")
    assert _run(capsys, ["ewl-nash", game, "--tolerance", "1e-6"])[0] == 0
    assert _run(capsys, ["bell-bound", chsh, "--limit", "16"])[0] == 0
    for argv in (["ewl-table", game, "--tolerance", "1e-6"],
                 ["ewl-nash", game, "--limit", "16"],
                 ["bell-bound", chsh, "--tolerance", "1e-6"],
                 ["bell-value", chsh, "--limit", "16"],
                 ["mermin", "--limit", "16"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _json_error(capsys, argv, status=1):
    code, out, err = _run(capsys, argv + ["--output", "json"])
    assert code == status
    assert err.startswith("error: ")
    return json.loads(out)["error"]


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    key = next(iter(doc["payoffs"][0]))
    cases = {"inf_payoff": ("payoffs", 0, key, math.inf),
             "nan_prior": ("prior", None, "0,0", math.nan)}
    for name, (field, index, entry, value) in cases.items():
        bad = json.loads(json.dumps(doc))
        target = bad[field] if index is None else bad[field][index]
        target[entry] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        for command in ("bayes-payoff", "bell-value", "bell-bound"):
            error = _json_error(capsys, [command, str(path)])
            assert error["type"] == "FormatError", (name, command)
            assert "finite" in error["message"]
    huge = formats.fixture_text("chsh_common_interest.json").replace(
        '"1,0": 0.25', '"1,0": 1' + "0" * 400, 1)
    assert huge != formats.fixture_text("chsh_common_interest.json")
    path = tmp_path / "huge.json"
    path.write_text(huge, encoding="utf-8")
    assert _json_error(capsys, ["bell-bound", str(path)])["type"] == \
        "FormatError"


def test_json_numbers_must_be_finite():
    for bad in (math.inf, -math.inf, math.nan, 10 ** 400):
        with pytest.raises(FormatError):
            formats.complex_from_json(bad, "here")
        with pytest.raises(FormatError):
            formats.complex_from_json([0.0, bad], "here")
        with pytest.raises(FormatError):
            formats.parse_angle(bad)


def test_cli_player_must_be_in_range(tmp_path, capsys):
    path = _write_fixture(tmp_path, "chsh_common_interest.json")
    for command in ("bell-bound", "bell-value"):
        for player in ("5", "2", "-1"):
            error = _json_error(capsys, [command, path, "--player", player])
            assert error["type"] == "DomainMismatchError"
            assert "out of range" in error["message"]


def test_cli_tolerance_must_be_finite_and_non_negative(tmp_path, capsys):
    path = _write_fixture(tmp_path, "pd_ewl_3strat.json")
    for tol in ("nan", "inf", "-1e-9"):
        error = _json_error(capsys, ["ewl-nash", path, f"--tolerance={tol}"])
        assert error["type"] == "GameLabError"
        assert "--tolerance" in error["message"]
    code, out, _ = _run(capsys, ["ewl-nash", path, "--tolerance", "0",
                                 "--output", "json"])
    assert code == 0
    assert json.loads(out) == {"equilibria": [["H", "H"]]}


def test_cli_observable_dim_is_checked_before_allocating(capsys):
    tracemalloc.start()
    try:
        for observable in ("computational", "fourier"):
            error = _json_error(capsys, ["diagram-eval", "id(1)", "--dim",
                                         "100000", "--observable",
                                         observable], status=2)
            assert error["type"] == "DimensionLimitError"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
