import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qgamelab import cli, errors, formats
from qgamelab.bayes import (
    BayesianGame,
    ClassicalAdvice,
    QuantumAdvice,
    average_payoff,
)
from qgamelab.cli import main
from qgamelab.diagrams import ObservableStructure, evaluate, parse, pretty
from qgamelab.errors import FormatError, GameLabError
from qgamelab.ewl import (
    QuantumGameSpec,
    StrategicFormGame,
    ewl_entangler,
    ewl_strategy_grid,
    payoff_table,
    quantize,
)
from qgamelab.linalg import (
    IDENTITY_1Q,
    PAULI_X,
    StateVector,
    dimension_limit,
    set_dimension_limit,
)

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


def _dumps_loaded(kind, loaded) -> str:
    return formats.dumps(loaded) if kind == "ewl" else formats.dumps(*loaded)


def test_every_fixture_round_trips_to_identical_json():
    """Dump, load, dump is byte-identical for every fixture and for seeded
    random EWL and Bayes specs."""
    for source in list(FIXTURES) + _seeded_spec_texts(range(4)):
        kind, loaded = formats.loads(formats.fixture_text(source)
                                     if source in FIXTURES else source)
        text = _dumps_loaded(kind, loaded)
        kind2, loaded2 = formats.loads(text)
        assert kind2 == kind
        assert _dumps_loaded(kind2, loaded2) == text, source


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


_MUTANTS = (None, True, 0, -1, 2.5, "", "x", "pi", [], [1.0], [[]],
            [1.0, [1.0]], [[1.0, 0.0]], {}, {"x": 1})
_DELETE = object()


def _json_paths(doc, prefix=()):
    """The path to every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _mutated(doc, path, mutant):
    """A copy of the document with the value at the path replaced by the
    mutant, or deleted."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutant is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutant
    return doc


def test_truncated_or_mutated_documents_fail_only_with_documented_errors():
    """A truncated document is a FormatError; a mutated one loads or fails
    with a GameLabError (a FormatError but for out-of-range counts, which
    the game constructors reject), never a KeyError, TypeError or
    IndexError."""
    rng = np.random.default_rng(20260418)
    texts = [formats.fixture_text(name) for name in FIXTURES]
    for text in texts + _seeded_spec_texts([0]):
        for cut in rng.choice(len(text.rstrip()), size=20, replace=False):
            with pytest.raises(FormatError):
                formats.loads(text[:cut])
        doc = json.loads(text)
        paths = list(_json_paths(doc))
        for k in rng.choice(len(paths), size=12, replace=False):
            for mutant in _MUTANTS + (_DELETE,):
                try:
                    formats.loads(json.dumps(_mutated(doc, paths[k], mutant)))
                except GameLabError:
                    pass


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


@pytest.mark.parametrize("output", ["json", "table"])
def test_a_reader_that_closes_stdout_early_gets_a_documented_error(output):
    # the report of a 256 x 256 Fourier map is megabytes, far more than a
    # pipe holds, so the process is still writing when the reader leaves
    argv = [sys.executable, "-m", "qgamelab", "diagram-eval", "spider(8,8)",
            "--observable", "fourier", "--output", output]
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert err == "error: standard output closed early: [Errno 32] " \
                  "Broken pipe\n"


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


def _refusal(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv, message", [
    (["ghz-dist", "--phases", "0,0", "--bogus"],
     "qgamelab: unrecognized arguments: --bogus"),
    (["ghz-dist", "--phases", "0,0", "--n", "x"],
     "qgamelab ghz-dist: argument --n: invalid int value: 'x'"),
    (["ghz-dist", "--n", "2"],
     "qgamelab ghz-dist: the following arguments are required: --phases"),
])
def test_a_usage_error_in_json_mode_prints_one_error_object(argv, message,
                                                            capsys):
    code, out, plain_err = _refusal(capsys, argv)
    assert (code, out) == (2, "")
    assert _refusal(capsys, argv + ["--output", "table"]) == \
        (2, "", plain_err)
    for flag in (["--output", "json"], ["--output=json"]):
        code, out, err = _refusal(capsys, argv + flag)
        assert (code, err) == (2, plain_err)
        doc = json.loads(out)   # one JSON value and nothing else
        assert doc == {"error": {"type": "UsageError", "message": message}}
        assert issubclass(getattr(errors, doc["error"]["type"]),
                          GameLabError)


def test_an_error_object_for_a_closed_stdout_gets_a_documented_error():
    read, write = os.pipe()
    os.close(read)
    try:
        for argv, code, first in (
                (["ghz-dist", "--n", "3", "--phases", "0,0"], 1,
                 "error: 2 phases for 3 parties\n"),
                (["ghz-dist", "--n", "x", "--phases", "0,0"], 2, "usage: ")):
            proc = subprocess.run(
                [sys.executable, "-m", "qgamelab", *argv, "--output",
                 "json"], stdout=write, stderr=subprocess.PIPE, text=True,
                timeout=60)
            assert proc.returncode == code
            assert proc.stderr.startswith(first)
            assert proc.stderr.endswith("\nerror: standard output closed "
                                        "early: [Errno 32] Broken pipe\n")
            assert "Traceback" not in proc.stderr
    finally:
        os.close(write)


def _json_error(capsys, argv, status=1):
    code, out, err = _run(capsys, argv + ["--output", "json"])
    assert code == status
    assert err.startswith("error: ")
    return json.loads(out)["error"]


def test_cli_diagram_ket_digit_out_of_range_is_a_json_error(capsys):
    assert _json_error(capsys, ["diagram-eval", "ket(2)"]) == {
        "type": "ShapeMismatchError",
        "message": "ket digit 2 out of range for dimension 2"}


def test_cli_ewl_nash_table_says_none_without_a_pure_equilibrium(
        tmp_path, capsys):
    pennies = StrategicFormGame((("H", "T"),) * 2, {
        ("H", "H"): (1.0, -1.0), ("H", "T"): (-1.0, 1.0),
        ("T", "H"): (-1.0, 1.0), ("T", "T"): (1.0, -1.0)})
    spec = quantize(pennies, {"H": IDENTITY_1Q, "T": PAULI_X})
    path = tmp_path / "pennies.json"
    path.write_text(formats.dumps(spec), encoding="utf-8")
    code, out, err = _run(capsys, ["ewl-nash", str(path)])
    assert (code, err) == (0, "")
    assert out == "pure Nash equilibria:\n  none\n"


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


def test_out_of_range_counts_in_a_spec_are_format_errors(tmp_path,
                                                         capsys):
    ewl_doc = json.loads(formats.fixture_text("pd_ewl_3strat.json"))
    bayes_doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    matrix = {"matrix": [[1.0]]}
    cases = {
        "ewl_no_players": {**ewl_doc, "players": 0},
        "ewl_one_player": {**ewl_doc, "players": 1},
        "ewl_dim_0": {**ewl_doc, "dim": 0},
        "ewl_dim_3": {**ewl_doc, "dim": 3},
        "matrix_dim_0": {**ewl_doc, "dim": 0, "entangler": matrix},
        "matrix_dim_-2": {**ewl_doc, "dim": -2, "entangler": matrix},
        "bayes_no_players": {**bayes_doc, "players": 0},
    }
    for dims in ([-1, -4], [0, 4]):
        cases[f"advice_dims_{dims}"] = {
            **bayes_doc, "advice": {**bayes_doc["advice"], "dims": dims}}
    for name, doc in cases.items():
        with pytest.raises(FormatError):
            formats.loads(json.dumps(doc))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        command = "ewl-nash" if doc["kind"] == "ewl" else "bell-bound"
        assert _json_error(capsys, [command, str(path)])["type"] == \
            "FormatError", name


def test_ewl_spec_over_the_dimension_cap_exits_2_before_allocating(
        tmp_path, capsys):
    doc = json.loads(formats.fixture_text("pd_ewl_3strat.json"))
    path = tmp_path / "nine_players.json"
    path.write_text(json.dumps({**doc, "players": 9}), encoding="utf-8")
    limit = dimension_limit()
    set_dimension_limit(16)
    tracemalloc.start()
    try:
        error = _json_error(capsys, ["ewl-nash", str(path)], status=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        set_dimension_limit(limit)
    assert error["type"] == "DimensionLimitError"
    # the 9-player entangler would take three dense 512x512 arrays, 12 MiB
    assert peak < 2 ** 20


def test_matrix_entangler_over_the_dimension_cap_exits_2_before_allocating(
        tmp_path, capsys):
    doc = json.loads(formats.fixture_text("pd_ewl_3strat.json"))
    eye = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(32)]
           for i in range(32)]
    # the cap is checked before any entry is read, so a bad last entry
    # changes nothing
    bad = [row[:] for row in eye]
    bad[-1][-1] = "one"
    limit = dimension_limit()
    set_dimension_limit(16)
    try:
        for matrix in (eye, bad):
            path = tmp_path / "five_players.json"
            path.write_text(json.dumps({**doc, "players": 5,
                                        "entangler": {"matrix": matrix}}),
                            encoding="utf-8")
            error = _json_error(capsys, ["ewl-nash", str(path)], status=2)
            assert error["type"] == "DimensionLimitError"
            assert "entangler.matrix" in error["message"]
    finally:
        set_dimension_limit(limit)


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


def test_quantum_basis_off_by_a_few_ppm_is_a_format_error(tmp_path,
                                                         capsys):
    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    long = [[[math.sqrt(1 + 8e-6), 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]]]
    doc["advice"]["measurements"][0]["0"] = {"basis": long}
    with pytest.raises(FormatError, match="basis is not orthonormal"):
        formats.loads(json.dumps(doc))
    path = tmp_path / "long_basis.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("bayes-payoff", "bell-value", "bell-bound"):
        code, _, err = _run(capsys, [command, str(path)])
        assert code == 1
        assert "basis is not orthonormal" in err
        assert _json_error(capsys, [command, str(path)])["type"] == \
            "FormatError"


def test_cli_fourier_observable_beyond_two_hundred_levels(capsys):
    code, out, err = _run(capsys, ["diagram-eval", "id(1)", "--observable",
                                   "fourier", "--dim", "256"])
    assert (code, err) == (0, "")
    assert out.count("\n") > 256


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


def test_cli_observable_dim_must_be_positive(capsys):
    for dim in ("0", "-1"):
        error = _json_error(capsys, ["diagram-eval", "id(1)", "--dim", dim])
        assert error["type"] == "GameLabError"
        assert "observable dims must be positive integers" in \
            error["message"]


def test_cli_input_that_is_not_utf8_is_a_documented_error(tmp_path,
                                                          capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(FormatError, match="latin1.json"):
        formats.load_path(str(path))
    for command in ("bayes-payoff", "ewl-table"):
        error = _json_error(capsys, [command, str(path)])
        assert error["type"] == "FormatError"
        assert str(path) in error["message"]
    error = _json_error(capsys, ["diagram-check", "--file", str(path)])
    assert error["type"] == "GameLabError"
    assert str(path) in error["message"]
    # a missing file or a directory keeps its OSError outcome
    for missing, kind in ((tmp_path / "absent.json", "FileNotFoundError"),
                          (tmp_path, "IsADirectoryError")):
        for argv in (["bayes-payoff", str(missing)],
                     ["diagram-check", "--file", str(missing)]):
            assert _json_error(capsys, argv)["type"] == kind


# ------------------------------------------------------ golden ewl output

GOLDEN_PATH = Path(__file__).with_name("golden_ewl_cli.json")


def _seeded_ewl_text(seed: int = 20140613) -> str:
    """A 2-player spec over the 9 strategies of ewl_strategy_grid(3, 3),
    renamed g0..g8, with seeded coefficients and initial ket |01>."""
    rng = np.random.default_rng(seed)
    grid = {f"g{k}": gate
            for k, gate in enumerate(ewl_strategy_grid(3, 3).values())}
    coeffs = tuple({k: round(float(rng.normal()), 3)
                    for k in ("00", "01", "10", "11")} for _ in range(2))
    spec = QuantumGameSpec(players=2, strategies=(grid, dict(grid)),
                           payoff_coeffs=coeffs, entangler=ewl_entangler(2),
                           initial_ket="01")
    return formats.dumps(spec)


def _golden_commands(tmp_path) -> dict[str, list[str]]:
    """Every ewl command pinned by the golden file, keyed by a stable name."""
    specs = {name: _write_fixture(tmp_path, name)
             for name in ("pd_ewl_3strat.json", "pd_ewl_4strat.json")}
    seeded = tmp_path / "seeded_9strat.json"
    seeded.write_text(_seeded_ewl_text(), encoding="utf-8")
    specs["seeded_9strat.json"] = str(seeded)
    profiles = {"pd_ewl_3strat.json": ("I,H", "H,X"),
                "pd_ewl_4strat.json": ("Z,Z", "H,Z"),
                "seeded_9strat.json": ("g0,g8", "g4,g7")}
    commands = {}
    for name, path in specs.items():
        runs = [["ewl-table", path], ["ewl-nash", path, "--pareto"]]
        runs += [["ewl-state", path, "--profile", p] for p in profiles[name]]
        for argv in runs:
            for output in ("table", "json"):
                key = " ".join([name] + argv[2:] + [argv[0], output])
                commands[key] = argv + ["--output", output]
    return commands


def test_cli_ewl_output_matches_golden(tmp_path, capsys):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    commands = _golden_commands(tmp_path)
    assert sorted(commands) == sorted(golden)
    for key, argv in commands.items():
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), key
        assert out == golden[key], key


# ----------------------------------------------------- golden bayes output

GOLDEN_BAYES_PATH = Path(__file__).with_name("golden_bayes_cli.json")


def _seeded_prior_and_payoffs(rng, types, strategies):
    joint_types = list(itertools.product(*types))
    weights = rng.integers(0, 4, size=len(joint_types))
    weights[0] += 1
    prior = {jt: float(w / weights.sum())
             for jt, w in zip(joint_types, weights)}
    cells = list(itertools.product(joint_types,
                                   itertools.product(*strategies)))
    payoffs = tuple({cell: round(float(v), 3) for cell, v in zip(
        cells, rng.normal(size=len(cells)))} for _ in types)
    return prior, payoffs


def _seeded_classical_bayes_text(seed: int = 20130604) -> str:
    """3 players with 2, 3 and 2 types and 2, 2 and 3 strategies, and
    classical advice over three lambdas, the last of weight 0."""
    rng = np.random.default_rng(seed)
    types = (("a0", "a1"), ("b0", "b1", "b2"), ("c0", "c1"))
    strategies = (("0", "1"), ("u", "v"), ("p", "q", "r"))
    prior, payoffs = _seeded_prior_and_payoffs(rng, types, strategies)
    game = BayesianGame(types, strategies, prior, payoffs)
    lambdas = ("l0", "l1", "l2")
    responses = []
    for x_i, s_i in zip(types, strategies):
        table = {}
        for x in x_i:
            for lam in lambdas:
                weights = rng.integers(0, 3, size=len(s_i))
                weights[rng.integers(len(s_i))] += 1
                table[(x, lam)] = {s: float(w / weights.sum())
                                   for s, w in zip(s_i, weights)}
        responses.append(table)
    advice = ClassicalAdvice(types, strategies, lambdas,
                             {"l0": 0.25, "l1": 0.75, "l2": 0.0},
                             tuple(responses))
    return formats.dumps(game, advice)


def _seeded_qutrit_bayes_text(seed: int = 20130605) -> str:
    """2 players with 2 types and 3 strategies each, a seeded entangled
    qutrit pair and a seeded unitary measurement basis per type."""
    rng = np.random.default_rng(seed)
    types = (("x", "y"), ("x", "y"))
    strategies = (("0", "1", "2"), ("0", "1", "2"))
    prior, payoffs = _seeded_prior_and_payoffs(rng, types, strategies)
    game = BayesianGame(types, strategies, prior, payoffs)
    state = StateVector(rng.normal(size=9) + 1j * rng.normal(size=9),
                        (3, 3)).normalized()
    measurements = []
    for x_i in types:
        table = {}
        for x in x_i:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                                + 1j * rng.normal(size=(3, 3)))
            table[x] = tuple(StateVector(q[:, k], (3,)) for k in range(3))
        measurements.append(table)
    advice = QuantumAdvice(types, strategies, state, tuple(measurements))
    return formats.dumps(game, advice)


def _seeded_spec_texts(seeds) -> list[str]:
    """One seeded spec of each generated kind per seed: EWL, Bayes with
    classical advice and Bayes with quantum qutrit advice."""
    return [make(seed) for seed in seeds for make in (
        _seeded_ewl_text, _seeded_classical_bayes_text,
        _seeded_qutrit_bayes_text)]


def _golden_bayes_commands(tmp_path) -> dict[str, list[str]]:
    """Every bayes command pinned by the golden file, keyed by a stable
    name: the payoffs, and each player's Bell value and bound."""
    specs = {name: (_write_fixture(tmp_path, name), players)
             for name, players in (("chsh_common_interest.json", 2),
                                   ("mermin_ghz3.json", 3))}
    for name, text, players in (
            ("seeded_classical3.json", _seeded_classical_bayes_text(), 3),
            ("seeded_qutrit2.json", _seeded_qutrit_bayes_text(), 2)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        specs[name] = (str(path), players)
    commands = {}
    for name, (path, players) in specs.items():
        runs = [["bayes-payoff", path]]
        for player in map(str, range(players)):
            runs += [[command, path, "--player", player]
                     for command in ("bell-value", "bell-bound")]
        for argv in runs:
            for output in ("table", "json"):
                key = " ".join([name] + argv[2:] + [argv[0], output])
                commands[key] = argv + ["--output", output]
    return commands


def test_cli_bayes_output_matches_golden(tmp_path, capsys):
    golden = json.loads(GOLDEN_BAYES_PATH.read_text(encoding="utf-8"))
    commands = _golden_bayes_commands(tmp_path)
    assert sorted(commands) == sorted(golden)
    for key, argv in commands.items():
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), key
        assert out == golden[key], key


# --------------------------------------------------- golden diagram output

GOLDEN_DIAGRAM_PATH = Path(__file__).with_name("golden_diagram_cli.json")

# Diagrams for every dimension: the snake, a ket, swaps, a scalar
# spider(0,0) factor, a cup-cap loop and a Seq nested inside a Par.
_GOLDEN_DIAGRAMS = (
    "spider(1,2) ; spider(2,1)",
    "id(1) * cup ; cap * id(1)",
    "ket(10) ; swap",
    "swap ; spider(2,2)",
    "spider(0,3)",
    "spider(0,0) * spider(1,2) ; swap",
    "(spider(1,2) ; swap) * ket(1) ; spider(2,1) * id(1)",
    "cup * id(1) ; id(1) * swap ; cap * id(1)",
    "id(2) ; (cup ; cap) * swap ; spider(2,0) * cup",
)
# Phases have concrete syntax in the qubit convention only.
_GOLDEN_PHASED = (
    "spider(1,1,0.5pi) * spider(1,2,0.25) ; spider(3,1,-1.5)",
    "ket(01) ; spider(1,1,pi) * spider(1,1,0.3) ; swap",
    "(spider(1,2,0.7) ; spider(1,1,-0.2) * id(1)) * id(1) ; "
    "id(1) * spider(2,1,1.1) ; spider(2,2,pi)",
)


def _golden_diagram_commands() -> dict[str, list[str]]:
    """Every diagram-eval run pinned by the golden file, keyed by a stable
    name: observable, dimension, output format and source."""
    commands = {}
    for observable in ("computational", "fourier"):
        for dim in (2, 3):
            sources = _GOLDEN_DIAGRAMS + (_GOLDEN_PHASED if dim == 2 else ())
            for source in sources:
                for output in ("table", "json"):
                    key = f"{observable} d{dim} {output} {source}"
                    commands[key] = ["diagram-eval", source, "--dim",
                                     str(dim), "--observable", observable,
                                     "--output", output]
    return commands


_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"


def _numbers_and_skeleton(text: str) -> tuple[np.ndarray, str]:
    """The numbers of a report and the text left around them."""
    numbers = [float(m) for m in re.findall(_NUMBER, text)]
    return np.array(numbers), re.sub(_NUMBER, "#", text)


def test_cli_diagram_output_matches_golden(capsys):
    """Computational output is pinned byte for byte; Fourier output up to
    1e-12 per printed number, since its entries are sums of rounded
    products whose order the evaluator is free to choose."""
    golden = json.loads(GOLDEN_DIAGRAM_PATH.read_text(encoding="utf-8"))
    commands = _golden_diagram_commands()
    assert sorted(commands) == sorted(golden)
    for key, argv in commands.items():
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), key
        if key.startswith("computational"):
            assert out == golden[key], key
            continue
        got, got_text = _numbers_and_skeleton(out)
        want, want_text = _numbers_and_skeleton(golden[key])
        assert got.shape == want.shape, key
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, key
        # a residue may flip between -0 and 0 or gain digits, nothing else
        assert got_text.replace("-#", "#").replace("+#", "#") == \
            want_text.replace("-#", "#").replace("+#", "#"), key


# ------------------------------------------- the emitter against its oracle

def _oracle_round12(x: float) -> float:
    out = float(f"{float(x):.12g}")
    return 0.0 if out == 0.0 else out


def _oracle_json_ready(value):
    """The report normalizer from before matrices were written straight
    from the array, complex branch included."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return _oracle_round12(value)
    if isinstance(value, complex):
        return [_oracle_round12(value.real), _oracle_round12(value.imag)]
    if isinstance(value, dict):
        return {str(k): _oracle_json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_oracle_json_ready(v) for v in value]
    raise TypeError(f"cannot emit {value!r}")


def _oracle_json(report: dict) -> str:
    """The old JSON path: each matrix as nested lists of complex entries,
    normalized, then the stdlib encoder."""
    nested = {key: value.tolist() if isinstance(value, np.ndarray) else value
              for key, value in report.items()}
    return json.dumps(_oracle_json_ready(nested), indent=2, sort_keys=True)


def _oracle_table_rows(array: np.ndarray) -> list[str]:
    """The old diagram-eval table body: one format call per entry."""
    def complex_str(z):
        return (f"{_oracle_round12(z.real):.12g}"
                f"{_oracle_round12(z.imag):+.12g}i")
    return ["  [" + "  ".join(complex_str(z) for z in row) + "]"
            for row in array]


# -0.0, +-1e-17, 12-digit rounding boundaries (some that carry into a new
# leading digit), every repr style and exponents near +-300.
_AWKWARD_PARTS = (0.0, -0.0, 1e-17, -1e-17, 0.1234567890125,
                  -0.1234567890125, 0.12345678901249999, 9.9999999999995,
                  0.99999999999995, 1.5e-05, 123456789012345.0, 1e16,
                  1e300, -1e-300, 2.5e-300, 1.0, -1.0, 0.5)


def _awkward_matrix(rng, shape: tuple[int, int], repeated: bool):
    """A seeded complex matrix of dense random parts over 600 decades, a
    third of them replaced by awkward values; with `repeated`, every entry
    is one of eight."""
    if repeated:
        pool = np.empty(8, dtype=complex)
        pool.real = rng.choice(_AWKWARD_PARTS, 8)
        pool.imag = rng.choice(_AWKWARD_PARTS, 8)
        return rng.choice(pool, size=shape)
    parts = rng.normal(size=(2,) + shape) * 10.0 ** rng.uniform(
        -300, 300, size=(2,) + shape)
    awkward = rng.random(parts.shape) < 1 / 3
    parts[awkward] = rng.choice(_AWKWARD_PARTS, int(awkward.sum()))
    array = np.empty(shape, dtype=complex)
    array.real, array.imag = parts
    return array


def _sparse_matrix(rng, shape: tuple[int, int]):
    """A seeded complex matrix of signed zeros in each part, with one
    entry in a hundred (none in a small matrix) drawn from the awkward
    values."""
    parts = rng.choice((0.0, -0.0), size=(2,) + shape)
    flat = parts.reshape(2, -1)
    chosen = rng.choice(flat.shape[1], flat.shape[1] // 100, replace=False)
    flat[:, chosen] = rng.choice(_AWKWARD_PARTS, (2, len(chosen)))
    array = np.empty(shape, dtype=complex)
    array.real, array.imag = parts
    return array


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (81, 81),
                                   (256, 256)])
def test_emitter_matches_the_old_path_byte_for_byte(shape):
    rng = np.random.default_rng(shape)
    arrays = [_awkward_matrix(rng, shape, repeated)
              for repeated in (False, True)]
    arrays += [_sparse_matrix(rng, shape), np.zeros(shape, dtype=complex)]
    for array in arrays:
        report = {"pretty": "id(1)\n\"\u00e9\"", "dim": 3, "in_wires": 0,
                  "nested": {"b": [0.5, -0.0, 1e-17], "a": {"y": True,
                                                          "x": None}},
                  "matrix": array}
        assert cli._json_text(report) == _oracle_json(report)
        rows = ["  [" + "  ".join(cells) + "]"
                for cells in cli._table_cells(array)]
        assert rows == _oracle_table_rows(array)


def test_cli_diagram_eval_matches_the_old_path_on_eight_wires(capsys):
    """An 8-wire diagram-eval through main, in both output modes."""
    rng = np.random.default_rng(20260418)
    phases = rng.uniform(-math.pi, math.pi, 8).round(6)
    source = (" * ".join(f"spider(1,1,{p!r})" for p in phases.tolist())
              + " ; " + " * ".join(["spider(2,2)"] * 4)
              + " ; id(1) * swap * swap * swap * id(1)")
    term = parse(source)
    array = evaluate(term, ObservableStructure.fourier(2)).array
    report = {"pretty": pretty(term), "dim": 2, "observable": "fourier",
              "in_wires": 8, "out_wires": 8, "matrix": array}
    argv = ["diagram-eval", source, "--observable", "fourier"]
    assert _run(capsys, argv + ["--output", "json"]) == \
        (0, _oracle_json(report) + "\n", "")
    header = f"{pretty(term)}  (8 -> 8 wires, dim 2)"
    assert _run(capsys, argv) == \
        (0, "\n".join([header] + _oracle_table_rows(array)) + "\n", "")


def test_emitting_a_sparse_map_copies_its_text_once():
    """Every row's text and the joined document are alive together at the
    peak, and nothing else of the text's size."""
    term = parse("swap * swap * swap * swap")
    report = {"pretty": pretty(term), "dim": 2, "in_wires": 8,
              "out_wires": 8,
              "matrix": evaluate(term, ObservableStructure.computational(2))
              .array}
    tracemalloc.start()
    try:
        text = cli._json_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2 * 2 ** 20
    assert peak < 2.5 * len(text)


def test_main_builds_its_parser_once_and_apart_from_build_parser():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()
