import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

PARENT = {"queries_per_s": 100.0, "query_p50_ms": 10.0,
          "query_tail_ms": 40.0, "peak_rss_mb": 300.0, "setup_s": 0.5,
          "success_rate": 1.0}


def _record(path: Path, values: dict) -> str:
    path.write_text(json.dumps({
        "context": {"workload": "diagram_eval", "seed": 1},
        "result": {"metrics": {name: {"value": v, "unit": "-"}
                               for name, v in values.items()}}}))
    return str(path)


def _rows(out: str) -> dict[str, str]:
    return {line.split()[1]: line for line in out.splitlines()[1:]}


def test_a_change_inside_every_bound_passes(tmp_path, capsys):
    # each metric moves by less than its bound, some of them the worse way
    inside = {**PARENT, "queries_per_s": 80.0, "query_tail_ms": 49.0,
              "peak_rss_mb": 314.0, "success_rate": 0.995}
    argv = ["bench_compare.py", _record(tmp_path / "a.json", PARENT),
            _record(tmp_path / "b.json", inside)]
    assert bench_compare.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert set(rows) == set(PARENT)
    assert "0.800" in rows["queries_per_s"]
    assert all(row.endswith("within bound") for row in rows.values())


def test_a_change_outside_one_bound_is_flagged(tmp_path, capsys):
    # 320 MB is 6.7% above 300 MB, over the 5% bound of peak RSS; a faster
    # query rate is never worse
    outside = {**PARENT, "peak_rss_mb": 320.0, "queries_per_s": 150.0}
    argv = ["bench_compare.py", _record(tmp_path / "a.json", PARENT),
            _record(tmp_path / "b.json", outside)]
    assert bench_compare.main(argv) == 1
    rows = _rows(capsys.readouterr().out)
    assert "WORSE than its 5% bound" in rows["peak_rss_mb"]
    assert "1.067" in rows["peak_rss_mb"]
    assert [name for name, row in rows.items() if "WORSE" in row] == \
        ["peak_rss_mb"]


def test_the_committed_baseline_compares_its_stored_medians(capsys):
    path = ROOT / "BENCH_15.json"
    bench = json.loads(path.read_text())
    for side in bench["sides"].values():
        for workload, runs in side["runs"].items():
            assert {r["context"]["workload"] for r in runs} == {workload}
            for name, median in side["medians"][workload].items():
                assert median == statistics.median(
                    r["result"]["metrics"][name]["value"] for r in runs)
    # every median of the change it records is within its bound
    assert bench_compare.main(["bench_compare.py", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4 * len(PARENT)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_every_committed_baseline_holds_the_medians_of_its_runs(path):
    bench = json.loads(path.read_text())
    for side in bench["sides"].values():
        for workload, runs in side["runs"].items():
            assert {r["context"]["workload"] for r in runs} == {workload}
            for name, median in side["medians"][workload].items():
                assert median == statistics.median(
                    r["result"]["metrics"][name]["value"] for r in runs)
    assert bench_compare.main(["bench_compare.py", str(path)]) == 0


def test_an_argument_that_is_not_a_readable_json_file_prints_the_usage(
        tmp_path, capsys):
    record = _record(tmp_path / "a.json", PARENT)
    (tmp_path / "notes.txt").write_text("not json")
    for args in (["--help"], [str(tmp_path / "missing.json")],
                 [record, str(tmp_path / "missing.json")],
                 [str(tmp_path / "notes.txt")], [str(tmp_path)]):
        assert bench_compare.main(["bench_compare.py", *args]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: bench_compare.py "), args
