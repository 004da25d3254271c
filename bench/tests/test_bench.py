"""Tests of the benchmark itself: tiny smoke runs, determinism, and one
test per correctness check showing that it rejects a perturbed answer.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import run
import tracer
import worker
import workloads
from qgamelab import cli, diagrams
from workloads import CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def make(name, tmp_path, seed=5):
    return workloads.WORKLOADS[name](seed, str(tmp_path / "work"), 0.2)


def first(wl, kind, r=1):
    return next(q for q in wl.round(r) if q.kind == kind)


def run_worker(capsys, argv):
    assert worker.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# --- smoke runs and determinism ----------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_check(name, tmp_path, capsys):
    rec = run_worker(capsys, ["--workload", name, "--seed", "5",
                              "--seconds", "0", "--scale", "0.2",
                              "--workdir", str(tmp_path)])
    assert rec["failed"] == 0, rec["errors"]
    assert rec["samples"] > 0 and rec["attempted"] == 2 * rec["samples"]
    assert rec["query_p50_ms"] > 0 and rec["query_tail_ms"] > 0
    # adjusted times are raw wall times scaled by the host-speed probe
    scale = rec["query_p50_ms"] / rec["raw_query_p50_ms"]
    assert rec["setup_scale"] > 0 and 0.05 < scale < 20


@pytest.mark.parametrize("name,layer", [
    ("ewl_sweep", "ewl"), ("bell_scan", "bayes"),
    ("diagram_eval", "diagrams"), ("cli_mix", "cli")])
def test_tiny_traced_run_reports_its_main_layer(name, layer, tmp_path,
                                                capsys):
    spans = tmp_path / "spans.tsv.gz"
    rec = run_worker(capsys, ["--workload", name, "--seed", "5",
                              "--seconds", "0", "--scale", "0.2",
                              "--workdir", str(tmp_path), "--traced",
                              "--spans", str(spans)])
    assert rec["failed"] == 0, rec["errors"]
    layers = rec["layers"]
    assert set(run.PER_LAYER) - set(layers) == {
        "trace.queries_per_s", "trace.untraced_queries_per_s",
        "trace.overhead_pct"}
    assert layers[f"{layer}.calls"] > 0 and layers[f"{layer}.self_ms"] > 0
    assert spans.exists()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    a = [q.data for q in make(name, tmp_path / "a").round(3)]
    b = [q.data for q in make(name, tmp_path / "b").round(3)]
    c = [q.data for q in make(name, tmp_path / "c", seed=6).round(3)]
    assert a == b
    assert a != c


def test_tail_is_the_eleventh_largest_sample():
    assert worker.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# --- the benchmark contract --------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ewl_sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_imported_names_and_restores_them():
    original = cli.parse
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.parse is not original and diagrams.parse is cli.parse
        diagrams.evaluate(cli.parse("spider(1,2) ; spider(2,1)"),
                          diagrams.ObservableStructure.computational(2))
    finally:
        t.uninstall()
    assert cli.parse is original
    names = {span[1] for span in t.spans}
    assert {"diagrams.parse", "diagrams.evaluate", "diagrams.spider_map",
            "linalg.compose"} <= names
    by_id = {span[0]: span for span in t.spans}
    compose = next(s for s in t.spans if s[1] == "linalg.compose")
    assert by_id[compose[4]][1] == "diagrams.evaluate"
    calls, self_s, total_s, errors = t.stats["diagrams.evaluate"]
    assert calls == 1 and 0 < self_s < total_s and errors == 0


# --- every check rejects a perturbed answer ----------------------------------


def rejects(wl, q, out):
    with pytest.raises(CheckFailed):
        wl.check(q, out)


def test_ewl_checks_reject_a_changed_payoff_entry(tmp_path):
    wl = make("ewl_sweep", tmp_path)
    q = first(wl, "2p-16")
    kind, game, nash, pareto = wl.run(q)
    wl.check(q, (kind, game, nash, pareto))
    table = dict(game.payoffs)
    profile = next(iter(table))
    table[profile] = (table[profile][0] + 1e-6, table[profile][1])
    rejects(wl, q, (kind, types.SimpleNamespace(payoffs=table), nash, pareto))


def test_ewl_checks_reject_wrong_nash_and_pareto_sets(tmp_path):
    wl = make("ewl_sweep", tmp_path)
    q = first(wl, "pd4")
    kind, game, nash, pareto = wl.run(q)
    assert nash == [("Z", "Z")]
    rejects(wl, q, (kind, game, [("I", "I")], pareto))
    rejects(wl, q, (kind, game, [], pareto))
    everything = list(game.payoffs)
    rejects(wl, q, (kind, game, nash, everything))


def test_ewl_checks_reject_a_wrong_saved_spec(tmp_path):
    wl = make("ewl_sweep", tmp_path)
    q = first(wl, "build")
    text = wl.run(q)
    wl.check(q, text)
    doc = json.loads(text)
    doc["payoff_coeffs"][1]["01"] += 1.0
    rejects(wl, q, json.dumps(doc))
    doc = json.loads(text)
    doc["strategies"][0][-1]["matrix"][0][0][0] += 1e-9
    rejects(wl, q, json.dumps(doc))


def bell_out(tmp_path, kind):
    wl = make("bell_scan", tmp_path)
    q = first(wl, kind)
    out = wl.run(q)
    wl.check(q, out)
    return wl, q, out


def test_bell_checks_reject_a_wrong_bound(tmp_path):
    wl, q, out = bell_out(tmp_path, "chsh")
    kind, game, expr, bound, value, payoffs, report = out
    rejects(wl, q, (kind, game, expr, np.nextafter(0.75, 1.0), value,
                    payoffs, report))
    wl, q, out = bell_out(tmp_path, "r2-m2o2-q")
    kind, game, expr, bound, value, payoffs, report = out
    rejects(wl, q, (kind, game, expr, bound + 1e-6, value, payoffs, report))


def test_bell_checks_reject_wrong_value_and_payoffs(tmp_path):
    wl, q, out = bell_out(tmp_path, "mermin")
    kind, game, expr, bound, value, payoffs, report = out
    rejects(wl, q, (kind, game, expr, bound, value - 1e-6, payoffs, report))
    wrong = (payoffs[0], payoffs[1] + 1e-6, payoffs[2])
    rejects(wl, q, (kind, game, expr, bound, value, wrong, report))


def test_bell_checks_reject_a_wrong_equilibrium_report(tmp_path):
    wl, q, out = bell_out(tmp_path, "chsh")
    *head, report = out
    assert report.equilibrium
    flipped = dataclasses.replace(report, equilibrium=False)
    rejects(wl, q, (*head, flipped))
    wl = make("bell_scan", tmp_path)
    for q in wl.round(1):
        *head, report = out = wl.run(q)
        if not report.equilibrium:
            break
    wl.check(q, out)
    rejects(wl, q, (*head, dataclasses.replace(report, equilibrium=True)))
    rejects(wl, q, (*head, dataclasses.replace(
        report, best_gain=report.best_gain + 1e-5)))


def test_bell_checks_reject_an_optimum_that_misses_the_bound(tmp_path,
                                                             monkeypatch):
    wl, q, out = bell_out(tmp_path, "chsh")
    real = workloads.bayes.classical_optimum

    def wrong(expr, *args, **kwargs):
        opt = real(expr, *args, **kwargs)
        flip = {"0": "1", "1": "0"}
        responses = ({x: flip[s] for x, s in opt.responses[0].items()},) \
            + opt.responses[1:]
        return dataclasses.replace(opt, responses=responses)

    q.expect["check_optimum"] = True
    monkeypatch.setattr(workloads.bayes, "classical_optimum", wrong)
    rejects(wl, q, out)


def test_diagram_checks_reject_wrong_wires_and_entries(tmp_path):
    wl = make("diagram_eval", tmp_path)
    for kind in ("long-c2-2", "wide-c2-6", "par-12"):
        q = first(wl, kind)
        wires, result = wl.run(q)
        wl.check(q, (wires, result))
        rejects(wl, q, ((wires[0] + 1, wires[1]), result))
        arr = result.array.copy()
        arr[0, 0] += 1e-6
        bad = types.SimpleNamespace(array=arr, in_dims=result.in_dims,
                                    out_dims=result.out_dims)
        rejects(wl, q, (wires, bad))
        bad = types.SimpleNamespace(array=result.array,
                                    in_dims=result.in_dims + (2,),
                                    out_dims=result.out_dims)
        rejects(wl, q, (wires, bad))


def test_cli_checks_reject_wrong_exit_codes_and_error_shapes(tmp_path):
    wl = make("cli_mix", tmp_path)
    q = first(wl, "fail-limit")
    code, out, err = wl.run(q)
    assert code == 2
    wl.check(q, (code, out, err))
    rejects(wl, q, (1, out, err))
    rejects(wl, q, (0, out, err))
    rejects(wl, q, (code, "{}\n", err))
    rejects(wl, q, (code, out, ""))


def test_cli_checks_reject_perturbed_reports(tmp_path):
    wl = make("cli_mix", tmp_path)
    for q in wl.round(1):
        code, out, err = wl.run(q)
        wl.check(q, (code, out, err))
        if "exit" in q.expect:
            continue
        rejects(wl, q, (1, out, err))
        if q.args["argv"][-1] == "json":
            doc = json.loads(out)
            perturbed = copy.deepcopy(doc)
            _bump_first_number(perturbed)
            if perturbed != doc:
                rejects(wl, q, (code, json.dumps(perturbed), err))


def _bump_first_number(doc) -> bool:
    """Change the first float found in a report by 1e-6 (in place)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, float):
            doc[key] = value + 1e-6
            return True
        if isinstance(value, (dict, list)) and _bump_first_number(value):
            return True
    return False
