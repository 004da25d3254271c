"""qgamelab benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload ewl_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  Every workload is a closed loop of queries
from one client (one process, one Python thread, BLAS pinned to one
thread), run in fresh worker processes (bench/worker.py) that import
qgamelab from ``src``.

--trace 0 measures the end-to-end metrics with tracing off: a few
set-up-only workers give the median set-up time, then one worker runs
queries for --seconds.  Times are wall times scaled to a reference host
speed by a probe the worker runs before every round (see worker.py); the
raw wall times are in the record.

--trace 1 runs an untraced and a traced worker for half the time each
and reports the per-layer metrics of the traced one, plus the tracing
overhead.

The last line of standard output is the result; the line before it is
the full record, also written to .bench_out/.  Exit status is 0 when the
run completed (``correct`` says whether every answer checked out) and
non-zero, with no result, when the program could not be run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    "ewl_sweep": "EWL payoff tables, Nash and Pareto scans over 9-36 grid "
                 "strategies and 3-player games, plus quantize-and-save: the "
                 "ewl layer and tiny linalg maps",
    "bell_scan": "Bell bounds, values, payoffs and advised-equilibrium "
                 "checks on CHSH, Mermin, I3322 and seeded games: "
                 "pure-Python enumeration in bayes",
    "diagram_eval": "parse, typecheck and evaluate wide, long and 11-12 "
                    "wire Par-only diagrams: the large-map linalg path and "
                    "the only large peak memory",
    "cli_mix": "all ten CLI subcommands in-process, table and JSON output, "
               "with documented failures: argparse, reports, emission, "
               "exit codes",
}

END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}

# Per-layer metrics of the traced run; tracer.Tracer.metrics computes all
# but the trace.* overhead figures, which come from comparing two workers.
PER_LAYER = {
    **{f"{layer}.{what}": unit
       for layer in ("linalg", "ewl", "bayes", "diagrams", "formats", "cli")
       for what, unit in (("calls", "count"), ("self_ms", "ms"),
                          ("errors", "count"))},
    "linalg.tensor.calls": "count", "linalg.tensor.self_ms": "ms",
    "linalg.compose.calls": "count", "linalg.compose.self_ms": "ms",
    "linalg.apply.calls": "count", "linalg.apply.self_ms": "ms",
    "linalg.dagger.calls": "count", "linalg.entries_built": "count",
    "linalg.max_map_entries": "count", "linalg.nonzero_frac": "ratio",
    "linalg.flops_computed": "flop", "linalg.bytes_computed": "B",
    "ewl.play.calls": "count", "ewl.us_per_profile": "us",
    "ewl.payoff_table.self_ms": "ms", "ewl.pure_nash.self_ms": "ms",
    "ewl.pareto_optimal.self_ms": "ms", "ewl.pareto.pairs_compared": "count",
    "ewl.quantize.self_ms": "ms",
    "bayes.classical_bound.self_ms": "ms",
    "bayes.responses_enumerated": "count", "bayes.us_per_response": "us",
    "bayes.is_advised_equilibrium.self_ms": "ms",
    "bayes.deviations_checked": "count",
    "bayes.quantum_conditional.self_ms": "ms",
    "bayes.classical_conditional.self_ms": "ms",
    "bayes.from_payoff.self_ms": "ms", "bayes.average_payoff.self_ms": "ms",
    "bayes.bell_value.self_ms": "ms",
    "diagrams.parse.self_ms": "ms", "diagrams.parse.bytes": "B",
    "diagrams.typecheck.self_ms": "ms", "diagrams.evaluate.self_ms": "ms",
    "diagrams.spider_map.calls": "count",
    "formats.loads.self_ms": "ms", "formats.loads.bytes": "B",
    "formats.loads.mb_per_s": "MB/s", "formats.dumps.self_ms": "ms",
    "formats.errors": "count",
    "cli.main.self_ms": "ms", "cli.stdout_bytes": "B",
    "cli.exit_nonzero": "count",
    "trace.spans": "count",
    "trace.queries_per_s": "1/s",
    "trace.untraced_queries_per_s": "1/s",
    "trace.overhead_pct": "%",
}

BLAS_THREADS = 1          # never more than nproc
SETUP_ONLY_WORKERS = 5    # plus the timed worker: six set-up samples
BUDGET_S = 170            # the whole run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The program could not be run or did not report."""


def source_hash(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "qgamelab", "**",
                                              "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> str:
    """HEAD from .git when the checkout has one, without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]),
                  encoding="ascii") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


class Runner:
    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.out_dir = os.path.join(root, ".bench_out")
        self.work_dir = os.path.join(root, ".bench_work",
                                     f"{args.workload}-{args.seed}")

    def worker(self, seconds: float, *extra: str) -> tuple[dict, float]:
        """Run one worker; returns its record and its spawn time."""
        cmd = [sys.executable, os.path.join(self.root, "bench", "worker.py"),
               "--workload", self.args.workload, "--seed",
               str(self.args.seed), "--seconds", repr(seconds),
               "--workdir", self.work_dir, *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker did not finish in time") from None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             f"{err.strip()[-2000:]}")
        return json.loads(lines[-1]), spawned

    def end_to_end(self) -> tuple[dict, dict]:
        setups, raw_setups, records = [], [], []
        for extra in [("--setup-only",)] * SETUP_ONLY_WORKERS + [()]:
            rec, spawned = self.worker(0 if extra else self.args.seconds,
                                       *extra)
            raw_setups.append(rec["setup_done"] - spawned)
            setups.append(raw_setups[-1] * rec["setup_scale"])
            records.append(rec)
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        metrics = {name: rec[name] for name in
                   ("queries_per_s", "query_p50_ms", "query_tail_ms",
                    "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["success_rate"] = 1.0 - failed / attempted
        detail = {"timed": rec, "setup_samples_s": setups,
                  "raw_setup_samples_s": raw_setups,
                  "error_rate": failed / attempted,
                  "setup_only_errors": [e for r in records[:-1]
                                        for e in r["errors"]]}
        return self._result(metrics, END_TO_END, attempted, failed), detail

    def per_layer(self) -> tuple[dict, dict]:
        half = max(1.0, self.args.seconds / 2)
        plain, _ = self.worker(half)
        os.makedirs(self.out_dir, exist_ok=True)
        spans = os.path.join(self.out_dir, f"spans-{self.args.workload}-"
                                           f"seed{self.args.seed}.tsv.gz")
        traced, _ = self.worker(half, "--traced", "--spans", spans)
        metrics = dict(traced.pop("layers"))
        metrics["trace.queries_per_s"] = traced["queries_per_s"]
        metrics["trace.untraced_queries_per_s"] = plain["queries_per_s"]
        metrics["trace.overhead_pct"] = 100.0 * (
            plain["queries_per_s"] / traced["queries_per_s"] - 1.0)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        detail = {"timed": traced, "untraced": plain, "spans_file": spans,
                  "error_rate": failed / attempted}
        return self._result(metrics, PER_LAYER, attempted, failed), detail

    @staticmethod
    def _result(metrics: dict, units: dict, attempted: int,
                failed: int) -> dict:
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"metrics not reported: {sorted(missing)}")
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items()}}

    def context(self, timed: dict) -> dict:
        return {
            "workload": self.args.workload,
            "why": WORKLOADS[self.args.workload],
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "closed_loop_clients": 1,
            "blas_threads": BLAS_THREADS,
            "worker_threads": timed["threads"],
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": timed["numpy"],
            "blas": timed["blas"],
            "commit": git_commit(self.root),
            "src_sha256": source_hash(self.root),
            "input_sha256": timed["input_sha256"],
            "round1_sha256": timed["round1_sha256"],
            "rounds": timed["rounds"],
            "samples": timed["samples"],
            "tail_percentile": timed["tail_percentile"],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qgamelab",
                                       "__init__.py")):
        print("bench: run from the repository root; src/qgamelab is missing",
              file=sys.stderr)
        return 2
    runner = Runner(root, args)
    try:
        result, detail = runner.per_layer() if args.trace \
            else runner.end_to_end()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record = {"context": runner.context(detail["timed"]), "result": result,
              **detail}
    os.makedirs(runner.out_dir, exist_ok=True)
    path = os.path.join(runner.out_dir, f"result-{args.workload}-seed"
                                        f"{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>12}  {name:<40} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    ctx = record["context"]
    print(f"{args.workload:>12}  tail is p{ctx['tail_percentile']:.2f} of "
          f"{ctx['samples']} queries; error rate {detail['error_rate']:.4g}; "
          f"BLAS threads {ctx['blas_threads']}; inputs "
          f"{ctx['input_sha256'][:16]}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
