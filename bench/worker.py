"""One measured process of the qgamelab benchmark.

Started by run.py with the BLAS thread count already pinned in its
environment.  It imports qgamelab, builds the workload from the seed,
runs a checked tiny-scale warm-up round, then runs rounds of queries in
a closed loop (one client, one thread) until --seconds have passed,
timing each query and checking each answer outside the timed part.
Prints one JSON object as the last line of its standard output.

A shared host can change speed by tens of percent over minutes, which
moves every timing of a run by one common factor.
So each round starts with a fixed probe that does not touch qgamelab,
and each query's wall time is scaled by REF_PROBE_S / (that round's
probe time): wall time at a fixed host speed.  Set-up time is scaled by
a probe run right after set-up.  Raw wall times stay in the record.

    PYTHONPATH=src python3 bench/worker.py --workload ewl_sweep \\
        --seed 1 --seconds 5 [--setup-only] [--traced] [--scale 0.2]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np


WARM_SCALE = 0.2
REF_PROBE_S = 0.050      # roughly the probe on an idle 2-vCPU Xeon VM


def host_probe() -> float:
    """Seconds for a fixed mix of pure-Python, small-numpy and BLAS work
    like the workloads' own, sized to stay off the peak-memory figure."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(20000):
        key = (i % 97, str(i % 7))
        table[key] = table.get(key, 0.0) + i * 0.5
    small = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    vec = np.ones(4, dtype=complex)
    for _ in range(1500):
        np.abs(np.kron(small, small) @ vec) ** 2
    dense = np.arange(192 * 192, dtype=complex).reshape(192, 192) / 192
    for _ in range(4):
        dense @ dense
    return time.perf_counter() - start


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile): the 11th largest sample, which has ten
    samples above it, at percentile 100 * (n - 10) / n.  With ten samples
    or fewer there is no such percentile; the maximum is reported as 100.
    """
    n = len(latencies_ms)
    ordered = sorted(latencies_ms)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def process_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_query(wl, q, tracer=None):
    """Run and check one query; returns (seconds, error message or None)."""
    error = None
    start = time.perf_counter()
    try:
        out = wl.run(q)
    except Exception as exc:        # an unexpected raise is a failed query
        elapsed = time.perf_counter() - start
        return elapsed, f"{q.kind}: raised {type(exc).__name__}: {exc}"
    except SystemExit as exc:
        elapsed = time.perf_counter() - start
        return elapsed, f"{q.kind}: exited {exc.code}"
    elapsed = time.perf_counter() - start
    if tracer is not None and hasattr(wl, "counters"):
        for key, value in wl.counters(out).items():
            tracer.counters[key] += value
    try:
        wl.check(q, out)
    except Exception as exc:        # CheckFailed, or a malformed answer
        error = f"{q.kind}: {type(exc).__name__}: {exc}"
    return elapsed, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", default=".bench_work")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here (gzip TSV)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (tests use a tiny scale)")
    args = parser.parse_args(argv)

    import workloads

    make = workloads.WORKLOADS[args.workload]
    wl = make(args.seed, args.workdir, args.scale)
    # Warm-up: every query kind once, at a tiny size, so first-call costs
    # are paid before timing without making set-up dominate the run.
    warm_wl = make(args.seed, args.workdir, min(args.scale, WARM_SCALE))
    errors: list[str] = []
    warm = warm_wl.round(0)
    for q in warm:
        _, err = run_query(warm_wl, q)
        if err:
            errors.append("warm-up " + err)
    setup_done = time.monotonic()
    record = {"setup_done": setup_done, "threads": process_threads(),
              "setup_scale": REF_PROBE_S / host_probe()}
    if args.setup_only:
        record.update(attempted=len(warm), failed=len(errors), errors=errors)
        print(json.dumps(record))
        return 0

    tracer = None
    if args.traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    digest, first = hashlib.sha256(), None
    raw: list[float] = []           # wall ms
    latencies: list[float] = []     # wall ms at the reference host speed
    probes: list[float] = []
    kinds: dict[str, list[float]] = {}
    start = time.monotonic()
    r = 0
    while r == 0 or time.monotonic() - start < args.seconds:
        r += 1
        queries = wl.round(r)
        probes.append(host_probe())
        speed = REF_PROBE_S / probes[-1]
        for q in queries:
            digest.update(q.data)
            if tracer is not None:
                tracer.query = len(latencies)
            elapsed, err = run_query(wl, q, tracer)
            raw.append(elapsed * 1e3)
            latencies.append(elapsed * 1e3 * speed)
            kinds.setdefault(q.kind, []).append(latencies[-1])
            if err:
                errors.append(err)
        if r == 1:
            first = digest.copy().hexdigest()
    wall = time.monotonic() - start

    if tracer is not None:
        tracer.uninstall()
        if args.spans:
            tracer.write_spans(args.spans)

    attempted = len(warm) + len(latencies)
    tail_ms, tail_pct = tail(latencies)
    raw_tail_ms, _ = tail(raw)
    record.update({
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "rounds": r,
        "samples": len(latencies),
        "wall_s": wall,
        "busy_s": sum(raw) / 1e3,
        "queries_per_s": len(latencies) / (sum(latencies) / 1e3),
        "query_p50_ms": statistics.median(latencies),
        "query_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "raw_queries_per_s": len(raw) / (sum(raw) / 1e3),
        "raw_query_p50_ms": statistics.median(raw),
        "raw_query_tail_ms": raw_tail_ms,
        "probe_ms_median": statistics.median(probes) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "input_sha256": digest.hexdigest(),
        "round1_sha256": first,
        "p50_ms_by_kind": {k: statistics.median(v) for k, v in kinds.items()},
        "numpy": np.__version__,
        "blas": blas_name(np),
    })
    if tracer is not None:
        record["layers"] = tracer.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
