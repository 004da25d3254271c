"""Compare the end-to-end metrics of two benchmark results.

    python3 tools/bench_compare.py PARENT.json CHANGE.json
    python3 tools/bench_compare.py BENCH_15.json

With two files, each is a record that ``bench/run.py --trace 0`` writes
to ``.bench_out/`` (its ``context`` names the workload, its ``result``
holds the metrics).  With one, it is a committed ``BENCH_*.json``, and
its ``parent`` side is compared with its ``change`` side, one row per
workload and metric, by their stored medians.

Each row gives the parent's value, the change's, their ratio, and
whether the change is worse than the parent by more than the metric's
bound in ``BENCHMARK.json`` at the repository root: by more than
``bound`` times the parent's value, in the metric's worse direction.
The exit status is 1 when any metric is, 0 when none is, and 2 with
the usage line on a wrong number of arguments or on an argument that
is not a readable JSON file, such as ``--help``.  Nothing is written,
and no bound is changed.

The timed metrics ``queries_per_s``, ``query_p50_ms`` and
``query_tail_ms`` are scaled by a host-speed probe; their ``raw``
column is the ratio of the unscaled values, ``timed.raw_<metric>`` of
each record (of a committed file, the median over a side's runs), and
``-`` where a side has none.  A ``!`` after it marks a metric whose raw
and scaled ratios move in opposite directions, so the probe, not the
code, decided which way the scaled one went.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# the metrics a record also holds unscaled, as timed.raw_<metric>
RAW = ("queries_per_s", "query_p50_ms", "query_tail_ms")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def record_values(record: dict) -> dict[str, dict[str, float]]:
    """{workload: {metric: value}} of one ``bench/run.py`` record."""
    metrics = record["result"]["metrics"]
    return {record["context"]["workload"]:
            {name: m["value"] for name, m in metrics.items()}}


def record_raw(record: dict) -> dict[str, dict[str, float]]:
    """{workload: {metric: unscaled value}} of one ``bench/run.py``
    record, from its ``timed.raw_<metric>`` values."""
    timed = record.get("timed", {})
    return {record["context"]["workload"]:
            {name: timed["raw_" + name] for name in RAW
             if "raw_" + name in timed}}


def median_raw(runs: dict[str, list[dict]]) -> dict[str, dict[str, float]]:
    """{workload: {metric: median unscaled value}} over each workload's
    runs of a committed side, for the metrics every run has."""
    out = {}
    for workload, records in runs.items():
        raws = [record_raw(r)[workload] for r in records]
        out[workload] = {name: statistics.median(raw[name] for raw in raws)
                         for name in RAW if all(name in raw for raw in raws)}
    return out


def is_worse(parent: float, change: float, better: str,
             bound: float) -> bool:
    """Whether ``change`` is worse than ``parent`` by more than ``bound``
    times the parent's magnitude, ``better`` being "higher" or "lower"."""
    loss = parent - change if better == "higher" else change - parent
    return loss > bound * abs(parent)


def compare(parent: dict, change: dict, end_to_end: list[dict],
            raw: tuple[dict, dict]) -> tuple[list[str], bool]:
    """Table rows for every workload of both sides, and whether any
    metric is worse than its bound.  ``raw`` holds each side's unscaled
    values, as ``record_raw`` gives them."""
    rows = [f"{'workload':<13} {'metric':<14} {'parent':>11} "
            f"{'change':>11} {'ratio':>7} {'raw':>7}   verdict"]
    worse = False
    for workload in (w for w in parent if w in change):
        for spec in end_to_end:
            name = spec["name"]
            a, b = parent[workload][name], change[workload][name]
            bad = is_worse(a, b, spec["better"], spec["bound"])
            worse |= bad
            ratio = f"{b / a:7.3f}" if a else f"{'-':>7}"
            raw_a, raw_b = (side.get(workload, {}).get(name) for side in raw)
            if raw_a and raw_b is not None:
                # opposite directions: one ratio above 1, the other below
                flag = "!" if (b - a) * (raw_b - raw_a) < 0 else " "
                raw_ratio = f"{raw_b / raw_a:7.3f}{flag}"
            else:
                raw_ratio = f"{'-':>7} "
            verdict = (f"WORSE than its {spec['bound']:.0%} bound" if bad
                       else "within bound")
            rows.append(f"{workload:<13} {name:<14} {a:>11.5g} {b:>11.5g} "
                        f"{ratio} {raw_ratio}  {verdict}")
    return rows, worse


def main(argv: list[str]) -> int:
    try:
        docs = [_load(p) for p in argv[1:]] if len(argv) in (2, 3) else []
    except (OSError, ValueError):  # unreadable, or not JSON
        docs = []
    if len(docs) == 1:
        sides = docs[0]["sides"]
        parent, change = sides["parent"]["medians"], \
            sides["change"]["medians"]
        raw = tuple(median_raw(sides[side]["runs"])
                    for side in ("parent", "change"))
    elif len(docs) == 2:
        parent, change = (record_values(doc) for doc in docs)
        raw = tuple(map(record_raw, docs))
    else:
        print("usage: bench_compare.py PARENT.json CHANGE.json | "
              "BENCH_N.json", file=sys.stderr)
        return 2
    rows, worse = compare(parent, change, _load(BENCHMARK)["end_to_end"],
                          raw)
    print("\n".join(rows))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
