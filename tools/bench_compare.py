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
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def record_values(record: dict) -> dict[str, dict[str, float]]:
    """{workload: {metric: value}} of one ``bench/run.py`` record."""
    metrics = record["result"]["metrics"]
    return {record["context"]["workload"]:
            {name: m["value"] for name, m in metrics.items()}}


def is_worse(parent: float, change: float, better: str,
             bound: float) -> bool:
    """Whether ``change`` is worse than ``parent`` by more than ``bound``
    times the parent's magnitude, ``better`` being "higher" or "lower"."""
    loss = parent - change if better == "higher" else change - parent
    return loss > bound * abs(parent)


def compare(parent: dict, change: dict, end_to_end: list[dict]) \
        -> tuple[list[str], bool]:
    """Table rows for every workload of both sides, and whether any
    metric is worse than its bound."""
    rows = [f"{'workload':<13} {'metric':<14} {'parent':>11} "
            f"{'change':>11} {'ratio':>7}  verdict"]
    worse = False
    for workload in (w for w in parent if w in change):
        for spec in end_to_end:
            name = spec["name"]
            a, b = parent[workload][name], change[workload][name]
            bad = is_worse(a, b, spec["better"], spec["bound"])
            worse |= bad
            ratio = f"{b / a:7.3f}" if a else f"{'-':>7}"
            verdict = (f"WORSE than its {spec['bound']:.0%} bound" if bad
                       else "within bound")
            rows.append(f"{workload:<13} {name:<14} {a:>11.5g} {b:>11.5g} "
                        f"{ratio}  {verdict}")
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
    elif len(docs) == 2:
        parent, change = (record_values(doc) for doc in docs)
    else:
        print("usage: bench_compare.py PARENT.json CHANGE.json | "
              "BENCH_N.json", file=sys.stderr)
        return 2
    rows, worse = compare(parent, change, _load(BENCHMARK)["end_to_end"])
    print("\n".join(rows))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
