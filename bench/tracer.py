"""Per-layer tracing of qgamelab from outside the package.

``Tracer.install`` replaces the public functions and ``LinearMap`` methods
of each layer with wrappers that record a span (name, start, end, parent,
query id) and a few counters derived from the call's arguments.  A
function is replaced wherever a module of the package binds it, so calls
through names imported into ``ewl``, ``cli`` or ``diagrams`` are seen too.
Spans stay in memory; ``write_spans`` stores them when the run ends.
Nothing is wrapped unless ``install`` is called, and ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
from collections import defaultdict

import numpy as np

from qgamelab import bayes, cli, ewl, formats, linalg

LAYERS = ("linalg", "ewl", "bayes", "diagrams", "formats", "cli")

_terms = sys.modules["qgamelab.diagrams.terms"]
_parse = sys.modules["qgamelab.diagrams.parse"]
_evaluate = sys.modules["qgamelab.diagrams.evaluate"]

# (span name, module or class that defines it, attribute)
FUNCTIONS = (
    ("linalg.tensor", linalg, "tensor"),
    ("linalg.compose", linalg, "compose"),
    ("linalg.identity", linalg, "identity"),
    ("linalg.from_matrix", linalg, "from_matrix"),
    ("linalg.born_probabilities", linalg, "born_probabilities"),
    ("ewl.final_state", ewl, "final_state"),
    ("ewl.play", ewl, "play"),
    ("ewl.payoffs", ewl, "payoffs"),
    ("ewl.payoff_table", ewl, "payoff_table"),
    ("ewl.to_strategic_form", ewl, "to_strategic_form"),
    ("ewl.pure_nash", ewl, "pure_nash"),
    ("ewl.pareto_optimal", ewl, "pareto_optimal"),
    ("ewl.quantize", ewl, "quantize"),
    ("ewl.ewl_strategy", ewl, "ewl_strategy"),
    ("ewl.ewl_strategy_grid", ewl, "ewl_strategy_grid"),
    ("bayes.classical_bound", bayes, "classical_bound"),
    ("bayes.is_advised_equilibrium", bayes, "is_advised_equilibrium"),
    ("bayes.classical_conditional", bayes, "classical_conditional"),
    ("bayes.quantum_conditional", bayes, "quantum_conditional"),
    ("bayes.average_payoff", bayes, "average_payoff"),
    ("bayes.bell_value", bayes, "bell_value"),
    ("bayes.ghz_phase_distribution", bayes, "ghz_phase_distribution"),
    ("bayes.mermin_inequivalence", bayes, "mermin_inequivalence"),
    ("diagrams.parse", _parse, "parse"),
    ("diagrams.typecheck", _terms, "typecheck"),
    ("diagrams.pretty", _terms, "pretty"),
    ("diagrams.evaluate", _evaluate, "evaluate"),
    ("diagrams.spider_map", _evaluate, "spider_map"),
    ("diagrams.swap_map", _evaluate, "swap_map"),
    ("diagrams.ket_map", _evaluate, "ket_map"),
    ("formats.loads", formats, "loads"),
    ("formats.load_path", formats, "load_path"),
    ("formats.dumps", formats, "dumps"),
    ("cli.main", cli, "main"),
)
METHODS = (
    ("linalg.apply", linalg.LinearMap, "apply"),
    ("linalg.dagger", linalg.LinearMap, "dagger"),
)
CLASSMETHODS = (
    ("bayes.from_payoff", bayes.BellExpression, "from_payoff"),
)


def _profiles(game) -> int:
    labels = getattr(game, "strategy_labels", None)
    return math.prod(len(per) for per in labels) if labels else 0


def _count_args(tracer: "Tracer", name: str, args) -> None:
    """Work counters computed from a call's inputs, before it runs."""
    c = tracer.counters
    if name == "linalg.compose":
        f, g = args
        c["linalg.flops_computed"] += 8 * f.rows * f.cols * g.cols
    elif name == "linalg.apply":
        c["linalg.flops_computed"] += 8 * args[0].rows * args[0].cols
    elif name == "ewl.pareto_optimal":
        c["ewl.pareto.pairs_compared"] += _profiles(args[0]) ** 2
    elif name == "bayes.classical_bound":
        expr = args[0]
        c["bayes.responses_enumerated"] += math.prod(
            len(s) ** len(x) for x, s in zip(expr.types, expr.strategies))
    elif name == "bayes.is_advised_equilibrium":
        game = args[0]
        c["bayes.deviations_checked"] += sum(
            len(s) ** (len(x) * len(s))
            for x, s in zip(game.types, game.strategies))
    elif name == "diagrams.parse":
        c["diagrams.parse.bytes"] += len(args[0].encode())
    elif name == "formats.loads":
        c["formats.loads.bytes"] += len(args[0].encode())


class Tracer:
    def __init__(self):
        # spans: (id, name, start, end, parent id, query id)
        self.spans: list[tuple] = []
        # per name: [calls, self seconds, total seconds, errors]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters: dict[str, float] = defaultdict(float)
        self.query = -1
        self._stack: list[list] = []     # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _count_args(self, name, args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                row = stats[name]
                row[0] += 1
                row[1] += dur - frame[1]
                row[2] += dur
                row[3] += failed
                spans.append((span_id, name, start, end, parent, self.query))
        return traced

    def _count_map(self, post_init):
        counters = self.counters

        @functools.wraps(post_init)
        def counted(linear_map):
            post_init(linear_map)
            arr = linear_map.array
            counters["linalg.entries_built"] += arr.size
            counters["linalg.nonzero_entries"] += np.count_nonzero(arr)
            counters["linalg.max_map_entries"] = max(
                counters["linalg.max_map_entries"], arr.size)
        return counted

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "qgamelab":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for name, owner, attr in FUNCTIONS:
            original = getattr(owner, attr)
            self._replace_everywhere(original, self.wrap(name, original))
        for name, cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        for name, cls, attr in CLASSMETHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, classmethod(self.wrap(name, original.__func__)))
        cls = linalg.LinearMap
        post_init = cls.__dict__["__post_init__"]
        self._undo.append((cls, "__post_init__", post_init))
        cls.__post_init__ = self._count_map(post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\tquery\n")
            for span in self.spans:
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % span)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters."""
        s, c = self.stats, self.counters

        def self_ms(name):
            return s[name][1] * 1e3 if name in s else 0.0

        def total_ms(name):
            return s[name][2] * 1e3 if name in s else 0.0

        def calls(name):
            return s[name][0] if name in s else 0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            rows = [row for name, row in s.items()
                    if name.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(r[0] for r in rows)
            out[f"{layer}.self_ms"] = sum(r[1] for r in rows) * 1e3
            out[f"{layer}.errors"] = sum(r[3] for r in rows)
        for op in ("tensor", "compose", "apply"):
            out[f"linalg.{op}.calls"] = calls(f"linalg.{op}")
            out[f"linalg.{op}.self_ms"] = self_ms(f"linalg.{op}")
        entries = c["linalg.entries_built"]
        out.update({
            "linalg.dagger.calls": calls("linalg.dagger"),
            "linalg.entries_built": entries,
            "linalg.max_map_entries": c["linalg.max_map_entries"],
            "linalg.nonzero_frac": ratio(c["linalg.nonzero_entries"], entries),
            "linalg.flops_computed": c["linalg.flops_computed"],
            "linalg.bytes_computed": 16 * entries,
            "ewl.play.calls": calls("ewl.play"),
            "ewl.us_per_profile": ratio(total_ms("ewl.play") * 1e3,
                                        calls("ewl.play")),
            "ewl.pareto.pairs_compared": c["ewl.pareto.pairs_compared"],
            "bayes.responses_enumerated": c["bayes.responses_enumerated"],
            "bayes.us_per_response": ratio(
                total_ms("bayes.classical_bound") * 1e3,
                c["bayes.responses_enumerated"]),
            "bayes.deviations_checked": c["bayes.deviations_checked"],
            "diagrams.parse.bytes": c["diagrams.parse.bytes"],
            "diagrams.spider_map.calls": calls("diagrams.spider_map"),
            "formats.loads.bytes": c["formats.loads.bytes"],
            "formats.loads.mb_per_s": ratio(
                c["formats.loads.bytes"] / 1e6,
                total_ms("formats.loads") / 1e3),
            "formats.errors": out["formats.errors"],
            "cli.main.self_ms": self_ms("cli.main"),
            "cli.stdout_bytes": c["cli.stdout_bytes"],
            "cli.exit_nonzero": c["cli.exit_nonzero"],
        })
        for name in ("ewl.payoff_table", "ewl.pure_nash",
                     "ewl.pareto_optimal", "ewl.quantize",
                     "bayes.classical_bound", "bayes.is_advised_equilibrium",
                     "bayes.quantum_conditional",
                     "bayes.classical_conditional", "bayes.from_payoff",
                     "bayes.average_payoff", "bayes.bell_value",
                     "diagrams.parse", "diagrams.typecheck",
                     "diagrams.evaluate", "formats.loads", "formats.dumps"):
            out[f"{name}.self_ms"] = self_ms(name)
        out["trace.spans"] = len(self.spans)
        return out
