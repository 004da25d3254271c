"""Command-line front end.

Every command prints a human-oriented table by default and a stable
JSON document with ``--output json``: keys are documented and sorted,
floats carry 12 significant digits, and identical inputs produce
byte-identical output.  Exit status 0 means success, 1 means bad input
or a validation failure, 2 means an enumeration or dimension cap was
exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bayes, ewl, formats
from .diagrams import ObservableStructure, evaluate, parse, pretty, typecheck
from .errors import DimensionLimitError, EnumerationLimitError, GameLabError
from .linalg import outcome_labels

_LIMIT_ERRORS = (EnumerationLimitError, DimensionLimitError)


def _round12(x: float) -> float:
    out = float(f"{float(x):.12g}")
    return 0.0 if out == 0.0 else out


def _json_ready(value):
    """Normalize a report for stable emission: 12 significant digits,
    no negative zero, tuples down to lists."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, complex):
        return [_round12(value.real), _round12(value.imag)]
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    raise TypeError(f"cannot emit {value!r}")


def _num(x: float) -> str:
    return f"{_round12(x):.12g}"


def _complex_str(z: complex) -> str:
    return f"{_round12(z.real):.12g}{_round12(z.imag):+.12g}i"


# --- command handlers -----------------------------------------------------

def _load_ewl(path: str) -> ewl.QuantumGameSpec:
    kind, loaded = formats.load_path(path)
    if kind != "ewl":
        raise GameLabError(f"{path}: expected an ewl spec, found {kind}")
    return loaded


def _load_bayes(path: str):
    kind, loaded = formats.load_path(path)
    if kind != "bayes":
        raise GameLabError(f"{path}: expected a bayes spec, found {kind}")
    return loaded


def _cmd_ewl_table(args) -> tuple[dict, list[str]]:
    spec = _load_ewl(args.input)
    table = ewl.payoff_table(spec)
    report = {
        "players": spec.players,
        "strategies": [list(per) for per in spec.strategy_labels],
        "table": [{"profile": list(profile), "payoffs": list(pay)}
                  for profile, pay in table.items()],
    }
    width = max(len(",".join(p)) for p in table)
    lines = [f"{'profile':<{width}}  payoffs"]
    for profile, pay in table.items():
        cells = " ".join(_num(v) for v in pay)
        lines.append(f"{','.join(profile):<{width}}  {cells}")
    return report, lines


def _cmd_ewl_nash(args) -> tuple[dict, list[str]]:
    tol = args.tolerance if args.tolerance is not None else ewl.NASH_TOL
    if not 0 <= tol < math.inf:
        raise GameLabError(f"--tolerance must be finite and non-negative, "
                           f"got {tol}")
    spec = _load_ewl(args.input)
    game = ewl.to_strategic_form(spec)
    equilibria = ewl.pure_nash(game, tol=tol)
    report: dict = {"equilibria": [list(p) for p in equilibria]}
    lines = ["pure Nash equilibria:"]
    if equilibria:
        for profile in equilibria:
            pay = " ".join(_num(v) for v in game.payoffs[profile])
            lines.append(f"  {','.join(profile)}  (payoffs {pay})")
    else:
        lines.append("  none")
    if args.pareto:
        pareto = ewl.pareto_optimal(game, tol=tol)
        report["pareto"] = [list(p) for p in pareto]
        lines.append("Pareto-optimal profiles:")
        lines.extend(f"  {','.join(p)}" for p in pareto)
    return report, lines


def _cmd_ewl_state(args) -> tuple[dict, list[str]]:
    spec = _load_ewl(args.input)
    profile = tuple(args.profile.split(","))
    result = ewl.play(spec, profile)
    report = {
        "profile": list(result.profile),
        "state": [[z.real, z.imag] for z in result.final_state.amplitudes],
        "distribution": result.outcome_distribution,
        "payoffs": list(result.payoffs),
    }
    lines = [f"profile: {','.join(profile)}", "amplitudes:"]
    for label, z in zip(outcome_labels(result.final_state.dims),
                        result.final_state.amplitudes):
        lines.append(f"  |{label}>  {_complex_str(z)}")
    lines.append("distribution:")
    for label, p in result.outcome_distribution.items():
        lines.append(f"  {label}  {_num(p)}")
    lines.append("payoffs: " + " ".join(_num(v) for v in result.payoffs))
    return report, lines


def _require_advice(loaded, path: str):
    game, advice = loaded
    if advice is None:
        raise GameLabError(f"{path}: this command needs an advice block")
    return game, advice


def _advice_kind(advice) -> str:
    return "classical" if isinstance(advice, bayes.ClassicalAdvice) \
        else "quantum"


def _cmd_bayes_payoff(args) -> tuple[dict, list[str]]:
    game, advice = _require_advice(_load_bayes(args.input), args.input)
    values = bayes.average_payoff(game, advice)
    report = {"advice": _advice_kind(advice), "payoffs": list(values)}
    lines = [f"advice: {report['advice']}"]
    lines += [f"F_{i + 1} = {_num(v)}" for i, v in enumerate(values)]
    return report, lines


def _cmd_bell_bound(args) -> tuple[dict, list[str]]:
    game, _ = _load_bayes(args.input)
    expr = bayes.BellExpression.from_payoff(game, args.player)
    limit = args.limit if args.limit is not None \
        else bayes.DEFAULT_ENUMERATION_LIMIT
    bound = bayes.classical_bound(expr, limit=limit)
    report = {"player": args.player, "bound": bound}
    return report, [f"classical bound (player {args.player + 1}): "
                    f"{_num(bound)}"]


def _cmd_bell_value(args) -> tuple[dict, list[str]]:
    game, advice = _require_advice(_load_bayes(args.input), args.input)
    expr = bayes.BellExpression.from_payoff(game, args.player)
    value = bayes.bell_value(expr, advice)
    report = {"player": args.player, "value": value,
              "advice": _advice_kind(advice)}
    return report, [f"bell value (player {args.player + 1}, "
                    f"{report['advice']} advice): {_num(value)}"]


def _cmd_ghz_dist(args) -> tuple[dict, list[str]]:
    phases = [formats.parse_angle(tok)
              for tok in args.phases.split(",") if tok.strip() != ""]
    n = args.n if args.n is not None else len(phases)
    dist = bayes.ghz_phase_distribution(n, phases)
    report = {"n": n, "phases": phases, "distribution": dist}
    lines = [f"GHZ^{n} phase distribution:"]
    lines += [f"  {s}  {_num(p)}" for s, p in dist.items()]
    return report, lines


def _cmd_mermin(args) -> tuple[dict, list[str]]:
    rep = bayes.mermin_inequivalence()
    report = {
        "settings": list(rep.settings),
        "quantum_expectations": list(rep.quantum_expectations),
        "classical_assignments": rep.classical_assignments,
        "satisfying_assignments": rep.satisfying_assignments,
        "quantum_parity_product": rep.quantum_parity_product,
        "classical_parity_product": rep.classical_parity_product,
        "inequivalent": rep.inequivalent,
    }
    lines = ["Mermin GHZ^3 parity report:"]
    for setting, e in zip(rep.settings, rep.quantum_expectations):
        lines.append(f"  E({setting}) = {_num(e)}")
    lines.append(f"  deterministic assignments: "
                 f"{rep.classical_assignments}, satisfying all four: "
                 f"{rep.satisfying_assignments}")
    lines.append(f"  parity product: quantum {rep.quantum_parity_product}, "
                 f"classical {rep.classical_parity_product}")
    lines.append(f"  verdict: "
                 f"{'inequivalent' if rep.inequivalent else 'equivalent'}")
    return report, lines


def _diagram_source(args) -> str:
    if args.expr is not None and args.file is not None:
        raise GameLabError("give the diagram inline or via --file, "
                           "not both")
    if args.expr is not None:
        return args.expr
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            return handle.read()
    raise GameLabError("no diagram given; pass it inline or via --file")


def _cmd_diagram_check(args) -> tuple[dict, list[str]]:
    term = parse(_diagram_source(args))
    in_wires, out_wires = typecheck(term)
    report = {"pretty": pretty(term), "in_wires": in_wires,
              "out_wires": out_wires}
    return report, [f"ok: {report['pretty']}",
                    f"wires: {in_wires} -> {out_wires}"]


def _cmd_diagram_eval(args) -> tuple[dict, list[str]]:
    term = parse(_diagram_source(args))
    if args.observable == "computational":
        obs = ObservableStructure.computational(args.dim)
    else:
        obs = ObservableStructure.fourier(args.dim)
    result = evaluate(term, obs)
    in_wires, out_wires = len(result.in_dims), len(result.out_dims)
    report = {
        "pretty": pretty(term),
        "dim": args.dim,
        "observable": args.observable,
        "in_wires": in_wires,
        "out_wires": out_wires,
        "matrix": [[[z.real, z.imag] for z in row] for row in result.array],
    }
    lines = [f"{report['pretty']}  ({in_wires} -> {out_wires} wires, "
             f"dim {args.dim})"]
    for row in result.array:
        lines.append("  [" + "  ".join(_complex_str(z) for z in row) + "]")
    return report, lines


# --- argument parsing and dispatch ----------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--output", choices=("table", "json"),
                        default="table", help="report format")

    parser = argparse.ArgumentParser(
        prog="qgamelab",
        description="Quantum game workbench: EWL games, Bayesian games "
                    "with advice, Bell bounds, and string diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ewl-table", parents=[shared],
                       help="payoff table of an EWL game spec")
    p.add_argument("input", help="path to an ewl JSON spec")
    p.set_defaults(handler=_cmd_ewl_table)

    p = sub.add_parser("ewl-nash", parents=[shared],
                       help="pure Nash equilibria of an EWL game spec")
    p.add_argument("input", help="path to an ewl JSON spec")
    p.add_argument("--pareto", action="store_true",
                   help="also list Pareto-optimal profiles")
    p.add_argument("--tolerance", type=float, default=None,
                   help="numeric tolerance override")
    p.set_defaults(handler=_cmd_ewl_nash)

    p = sub.add_parser("ewl-state", parents=[shared],
                       help="final state and payoffs of one profile")
    p.add_argument("input", help="path to an ewl JSON spec")
    p.add_argument("--profile", required=True,
                   help="comma-separated strategy labels, e.g. I,H")
    p.set_defaults(handler=_cmd_ewl_state)

    p = sub.add_parser("bayes-payoff", parents=[shared],
                       help="average payoffs under the file's advice")
    p.add_argument("input", help="path to a bayes JSON spec with advice")
    p.set_defaults(handler=_cmd_bayes_payoff)

    p = sub.add_parser("bell-bound", parents=[shared],
                       help="classical bound of a player's payoff "
                            "expression")
    p.add_argument("input", help="path to a bayes JSON spec")
    p.add_argument("--player", type=int, default=0,
                   help="player index (0-based)")
    p.add_argument("--limit", type=int, default=None,
                   help="enumeration cap override")
    p.set_defaults(handler=_cmd_bell_bound)

    p = sub.add_parser("bell-value", parents=[shared],
                       help="Bell value of the file's advice")
    p.add_argument("input", help="path to a bayes JSON spec with advice")
    p.add_argument("--player", type=int, default=0,
                   help="player index (0-based)")
    p.set_defaults(handler=_cmd_bell_value)

    p = sub.add_parser("ghz-dist", parents=[shared],
                       help="GHZ phase-measurement distribution")
    p.add_argument("--n", type=int, default=None, help="party count")
    p.add_argument("--phases", required=True,
                   help="comma-separated angles; pi fractions allowed")
    p.set_defaults(handler=_cmd_ghz_dist)

    p = sub.add_parser("mermin", parents=[shared],
                       help="GHZ^3 parity inequivalence report")
    p.set_defaults(handler=_cmd_mermin)

    p = sub.add_parser("diagram-eval", parents=[shared],
                       help="evaluate a diagram to a matrix")
    p.add_argument("expr", nargs="?", default=None,
                   help="diagram source text")
    p.add_argument("--file", default=None, help="read the diagram from "
                                                "a file")
    p.add_argument("--dim", type=int, default=2, help="wire dimension")
    p.add_argument("--observable", choices=("computational", "fourier"),
                   default="computational",
                   help="observable structure the spiders use")
    p.set_defaults(handler=_cmd_diagram_eval)

    p = sub.add_parser("diagram-check", parents=[shared],
                       help="parse and typecheck a diagram")
    p.add_argument("expr", nargs="?", default=None,
                   help="diagram source text")
    p.add_argument("--file", default=None, help="read the diagram from "
                                                "a file")
    p.set_defaults(handler=_cmd_diagram_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, lines = args.handler(args)
    except _LIMIT_ERRORS as exc:
        return _emit_error(exc, args, status=2)
    except (GameLabError, OSError, ValueError) as exc:
        return _emit_error(exc, args, status=1)
    if args.output == "json":
        print(json.dumps(_json_ready(report), indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def _emit_error(exc: Exception, args, status: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    if getattr(args, "output", "table") == "json":
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(doc, indent=2, sort_keys=True))
    return status
