"""Command-line front end.

Every command prints a human-oriented table by default and a stable
JSON document with ``--output json``: keys are documented and sorted,
floats carry 12 significant digits, and identical inputs produce
byte-identical output.  Exit status 0 means success, 1 means bad input,
a validation failure or a reader that closed standard output before the
report was written, 2 means an enumeration or dimension cap was
exceeded or a usage error: a command line argparse refuses.  Every
failure in JSON mode also prints one ``{"error": {"type", "message"}}``
object on stdout, whose type is a ``GameLabError`` subclass
(``UsageError`` for a usage error) or the ``OSError`` of a file that
cannot be read.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import bayes, ewl, formats
from .diagrams import ObservableStructure, evaluate, parse, pretty, typecheck
from .errors import (DimensionLimitError, EnumerationLimitError,
                     GameLabError, UsageError)
from .linalg import outcome_labels

_LIMIT_ERRORS = (EnumerationLimitError, DimensionLimitError)
_TABLE_SEP = "  "     # between the cells of a table row


def _round12(x: float) -> float:
    out = float(f"{float(x):.12g}")
    return 0.0 if out == 0.0 else out


def _json_ready(value):
    """Normalize a report for stable emission: 12 significant digits,
    no negative zero."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    raise TypeError(f"cannot emit {value!r}")


def _num(x: float) -> str:
    return f"{_round12(x):.12g}"


def _complex_rows(array: np.ndarray, real_fmt, imag_fmt,
                  sep: str) -> list[str]:
    """Each row of a complex matrix as the text of its entries joined by
    ``sep``: the real part through ``real_fmt`` then the imaginary part
    through ``imag_fmt``, both rounded to 12 significant digits.

    The work grows with the rows and the non-zeros, not with the entries.
    Each distinct part of the non-zero entries is formatted once, and each
    distinct entry's text built once.  A row is one join of its items:
    each non-zero's text, and each run of zeros before, between or after
    them, a slice of the all-zero row, which every all-zero row shares.
    A row with no zero is a join of its texts alone."""
    rows, cols = array.shape
    zero = real_fmt(0.0) + imag_fmt(0.0)
    zero_row = sep.join([zero] * cols)
    # array != 0 keeps flatnonzero off numpy's slow path for complex input
    nonzero = np.flatnonzero(array != 0)
    values = array.ravel()[nonzero]
    # the distinct entries, through sorts of their parts and of the pairs'
    # ranks, which numpy does about twice as fast as a sort of complex;
    # each distinct part is formatted once
    re, re_rank = np.unique(values.real, return_inverse=True)
    im, im_rank = np.unique(values.imag, return_inverse=True)
    pairs, inverse = np.unique(re_rank * len(im) + im_rank,
                               return_inverse=True)
    re_text = [real_fmt(_round12(x)) for x in re.tolist()]
    im_text = [imag_fmt(_round12(y)) for y in im.tolist()]
    text = np.array([re_text[k // len(im)] + im_text[k % len(im)]
                     for k in pairs.tolist()], dtype=object)
    # each row's non-zeros, then a stop at column `cols`; a slot's run is
    # the zeros between it and the slot before it in its row, and goes in
    # before that slot's text, a stop's before the next row's first run
    row, col = np.divmod(nonzero, cols)
    ends = np.searchsorted(row, np.arange(1, rows + 1))
    column = np.insert(col, ends, cols)
    runs = column - np.concatenate(([0], column[:-1] + 1)) % (cols + 1)
    kept = runs > 0
    lengths, length = np.unique(runs[kept], return_inverse=True)
    width = len(zero) + len(sep)
    items = np.insert(
        text[inverse], np.insert(np.arange(len(nonzero)), ends, ends)[kept],
        np.array([zero_row[:n * width - len(sep)] for n in lengths.tolist()],
                 dtype=object)[length]).tolist()
    # a row ends after its non-zeros and the runs up to its stop
    out, start = [], 0
    for end in (ends + np.cumsum(kept)[ends + np.arange(rows)]).tolist():
        out.append(sep.join(items[start:end]))
        start = end
    return out


def _table_cells(array: np.ndarray) -> list[list[str]]:
    """Each row of a complex matrix as table cells such as ``0.5-1i``."""
    return [row.split(_TABLE_SEP) for row in _table_rows(array)]


def _table_rows(array: np.ndarray) -> list[str]:
    """Each row of a complex matrix as its table cells joined by
    ``_TABLE_SEP``; a cell holds no space."""
    return _complex_rows(array, "{:.12g}".format, "{:+.12g}i".format,
                         _TABLE_SEP)


def _matrix_json(array: np.ndarray) -> list[str]:
    """The pieces of a complex matrix as ``json.dumps(indent=2)`` writes its
    rows of [re, im] pairs as a value of the top-level object: one string
    per row, with the brackets between them."""
    pieces = ["[\n    [\n      "]
    for row in _complex_rows(array, "[\n        {!r},\n        ".format,
                             "{!r}\n      ]".format, ",\n      "):
        pieces += (row, "\n    ],\n    [\n      ")
    pieces[-1] = "\n    ]\n  ]"
    return pieces


def _json_text(report: dict) -> str:
    """The report as ``json.dumps(_json_ready(report), indent=2,
    sort_keys=True)`` writes it, except that an ndarray value is a complex
    matrix, written straight from the array as rows of [re, im] pairs.  The
    pieces of every field are joined once, so the text is copied once."""
    pieces = ["{\n  "]
    for key, value in sorted(report.items()):
        pieces.append(f"{json.dumps(key)}: ")
        if isinstance(value, np.ndarray):
            pieces += _matrix_json(value)
        else:
            # a JSON string holds no raw newline: this indents layout only
            pieces.append(json.dumps(_json_ready(value), indent=2,
                                     sort_keys=True).replace("\n", "\n  "))
        pieces.append(",\n  ")
    pieces[-1] = "\n}"
    return "".join(pieces)


# --- command handlers -----------------------------------------------------

def _load(path: str, kind: str):
    """The spec at ``path``, which must be of ``kind``, "ewl" or "bayes"."""
    found, loaded = formats.load_path(path)
    if found != kind:
        article = "an" if kind == "ewl" else "a"
        raise GameLabError(
            f"{path}: expected {article} {kind} spec, found {found}")
    return loaded


def _cmd_ewl_table(args) -> tuple[dict, list[str]]:
    spec = _load(args.input, "ewl")
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
    spec = _load(args.input, "ewl")
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
    spec = _load(args.input, "ewl")
    profile = tuple(args.profile.split(","))
    result = ewl.play(spec, profile)
    report = {
        "profile": list(result.profile),
        "state": [[z.real, z.imag] for z in result.final_state.amplitudes],
        "distribution": result.outcome_distribution,
        "payoffs": list(result.payoffs),
    }
    if args.output == "json":
        return report, []
    lines = [f"profile: {','.join(profile)}", "amplitudes:"]
    (cells,) = _table_cells(result.final_state.amplitudes[np.newaxis])
    for label, cell in zip(outcome_labels(result.final_state.dims), cells):
        lines.append(f"  |{label}>  {cell}")
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
    game, advice = _require_advice(_load(args.input, "bayes"), args.input)
    values = bayes.average_payoff(game, advice)
    report = {"advice": _advice_kind(advice), "payoffs": list(values)}
    lines = [f"advice: {report['advice']}"]
    lines += [f"F_{i + 1} = {_num(v)}" for i, v in enumerate(values)]
    return report, lines


def _cmd_bell_bound(args) -> tuple[dict, list[str]]:
    game, _ = _load(args.input, "bayes")
    expr = bayes.BellExpression.from_payoff(game, args.player)
    limit = args.limit if args.limit is not None \
        else bayes.DEFAULT_ENUMERATION_LIMIT
    bound = bayes.classical_bound(expr, limit=limit)
    report = {"player": args.player, "bound": bound}
    return report, [f"classical bound (player {args.player + 1}): "
                    f"{_num(bound)}"]


def _cmd_bell_value(args) -> tuple[dict, list[str]]:
    game, advice = _require_advice(_load(args.input, "bayes"), args.input)
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
    report = {key: list(value) if isinstance(value, tuple) else value
              for key, value in dataclasses.asdict(rep).items()}
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
            try:
                return handle.read()
            except UnicodeDecodeError as exc:
                raise GameLabError(f"{args.file}: not UTF-8 text ({exc})")
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
    if args.dim < 1:
        raise GameLabError(f"observable dims must be positive integers, "
                           f"got {(args.dim,)}")
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
        "matrix": result.array,
    }
    if args.output == "json":
        return report, []
    lines = [f"{report['pretty']}  ({in_wires} -> {out_wires} wires, "
             f"dim {args.dim})"]
    lines += ("  [" + row + "]" for row in _table_rows(result.array))
    return report, lines


# --- argument parsing and dispatch ----------------------------------------

def _ascii(parse):
    """``parse``, ``int`` or ``float``, on ASCII text alone.  Both
    builtins read every script's decimal digits, while every other input
    takes the digits 0-9 only (``linalg.ascii_digits``).  The wrapper
    keeps the builtin's name, which argparse puts in its error message,
    so ``--n`` given an Arabic-Indic two fails exactly as ``--n x`` does."""
    def read(text: str):
        if not text.isascii():
            raise ValueError(f"not ASCII: {text!r}")
        return parse(text)
    read.__name__ = parse.__name__
    return read


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print and exit as argparse's
    do, with the exit's cause a UsageError naming the refusal."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit as exc:
            raise exc from UsageError(f"{self.prog}: {message}")


def _json_requested(argv) -> bool:
    """Whether ``argv`` asks for JSON output: the last value it gives
    ``--output``, under any abbreviation argparse takes, as read by a
    parser that knows no other option (so ``--o json`` counts even where
    ``--observable`` makes ``--o`` ambiguous)."""
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--output")
    try:
        return probe.parse_known_args(argv)[0].output == "json"
    except argparse.ArgumentError:   # --output with no value
        return False


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--output", choices=("table", "json"),
                        default="table", help="report format")
    # each argument that several subcommands share, declared once
    ewl_spec = argparse.ArgumentParser(add_help=False, parents=[shared])
    ewl_spec.add_argument("input", help="path to an ewl JSON spec")
    player = argparse.ArgumentParser(add_help=False, parents=[shared])
    player.add_argument("--player", type=_ascii(int), default=0,
                        help="player index (0-based)")
    diagram = argparse.ArgumentParser(add_help=False, parents=[shared])
    diagram.add_argument("expr", nargs="?", default=None,
                         help="diagram source text")
    diagram.add_argument("--file", default=None, help="read the diagram "
                                                      "from a file")

    parser = _Parser(
        prog="qgamelab",
        description="Quantum game workbench: EWL games, Bayesian games "
                    "with advice, Bell bounds, and string diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ewl-table", parents=[ewl_spec],
                       help="payoff table of an EWL game spec")
    p.set_defaults(handler=_cmd_ewl_table)

    p = sub.add_parser("ewl-nash", parents=[ewl_spec],
                       help="pure Nash equilibria of an EWL game spec")
    p.add_argument("--pareto", action="store_true",
                   help="also list Pareto-optimal profiles")
    p.add_argument("--tolerance", type=_ascii(float), default=None,
                   help="numeric tolerance override")
    p.set_defaults(handler=_cmd_ewl_nash)

    p = sub.add_parser("ewl-state", parents=[ewl_spec],
                       help="final state and payoffs of one profile")
    p.add_argument("--profile", required=True,
                   help="comma-separated strategy labels, e.g. I,H")
    p.set_defaults(handler=_cmd_ewl_state)

    p = sub.add_parser("bayes-payoff", parents=[shared],
                       help="average payoffs under the file's advice")
    p.add_argument("input", help="path to a bayes JSON spec with advice")
    p.set_defaults(handler=_cmd_bayes_payoff)

    p = sub.add_parser("bell-bound", parents=[player],
                       help="classical bound of a player's payoff "
                            "expression")
    p.add_argument("input", help="path to a bayes JSON spec")
    p.add_argument("--limit", type=_ascii(int), default=None,
                   help="enumeration cap override")
    p.set_defaults(handler=_cmd_bell_bound)

    p = sub.add_parser("bell-value", parents=[player],
                       help="Bell value of the file's advice")
    p.add_argument("input", help="path to a bayes JSON spec with advice")
    p.set_defaults(handler=_cmd_bell_value)

    p = sub.add_parser("ghz-dist", parents=[shared],
                       help="GHZ phase-measurement distribution")
    p.add_argument("--n", type=_ascii(int), default=None, help="party count")
    p.add_argument("--phases", required=True,
                   help="comma-separated angles; pi fractions allowed")
    p.set_defaults(handler=_cmd_ghz_dist)

    p = sub.add_parser("mermin", parents=[shared],
                       help="GHZ^3 parity inequivalence report")
    p.set_defaults(handler=_cmd_mermin)

    p = sub.add_parser("diagram-eval", parents=[diagram],
                       help="evaluate a diagram to a matrix")
    p.add_argument("--dim", type=_ascii(int), default=2, help="wire dimension")
    p.add_argument("--observable", choices=("computational", "fourier"),
                   default="computational",
                   help="observable structure the spiders use")
    p.set_defaults(handler=_cmd_diagram_eval)

    p = sub.add_parser("diagram-check", parents=[diagram],
                       help="parse and typecheck a diagram")
    p.set_defaults(handler=_cmd_diagram_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.  ``build_parser``
    returns a fresh one each call, so no caller can change this one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and its refusal on stderr
        if isinstance(exc.__cause__, UsageError) and _json_requested(
                sys.argv[1:] if argv is None else list(argv)):
            _print(_error_json(exc.__cause__))
        raise
    try:
        report, lines = args.handler(args)
    except _LIMIT_ERRORS as exc:
        return _emit_error(exc, args, status=2)
    except (GameLabError, OSError, ValueError) as exc:
        return _emit_error(exc, args, status=1)
    return _print(_json_text(report) if args.output == "json"
                  else "\n".join(lines))


def _print(text: str) -> int:
    """Print ``text`` on stdout and flush it: 0, or 1 and one ``error:``
    line on stderr when the reader has closed stdout early."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # What is still buffered goes to the null device, so the
        # interpreter's flush at exit finds no broken pipe to report.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: standard output closed early: {exc}", file=sys.stderr)
        return 1
    return 0


def _error_json(exc: Exception) -> str:
    return _json_text(
        {"error": {"type": type(exc).__name__, "message": str(exc)}})


def _emit_error(exc: Exception, args, status: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    if getattr(args, "output", "table") == "json":
        _print(_error_json(exc))
    return status
