"""JSON schemas for game specs, advice, and bundled fixtures.

Complex numbers are two-element arrays [re, im]; matrices are row-major
lists of such entries.  Joint labels are comma-joined strings, and
payoff keys pair them as "types|strategies".  Angles accept either a
number (radians) or a "pi" fraction string such as "pi/2" or "-3pi/4".

Loading is strict: unknown keys, wrong arities, or malformed numbers
raise FormatError naming the offending location, and a table entry
whose labels fall outside its game's domain (an unknown label, or a
joint key with the wrong number of labels) is a FormatError naming the
entry.  ``_built`` is the one place that rewords a constructor's
GameLabError as a FormatError at its location, and it lets a
DimensionLimitError through unchanged, for the CLI to exit 2; only
``"entangler": "ewl"`` rewords its own two faults, of player count and
dimension.  Dumping emits full float precision so a dump/load round
trip reproduces equal objects.
"""

from __future__ import annotations

import json
import math
import re
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .bayes import (
    BayesianGame,
    ClassicalAdvice,
    QuantumAdvice,
    phase_basis,
)
from .errors import (
    DimensionLimitError,
    DomainMismatchError,
    FormatError,
    GameLabError,
    UnsupportedDimensionError,
)
from .ewl import QuantumGameSpec, ewl_entangler
from .linalg import (
    BUILTIN_GATES,
    LinearMap,
    StateVector,
    check_dims,
    check_wires,
    from_matrix,
)

_ANGLE_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d+)?)?(?P<pi>pi)?"
    r"(?:/(?P<den>\d+(?:\.\d+)?))?$")


def parse_angle(value) -> float:
    """An angle in radians: a number, or a string like '-pi/4', '0.3'."""
    if isinstance(value, bool):
        raise FormatError(f"not an angle: {value!r}")
    if isinstance(value, (int, float)):
        return _finite(value, "angle")
    if not isinstance(value, str):
        raise FormatError(f"not an angle: {value!r}")
    m = _ANGLE_RE.match(value.strip())
    if not m or (m.group("coef") is None and m.group("pi") is None):
        raise FormatError(f"cannot parse angle {value!r}")
    out = float(m.group("coef")) if m.group("coef") else 1.0
    if m.group("pi"):
        out *= math.pi
    if m.group("den"):
        den = float(m.group("den"))
        if den == 0:
            raise FormatError(f"zero denominator in angle {value!r}")
        out /= den
    return -out if m.group("sign") == "-" else out


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _finite(value, where: str) -> float:
    """A JSON number as a float; JSON parsing admits NaN, +-Infinity and
    integers too large for a float, and no computation accepts them."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise FormatError(f"{where}: expected a finite number, got {value!r}")
    return out


def complex_from_json(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_finite(value, where), 0.0)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return complex(_finite(value[0], where), _finite(value[1], where))
    raise FormatError(f"{where}: expected a number or [re, im], got "
                      f"{value!r}")


def _built(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a GameLabError reworded as a
    FormatError at ``where``.  A DimensionLimitError passes through as it
    is, since the CLI gives it an exit status of its own."""
    try:
        return make(*args, **kwargs)
    except DimensionLimitError:
        raise
    except GameLabError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def matrix_to_json(gate: LinearMap) -> list[list[list[float]]]:
    return [[complex_to_json(z) for z in row] for row in gate.array]


def matrix_from_json(rows, where: str, in_dims=None,
                     out_dims=None) -> LinearMap:
    if not isinstance(rows, list) or not rows or \
            not all(isinstance(r, list) and len(r) == len(rows[0])
                    for r in rows):
        raise FormatError(f"{where}: expected a list of equal-length "
                          f"matrix rows")
    check_dims((max(len(rows), len(rows[0])),), f"{where} rows or columns")
    entries = [[complex_from_json(v, f"{where}[{i}][{j}]")
                for j, v in enumerate(row)] for i, row in enumerate(rows)]
    return _built(where, from_matrix, entries, in_dims=in_dims,
                  out_dims=out_dims)


def vector_to_json(state: StateVector) -> list[list[float]]:
    return [complex_to_json(z) for z in state.amplitudes]


def vector_from_json(values, dims, where: str) -> StateVector:
    if not isinstance(values, list) or not values:
        raise FormatError(f"{where}: expected a list of amplitudes")
    amps = np.array([complex_from_json(v, f"{where}[{i}]")
                     for i, v in enumerate(values)])
    dims = tuple(int(d) for d in dims)
    if len(amps) != math.prod(dims):
        raise FormatError(
            f"{where}: {len(amps)} amplitudes do not fill wires {dims}")
    return StateVector(amps, dims)


def _require(doc: Mapping, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing required key {key!r}")
    return doc[key]


def _check_keys(doc: Mapping, allowed: set[str], where: str) -> None:
    if not isinstance(doc, Mapping):
        raise FormatError(f"{where}: expected an object, got "
                          f"{type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")


def _int(value, where: str, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise FormatError(
            f"{where}: expected an integer >= {low}, got {value!r}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}: expected a number, got {value!r}")
    return _finite(value, where)


def _label_lists(value, count: int, where: str) -> tuple[tuple[str, ...],
                                                         ...]:
    if not isinstance(value, list) or len(value) != count or \
            not all(isinstance(per, list) and per for per in value):
        raise FormatError(
            f"{where}: expected {count} nonempty label lists")
    out = []
    for per in value:
        labels = tuple(str(x) for x in per)
        for lab in labels:
            if "," in lab or "|" in lab:
                raise FormatError(
                    f"{where}: label {lab!r} may not contain ',' or '|'")
        out.append(labels)
    return tuple(out)


def _join(labels: Sequence[str]) -> str:
    return ",".join(labels)


# --- EWL game specs -------------------------------------------------------

_EWL_KEYS = {"kind", "players", "dim", "initial_ket", "entangler",
             "strategies", "payoff_coeffs", "entangled_state"}


def ewl_from_json(doc: Mapping) -> QuantumGameSpec:
    _check_keys(doc, _EWL_KEYS, "ewl spec")
    if doc.get("kind", "ewl") != "ewl":
        raise FormatError(f"ewl spec: kind is {doc.get('kind')!r}")
    players = _int(_require(doc, "players", "ewl spec"), "players", 1)
    dim = _int(doc.get("dim", 2), "dim", 2)

    raw_ent = _require(doc, "entangler", "ewl spec")
    if raw_ent == "ewl":
        try:
            entangler = ewl_entangler(players, dim)
        except (DomainMismatchError, UnsupportedDimensionError) as exc:
            raise FormatError(f"entangler: {exc}") from exc
    elif isinstance(raw_ent, Mapping):
        _check_keys(raw_ent, {"matrix"}, "entangler")
        entangler = matrix_from_json(_require(raw_ent, "matrix",
                                              "entangler"),
                                     "entangler.matrix")
        # the wire count is checked after the matrix's own size, as the
        # constructor's in_dims check would be
        wire_dims = check_wires(dim, players, "in_dims")
        entangler = _built("entangler.matrix", LinearMap._of_finite,
                           entangler.array, wire_dims, wire_dims)
    else:
        raise FormatError(
            f"entangler: expected \"ewl\" or an object with a matrix, "
            f"got {raw_ent!r}")

    raw_sets = _require(doc, "strategies", "ewl spec")
    if not isinstance(raw_sets, list) or len(raw_sets) != players:
        raise FormatError(
            f"strategies: expected {players} per-player lists")
    strategy_sets = []
    for i, raw_set in enumerate(raw_sets):
        where = f"strategies[{i}]"
        if not isinstance(raw_set, list) or not raw_set:
            raise FormatError(f"{where}: expected a nonempty list")
        per: dict[str, LinearMap] = {}
        for j, entry in enumerate(raw_set):
            if isinstance(entry, str):
                if entry not in BUILTIN_GATES:
                    raise FormatError(
                        f"{where}[{j}]: unknown builtin gate {entry!r}; "
                        f"known: {sorted(BUILTIN_GATES)}")
                name, gate = entry, BUILTIN_GATES[entry]
            elif isinstance(entry, Mapping):
                _check_keys(entry, {"name", "matrix"}, f"{where}[{j}]")
                name = str(_require(entry, "name", f"{where}[{j}]"))
                gate = matrix_from_json(
                    _require(entry, "matrix", f"{where}[{j}]"),
                    f"{where}[{j}].matrix",
                    in_dims=(dim,), out_dims=(dim,))
            else:
                raise FormatError(
                    f"{where}[{j}]: expected a builtin name or an object "
                    f"with name and matrix")
            if name in per:
                raise FormatError(f"{where}: duplicate strategy {name!r}")
            per[name] = gate
        strategy_sets.append(per)

    raw_coeffs = _require(doc, "payoff_coeffs", "ewl spec")
    if not isinstance(raw_coeffs, list) or len(raw_coeffs) != players or \
            not all(isinstance(per, Mapping) for per in raw_coeffs):
        raise FormatError(
            f"payoff_coeffs: expected {players} outcome->number objects")
    coeffs = tuple(
        {str(k): _number(v, f"payoff_coeffs[{i}][{k!r}]")
         for k, v in per.items()}
        for i, per in enumerate(raw_coeffs))

    entangled_state = None
    if "entangled_state" in doc:
        entangled_state = vector_from_json(
            doc["entangled_state"], entangler.in_dims, "entangled_state")

    return _built("ewl spec", QuantumGameSpec, players, tuple(strategy_sets),
                  coeffs, entangler, dim, str(doc.get("initial_ket", "")),
                  entangled_state)


def ewl_to_json(spec: QuantumGameSpec) -> dict:
    doc: dict = {"kind": "ewl", "players": spec.players, "dim": spec.dim,
                 "initial_ket": spec.initial_ket}
    is_ewl = (spec.dim == 2 and spec.players >= 2
              and spec.entangler == ewl_entangler(spec.players))
    doc["entangler"] = "ewl" if is_ewl \
        else {"matrix": matrix_to_json(spec.entangler)}
    sets = []
    for per in spec.strategies:
        entries = []
        for name, gate in per.items():
            if name in BUILTIN_GATES and gate == BUILTIN_GATES[name]:
                entries.append(name)
            else:
                entries.append({"name": name,
                                "matrix": matrix_to_json(gate)})
        sets.append(entries)
    doc["strategies"] = sets
    doc["payoff_coeffs"] = [dict(per) for per in spec.payoff_coeffs]
    if spec.entangled_state is not None:
        doc["entangled_state"] = vector_to_json(spec.entangled_state)
    return doc


# --- Bayesian games -------------------------------------------------------

_BAYES_KEYS = {"kind", "players", "types", "strategies", "prior",
               "payoffs", "advice"}


def bayes_from_json(doc: Mapping) \
        -> tuple[BayesianGame, ClassicalAdvice | QuantumAdvice | None]:
    _check_keys(doc, _BAYES_KEYS, "bayes spec")
    if doc.get("kind", "bayes") != "bayes":
        raise FormatError(f"bayes spec: kind is {doc.get('kind')!r}")
    players = _int(_require(doc, "players", "bayes spec"), "players", 1)
    types = _label_lists(_require(doc, "types", "bayes spec"), players,
                         "types")
    strategies = _label_lists(_require(doc, "strategies", "bayes spec"),
                              players, "strategies")

    raw_prior = _require(doc, "prior", "bayes spec")
    if not isinstance(raw_prior, Mapping):
        raise FormatError("prior: expected an object")
    prior = {tuple(str(k).split(",")): _number(v, f"prior[{k!r}]")
             for k, v in raw_prior.items()}

    raw_pay = _require(doc, "payoffs", "bayes spec")
    if not isinstance(raw_pay, list) or len(raw_pay) != players or \
            not all(isinstance(per, Mapping) for per in raw_pay):
        raise FormatError(f"payoffs: expected {players} objects")
    payoffs = []
    for i, per in enumerate(raw_pay):
        table = {}
        for key, v in per.items():
            where = f"payoffs[{i}][{key!r}]"
            parts = str(key).split("|")
            if len(parts) != 2:
                raise FormatError(
                    f"{where}: key must look like \"types|strategies\"")
            jt, js = (tuple(part.split(",")) for part in parts)
            table[(jt, js)] = _number(v, where)
        payoffs.append(table)

    game = _built("bayes spec", BayesianGame, types, strategies, prior,
                  tuple(payoffs))

    advice = None
    if "advice" in doc and doc["advice"] is not None:
        advice = advice_from_json(doc["advice"], game)
    return game, advice


def advice_from_json(doc, game: BayesianGame) \
        -> ClassicalAdvice | QuantumAdvice:
    if not isinstance(doc, Mapping):
        raise FormatError("advice: expected an object")
    kind = _require(doc, "kind", "advice")
    if kind == "classical":
        return _classical_advice_from_json(doc, game)
    if kind == "quantum":
        return _quantum_advice_from_json(doc, game)
    raise FormatError(f"advice.kind: expected \"classical\" or "
                      f"\"quantum\", got {kind!r}")


def _classical_advice_from_json(doc: Mapping,
                                game: BayesianGame) -> ClassicalAdvice:
    _check_keys(doc, {"kind", "lambdas", "rho", "responses"}, "advice")
    raw_lams = _require(doc, "lambdas", "advice")
    if not isinstance(raw_lams, list) or not raw_lams:
        raise FormatError("advice.lambdas: expected a nonempty list")
    lambdas = tuple(str(v) for v in raw_lams)
    raw_rho = _require(doc, "rho", "advice")
    if not isinstance(raw_rho, Mapping):
        raise FormatError("advice.rho: expected an object")
    rho = {str(k): _number(v, f"advice.rho[{k!r}]")
           for k, v in raw_rho.items()}
    raw_resp = _require(doc, "responses", "advice")
    if not isinstance(raw_resp, list) or len(raw_resp) != game.players:
        raise FormatError(
            f"advice.responses: expected {game.players} objects")
    responses = []
    for i, per in enumerate(raw_resp):
        if not isinstance(per, Mapping):
            raise FormatError(f"advice.responses[{i}]: expected an object")
        table = {}
        for key, row in per.items():
            where = f"advice.responses[{i}][{key!r}]"
            parts = str(key).split("|")
            if len(parts) != 2:
                raise FormatError(
                    f"{where}: key must look like \"type|lambda\"")
            if not isinstance(row, Mapping):
                raise FormatError(f"{where}: expected an object")
            table[(parts[0], parts[1])] = {
                str(s): _number(v, f"{where}[{s!r}]")
                for s, v in row.items()}
        responses.append(table)
    return _built("advice", ClassicalAdvice, game.types, game.strategies,
                  lambdas, rho, tuple(responses))


def _quantum_advice_from_json(doc: Mapping,
                              game: BayesianGame) -> QuantumAdvice:
    _check_keys(doc, {"kind", "state", "dims", "measurements"}, "advice")
    n = game.players
    raw_state = _require(doc, "state", "advice")
    if "dims" in doc:
        raw_dims = doc["dims"]
        if not isinstance(raw_dims, list) or len(raw_dims) != n:
            raise FormatError(f"advice.dims: expected {n} wire sizes")
        dims = tuple(_int(d, "advice.dims", 1) for d in raw_dims)
    else:
        size = len(raw_state) if isinstance(raw_state, list) else 0
        d = round(size ** (1 / n)) if size else 0
        if d < 2 or d ** n != size:
            raise FormatError(
                f"advice.state: cannot infer {n} equal wire sizes from "
                f"{size} amplitudes; give advice.dims")
        dims = (d,) * n
    state = vector_from_json(raw_state, dims, "advice.state")

    raw_meas = _require(doc, "measurements", "advice")
    if not isinstance(raw_meas, list) or len(raw_meas) != n:
        raise FormatError(f"advice.measurements: expected {n} objects")
    measurements = []
    for i, per in enumerate(raw_meas):
        if not isinstance(per, Mapping):
            raise FormatError(
                f"advice.measurements[{i}]: expected an object")
        table = {}
        for x, entry in per.items():
            where = f"advice.measurements[{i}][{x!r}]"
            if not isinstance(entry, Mapping):
                raise FormatError(f"{where}: expected an object")
            if "phase" in entry:
                _check_keys(entry, {"phase"}, where)
                if dims[i] != 2:
                    raise FormatError(
                        f"{where}: phase bases need a qubit wire, got "
                        f"dimension {dims[i]}")
                table[str(x)] = phase_basis(parse_angle(entry["phase"]))
            elif "basis" in entry:
                _check_keys(entry, {"basis"}, where)
                vecs = entry["basis"]
                if not isinstance(vecs, list):
                    raise FormatError(f"{where}.basis: expected a list")
                table[str(x)] = tuple(
                    vector_from_json(v, (dims[i],), f"{where}.basis[{k}]")
                    for k, v in enumerate(vecs))
            else:
                raise FormatError(f"{where}: needs \"phase\" or \"basis\"")
        measurements.append(table)
    return _built("advice", QuantumAdvice, game.types, game.strategies,
                  state, tuple(measurements))


def advice_to_json(advice) -> dict:
    if isinstance(advice, ClassicalAdvice):
        responses = []
        for table in advice.responses:
            responses.append({f"{x}|{lam}": dict(row)
                              for (x, lam), row in table.items()})
        return {"kind": "classical", "lambdas": list(advice.lambdas),
                "rho": dict(advice.rho), "responses": responses}
    if isinstance(advice, QuantumAdvice):
        measurements = []
        for table in advice.measurements:
            measurements.append({
                x: {"basis": [vector_to_json(v) for v in basis]}
                for x, basis in table.items()})
        return {"kind": "quantum",
                "state": vector_to_json(advice.shared_state),
                "dims": list(advice.shared_state.dims),
                "measurements": measurements}
    raise FormatError(f"cannot serialize advice {advice!r}")


def bayes_to_json(game: BayesianGame, advice=None) -> dict:
    prior = {_join(jt): v for jt, v in game.prior.items()}
    payoffs = []
    for table in game.payoffs:
        payoffs.append({f"{_join(jt)}|{_join(js)}": v
                        for (jt, js), v in table.items()})
    doc: dict = {
        "kind": "bayes",
        "players": game.players,
        "types": [list(per) for per in game.types],
        "strategies": [list(per) for per in game.strategies],
        "prior": prior,
        "payoffs": payoffs,
    }
    if advice is not None:
        doc["advice"] = advice_to_json(advice)
    return doc


# --- Top-level dispatch and fixtures --------------------------------------

def game_from_json(doc: Mapping):
    """Load either game kind: returns ("ewl", spec) or
    ("bayes", (game, advice))."""
    if not isinstance(doc, Mapping):
        raise FormatError(f"expected a JSON object, got "
                          f"{type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "ewl":
        return "ewl", ewl_from_json(doc)
    if kind == "bayes":
        return "bayes", bayes_from_json(doc)
    raise FormatError(f"kind: expected \"ewl\" or \"bayes\", got {kind!r}")


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return game_from_json(doc)


def load_path(path):
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def dumps(obj, advice=None) -> str:
    """Serialize a QuantumGameSpec or BayesianGame to a JSON string."""
    if isinstance(obj, QuantumGameSpec):
        doc = ewl_to_json(obj)
    elif isinstance(obj, BayesianGame):
        doc = bayes_to_json(obj, advice)
    else:
        raise FormatError(f"cannot serialize {obj!r}")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


FIXTURE_NAMES = (
    "pd_classical.json",
    "pd_ewl_3strat.json",
    "pd_ewl_4strat.json",
    "chsh_common_interest.json",
    "mermin_ghz3.json",
)


def fixture_text(name: str) -> str:
    if name not in FIXTURE_NAMES:
        raise FormatError(f"unknown fixture {name!r}; bundled: "
                          f"{list(FIXTURE_NAMES)}")
    return (resources.files("qgamelab") / "fixtures" / name) \
        .read_text(encoding="utf-8")


def load_fixture(name: str):
    """Load a bundled fixture: ("ewl", spec) or ("bayes", (game, advice))."""
    return loads(fixture_text(name))
