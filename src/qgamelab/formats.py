"""JSON schemas for game specs, advice, and bundled fixtures.

Complex numbers are two-element arrays [re, im]; matrices are row-major
lists of such entries.  Joint labels are comma-joined strings, and
payoff keys pair them as "types|strategies".  Angles accept either a
number (radians) or a "pi" fraction string such as "pi/2" or "-3pi/4";
either way an angle, and each number in its string, must be finite.

Loading reads each numeric table of a spec as one array, checked once,
and hands it to its constructor as a grid, with no label-keyed dict in
between.  A Bayes spec's prior and payoffs and a classical advice's rho
and responses are looked up at the key strings their label lists give
(labels hold no "," or "|", so the keys name the cells one to one); a
player's EWL gate matrices are one float array, and each amplitude list
another, viewed as complex, so a -0.0 part stays -0.0; a player's
{"basis": ...} measurements are one (X_i, d, d) array in type order,
handed to ``QuantumAdvice`` as a grid.  Only when that read fails is the
table walked entry by entry in document order, which names its first
fault as before: a bad value or key is raised where it stands, and a
fault of the domain is left for the constructor to name.  On a Bayes
table the walk always raises.  An amplitude written as a bare real, a
"phase" basis or a builtin gate name is read entry by entry too.

Loading is strict: unknown keys, wrong arities, or malformed numbers
raise FormatError naming the offending location, and a table entry
whose labels fall outside its game's domain (an unknown label, or a
joint key with the wrong number of labels) is a FormatError naming the
entry.  ``_built`` is the one place that rewords a constructor's
GameLabError as a FormatError at its location, and it lets a
DimensionLimitError through unchanged, for the CLI to exit 2.  An EWL
spec's payoff coefficients are checked as one table per player and
handed to the constructor as read.  Dumping emits full float precision
so a dump/load round trip reproduces equal objects.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections.abc import Mapping
from importlib import resources

import numpy as np

from .bayes import (
    BayesianGame,
    ClassicalAdvice,
    QuantumAdvice,
    _Domain,
    phase_basis,
)
from .errors import DimensionLimitError, FormatError, GameLabError
from .ewl import QuantumGameSpec, ewl_entangler
from .linalg import (
    BUILTIN_GATES,
    LinearMap,
    StateVector,
    check_dims,
    check_wires,
    dimension_limit,
    from_matrix,
)

_ANGLE_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>[0-9]+(?:\.[0-9]+)?)?(?P<pi>pi)?"
    r"(?:/(?P<den>[0-9]+(?:\.[0-9]+)?))?$")


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
    where = f"angle {value!r}"
    out = _finite(m.group("coef") or 1.0, where)
    if m.group("pi"):
        out *= math.pi
    if m.group("den"):
        den = _finite(m.group("den"), where)
        if den == 0:
            raise FormatError(f"zero denominator in angle {value!r}")
        out /= den
    return _finite(-out if m.group("sign") == "-" else out, where)


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


def _array(value, depth: int = 0) -> np.ndarray | None:
    """``value``, lists nested ``depth`` deep around finite JSON numbers,
    as one float array, or None if it is anything else."""
    leaves = value
    try:
        for _ in range(depth):
            leaves = itertools.chain.from_iterable(leaves)
        if not set(map(type, leaves)) <= {int, float}:   # a bool is neither
            return None
        out = np.array(value, float)
    except (TypeError, ValueError, OverflowError):
        return None
    return out if np.isfinite(out).all() else None


def _complex_array(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """``value``, lists of [re, im] pairs in ``shape``, as one complex
    array (a -0.0 part stays -0.0), or None if it is anything else."""
    out = _array(value, len(shape))
    return None if out is None or out.shape != shape + (2,) \
        else out.view(complex)[..., 0]


def _listed(raw, keys, fill=None) -> list | None:
    """The values of the JSON object ``raw`` at ``keys`` (distinct), or
    None unless ``raw`` has no other key and each key is found or ``fill``
    stands in for it; always None when ``keys`` is None."""
    if not isinstance(raw, Mapping) or keys is None or \
            sum(map(raw.__contains__, keys)) != len(raw):
        return None
    values = list(map(raw.get, keys, itertools.repeat(fill)))
    return None if None in values else values


def _table(raw, keys, where: str, fill=None, key: str = "", cols=None):
    """``raw``'s values at ``keys`` as one float array, or None once its
    entries are walked in document order when it is not such a table:
    the first whose value is not a finite number, or whose key does not
    split at "|" into the two parts ``key`` names, is raised.  With
    ``cols`` each value is a row, a table over ``cols`` read as 0 where
    it is missing, and the array has a row per key."""
    values = _listed(raw, keys, fill)
    if cols is not None and values is not None:
        values = [_listed(row, cols, 0.0) for row in values]
    values = _array(values, cols is not None)
    if values is not None:
        return values
    for k, v in raw.items():
        at = f"{where}[{k!r}]"
        if key and str(k).count("|") != 1:
            raise FormatError(f"{at}: key must look like \"{key}\"")
        if cols is None:
            _number(v, at)
        elif not isinstance(v, Mapping):
            raise FormatError(f"{at}: expected an object")
        else:
            _table(v, None, at)


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
    entries = _complex_array(rows, (len(rows), len(rows[0])))
    if entries is None:
        entries = [[complex_from_json(v, f"{where}[{i}][{j}]")
                    for j, v in enumerate(row)] for i, row in enumerate(rows)]
    return _built(where, from_matrix, entries, in_dims=in_dims,
                  out_dims=out_dims)


def vector_to_json(state: StateVector) -> list[list[float]]:
    return [complex_to_json(z) for z in state.amplitudes]


def vector_from_json(values, dims, where: str) -> StateVector:
    if not isinstance(values, list) or not values:
        raise FormatError(f"{where}: expected a list of amplitudes")
    amps = _complex_array(values, (len(values),))
    if amps is None:
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
    out = tuple(tuple(map(str, per)) for per in value)
    for lab in itertools.chain.from_iterable(out):
        if "," in lab or "|" in lab:
            raise FormatError(
                f"{where}: label {lab!r} may not contain ',' or '|'")
    return out


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
        entangler = _built("entangler", ewl_entangler, players, dim)
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
        per = _gates(raw_set, dim) or {}
        for j, entry in enumerate(() if per else raw_set):
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
    for i, per in enumerate(raw_coeffs):
        _table(per, list(per), f"payoff_coeffs[{i}]")

    entangled_state = None
    if "entangled_state" in doc:
        entangled_state = vector_from_json(
            doc["entangled_state"], entangler.in_dims, "entangled_state")

    return _built("ewl spec", QuantumGameSpec, players, tuple(strategy_sets),
                  tuple(raw_coeffs), entangler, dim,
                  str(doc.get("initial_ket", "")), entangled_state)


def _gates(entries: list, dim: int) -> dict[str, LinearMap] | None:
    """A player's strategies with all their matrices read as one array,
    or None unless each is a name and a dim x dim matrix of [re, im]
    pairs, and the names are distinct."""
    stack = _stacked(entries, dim, "matrix", "name")
    gates = {} if stack is None else {
        str(e["name"]): LinearMap._of_finite(gate, (dim,), (dim,))
        for e, gate in zip(entries, stack)}
    return gates if len(gates) == len(entries) else None


def _stacked(entries, d: int, field: str, *others: str) -> np.ndarray | None:
    """Each entry's ``field``, d rows of d [re, im] pairs, read as one
    (len(entries), d, d) array, or None unless ``entries`` is a list of
    objects whose keys are ``field`` and ``others`` alone, and d is
    within the dimension cap."""
    keys = {field, *others}
    if entries is None or d > dimension_limit() or not all(
            type(e) is dict and e.keys() == keys for e in entries):
        return None
    return _complex_array([e[field] for e in entries], (len(entries), d, d))


def ewl_to_json(spec: QuantumGameSpec) -> dict:
    doc: dict = {"kind": "ewl", "players": spec.players, "dim": spec.dim,
                 "initial_ket": spec.initial_ket}
    is_ewl = (spec.dim == 2 and spec.players >= 2
              and spec.entangler == ewl_entangler(spec.players))
    doc["entangler"] = "ewl" if is_ewl \
        else {"matrix": matrix_to_json(spec.entangler)}
    doc["strategies"] = [
        [name if name in BUILTIN_GATES and gate == BUILTIN_GATES[name]
         else {"name": name, "matrix": matrix_to_json(gate)}
         for name, gate in per.items()] for per in spec.strategies]
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
    # the keys of each table, or None to walk every entry when a label
    # repeats and keys would too
    joint_types = list(map(",".join, itertools.product(*types)))
    cells = list(map("|".join, itertools.product(joint_types, map(
        ",".join, itertools.product(*strategies)))))
    if any(len(set(per)) < len(per) for per in types + strategies):
        joint_types = cells = None
    prior = _table(raw_prior, joint_types, "prior", 0.0)

    raw_pay = _require(doc, "payoffs", "bayes spec")
    if not isinstance(raw_pay, list) or len(raw_pay) != players or \
            not all(isinstance(per, Mapping) for per in raw_pay):
        raise FormatError(f"payoffs: expected {players} objects")
    pay = [_table(per, cells, f"payoffs[{i}]", key="types|strategies")
           for i, per in enumerate(raw_pay)]
    if prior is None or any(p is None for p in pay):
        # a fault of the domain, for the constructor to name
        _built("bayes spec", BayesianGame, types, strategies, {
            tuple(str(k).split(",")): v for k, v in raw_prior.items()},
            tuple({tuple(tuple(part.split(",")) for part in str(k).split(
                "|")): v for k, v in per.items()} for per in raw_pay))
        # reached only by a Mapping json does not give, such as one
        # holding numpy scalars or keys that are not strings
        raise FormatError("bayes spec: tables must map strings to numbers")
    game = _built("bayes spec", BayesianGame._of_grid,
                  _Domain(types, strategies), (prior, np.array(pay)))

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
    # keys of the tables, unless they would repeat or not split at "|"
    keyed = len(set(lambdas)) == len(lambdas) and "|" not in "".join(lambdas)
    raw_rho = _require(doc, "rho", "advice")
    if not isinstance(raw_rho, Mapping):
        raise FormatError("advice.rho: expected an object")
    rho = _table(raw_rho, lambdas if keyed else None, "advice.rho", 0.0)
    raw_resp = _require(doc, "responses", "advice")
    if not isinstance(raw_resp, list) or len(raw_resp) != game.players:
        raise FormatError(
            f"advice.responses: expected {game.players} objects")
    grids = []
    for i, (per, x_i) in enumerate(zip(raw_resp, game.types)):
        if not isinstance(per, Mapping):
            raise FormatError(f"advice.responses[{i}]: expected an object")
        keys = [f"{x}|{lam}" for x in x_i for lam in lambdas]
        grids.append(_table(per, keys if keyed else None,
                            f"advice.responses[{i}]", key="type|lambda",
                            cols=game.strategies[i]))
    if rho is None or any(g is None for g in grids):
        # a fault of the domain, for the constructor to name
        _built("advice", ClassicalAdvice, game.types, game.strategies,
               lambdas, {str(k): v for k, v in raw_rho.items()},
               tuple({tuple(str(k).split("|")): row for k, row in
                      per.items()} for per in raw_resp))
        raise FormatError("advice: tables must map strings to numbers")
    return _built("advice", ClassicalAdvice._of_grid, game, (rho, grids),
                  lambdas=lambdas)


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
    # each player's {"basis": ...} per type, in type order, as one stack
    stacks = tuple(_stacked(_listed(raw, types), d, "basis")
                   for raw, types, d in zip(raw_meas, game.types, dims))
    if not any(stack is None for stack in stacks):
        return _built("advice", QuantumAdvice._of_grid, game, stacks,
                      shared_state=state)
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
        return {"kind": "classical", "lambdas": list(advice.lambdas),
                "rho": dict(advice.rho), "responses": [
                    {f"{x}|{lam}": dict(row) for (x, lam), row in t.items()}
                    for t in advice.responses]}
    if isinstance(advice, QuantumAdvice):
        return {"kind": "quantum",
                "state": vector_to_json(advice.shared_state),
                "dims": list(advice.shared_state.dims),
                "measurements": [{x: {"basis": list(map(vector_to_json, b))}
                                  for x, b in t.items()}
                                 for t in advice.measurements]}
    raise FormatError(f"cannot serialize advice {advice!r}")


def bayes_to_json(game: BayesianGame, advice=None) -> dict:
    doc: dict = {
        "kind": "bayes",
        "players": game.players,
        "types": [list(per) for per in game.types],
        "strategies": [list(per) for per in game.strategies],
        "prior": {",".join(jt): v for jt, v in game.prior.items()},
        "payoffs": [{",".join(jt) + "|" + ",".join(js): v
                     for (jt, js), v in table.items()}
                    for table in game.payoffs],
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
    # malformed, an int past the digit limit, or nested past the stack
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return game_from_json(doc)


def load_path(path):
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc})")
    return loads(text)


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
