"""The loader reads each numeric table of a spec as one array and names a
fault only when that read fails, by walking the document in order.

The entry-by-entry loader it replaced is kept below as the oracle:
``_old_loads`` reads every number with ``_number`` or ``complex_from_json``
and hands label-keyed dicts to the constructors.  Seeded differentials
require the same exception class and message for every mutant, and the
same public dicts, grids and amplitudes, bit for bit, for every document
that loads.  The quantum-side checks at the end hold the loaded advice to
Tsirelson's bound and to no-signalling.
"""

import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

from qgamelab import bayes, formats
from qgamelab.bayes import (
    BayesianGame,
    BellExpression,
    ClassicalAdvice,
    QuantumAdvice,
    bell_value,
    conditional_of,
    phase_basis,
)
from qgamelab.errors import (
    DimensionLimitError,
    DomainMismatchError,
    FormatError,
    GameLabError,
    UnsupportedDimensionError,
)
from qgamelab.ewl import QuantumGameSpec, ewl_entangler
from qgamelab.formats import (
    _built,
    _check_keys,
    _int,
    _label_lists,
    _number,
    _require,
    complex_from_json,
    parse_angle,
)
from qgamelab.linalg import (
    BUILTIN_GATES,
    LinearMap,
    StateVector,
    check_dims,
    check_wires,
    dimension_limit,
    from_matrix,
    set_dimension_limit,
)
from test_validation_rules import _mutant_texts

_BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)
import workloads  # noqa: E402  (the benchmark's document generators)


# ------------------------------------------------- the entry-by-entry oracle

def _old_matrix_from_json(rows, where, in_dims=None, out_dims=None):
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


def _old_vector_from_json(values, dims, where):
    if not isinstance(values, list) or not values:
        raise FormatError(f"{where}: expected a list of amplitudes")
    amps = np.array([complex_from_json(v, f"{where}[{i}]")
                     for i, v in enumerate(values)])
    dims = tuple(int(d) for d in dims)
    if len(amps) != math.prod(dims):
        raise FormatError(
            f"{where}: {len(amps)} amplitudes do not fill wires {dims}")
    return StateVector(amps, dims)


def _old_ewl_from_json(doc):
    _check_keys(doc, formats._EWL_KEYS, "ewl spec")
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
    elif isinstance(raw_ent, dict):
        _check_keys(raw_ent, {"matrix"}, "entangler")
        entangler = _old_matrix_from_json(
            _require(raw_ent, "matrix", "entangler"), "entangler.matrix")
        wire_dims = check_wires(dim, players, "in_dims")
        entangler = _built("entangler.matrix", LinearMap._of_finite,
                           entangler.array, wire_dims, wire_dims)
    else:
        raise FormatError(
            f"entangler: expected \"ewl\" or an object with a matrix, "
            f"got {raw_ent!r}")
    raw_sets = _require(doc, "strategies", "ewl spec")
    if not isinstance(raw_sets, list) or len(raw_sets) != players:
        raise FormatError(f"strategies: expected {players} per-player lists")
    strategy_sets = []
    for i, raw_set in enumerate(raw_sets):
        where = f"strategies[{i}]"
        if not isinstance(raw_set, list) or not raw_set:
            raise FormatError(f"{where}: expected a nonempty list")
        per = {}
        for j, entry in enumerate(raw_set):
            if isinstance(entry, str):
                if entry not in BUILTIN_GATES:
                    raise FormatError(
                        f"{where}[{j}]: unknown builtin gate {entry!r}; "
                        f"known: {sorted(BUILTIN_GATES)}")
                name, gate = entry, BUILTIN_GATES[entry]
            elif isinstance(entry, dict):
                _check_keys(entry, {"name", "matrix"}, f"{where}[{j}]")
                name = str(_require(entry, "name", f"{where}[{j}]"))
                gate = _old_matrix_from_json(
                    _require(entry, "matrix", f"{where}[{j}]"),
                    f"{where}[{j}].matrix", in_dims=(dim,), out_dims=(dim,))
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
            not all(isinstance(per, dict) for per in raw_coeffs):
        raise FormatError(
            f"payoff_coeffs: expected {players} outcome->number objects")
    coeffs = tuple({str(k): _number(v, f"payoff_coeffs[{i}][{k!r}]")
                    for k, v in per.items()}
                   for i, per in enumerate(raw_coeffs))
    entangled_state = None
    if "entangled_state" in doc:
        entangled_state = _old_vector_from_json(
            doc["entangled_state"], entangler.in_dims, "entangled_state")
    return _built("ewl spec", QuantumGameSpec, players, tuple(strategy_sets),
                  coeffs, entangler, dim, str(doc.get("initial_ket", "")),
                  entangled_state)


def _old_bayes_from_json(doc):
    _check_keys(doc, formats._BAYES_KEYS, "bayes spec")
    if doc.get("kind", "bayes") != "bayes":
        raise FormatError(f"bayes spec: kind is {doc.get('kind')!r}")
    players = _int(_require(doc, "players", "bayes spec"), "players", 1)
    types = _label_lists(_require(doc, "types", "bayes spec"), players,
                         "types")
    strategies = _label_lists(_require(doc, "strategies", "bayes spec"),
                              players, "strategies")
    raw_prior = _require(doc, "prior", "bayes spec")
    if not isinstance(raw_prior, dict):
        raise FormatError("prior: expected an object")
    prior = {tuple(str(k).split(",")): _number(v, f"prior[{k!r}]")
             for k, v in raw_prior.items()}
    raw_pay = _require(doc, "payoffs", "bayes spec")
    if not isinstance(raw_pay, list) or len(raw_pay) != players or \
            not all(isinstance(per, dict) for per in raw_pay):
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
        advice = _old_advice_from_json(doc["advice"], game)
    return game, advice


def _old_advice_from_json(doc, game):
    if not isinstance(doc, dict):
        raise FormatError("advice: expected an object")
    kind = _require(doc, "kind", "advice")
    if kind == "classical":
        return _old_classical_advice(doc, game)
    if kind == "quantum":
        return _old_quantum_advice(doc, game)
    raise FormatError(f"advice.kind: expected \"classical\" or "
                      f"\"quantum\", got {kind!r}")


def _old_classical_advice(doc, game):
    _check_keys(doc, {"kind", "lambdas", "rho", "responses"}, "advice")
    raw_lams = _require(doc, "lambdas", "advice")
    if not isinstance(raw_lams, list) or not raw_lams:
        raise FormatError("advice.lambdas: expected a nonempty list")
    lambdas = tuple(str(v) for v in raw_lams)
    raw_rho = _require(doc, "rho", "advice")
    if not isinstance(raw_rho, dict):
        raise FormatError("advice.rho: expected an object")
    rho = {str(k): _number(v, f"advice.rho[{k!r}]")
           for k, v in raw_rho.items()}
    raw_resp = _require(doc, "responses", "advice")
    if not isinstance(raw_resp, list) or len(raw_resp) != game.players:
        raise FormatError(
            f"advice.responses: expected {game.players} objects")
    responses = []
    for i, per in enumerate(raw_resp):
        if not isinstance(per, dict):
            raise FormatError(f"advice.responses[{i}]: expected an object")
        table = {}
        for key, row in per.items():
            where = f"advice.responses[{i}][{key!r}]"
            parts = str(key).split("|")
            if len(parts) != 2:
                raise FormatError(
                    f"{where}: key must look like \"type|lambda\"")
            if not isinstance(row, dict):
                raise FormatError(f"{where}: expected an object")
            table[(parts[0], parts[1])] = {
                str(s): _number(v, f"{where}[{s!r}]")
                for s, v in row.items()}
        responses.append(table)
    return _built("advice", ClassicalAdvice, game.types, game.strategies,
                  lambdas, rho, tuple(responses))


def _old_quantum_advice(doc, game):
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
    state = _old_vector_from_json(raw_state, dims, "advice.state")
    raw_meas = _require(doc, "measurements", "advice")
    if not isinstance(raw_meas, list) or len(raw_meas) != n:
        raise FormatError(f"advice.measurements: expected {n} objects")
    measurements = []
    for i, per in enumerate(raw_meas):
        if not isinstance(per, dict):
            raise FormatError(
                f"advice.measurements[{i}]: expected an object")
        table = {}
        for x, entry in per.items():
            where = f"advice.measurements[{i}][{x!r}]"
            if not isinstance(entry, dict):
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
                    _old_vector_from_json(v, (dims[i],),
                                          f"{where}.basis[{k}]")
                    for k, v in enumerate(vecs))
            else:
                raise FormatError(f"{where}: needs \"phase\" or \"basis\"")
        measurements.append(table)
    return _built("advice", QuantumAdvice, game.types, game.strategies,
                  state, tuple(measurements))


def _old_loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"expected a JSON object, got "
                          f"{type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "ewl":
        return "ewl", _old_ewl_from_json(doc)
    if kind == "bayes":
        return "bayes", _old_bayes_from_json(doc)
    raise FormatError(f"kind: expected \"ewl\" or \"bayes\", got {kind!r}")


# ----------------------------------------------------------- comparison

def _bits(value):
    """Everything a loaded value holds, down to the bytes of its floats:
    a -0.0 and a 0.0, or two orders of one dict, compare unequal."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, dict):
        return "dict", [(_bits(k), _bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, sorted(
            (k, _bits(v)) for k, v in vars(value).items())
    return type(value).__name__, value


def _outcome(load, text):
    """The bits of what ``load`` gives, its conditional reduced too, or
    the class and message of what it raised."""
    try:
        kind, loaded = load(text)
    except GameLabError as exc:
        return type(exc), str(exc)
    if kind == "bayes" and loaded[1] is not None:
        conditional_of(loaded[1])
    return kind, _bits(loaded)


def _assert_same(texts):
    """Both loaders agree on every text; returns the outcome kinds."""
    kinds = []
    for text in texts:
        got, want = _outcome(formats.loads, text), _outcome(_old_loads, text)
        assert got == want, text[:300]
        kinds.append(got[0])
    return kinds


# --------------------------------------------------------------- documents

def _generator_texts(rounds=range(3), seeds=(1, 2, 3)):
    """The bell_scan and ewl_sweep documents of the benchmark."""
    out = []
    for name in ("bell_scan", "ewl_sweep"):
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed, "")
            out += [q.args["text"] for r in rounds
                    for q in workload.round(r) if "text" in q.args]
    return out


def _paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_BAD_VALUES = (True, False, "1", "x", float("nan"), float("inf"),
               10 ** 400, -10 ** 400, None, [], {}, [1.0], [1.0, 2.0, 3.0],
               [True, 0.0], ["0", 1.0], 0, -0.0, 1e308, 2.5)


def _seeded_mutants(texts, seed, count):
    """``count`` seeded mutants of each document: a value replaced by a
    bool, string, NaN, huge int or misshapen value; a key deleted, added or
    malformed; or a label repeated while a value elsewhere goes bad."""
    rng = np.random.default_rng(seed)
    for text in texts:
        doc = json.loads(text)
        paths = list(_paths(doc))
        objects = [p for p, v in paths if isinstance(v, dict)]
        labels = [p for p, v in paths if isinstance(p[-1], int) and (
            p[0] in ("types", "strategies") or p[:2] == ("advice",
                                                         "lambdas"))]
        for _ in range(count):
            mutant = json.loads(text)
            how = rng.integers(6)
            path, _ = paths[rng.integers(len(paths))]
            parent = _at(mutant, path[:-1])
            if how <= 1:
                parent[path[-1]] = _BAD_VALUES[rng.integers(
                    len(_BAD_VALUES))]
            elif how == 2:
                del parent[path[-1]]
            elif how == 3 and objects:
                obj = _at(mutant, objects[rng.integers(len(objects))])
                obj[str(rng.choice(["z", "0,z", "0|0", "0,0|0,z", "X,X|9"]))] \
                    = float(rng.choice([0.0, 0.5, 1.0]))
            elif how == 4 and objects:
                obj = _at(mutant, objects[rng.integers(len(objects))])
                if obj:
                    key = list(obj)[rng.integers(len(obj))]
                    bent = str(rng.choice([key + "|0", key + ",0",
                                           " " + key, key.replace("|", ","),
                                           key.replace(",", "|", 1)]))
                    obj[bent] = obj.pop(key)
            elif labels:
                lab = labels[rng.integers(len(labels))]
                per = _at(mutant, lab[:-1])
                per[lab[-1]] = per[lab[-1] - 1] if lab[-1] else per[-1]
                parent[path[-1]] = _BAD_VALUES[rng.integers(
                    len(_BAD_VALUES))]
            yield json.dumps(mutant)


# ------------------------------------------------------ the differentials

@pytest.mark.parametrize("limit", [None, 4])
def test_documented_mutants_fail_alike_under_both_loaders(limit):
    """The mutants of the documented-errors test, with truncations, give
    the same class and message under both loaders, or load to the same
    objects; also under a dimension cap some documents hit."""
    texts = list(_mutant_texts())
    texts += [text[:cut] for text in texts[:40] for cut in (1, 57, 300)]
    old_limit = dimension_limit()
    if limit is not None:
        set_dimension_limit(limit)
    try:
        kinds = _assert_same(texts)
    finally:
        set_dimension_limit(old_limit)
    assert {"ewl", "bayes", FormatError} <= set(kinds)
    if limit is not None:
        assert DimensionLimitError in kinds


def test_seeded_generator_mutants_fail_alike_under_both_loaders():
    texts = _generator_texts(rounds=range(1), seeds=(5,))
    kinds = _assert_same(_seeded_mutants(texts, 20261019, 40))
    assert kinds.count(FormatError) > 500
    assert {"ewl", "bayes"} <= set(kinds)


def test_valid_documents_load_to_the_same_objects_bit_for_bit():
    texts = [formats.fixture_text(name) for name in formats.FIXTURE_NAMES]
    texts += _generator_texts()
    kinds = _assert_same(texts)
    assert set(kinds) == {"ewl", "bayes"}


def test_a_negative_zero_part_is_kept():
    kind, (game, advice) = formats.load_fixture("mermin_ghz3.json")
    amps = np.array([v.amplitudes for v in advice.measurements[0]["X"]])
    assert math.copysign(1.0, amps[1, 1].imag) == -1.0


def test_valid_documents_read_no_entry_alone(monkeypatch):
    """No number of a valid document is read by itself, and no Bayes table
    is laid out from a label-keyed dict."""
    def refuse(*args):
        raise AssertionError(f"read entry by entry: {args}")

    texts = [formats.fixture_text(name) for name in formats.FIXTURE_NAMES]
    texts += _generator_texts(rounds=range(2), seeds=(1,))
    monkeypatch.setattr(formats, "_number", refuse)
    monkeypatch.setattr(formats, "complex_from_json", refuse)
    monkeypatch.setattr(bayes, "_grid", refuse)
    for text in texts:
        formats.loads(text)


def test_an_overflowing_amplitude_is_refused_with_no_warning():
    """|1e308|^2 overflows; the state is then not normalized, which is a
    FormatError, and no RuntimeWarning goes to stderr first."""
    bayes_doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    bayes_doc["advice"]["state"][0] = [1e308, 0.0]
    ewl_doc = json.loads(formats.fixture_text("pd_ewl_3strat.json"))
    ewl_doc["entangled_state"] = [[0.0, 1e308], [0, 0], [0, 0], [0, 0]]
    for doc, where in ((bayes_doc, "advice: shared state"),
                       (ewl_doc, "ewl spec: entangled state")):
        with pytest.raises(FormatError, match=f"^{where} is not normalized"):
            formats.loads(json.dumps(doc))


def test_a_non_json_mapping_is_refused_by_name():
    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    doc["prior"] = {k: np.float64(v) for k, v in doc["prior"].items()}
    with pytest.raises(FormatError, match="^bayes spec: tables must map "):
        formats.bayes_from_json(doc)


# ------------------------------------------------- quantum-side oracles

TSIRELSON = math.cos(math.pi / 8) ** 2


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d))
                        + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _chsh_with_advice(rng):
    """The CHSH fixture with seeded qubit advice: a random two-qubit state
    and a random orthonormal basis per player and type."""
    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    doc["advice"] = {"kind": "quantum", "dims": [2, 2],
                     "state": [[z.real, z.imag] for z in psi],
                     "measurements": [
                         {x: {"basis": [[[z.real, z.imag] for z in row]
                                        for row in _random_unitary(rng, 2)]}
                          for x in ("0", "1")} for _ in range(2)]}
    return json.dumps(doc)


def test_seeded_qubit_advice_never_beats_tsirelson():
    rng = np.random.default_rng(8)
    best = 0.0
    for _ in range(300):
        _, (game, advice) = formats.loads(_chsh_with_advice(rng))
        value = bell_value(BellExpression.from_payoff(game, 0), advice)
        assert value <= TSIRELSON + 1e-12
        assert conditional_of(advice).signaling_deviation() < 1e-12
        best = max(best, value)
    assert best > 0.75   # some draws beat every classical strategy


def test_the_chsh_fixture_attains_tsirelson():
    _, (game, advice) = formats.load_fixture("chsh_common_interest.json")
    value = bell_value(BellExpression.from_payoff(game, 0), advice)
    assert abs(value - TSIRELSON) <= 1e-15


def test_loaded_quantum_advice_does_not_signal():
    texts = [formats.fixture_text(name) for name in formats.FIXTURE_NAMES]
    texts += _generator_texts(rounds=range(2))
    checked = 0
    for text in texts:
        kind, loaded = formats.loads(text)
        if kind == "bayes" and isinstance(loaded[1], QuantumAdvice):
            assert conditional_of(loaded[1]).signaling_deviation() < 1e-12
            checked += 1
    assert checked >= 20
