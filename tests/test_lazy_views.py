"""Label-keyed public fields are views of the checked arrays.

Each class keeps the arrays its constructor checks as its state.  Its
label-keyed fields (a game's prior and payoffs, a conditional's table,
classical advice's rho and responses, quantum advice's measurements, a
grid-built Bell expression's coefficients, a strategic-form game's
payoffs) leave ``vars()`` once checked and are built from those arrays
the first time they are read.  The eager builds the constructors used to
run are kept below as the oracle: every view must equal theirs, in order
and bit for bit.  The bases the loader stacks must equal the vectors an
entry-by-entry read of the document gives.
"""

import copy
import dataclasses
import itertools
import json
import pickle

import numpy as np
import pytest

from qgamelab import ewl, formats
from qgamelab.bayes import (
    BayesianGame,
    BellExpression,
    ClassicalAdvice,
    ConditionalDistribution,
    QuantumAdvice,
    average_payoff,
    bell_value,
    chsh_game,
    chsh_quantum_advice,
    classical_bound,
    conditional_of,
    is_advised_equilibrium,
    mermin_game,
    mermin_quantum_advice,
)
from qgamelab.ewl import StrategicFormGame, to_strategic_form
from qgamelab.linalg import StateVector

from test_bayes import _random_classical_advice, _random_quantum_advice
from test_grid_loader import _bits, _generator_texts
from test_kept_arrays import _random_game

VIEWS = {
    BayesianGame: ("prior", "payoffs"),
    ConditionalDistribution: ("table",),
    ClassicalAdvice: ("rho", "responses"),
    QuantumAdvice: ("measurements",),
    BellExpression: ("coefficients",),
    StrategicFormGame: ("payoffs",),
}


# ------------------------------------------------- the eager oracle

def _eager(obj) -> dict:
    """The label-keyed fields as the constructors built them eagerly,
    from the arrays they had just checked."""
    if isinstance(obj, BayesianGame):
        cells = obj._cells()
        return {"prior": dict(zip(obj.joint_types(),
                                  obj._mu.ravel().tolist())),
                "payoffs": tuple(
                    dict(zip(cells, row))
                    for row in obj._pay.reshape(obj.players, -1).tolist())}
    if isinstance(obj, ConditionalDistribution):
        joint_strategies = obj.joint_strategies()
        rows = obj._p.reshape(len(obj.joint_types()), -1)
        return {"table": {jt: dict(zip(joint_strategies, row))
                          for jt, row in zip(obj.joint_types(),
                                             rows.tolist())}}
    if isinstance(obj, ClassicalAdvice):
        tables = []
        for i, (s_i, grid) in enumerate(zip(obj.strategies,
                                            obj._responses)):
            keys = list(itertools.product(obj.types[i], obj.lambdas))
            rows = grid.reshape(len(keys), -1)
            tables.append({k: dict(zip(s_i, row))
                           for k, row in zip(keys, rows.tolist())})
        return {"rho": dict(zip(obj.lambdas, obj._rho.tolist())),
                "responses": tuple(tables)}
    if isinstance(obj, QuantumAdvice):
        # the bras are (S_i, d_i, X_i); basis vector k of type x is
        # the conjugate of bras[k, :, x]
        return {"measurements": tuple(
            {x: tuple(StateVector(bras[k, :, j].conj(), (bras.shape[1],))
                      for k in range(bras.shape[0]))
             for j, x in enumerate(x_i)}
            for x_i, bras in zip(obj.types, obj._bras))}
    if isinstance(obj, BellExpression):
        return {"coefficients": dict(zip(obj._cells(),
                                         obj._alpha.ravel().tolist()))}
    if isinstance(obj, StrategicFormGame):
        rows = obj._pay.reshape(-1, obj.players)
        return {"payoffs": dict(zip(
            itertools.product(*obj.strategy_labels),
            map(tuple, rows.tolist())))}
    raise TypeError(obj)


def _same(got, want):
    assert _bits(got) == _bits(want)


def _check_views(obj):
    """Every view of ``obj`` equals the eager build, and is kept once
    read."""
    want = _eager(obj)
    for name in VIEWS[type(obj)]:
        got = getattr(obj, name)
        _same(got, want[name])
        assert vars(obj)[name] is got
        assert getattr(obj, name) is got


def _bayes_objects(game, advice):
    out = [game] + [BellExpression.from_payoff(game, i)
                    for i in range(game.players)]
    if advice is not None:
        out += [advice, conditional_of(advice)]
    return out


def _kept_array_objects():
    """The games and advice of ``test_kept_arrays``."""
    rng = np.random.default_rng(2024)
    out = []
    for trial in range(40):
        advice = (_random_quantum_advice if trial % 2
                  else _random_classical_advice)(rng, trial // 2)
        out += _bayes_objects(_random_game(rng, advice), advice)
    for build, advice in ((chsh_game, chsh_quantum_advice),
                          (mermin_game, mermin_quantum_advice)):
        out += _bayes_objects(build(), advice())
    state = StateVector(np.array([0.6, 0.8j]), (1, 2))
    one = (StateVector(np.array([1.0]), (1,)),)
    h = (StateVector(np.array([0.6, 0.8]), (2,)),
         StateVector(np.array([0.8, -0.6]), (2,)))
    out.append(QuantumAdvice((("x", "z"), ("y",)), (("s",), ("a", "b")),
                             state, ({"z": one, "x": one}, {"y": h})))
    return out


def _loaded(text):
    kind, loaded = formats.loads(text)
    if kind == "ewl":
        return [to_strategic_form(loaded)]
    return _bayes_objects(*loaded)


# ------------------------------------------------- views equal the oracle

@pytest.mark.parametrize("name", formats.FIXTURE_NAMES)
def test_fixture_views_equal_the_eager_builds(name):
    for obj in _loaded(formats.fixture_text(name)):
        _check_views(obj)


def test_kept_array_views_equal_the_eager_builds():
    for obj in _kept_array_objects():
        _check_views(obj)
    game = StrategicFormGame((("C", "D"), ("C", "D")), ewl.PD_PAYOFFS)
    _check_views(game)
    assert list(game.payoffs.items()) == list(ewl.PD_PAYOFFS.items())


def test_seeded_document_views_equal_the_eager_builds():
    for text in _generator_texts(rounds=range(2)):
        for obj in _loaded(text):
            _check_views(obj)


def _document_tables(doc):
    """A bell_scan document's tables read entry by entry: the benchmark
    writes every table in label order, with no entry missing."""
    def split(key):
        return tuple(tuple(part.split(",")) for part in key.split("|"))
    want = {"prior": {tuple(k.split(",")): v
                      for k, v in doc["prior"].items()},
            "payoffs": tuple({split(k): v for k, v in per.items()}
                             for per in doc["payoffs"])}
    advice = doc["advice"]
    if advice["kind"] == "classical":
        want["rho"] = dict(advice["rho"])
        want["responses"] = tuple(
            {tuple(k.split("|")): row for k, row in per.items()}
            for per in advice["responses"])
    else:
        want["measurements"] = tuple(
            {x: tuple(formats.vector_from_json(v, (d,), "basis")
                      for v in entry["basis"])
             for x, entry in per.items()}
            for per, d in zip(advice["measurements"], advice["dims"]))
    return want


def test_loaded_bell_scan_views_equal_the_document():
    texts = _generator_texts(rounds=range(2))
    checked = set()
    for text in texts:
        kind, loaded = formats.loads(text)
        if kind != "bayes":
            continue
        game, advice = loaded
        want = _document_tables(json.loads(text))
        for obj in (game, advice):
            for name in VIEWS[type(obj)]:
                _same(getattr(obj, name), want[name])
                checked.add(name)
    assert checked == {"prior", "payoffs", "rho", "responses",
                       "measurements"}


# ------------------------------------------------- nothing built unread

def _unread(*objs):
    for obj in objs:
        held = set(VIEWS[type(obj)]) & set(vars(obj))
        assert not held, (type(obj).__name__, held)


def test_the_bell_scan_pipeline_builds_no_view():
    count = 0
    for text in _generator_texts(rounds=range(2)):
        kind, loaded = formats.loads(text)
        if kind != "bayes":
            continue
        game, advice = loaded
        expr = BellExpression.from_payoff(game, 0)
        classical_bound(expr)
        bell_value(expr, advice)
        average_payoff(game, advice)
        is_advised_equilibrium(game, advice)
        _unread(game, advice, conditional_of(advice), expr)
        count += 1
    assert count > 0


def test_nash_and_pareto_scans_build_no_view():
    count = 0
    for text in _generator_texts(rounds=range(2)):
        kind, spec = formats.loads(text)
        if kind != "ewl":
            continue
        game = to_strategic_form(spec)
        ewl.pure_nash(game)
        ewl.pareto_optimal(game)
        _unread(game)
        count += 1
    assert count > 0


def test_the_public_constructors_defer_their_views():
    for obj in _kept_array_objects():
        _unread(obj)
    _unread(StrategicFormGame((("C", "D"), ("C", "D")), ewl.PD_PAYOFFS))
    # a table given to a Bell expression is kept as given
    expr = BellExpression((("0",),), (("a", "b"),), {(("0",), ("b",)): 2})
    assert vars(expr)["coefficients"] == {(("0",), ("b",)): 2.0}


# ------------------------------------------------- the dataclass protocols

def _objects():
    kind, (game, advice) = formats.load_fixture("chsh_common_interest.json")
    _, (mermin, quantum) = formats.load_fixture("mermin_ghz3.json")
    classical = _random_classical_advice(np.random.default_rng(7), 1)
    return [game, advice, conditional_of(advice),
            BellExpression.from_payoff(game, 1), mermin, quantum,
            classical, conditional_of(classical),
            to_strategic_form(formats.load_fixture("pd_ewl_3strat.json")[1]),
            StrategicFormGame((("C", "D"), ("C", "D")), ewl.PD_PAYOFFS)]


@pytest.mark.parametrize("how", ["pickle", "deepcopy", "replace"])
def test_copies_equal_the_original(how):
    for obj in _objects():
        if how == "pickle":
            again = pickle.loads(pickle.dumps(obj))
        elif how == "deepcopy":
            again = copy.deepcopy(obj)
        else:
            # the public constructor keeps a Bell expression's table
            again = dataclasses.replace(obj)
        if how != "replace" or not isinstance(obj, BellExpression):
            _unread(again)
        _check_views(again)
        assert again == obj and type(again) is type(obj)
        for name in VIEWS[type(obj)]:
            _same(getattr(again, name), getattr(obj, name))


def test_eq_and_repr_read_the_views():
    for obj, twin in zip(_objects(), _objects()):
        assert obj == twin
        text = repr(obj)
        for name in VIEWS[type(obj)]:
            assert f"{name}={getattr(twin, name)!r}" in text
    game = chsh_game()
    other = dataclasses.replace(
        game, prior=dict.fromkeys(game.prior, 0.0) | {("0", "0"): 1.0})
    assert other != game


def test_an_unknown_attribute_is_still_an_attribute_error():
    game = chsh_game()
    assert not hasattr(game, "nope")
    with pytest.raises(AttributeError, match="'BayesianGame' object has no "
                                             "attribute 'nope'"):
        game.nope  # noqa: B018
    # an instance with no state yet, as copy and pickle make, has no view
    # and does not recurse looking for one
    for cls in VIEWS:
        blank = cls.__new__(cls)
        for name in VIEWS[cls]:
            assert not hasattr(blank, name)
        assert not hasattr(blank, "__setstate__")


def test_a_loaded_quantum_advice_equals_the_public_build():
    for name in ("chsh_common_interest.json", "mermin_ghz3.json"):
        kind, (game, advice) = formats.load_fixture(name)
        read = copy.deepcopy(advice).measurements
        public = QuantumAdvice(game.types, game.strategies,
                               advice.shared_state, read)
        _same(public, advice)
        _same(conditional_of(public), conditional_of(advice))
