"""The arrays a constructor checks are the arrays its readers use.

A game keeps its checked prior row as ``_mu``, classical advice its
checked rho row, and quantum advice the stack of bras its orthonormality
check builds.  The old readers rebuilt these from the public dicts and
StateVector tuples; they are kept here as oracles, and every result must
equal theirs byte for byte, on the fixtures, on games built from grids
and from label-keyed tables, and on seeded classical and quantum advice.
"""

import itertools

import numpy as np
import pytest

from qgamelab import formats
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
    classical_conditional,
    chsh_expression,
    mermin_game,
    mermin_quantum_advice,
    quantum_conditional,
)
from qgamelab.linalg import StateVector, apply_on_wires

from test_bayes import _random_classical_advice, _random_quantum_advice


def _old_mu(game):
    n = game.players
    shape = game._shape()
    return np.reshape(list(game.prior.values()), shape[:n] + (1,) * n)


def _old_classical_conditional(advice):
    n = advice.players
    operands, sizes = [np.array(list(advice.rho.values())), [n]], []
    for i, grid in enumerate(advice._responses):
        x_i, lam, s_i = grid.shape
        operands += [grid.transpose(1, 2, 0).reshape(lam, -1), [n, i]]
        sizes += s_i, x_i
    p = np.einsum(*operands, list(range(n))).reshape(sizes)
    return ConditionalDistribution._of_grid(
        advice, np.moveaxis(p, range(1, 2 * n, 2), range(n)))


def _old_quantum_conditional(advice):
    n = advice.players
    psi = advice.shared_state.amplitudes.reshape(advice.shared_state.dims)
    bras = [np.stack([[b.amplitudes for b in per[x]] for x in x_i], -1).conj()
            for per, x_i in zip(advice.measurements, advice.types)]
    out = np.moveaxis(apply_on_wires(bras, psi), range(1, 2 * n, 2), range(n))
    return ConditionalDistribution._of_grid(advice, np.abs(out) ** 2)


def _old_conditional(advice):
    if isinstance(advice, ClassicalAdvice):
        return _old_classical_conditional(advice)
    return _old_quantum_conditional(advice)


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_floats(got, want):
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def _check(game, advice):
    mu = _old_mu(game)
    _same_array(game._mu, mu)
    alphas = mu * game._pay
    _same_array(game._alphas, alphas)
    if advice is None:
        return
    new = (classical_conditional if isinstance(advice, ClassicalAdvice)
           else quantum_conditional)(advice)
    old = _old_conditional(advice)
    _same_array(new._p, old._p)
    assert list(new.table.items()) == list(old.table.items())
    _same_floats(average_payoff(game, advice),
                 [(alpha * old._p).sum() for alpha in alphas])
    for i in range(game.players):
        expr = BellExpression.from_payoff(game, i)
        _same_floats([bell_value(expr, advice)],
                     [(alphas[i] * old._p).sum()])


def _random_game(rng, advice):
    """A seeded game on the domain of ``advice``, with a zero in its
    prior now and then, built from its label-keyed tables."""
    joint_types = advice.joint_types()
    mu = rng.dirichlet(np.ones(len(joint_types)))
    if len(mu) > 1 and rng.random() < 0.5:
        mu[rng.integers(len(mu))] = 0.0
        mu /= mu.sum()
    cells = advice._cells()
    payoffs = tuple(dict(zip(cells, map(float, rng.normal(size=len(cells)))))
                    for _ in range(advice.players))
    return BayesianGame(advice.types, advice.strategies,
                        dict(zip(joint_types, map(float, mu))), payoffs)


@pytest.mark.parametrize("name", ["chsh_common_interest.json",
                                  "mermin_ghz3.json"])
def test_fixtures_read_the_checked_arrays(name):
    kind, (game, advice) = formats.load_fixture(name)
    assert kind == "bayes"
    _check(game, advice)


@pytest.mark.parametrize("build, advice", [
    (chsh_game, chsh_quantum_advice), (mermin_game, mermin_quantum_advice)])
def test_grid_built_games_read_the_checked_arrays(build, advice):
    _check(build(), advice())
    assert classical_bound(chsh_expression()) == 0.75


def test_seeded_advice_reads_the_checked_arrays():
    rng = np.random.default_rng(2024)
    for trial in range(120):
        advice = (_random_quantum_advice if trial % 2
                  else _random_classical_advice)(rng, trial // 2)
        game = _random_game(rng, advice)
        _check(game, advice)
        # the loader builds both the game and classical advice from grids
        kind, (loaded, again) = formats.loads(formats.dumps(game, advice))
        assert (loaded, again) == (game, advice)
        _check(loaded, again)


def test_one_strategy_and_one_type_stacks_read_the_checked_bras():
    # a dimension-1 wire and a single type give stacks whose axes of
    # length 1 could be merged into views; the result must not change
    state = StateVector(np.array([0.6, 0.8j]), (1, 2))
    one = (StateVector(np.array([1.0]), (1,)),)
    h = (StateVector(np.array([0.6, 0.8]), (2,)),
         StateVector(np.array([0.8, -0.6]), (2,)))
    for types in ((("x",), ("y",)), (("x", "z"), ("y",)),
                  (("x",), ("y", "w"))):
        advice = QuantumAdvice(types, (("s",), ("a", "b")), state, (
            dict.fromkeys(types[0], one), dict.fromkeys(types[1], h)))
        _check(_random_game(np.random.default_rng(len(types[0])), advice),
               advice)


def test_nature_prior_pushes_forward_the_checked_row():
    game = BayesianGame.from_nature(
        ["w0", "w1", "w2", "w3"], {"w0": 0.1, "w1": 0.2, "w2": 0.3,
                                   "w3": 0.4},
        [{"w0": "a", "w1": "a", "w2": "b", "w3": "b"},
         {"w0": "c", "w1": "d", "w2": "c", "w3": "c"}],
        (("s",), ("t",)),
        tuple({((x, y), ("s", "t")): 1.0
               for x, y in itertools.product("ab", "cd")}
              for _ in range(2)))
    want = {("a", "c"): 0.1, ("a", "d"): 0.2, ("b", "c"): 0.3 + 0.4,
            ("b", "d"): 0.0}
    assert list(game.prior.items()) == list(want.items())
    _check(game, None)
