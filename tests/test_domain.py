"""One domain for the Bayes layer: every label-keyed class checks that it
has one strategy list per type list, and the paths from a checked grid
give, bit for bit, what the old label-keyed round trips gave."""

import itertools
import json

import numpy as np
import pytest

from qgamelab import formats
from qgamelab.bayes import (
    CHSH_PHASES,
    DEFAULT_ENUMERATION_LIMIT,
    EQUILIBRIUM_TOL,
    BayesianGame,
    BellExpression,
    ClassicalAdvice,
    ConditionalDistribution,
    QuantumAdvice,
    certify_payoff_inequality,
    chsh_game,
    classical_bound,
    classical_conditional,
    ghz_state,
    phase_basis,
)
from qgamelab.errors import DomainMismatchError
from qgamelab.linalg import StateVector

BITS = ("0", "1")
ONE_QUBIT = StateVector(np.array([1.0, 0.0]), (2,))
CHSH_BASES = tuple({x: phase_basis(a) for x, a in per.items()}
                   for per in CHSH_PHASES)


# ------------------------------------------------------- the count check

@pytest.mark.parametrize("build", [
    lambda: BayesianGame((BITS,), (BITS, BITS),
                         {("0",): 0.5, ("1",): 0.5}, ({},)),
    lambda: ConditionalDistribution((BITS,), (BITS, BITS), {}),
    lambda: ClassicalAdvice((BITS,), (BITS, BITS), ("0",), {"0": 1.0},
                            ({},)),
    lambda: ClassicalAdvice.deterministic((BITS,), (BITS, BITS),
                                          ({"0": "0", "1": "1"},)),
    lambda: QuantumAdvice((BITS,), (BITS, BITS), ONE_QUBIT,
                          CHSH_BASES[:1]),
    lambda: BellExpression((BITS,), (BITS, BITS), {}),
], ids=["game", "conditional", "classical", "deterministic", "quantum",
        "expression"])
def test_one_type_list_and_two_strategy_lists_fail_at_construction(build):
    with pytest.raises(DomainMismatchError,
                       match="1 type sets but 2 strategy sets"):
        build()


def test_quantum_advice_with_too_few_strategy_lists_fails_at_construction():
    with pytest.raises(DomainMismatchError,
                       match="2 type sets but 1 strategy sets"):
        QuantumAdvice((BITS, BITS), (BITS,), ghz_state(2), CHSH_BASES)


def test_every_class_shares_the_domain_helpers():
    game = chsh_game()
    expr = BellExpression(game.types, game.strategies, {})
    assert expr.players == 2
    assert expr.joint_types() == game.joint_types()
    assert expr.joint_strategies() == game.joint_strategies()
    other = BellExpression((BITS, ("a", "b")), game.strategies, {})
    with pytest.raises(DomainMismatchError, match="here: domains disagree"):
        expr._check_same_domain(other, "here")


def test_classical_conditional_reads_the_checked_response_grids():
    # a one-strategy player 0 and a three-strategy player 1, two lambdas
    types = (("x", "y"), ("u", "v", "w"))
    strategies = (("only",), ("a", "b", "c"))
    rng = np.random.default_rng(5)
    responses = (
        {(x, lam): {"only": 1.0} for x in types[0] for lam in "01"},
        {(x, lam): dict(zip(strategies[1], map(float, rng.dirichlet(
            np.ones(3))))) for x in types[1] for lam in "01"})
    advice = ClassicalAdvice(types, strategies, ("0", "1"),
                             {"0": 0.25, "1": 0.75}, responses)
    cond = classical_conditional(advice)
    for jt in cond.joint_types():
        for js in cond.joint_strategies():
            want = sum(advice.rho[lam]
                       * advice.responses[0][(jt[0], lam)][js[0]]
                       * advice.responses[1][(jt[1], lam)][js[1]]
                       for lam in advice.lambdas)
            assert cond.prob(jt, js) == pytest.approx(want, abs=1e-15)


# ----------------------------------------- the old round trips, as oracles

def _old_from_payoff(game, player):
    return BellExpression(game.types, game.strategies, {
        key: game.prior[key[0]] * p
        for key, p in game.payoffs[player].items()})


def _old_certify(game, inequality, limit=DEFAULT_ENUMERATION_LIMIT,
                 tol=EQUILIBRIUM_TOL):
    values = [float(v) for v in inequality]
    beta0, betas = values[0], values[1:]
    expr = BellExpression(game.types, game.strategies, {
        key: game.prior[key[0]] * sum(
            b * table[key] for b, table in zip(betas, game.payoffs))
        for key in game.payoffs[0]})
    best = classical_bound(expr, limit)
    return best <= beta0 + tol, best


def _bits(values) -> bytes:
    return np.array(list(values), dtype=float).tobytes()


def _assert_same_expression(got, want):
    assert got.types == want.types and got.strategies == want.strategies
    assert list(got.coefficients) == list(want.coefficients)
    assert _bits(got.coefficients.values()) == \
        _bits(want.coefficients.values())
    assert got._alpha.shape == want._alpha.shape
    assert got._alpha.tobytes() == want._alpha.tobytes()
    assert got.bound is want.bound is None


def _random_game(rng, sizes):
    types = tuple(tuple(f"x{k}" for k in range(x)) for x, _ in sizes)
    strategies = tuple(tuple(f"s{k}" for k in range(s)) for _, s in sizes)
    joint_types = list(itertools.product(*types))
    keys = list(itertools.product(joint_types,
                                  itertools.product(*strategies)))
    mu = rng.dirichlet(np.ones(len(joint_types)))
    mu[rng.random(len(mu)) < 0.2] = 0.0
    prior = dict(zip(joint_types, map(float, mu / mu.sum())))
    payoffs = tuple(dict(zip(keys, map(float, rng.normal(size=len(keys))
                                       * rng.integers(0, 2, len(keys)))))
                    for _ in sizes)
    return BayesianGame(types, strategies, prior, payoffs)


def _games():
    for name in formats.FIXTURE_NAMES:
        kind, loaded = formats.game_from_json(
            json.loads(formats.fixture_text(name)))
        if kind == "bayes":
            yield loaded[0]
    rng = np.random.default_rng(2024)
    for sizes in ([(2, 2), (2, 2)], [(1, 3), (3, 1)], [(2, 3), (3, 2)],
                  [(2, 2)] * 3, [(3, 2), (1, 1), (2, 3)]):
        for _ in range(6):
            yield _random_game(rng, sizes)


def test_grid_paths_match_the_old_round_trips_bit_for_bit():
    rng = np.random.default_rng(77)
    games = list(_games())
    assert len(games) >= 32
    checked = 0
    for game in games:
        for i in range(game.players):
            _assert_same_expression(BellExpression.from_payoff(game, i),
                                    _old_from_payoff(game, i))
        for _ in range(4):
            inequality = [float(rng.normal())] + [
                float(v) for v in rng.normal(size=game.players)
                * rng.integers(-1, 2, game.players)]
            got = certify_payoff_inequality(game, inequality)
            want = _old_certify(game, inequality)
            assert got[0] is want[0]
            assert got[1].hex() == want[1].hex(), (game.types, inequality)
            checked += 1
    assert checked == 4 * len(games)
