"""Each validated table keeps its dense grid, built once in its
constructor, and each advice object reduces to its conditional once."""

import itertools

import numpy as np
import pytest

from qgamelab import bayes, ewl
from qgamelab.bayes import (
    BayesianGame,
    BellExpression,
    ClassicalAdvice,
    ConditionalDistribution,
    QuantumAdvice,
    average_payoff,
    bell_value,
    chsh_expression,
    chsh_game,
    chsh_quantum_advice,
    classical_bound,
    classical_optimum,
    conditional_of,
    equivalence_of_conditionals,
    ghz_state,
    is_advised_equilibrium,
    mermin_expression,
    mermin_game,
    mermin_quantum_advice,
    payoff_polytope_check,
    quantum_conditional,
)
from qgamelab.errors import DomainMismatchError
from qgamelab.ewl import StrategicFormGame, pareto_optimal, pure_nash

BITS = ("0", "1")


def _random_game(rng, sizes):
    """A game on (|X_i|, |S_i|) per player: nonuniform prior, distinct
    integer payoffs per player."""
    types = tuple(tuple(f"x{k}" for k in range(x)) for x, _ in sizes)
    strategies = tuple(tuple(f"s{k}" for k in range(s)) for _, s in sizes)
    joint_types = list(itertools.product(*types))
    keys = list(itertools.product(joint_types,
                                  itertools.product(*strategies)))
    mu = rng.integers(1, 9, size=len(joint_types)).astype(float)
    prior = dict(zip(joint_types, map(float, mu / mu.sum())))
    payoffs = tuple(dict(zip(keys, map(float, rng.integers(
        -5, 6, size=len(keys))))) for _ in sizes)
    return BayesianGame(types, strategies, prior, payoffs)


def _random_conditional(rng, game):
    joint_strategies = game.joint_strategies()
    return ConditionalDistribution(game.types, game.strategies, {
        jt: dict(zip(joint_strategies, map(float, rng.dirichlet(
            np.ones(len(joint_strategies))))))
        for jt in game.joint_types()})


def _random_classical_advice(rng, game):
    lambdas = ("a", "b", "c")
    rho = dict(zip(lambdas, map(float, rng.dirichlet(np.ones(3)))))
    responses = tuple(
        {(x, lam): dict(zip(s_i, map(float, rng.dirichlet(
            np.ones(len(s_i)))))) for x in x_i for lam in lambdas}
        for x_i, s_i in zip(game.types, game.strategies))
    return ClassicalAdvice(game.types, game.strategies, lambdas, rho,
                           responses)


# square domains (|X_i| = |S_i|) make a prior broadcast along the wrong
# axes line up instead of failing
SIZES = (((2, 2), (2, 2)), ((3, 3), (3, 3)), ((2, 3), (3, 2)),
         ((2, 2), (2, 2), (2, 2)), ((1, 3), (3, 1)), ((2, 2),))


def test_game_alphas_are_prior_times_each_players_payoff():
    rng = np.random.default_rng(2057)
    for sizes in SIZES:
        game = _random_game(rng, sizes)
        n = game.players
        assert game._alphas.shape == (n,) + tuple(
            len(x) for x in game.types) + tuple(
            len(s) for s in game.strategies)
        for i in range(n):
            for index in np.ndindex(game._alphas.shape[1:]):
                jt = tuple(x[k] for x, k in zip(game.types, index[:n]))
                js = tuple(s[k] for s, k in zip(game.strategies, index[n:]))
                want = game.prior[jt] * game.payoffs[i][(jt, js)]
                assert game._alphas[(i,) + index] == want, (sizes, i, index)


def test_from_payoff_alpha_is_the_game_alpha_bit_for_bit():
    rng = np.random.default_rng(2013)
    games = [chsh_game(), mermin_game()] + [_random_game(rng, sizes)
                                            for sizes in SIZES]
    for game in games:
        for i in range(game.players):
            alpha = BellExpression.from_payoff(game, i)._alpha
            assert alpha.shape == game._alphas[i].shape
            assert alpha.tobytes() == game._alphas[i].tobytes()


def test_bell_value_of_from_payoff_is_the_average_payoff_exactly():
    rng = np.random.default_rng(4)
    for sizes in SIZES:
        game = _random_game(rng, sizes)
        for advice in (_random_conditional(rng, game),
                       _random_classical_advice(rng, game)):
            fs = average_payoff(game, advice)
            for i in range(game.players):
                expr = BellExpression.from_payoff(game, i)
                assert bell_value(expr, advice) == fs[i], (sizes, i)


def test_conditional_and_expression_grids_follow_their_tables():
    rng = np.random.default_rng(7)
    game = _random_game(rng, ((2, 3), (3, 2)))
    cond = _random_conditional(rng, game)
    expr = BellExpression(game.types, game.strategies, {
        (("x1", "x2"), ("s2", "s0")): 1.5, (("x0", "x0"), ("s0", "s1")): -2})
    n = game.players
    for index in np.ndindex(cond._p.shape):
        jt = tuple(x[k] for x, k in zip(game.types, index[:n]))
        js = tuple(s[k] for s, k in zip(game.strategies, index[n:]))
        assert cond._p[index] == cond.table[jt][js]
        assert expr._alpha[index] == expr.coefficient(jt, js)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(bayes, name)

    def counted(advice):
        calls.append(advice)
        return original(advice)

    monkeypatch.setattr(bayes, name, counted)
    return calls


def test_each_advice_is_reduced_once(monkeypatch):
    quantum = _counting(monkeypatch, "quantum_conditional")
    classical = _counting(monkeypatch, "classical_conditional")
    cases = [(chsh_game(), chsh_quantum_advice(), quantum),
             (mermin_game(), mermin_quantum_advice(), quantum),
             (chsh_game(), classical_optimum(chsh_expression()).advice(),
              classical),
             (mermin_game(), classical_optimum(mermin_expression()).advice(),
              classical)]
    for game, advice, calls in cases:
        calls.clear()
        bell_value(BellExpression.from_payoff(game, 0), advice)
        average_payoff(game, advice)
        is_advised_equilibrium(game, advice)
        payoff_polytope_check(game, [1.0] * (game.players + 1),
                              [advice, advice])
        assert conditional_of(advice) is conditional_of(advice)
        assert len(calls) == 1 and calls[0] is advice


def test_distinct_advice_objects_keep_their_own_conditional():
    types, strategies = (BITS, BITS), (BITS, BITS)
    advices = [QuantumAdvice.from_phases(
        types, strategies, ghz_state(2),
        ({"0": a, "1": a + 1.0}, {"0": -a, "1": 0.3})) for a in (0.0, 0.7)]
    conds = [conditional_of(a) for a in advices]
    for advice, cond in zip(advices, conds):
        assert cond.table == quantum_conditional(advice).table
    assert conds[0].table != conds[1].table
    # an equal advice object reduces on its own, to an equal table
    twin = QuantumAdvice.from_phases(
        types, strategies, ghz_state(2),
        ({"0": 0.0, "1": 1.0}, {"0": 0.0, "1": 0.3}))
    assert twin == advices[0]
    assert conditional_of(twin) is not conds[0]
    assert conditional_of(twin).table == conds[0].table


def test_queries_on_built_objects_rebuild_no_grid(monkeypatch):
    game = mermin_game()
    expr = mermin_expression()
    advices = [mermin_quantum_advice(), classical_optimum(expr).advice()]
    conds = [conditional_of(a) for a in advices]
    strategic = StrategicFormGame(
        (("a", "b", "c"), ("d", "e")),
        {p: (float(k), float(-k % 4)) for k, p in enumerate(
            itertools.product("abc", "de"))})

    def no_grid(*args):
        raise AssertionError("_grid called on a built object")

    monkeypatch.setattr(bayes, "_grid", no_grid)
    for advice in advices:
        bell_value(expr, advice)
        average_payoff(game, advice)
        is_advised_equilibrium(game, advice)
        payoff_polytope_check(game, (1.0, 1.0, 0.0, 0.0), [advice])
    classical_bound(expr)
    equivalence_of_conditionals(*conds)
    conds[0].signaling_deviation()
    pure_nash(strategic)
    pareto_optimal(strategic)


def test_strategic_form_pay_is_the_table_in_position_order():
    rng = np.random.default_rng(11)
    for counts in ((2, 3), (3, 2), (2, 3, 4), (4, 1, 2)):
        labels = tuple(tuple(f"p{i}s{k}" for k in range(c))
                       for i, c in enumerate(counts))
        table = {p: tuple(map(float, rng.integers(-9, 10, len(counts))))
                 for p in itertools.product(*labels)}
        game = StrategicFormGame(labels, table)
        assert game._pay.shape == counts + (len(counts),)
        for index in np.ndindex(counts):
            profile = tuple(per[k] for per, k in zip(labels, index))
            assert tuple(game._pay[index]) == table[profile], index


def test_equal_inputs_give_equal_objects_with_no_array_in_repr():
    def builds():
        game = chsh_game()
        cond = conditional_of(chsh_quantum_advice())
        table = ewl.PD_PAYOFFS
        return (game, chsh_expression(), cond, chsh_quantum_advice(),
                StrategicFormGame((("C", "D"), ("C", "D")), table))

    first, second = builds(), builds()
    conditional_of(first[3])  # one advice has its conditional cached
    for a, b in zip(first, second):
        assert a == b
        assert repr(a) == repr(b)
        assert "array" not in repr(a)
        for private in ("_alphas", "_alpha", "_p", "_pay", "_conditional"):
            assert private not in repr(a)


def test_deterministic_advice_with_too_many_maps_is_a_domain_mismatch():
    with pytest.raises(DomainMismatchError, match="2 response tables for 1"):
        ClassicalAdvice.deterministic([BITS], [BITS],
                                      [{"0": "0", "1": "1"}, {"0": "1"}])


def test_deterministic_advice_with_too_few_maps_is_a_domain_mismatch():
    with pytest.raises(DomainMismatchError, match="player 1 has no response"):
        ClassicalAdvice.deterministic([BITS, BITS], [BITS, BITS],
                                      [{"0": "0", "1": "1"}])


def test_deterministic_map_without_a_type_is_a_domain_mismatch():
    with pytest.raises(DomainMismatchError,
                       match="player 0 has no response row for type 'b'"):
        ClassicalAdvice.deterministic([["a", "b"]], [["x"]], [{"a": "x"}])

