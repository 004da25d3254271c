import itertools
import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qgamelab.bayes import (
    CHSH_PHASES,
    MERMIN_SETTINGS,
    BayesianGame,
    BellExpression,
    ClassicalAdvice,
    ConditionalDistribution,
    QuantumAdvice,
    average_payoff,
    bell_value,
    certify_payoff_inequality,
    chsh_expression,
    chsh_game,
    chsh_quantum_advice,
    classical_bound,
    classical_conditional,
    classical_optimum,
    conditional_of,
    equivalence_of_conditionals,
    ghz_phase_distribution,
    ghz_state,
    is_advised_equilibrium,
    mermin_expression,
    mermin_game,
    mermin_inequivalence,
    mermin_quantum_advice,
    parity,
    payoff_polytope_check,
    phase_basis,
    quantum_conditional,
)
from qgamelab.errors import (
    DomainMismatchError,
    EnumerationLimitError,
    NormalizationError,
    ShapeMismatchError,
)
from qgamelab.linalg import StateVector, apply_on_wires, ket

CHSH_QUANTUM = math.cos(math.pi / 8) ** 2  # 0.8535533905932737

BITS = ("0", "1")


def _pd_bayesian():
    """Prisoner's dilemma as a one-type-per-player Bayesian game."""
    types = (("t",), ("t",))
    strategies = (("C", "D"), ("C", "D"))
    pay = {("C", "C"): (3.0, 3.0), ("C", "D"): (0.0, 5.0),
           ("D", "C"): (5.0, 0.0), ("D", "D"): (1.0, 1.0)}
    tables = tuple(
        {(("t", "t"), js): v[i] for js, v in pay.items()} for i in range(2))
    return BayesianGame(types, strategies, {("t", "t"): 1.0}, tables)


# ---------------------------------------------------------------- CHSH

def test_chsh_game_structure():
    game = chsh_game()
    assert game.types == ((("0", "1"))[0:2], ("0", "1"))
    assert game.prior == {jt: 0.25 for jt in game.joint_types()}
    for (x1, x2) in game.joint_types():
        for (s1, s2) in game.joint_strategies():
            want = 1.0 if (int(s1) ^ int(s2)) == int(x1) * int(x2) else 0.0
            for table in game.payoffs:
                assert table[((x1, x2), (s1, s2))] == want


def test_chsh_classical_bound_is_three_quarters_exactly():
    assert classical_bound(chsh_expression()) == 0.75


def test_chsh_classical_optimum_is_deterministic_and_reproducible():
    first = classical_optimum(chsh_expression())
    second = classical_optimum(chsh_expression())
    assert first.value == second.value == 0.75
    assert first.responses == second.responses
    assert first.responses == ({"0": "0", "1": "0"}, {"0": "0", "1": "0"})
    advice = first.advice()
    assert bell_value(chsh_expression(), advice) == pytest.approx(
        0.75, abs=1e-12)
    assert average_payoff(chsh_game(), advice) == pytest.approx(
        (0.75, 0.75), abs=1e-12)


def test_chsh_quantum_value_hits_cos_squared_pi_over_eight():
    value = bell_value(chsh_expression(), chsh_quantum_advice())
    assert value == pytest.approx(CHSH_QUANTUM, abs=1e-12)
    assert value > classical_bound(chsh_expression()) + 0.1


def test_chsh_phases_are_the_standard_ones():
    assert CHSH_PHASES[0] == {"0": 0.0, "1": math.pi / 2}
    assert CHSH_PHASES[1] == {"0": -math.pi / 4, "1": math.pi / 4}


def test_chsh_conditionals_are_inequivalent():
    classical = conditional_of(classical_optimum(chsh_expression()).advice())
    quantum = conditional_of(chsh_quantum_advice())
    assert equivalence_of_conditionals(classical, quantum) is False
    assert equivalence_of_conditionals(quantum, quantum) is True


def test_equivalence_requires_matching_domains():
    chsh = conditional_of(chsh_quantum_advice())
    mermin = conditional_of(mermin_quantum_advice())
    with pytest.raises(ShapeMismatchError):
        equivalence_of_conditionals(chsh, mermin)


def test_bell_value_from_payoff_matches_average_payoff():
    game = chsh_game()
    for advice in (chsh_quantum_advice(),
                   classical_optimum(chsh_expression()).advice()):
        fs = average_payoff(game, advice)
        for i in range(2):
            expr = BellExpression.from_payoff(game, i)
            assert bell_value(expr, advice) == pytest.approx(fs[i],
                                                             abs=1e-12)


def test_chsh_quantum_advice_is_an_equilibrium():
    report = is_advised_equilibrium(chsh_game(), chsh_quantum_advice())
    assert report.equilibrium is True
    assert report.best_deviation is None
    assert report.best_gain == 0.0
    assert report.payoffs == pytest.approx((CHSH_QUANTUM,) * 2, abs=1e-12)


def test_chsh_classical_optimum_is_an_equilibrium():
    advice = classical_optimum(chsh_expression()).advice()
    report = is_advised_equilibrium(chsh_game(), advice)
    assert report.equilibrium is True
    assert report.payoffs == pytest.approx((0.75, 0.75), abs=1e-12)


# ------------------------------------------------------------ polytope

def test_payoff_polytope_check_separates_quantum_from_classical():
    game = chsh_game()
    quantum = chsh_quantum_advice()
    classical = classical_optimum(chsh_expression()).advice()
    verdicts = payoff_polytope_check(game, (1.5, 1.0, 1.0),
                                     [classical, quantum])
    assert verdicts[0].satisfied is True
    assert verdicts[0].value == pytest.approx(1.5, abs=1e-12)
    assert verdicts[1].satisfied is False
    assert verdicts[1].value == pytest.approx(2 * CHSH_QUANTUM, abs=1e-12)


def test_certify_payoff_inequality():
    game = chsh_game()
    certified, best = certify_payoff_inequality(game, (1.5, 1.0, 1.0))
    assert certified is True
    assert best == pytest.approx(1.5, abs=1e-12)
    certified, best = certify_payoff_inequality(game, (1.4, 1.0, 1.0))
    assert certified is False
    assert best == pytest.approx(1.5, abs=1e-12)


def test_inequality_length_is_validated():
    with pytest.raises(DomainMismatchError):
        certify_payoff_inequality(chsh_game(), (1.5, 1.0))


# ----------------------------------------------------- classical advice

def test_shared_coin_correlates_outcomes():
    types = (("x",), ("x",))
    strategies = (BITS, BITS)
    responses = tuple(
        {("x", lam): {lam: 1.0} for lam in BITS} for _ in range(2))
    advice = ClassicalAdvice(types, strategies, BITS,
                             {"0": 0.5, "1": 0.5}, responses)
    cond = classical_conditional(advice)
    row = cond.table[("x", "x")]
    assert row[("0", "0")] == pytest.approx(0.5, abs=1e-12)
    assert row[("1", "1")] == pytest.approx(0.5, abs=1e-12)
    assert row[("0", "1")] == 0.0
    assert row[("1", "0")] == 0.0
    assert cond.is_no_signaling()


def test_deterministic_advice_is_a_point_mass():
    types = (BITS, BITS)
    strategies = (BITS, BITS)
    advice = ClassicalAdvice.deterministic(
        types, strategies, ({"0": "0", "1": "1"}, {"0": "1", "1": "1"}))
    cond = classical_conditional(advice)
    assert cond.prob(("0", "0"), ("0", "1")) == 1.0
    assert cond.prob(("1", "0"), ("1", "1")) == 1.0
    assert sum(v for v in cond.table[("0", "1")].values()) == \
        pytest.approx(1.0, abs=1e-12)


def test_classical_advice_validation():
    types = (("x",), ("x",))
    strategies = (BITS, BITS)
    good = tuple({("x", "0"): {"0": 1.0}} for _ in range(2))
    with pytest.raises(DomainMismatchError):
        ClassicalAdvice(types, strategies, ("0", "0"), {"0": 1.0}, good)
    with pytest.raises(NormalizationError):
        ClassicalAdvice(types, strategies, ("0",), {"0": 0.7}, good)
    with pytest.raises(DomainMismatchError):
        ClassicalAdvice(types, strategies, ("0", "1"),
                        {"0": 0.5, "1": 0.5}, good)  # missing lambda row


# ------------------------------------------------------ quantum advice

def test_phase_basis_is_orthonormal_and_x_like_at_zero():
    plus, minus = phase_basis(0.0)
    r = 1 / math.sqrt(2)
    assert plus.allclose(StateVector(np.array([r, r]), (2,)), tol=1e-12)
    assert minus.allclose(StateVector(np.array([r, -r]), (2,)), tol=1e-12)
    for alpha in (0.3, -1.2, math.pi):
        u, v = phase_basis(alpha)
        assert abs(np.vdot(u.amplitudes, v.amplitudes)) < 1e-12
        assert u.squared_norm == pytest.approx(1.0, abs=1e-12)


def test_ghz_state_amplitudes():
    psi = ghz_state(3)
    assert psi.dims == (2, 2, 2)
    r = 1 / math.sqrt(2)
    assert psi.amplitudes[0] == pytest.approx(r, abs=1e-12)
    assert psi.amplitudes[7] == pytest.approx(r, abs=1e-12)
    assert np.allclose(psi.amplitudes[1:7], 0.0)
    qutrit = ghz_state(2, dim=3)
    assert qutrit.dims == (3, 3)
    assert qutrit.amplitudes[4] == pytest.approx(1 / math.sqrt(3),
                                                 abs=1e-12)


def test_quantum_conditional_ghz2_at_zero_phases():
    advice = QuantumAdvice.from_phases(
        (("x",), ("x",)), (BITS, BITS), ghz_state(2),
        ({"x": 0.0}, {"x": 0.0}))
    row = quantum_conditional(advice).table[("x", "x")]
    assert row[("0", "0")] == pytest.approx(0.5, abs=1e-12)
    assert row[("1", "1")] == pytest.approx(0.5, abs=1e-12)
    assert row[("0", "1")] == pytest.approx(0.0, abs=1e-12)
    assert row[("1", "0")] == pytest.approx(0.0, abs=1e-12)


def test_quantum_conditional_matches_closed_form():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        types = tuple((("x",)) for _ in range(n))
        strategies = tuple(BITS for _ in range(n))
        for _ in range(25):
            alphas = rng.uniform(-math.pi, math.pi, size=n)
            advice = QuantumAdvice.from_phases(
                types, strategies, ghz_state(n),
                tuple({"x": float(a)} for a in alphas))
            row = quantum_conditional(advice).table[("x",) * n]
            closed = ghz_phase_distribution(n, alphas)
            for js, p in row.items():
                assert p == pytest.approx(closed["".join(js)], abs=1e-9)


def test_product_state_conditional_factorizes():
    plus = phase_basis(0.0)[0]
    state = StateVector(np.kron(plus.amplitudes, plus.amplitudes), (2, 2))
    advice = QuantumAdvice.from_phases(
        (BITS, BITS), (BITS, BITS), state,
        ({"0": 0.0, "1": 1.1}, {"0": 0.4, "1": -0.7}))
    cond = quantum_conditional(advice)
    for jt in itertools.product(BITS, BITS):
        m0 = cond.marginal(0, jt)
        m1 = cond.marginal(1, jt)
        for js, p in cond.table[jt].items():
            assert p == pytest.approx(m0[js[0]] * m1[js[1]], abs=1e-12)
    assert cond.is_no_signaling()


def test_quantum_advice_validation():
    kwargs = dict(types=(("x",), ("x",)), strategies=(BITS, BITS))
    bad_state = StateVector(np.array([1.0, 0, 0, 1.0]), (2, 2))
    with pytest.raises(NormalizationError):
        QuantumAdvice.from_phases(shared_state=bad_state,
                                  phases=({"x": 0.0}, {"x": 0.0}), **kwargs)
    with pytest.raises(ShapeMismatchError):
        QuantumAdvice.from_phases(shared_state=ghz_state(3),
                                  phases=({"x": 0.0}, {"x": 0.0}), **kwargs)
    skewed = (phase_basis(0.0)[0], phase_basis(0.3)[1])
    with pytest.raises(NormalizationError):
        QuantumAdvice((("x",), ("x",)), (BITS, BITS), ghz_state(2),
                      ({"x": skewed}, {"x": phase_basis(0.0)}))
    with pytest.raises(DomainMismatchError):
        QuantumAdvice.from_phases(
            (("x",), ("x",)), (("a", "b", "c"), BITS), ghz_state(2),
            ({"x": 0.0}, {"x": 0.0}))


# -------------------------------------------------------- no-signaling

def test_random_classical_advices_are_no_signaling():
    rng = np.random.default_rng(101)
    types = (BITS, BITS)
    strategies = (BITS, BITS)
    for _ in range(100):
        n_lam = int(rng.integers(1, 5))
        lambdas = tuple(str(k) for k in range(n_lam))
        rho = rng.uniform(0.05, 1.0, size=n_lam)
        rho = {lam: float(w / rho.sum()) for lam, w in zip(lambdas, rho)}
        responses = []
        for i in range(2):
            table = {}
            for x in types[i]:
                for lam in lambdas:
                    p = float(rng.uniform(0.0, 1.0))
                    table[(x, lam)] = {"0": p, "1": 1.0 - p}
            responses.append(table)
        advice = ClassicalAdvice(types, strategies, lambdas, rho,
                                 tuple(responses))
        assert classical_conditional(advice).is_no_signaling(1e-9)


def test_random_quantum_advices_are_no_signaling():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        types = tuple(BITS for _ in range(n))
        strategies = tuple(BITS for _ in range(n))
        raw = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        state = StateVector(raw, (2,) * n).normalized()
        phases = tuple({x: float(rng.uniform(-math.pi, math.pi))
                        for x in BITS} for _ in range(n))
        advice = QuantumAdvice.from_phases(types, strategies, state,
                                           phases)
        assert quantum_conditional(advice).is_no_signaling(1e-9)


def test_signaling_table_is_detected():
    types = (("x",), BITS)
    strategies = (BITS, BITS)
    table = {
        ("x", "0"): {("0", "0"): 1.0, ("0", "1"): 0.0,
                     ("1", "0"): 0.0, ("1", "1"): 0.0},
        ("x", "1"): {("0", "0"): 0.0, ("0", "1"): 0.0,
                     ("1", "0"): 1.0, ("1", "1"): 0.0},
    }
    cond = ConditionalDistribution(types, strategies, table)
    assert cond.is_no_signaling() is False
    assert cond.signaling_deviation() == pytest.approx(1.0, abs=1e-12)


def test_conditional_distribution_validation():
    types = (("x",), ("x",))
    strategies = (BITS, BITS)
    with pytest.raises(DomainMismatchError):
        ConditionalDistribution(types, strategies, {})
    bad = {("x", "x"): {js: 0.4 for js in
                        itertools.product(BITS, BITS)}}
    with pytest.raises(NormalizationError):
        ConditionalDistribution(types, strategies, bad)
    negative = {("x", "x"): {("0", "0"): 1.5, ("0", "1"): -0.5,
                             ("1", "0"): 0.0, ("1", "1"): 0.0}}
    with pytest.raises(NormalizationError):
        ConditionalDistribution(types, strategies, negative)
    good = {("x", "x"): {js: 0.25 for js in
                         itertools.product(BITS, BITS)}}
    cond = ConditionalDistribution(types, strategies, good)
    with pytest.raises(DomainMismatchError):
        cond.prob(("y", "x"), ("0", "0"))


# ------------------------------------------------------------- parity

def test_parity_of_bit_strings():
    assert parity("011") == 1
    assert parity("111") == -1
    assert parity("0") == 1
    assert parity("1") == -1


def test_parity_of_sign_and_bit_sequences():
    assert parity((1, 1, 1)) == 1
    assert parity((-1, -1, 1)) == 1
    assert parity((-1, 1, 1)) == -1
    assert parity((0, 1, 1)) == 1
    assert parity((1, 0, 0)) == -1


def test_parity_rejects_bad_input():
    with pytest.raises(ValueError):
        parity("012")
    with pytest.raises(ValueError):
        parity((0.5, 1))
    with pytest.raises(ValueError):
        parity((2, 1))
    with pytest.raises(ValueError):
        parity(())


# ------------------------------------------------ GHZ phase statistics

def test_ghz_distribution_zero_phases():
    dist = ghz_phase_distribution(2, (0.0, 0.0))
    assert dist == pytest.approx({"00": 0.5, "01": 0.0,
                                  "10": 0.0, "11": 0.5}, abs=1e-12)


def test_ghz_distribution_odd_parity_case():
    dist = ghz_phase_distribution(3, (math.pi / 2, math.pi / 2, 0.0))
    for s, p in dist.items():
        want = 0.25 if parity(s) == -1 else 0.0
        assert p == pytest.approx(want, abs=1e-12), s


def test_ghz_distribution_normalization_and_marginals():
    rng = np.random.default_rng(53)
    for n in (2, 3, 4, 5):
        alphas = rng.uniform(-2 * math.pi, 2 * math.pi, size=n)
        dist = ghz_phase_distribution(n, alphas)
        assert len(dist) == 2 ** n
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for i in range(n):
            m = sum(p for s, p in dist.items() if s[i] == "0")
            assert m == pytest.approx(0.5, abs=1e-12)


def test_ghz_distribution_expectation_is_cosine():
    rng = np.random.default_rng(59)
    for _ in range(50):
        alphas = rng.uniform(-math.pi, math.pi, size=3)
        dist = ghz_phase_distribution(3, alphas)
        e = sum(parity(s) * p for s, p in dist.items())
        assert e == pytest.approx(math.cos(math.fsum(alphas)), abs=1e-12)


def test_ghz_distribution_validation():
    with pytest.raises(DomainMismatchError):
        ghz_phase_distribution(1, (0.0,))
    with pytest.raises(DomainMismatchError):
        ghz_phase_distribution(3, (0.0, 0.0))


# -------------------------------------------------------------- Mermin

def test_mermin_report_values():
    report = mermin_inequivalence()
    assert report.settings == MERMIN_SETTINGS
    assert report.quantum_expectations == pytest.approx(
        (1.0, -1.0, -1.0, -1.0), abs=1e-12)
    assert report.classical_assignments == 64
    assert report.satisfying_assignments == 0
    assert report.quantum_parity_product == -1
    assert report.classical_parity_product == 1
    assert report.inequivalent is True
    with pytest.raises(DomainMismatchError):
        mermin_inequivalence(4)


def test_mermin_game_numbers():
    game = mermin_game()
    assert classical_bound(mermin_expression()) == pytest.approx(
        0.5, abs=1e-12)
    fs = average_payoff(game, mermin_quantum_advice())
    assert fs == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)
    report = is_advised_equilibrium(game, mermin_quantum_advice())
    assert report.equilibrium is True


# --------------------------------------------------------- equilibria

def test_pd_defection_is_an_advised_equilibrium():
    game = _pd_bayesian()
    advice = ClassicalAdvice.deterministic(
        game.types, game.strategies, ({"t": "D"}, {"t": "D"}))
    report = is_advised_equilibrium(game, advice)
    assert report.equilibrium is True
    assert report.payoffs == pytest.approx((1.0, 1.0), abs=1e-12)


def test_pd_cooperation_has_a_profitable_deviation():
    game = _pd_bayesian()
    advice = ClassicalAdvice.deterministic(
        game.types, game.strategies, ({"t": "C"}, {"t": "C"}))
    report = is_advised_equilibrium(game, advice)
    assert report.equilibrium is False
    assert report.payoffs == pytest.approx((3.0, 3.0), abs=1e-12)
    assert report.best_player == 0
    assert report.best_gain == pytest.approx(2.0, abs=1e-12)
    assert report.best_deviation[("t", "C")] == "D"


# ------------------------------------------------- game construction

def test_from_nature_pushes_the_prior_forward():
    strategies = (BITS, BITS)
    payoffs = tuple(
        {(jt, js): 0.0
         for jt in itertools.product(BITS, ("0",))
         for js in itertools.product(BITS, BITS)}
        for _ in range(2))
    game = BayesianGame.from_nature(
        ("a", "b", "c"), {"a": 0.25, "b": 0.25, "c": 0.5},
        ({"a": "0", "b": "1", "c": "1"}, {"a": "0", "b": "0", "c": "0"}),
        strategies, payoffs)
    assert game.types == (("0", "1"), ("0",))
    assert game.prior[("0", "0")] == pytest.approx(0.25, abs=1e-12)
    assert game.prior[("1", "0")] == pytest.approx(0.75, abs=1e-12)


def test_bayesian_game_validates_payoff_domain():
    types = (("x",), ("x",))
    strategies = (BITS, BITS)
    with pytest.raises(DomainMismatchError):
        BayesianGame(types, strategies, {("x", "x"): 1.0},
                     ({}, {}))


# ------------------------------------------------- enumeration limits

def test_classical_bound_respects_limit():
    with pytest.raises(EnumerationLimitError) as info:
        classical_bound(chsh_expression(), limit=15)
    assert classical_bound(chsh_expression(), limit=16) == 0.75
    assert (info.value.count, info.value.limit) == (16, 15)


def test_equilibrium_check_respects_limit():
    with pytest.raises(EnumerationLimitError) as info:
        is_advised_equilibrium(chsh_game(), chsh_quantum_advice(),
                               limit=15)
    assert (info.value.count, info.value.limit) == (16, 15)


# ------------------------------------- brute-force reference searches
#
# The exhaustive enumerations the closed-form searches replaced, kept as
# oracles: every deterministic response profile, and every deviation
# function (type, recommendation) -> strategy, in lexicographic order.

def _brute_classical_optimum(expr):
    per_player = [
        [dict(zip(x_i, choice))
         for choice in itertools.product(s_i, repeat=len(x_i))]
        for x_i, s_i in zip(expr.types, expr.strategies)]
    best_value = -math.inf
    best = None
    for responses in itertools.product(*per_player):
        value = 0.0
        for (jt, js), alpha in expr.coefficients.items():
            if all(responses[i][x] == js[i] for i, x in enumerate(jt)):
                value += alpha
        if value > best_value:
            best_value = value
            best = responses
    return best_value, tuple(best)


def _deviated_payoff(game, cond, player, deviation):
    table = game.payoffs[player]
    f = 0.0
    for jt, mu in game.prior.items():
        if mu == 0.0:
            continue
        for js, p in cond.table[jt].items():
            if p == 0.0:
                continue
            played = deviation[(jt[player], js[player])]
            actual = js[:player] + (played,) + js[player + 1:]
            f += mu * p * table[(jt, actual)]
    return f


def _brute_equilibrium(game, cond, tol=1e-9):
    base = []
    best_gain, best_player, best_deviation = 0.0, None, None
    for i in range(game.players):
        pairs = list(itertools.product(game.types[i], game.strategies[i]))
        base.append(_deviated_payoff(game, cond, i, {p: p[1] for p in pairs}))
        for choice in itertools.product(game.strategies[i],
                                        repeat=len(pairs)):
            deviation = dict(zip(pairs, choice))
            gain = _deviated_payoff(game, cond, i, deviation) - base[i]
            if gain > best_gain + tol:
                best_gain, best_player, best_deviation = gain, i, deviation
    return tuple(base), best_player, best_deviation, best_gain


def _random_domain(rng, max_cost):
    """1-3 parties with 1-3 types and 1-3 strategies each, redrawn until
    the brute-force searches stay cheap."""
    while True:
        n = int(rng.integers(1, 4))
        sizes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                 for _ in range(n)]
        cells = math.prod(x * s for x, s in sizes)
        profiles = math.prod(s ** x for x, s in sizes)
        deviations = sum(s ** (x * s) for x, s in sizes)
        if cells * max(profiles, deviations) <= max_cost:
            types = tuple(tuple(f"x{k}" for k in range(x)) for x, _ in sizes)
            strategies = tuple(tuple(f"s{k}" for k in range(s))
                               for _, s in sizes)
            return types, strategies


def _random_numbers(rng, kind, size):
    if kind == "integer":
        return rng.integers(-2, 3, size=size).astype(float)
    values = rng.normal(size=size)
    if kind == "sparse":
        values[rng.random(size) < 0.7] = 0.0
    return values


def _random_distribution(rng, size, kind):
    if kind == "point":
        out = np.zeros(size)
        out[rng.integers(size)] = 1.0
        return out
    return rng.dirichlet(np.ones(size))


def test_classical_optimum_matches_brute_force():
    rng = np.random.default_rng(2013)
    for trial in range(400):
        kind = ("integer", "gaussian", "sparse")[trial % 3]
        types, strategies = _random_domain(rng, 200_000)
        keys = list(itertools.product(itertools.product(*types),
                                      itertools.product(*strategies)))
        values = _random_numbers(rng, kind, len(keys))
        coeffs = {k: float(v) for k, v in zip(keys, values)
                  if kind != "sparse" or v != 0.0}
        expr = BellExpression(types, strategies, coeffs)
        value, responses = _brute_classical_optimum(expr)
        opt = classical_optimum(expr)
        if kind == "integer":
            assert opt.value == value, trial
        else:
            assert opt.value == pytest.approx(value, abs=1e-12), trial
        assert opt.responses == responses, trial
        assert classical_bound(expr) == opt.value


def test_advised_equilibrium_matches_brute_force():
    rng = np.random.default_rng(2057)
    checked = 0
    for trial in range(400):
        kind = ("integer", "gaussian", "sparse")[trial % 3]
        cond_kind = ("point", "dirichlet")[trial // 3 % 2]
        types, strategies = _random_domain(rng, 100_000)
        joint_types = list(itertools.product(*types))
        joint_strategies = list(itertools.product(*strategies))
        mu = rng.dirichlet(np.ones(len(joint_types)))
        if len(joint_types) > 1 and trial % 4 == 0:
            mu[rng.integers(len(joint_types))] = 0.0
            mu /= mu.sum()
        prior = {jt: float(m) for jt, m in zip(joint_types, mu)}
        payoffs = tuple(
            {(jt, js): float(v) for (jt, js), v in zip(
                itertools.product(joint_types, joint_strategies),
                _random_numbers(rng, kind,
                                len(joint_types) * len(joint_strategies)))}
            for _ in types)
        game = BayesianGame(types, strategies, prior, payoffs)
        cond = ConditionalDistribution(types, strategies, {
            jt: dict(zip(joint_strategies, map(float, _random_distribution(
                rng, len(joint_strategies), cond_kind))))
            for jt in joint_types})
        base, player, deviation, gain = _brute_equilibrium(game, cond)
        report = is_advised_equilibrium(game, cond)
        assert report.payoffs == pytest.approx(base, abs=1e-12), trial
        assert report.best_player == player, trial
        assert report.best_deviation == deviation, trial
        assert report.best_gain == pytest.approx(gain, abs=1e-12), trial
        assert report.equilibrium is (deviation is None)
        checked += deviation is not None
    assert checked > 100


def test_random_classical_advice_never_beats_the_classical_bound():
    rng = np.random.default_rng(419)
    for trial in range(60):
        types, strategies = _random_domain(rng, 60_000)
        keys = itertools.product(itertools.product(*types),
                                 itertools.product(*strategies))
        expr = BellExpression(types, strategies, {
            k: float(v) for k, v in zip(keys, rng.normal(
                size=math.prod(len(x) * len(s)
                               for x, s in zip(types, strategies))))})
        bound = classical_bound(expr)
        lambdas = tuple(str(k) for k in range(int(rng.integers(1, 4))))
        rho = dict(zip(lambdas, map(float, rng.dirichlet(
            np.ones(len(lambdas))))))
        responses = tuple(
            {(x, lam): dict(zip(s_i, map(float, rng.dirichlet(
                np.ones(len(s_i)))))) for x in x_i for lam in lambdas}
            for x_i, s_i in zip(types, strategies))
        advice = ClassicalAdvice(types, strategies, lambdas, rho, responses)
        assert bell_value(expr, advice) <= bound + 1e-12, trial


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_classical_bound_memory_stays_near_the_profile_count():
    rng = np.random.default_rng(5)
    # 2**20 responses for the first party times 2 for the second
    types = (tuple(f"x{k}" for k in range(20)), ("y",))
    alpha = rng.normal(size=(20, 1, 2, 2))
    expr = BellExpression(types, (BITS, BITS), {
        ((x, "y"), (s, t)): float(alpha[a, 0, int(s), int(t)])
        for a, x in enumerate(types[0]) for s in BITS for t in BITS})
    bound, peak = _peak_bytes(lambda: classical_bound(expr))
    assert peak < 64 * 2 ** 20
    want = max(alpha[:, 0, :, t].max(axis=1).sum() for t in range(2))
    assert bound == pytest.approx(want, abs=1e-12)


def test_one_strategy_parties_are_summed_before_the_search():
    rng = np.random.default_rng(6)
    # 2**16 profiles; a second party with 200 types and one strategy must
    # not multiply the arrays by 200
    types = (tuple(f"x{k}" for k in range(16)),
             tuple(f"y{k}" for k in range(200)))
    alpha = rng.normal(size=(16, 200, 2))
    expr = BellExpression(types, (BITS, ("only",)), {
        ((x, y), (s, "only")): float(alpha[a, b, int(s)])
        for a, x in enumerate(types[0]) for b, y in enumerate(types[1])
        for s in BITS})
    opt, peak = _peak_bytes(lambda: classical_optimum(expr))
    assert peak < 16 * 2 ** 20
    assert opt.value == pytest.approx(alpha.sum(axis=1).max(axis=1).sum(),
                                      abs=1e-9)
    assert opt.responses[1] == dict.fromkeys(types[1], "only")
    assert opt.responses[0] == {
        x: str(int(alpha[a].sum(axis=0).argmax()))
        for a, x in enumerate(types[0])}


def test_non_finite_numbers_are_rejected():
    game = chsh_game()
    for bad in (math.nan, math.inf):
        prior = {**game.prior, ("0", "0"): bad}
        with pytest.raises(NormalizationError):
            BayesianGame(game.types, game.strategies, prior, game.payoffs)
        payoff = dict(game.payoffs[0])
        payoff[(("0", "0"), ("0", "0"))] = bad
        with pytest.raises(DomainMismatchError):
            BayesianGame(game.types, game.strategies, game.prior,
                         (payoff, game.payoffs[1]))
        with pytest.raises(DomainMismatchError):
            BellExpression(game.types, game.strategies, payoff)
        row = {js: 0.25 for js in game.joint_strategies()}
        with pytest.raises(NormalizationError):
            ConditionalDistribution(game.types, game.strategies, {
                jt: {**row, ("0", "0"): bad} if jt == ("1", "1")
                else row for jt in game.joint_types()})


@pytest.mark.parametrize("key", [5, ("0",), (("0", "0"),), "ab"])
def test_bell_keys_that_are_not_pairs_are_outside_the_domain(key):
    e = chsh_expression()
    message = (r"^Bell expression has entries outside its domain: "
               + re.escape(repr([key])) + "$")
    with pytest.raises(DomainMismatchError, match=message):
        BellExpression(e.types, e.strategies, {**e.coefficients, key: 1.0})


def test_from_payoff_rejects_an_unknown_player():
    for player in (2, 5, -1):
        with pytest.raises(DomainMismatchError):
            BellExpression.from_payoff(chsh_game(), player)


# The per-cell loops the one-contraction conditionals replaced, kept as
# oracles: classical advice summed cell by cell over lambda, quantum
# advice contracted once per joint type.

def _loop_classical_conditional(advice):
    table = {}
    for jt in itertools.product(*advice.types):
        row = {}
        for js in itertools.product(*advice.strategies):
            p = 0.0
            for lam in advice.lambdas:
                w = advice.rho[lam]
                for i, (x, s) in enumerate(zip(jt, js)):
                    w *= advice.responses[i][(x, lam)][s]
                p += w
            row[js] = p
        table[jt] = row
    return ConditionalDistribution(advice.types, advice.strategies, table)


def _loop_quantum_conditional(advice):
    psi = advice.shared_state.amplitudes.reshape(advice.shared_state.dims)
    table = {}
    for jt in itertools.product(*advice.types):
        bras = [np.array([b.amplitudes.conj() for b in per[x]])
                for per, x in zip(advice.measurements, jt)]
        probs = np.abs(apply_on_wires(bras, psi)) ** 2
        table[jt] = dict(zip(itertools.product(*advice.strategies),
                             map(float, probs.reshape(-1))))
    return ConditionalDistribution(advice.types, advice.strategies, table)


def _random_classical_advice(rng, trial):
    n = int(rng.integers(1, 4))
    types = tuple(tuple(f"x{k}" for k in range(int(rng.integers(1, 4))))
                  for _ in range(n))
    strategies = tuple(tuple(f"s{k}" for k in range(int(rng.integers(1, 4))))
                       for _ in range(n))
    lambdas = tuple(f"l{k}" for k in range(int(rng.integers(1, 5))))
    rho = rng.dirichlet(np.ones(len(lambdas)))
    if len(lambdas) > 1:
        rho[rng.integers(len(lambdas))] = 0.0
        rho /= rho.sum()
    kind = ("point", "dirichlet")[trial % 2]
    responses = tuple(
        {(x, lam): dict(zip(s_i, map(float, _random_distribution(
            rng, len(s_i), kind)))) for x in x_i for lam in lambdas}
        for x_i, s_i in zip(types, strategies))
    return ClassicalAdvice(types, strategies, lambdas,
                           dict(zip(lambdas, map(float, rho))), responses)


def _random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d))
                        + 1j * rng.normal(size=(d, d)))
    return q


def _random_quantum_advice(rng, trial):
    n = int(rng.integers(1, 4))
    kind = ("product", "ghz", "random")[trial % 3]
    if kind == "ghz":
        dims = (int(rng.integers(2, 4)),) * n
        state = ghz_state(n, dims[0])
    else:
        dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
        raw = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
        if kind == "random":
            raw = [rng.normal(size=math.prod(dims))
                   + 1j * rng.normal(size=math.prod(dims))]
        state = StateVector(reduce(np.kron, raw), dims).normalized()
    types = tuple(tuple(f"x{k}" for k in range(int(rng.integers(1, 4))))
                  for _ in range(n))
    strategies = tuple(tuple(f"s{k}" for k in range(d)) for d in dims)
    measurements = []
    for x_i, d in zip(types, dims):
        table = {}
        for x in x_i:
            # a computational basis now and then keeps exact zeros around
            u = np.identity(d) if rng.random() < 0.25 \
                else _random_unitary(rng, d)
            table[x] = tuple(StateVector(u[:, k], (d,)) for k in range(d))
        measurements.append(table)
    return QuantumAdvice(types, strategies, state, tuple(measurements))


def _assert_same_table(got, want, trial):
    assert list(got.table) == list(want.table), trial
    for jt, row in want.table.items():
        assert list(got.table[jt]) == list(row), trial
        for js, p in row.items():
            q = got.table[jt][js]
            if p in (0.0, 1.0):
                assert q == p, (trial, jt, js)
            assert abs(q - p) <= 1e-12, (trial, jt, js)


def test_conditionals_match_the_per_cell_loops():
    rng = np.random.default_rng(2057_2013)
    exact = 0
    for trial in range(400):
        if trial % 2:
            advice = _random_quantum_advice(rng, trial // 2)
            got, want = (quantum_conditional(advice),
                         _loop_quantum_conditional(advice))
        else:
            advice = _random_classical_advice(rng, trial // 2)
            got, want = (classical_conditional(advice),
                         _loop_classical_conditional(advice))
        _assert_same_table(got, want, trial)
        assert conditional_of(advice).table == got.table
        exact += sum(p in (0.0, 1.0) for row in want.table.values()
                     for p in row.values())
    assert exact > 1000


def test_classical_conditional_takes_as_many_players_as_the_grid():
    # one einsum label per player: 32 players stay within numpy's labels
    n = 32
    types, strategies = (("x",),) * n, (("s",),) * n
    advice = ClassicalAdvice(
        types, strategies, ("0", "1"), {"0": 0.5, "1": 0.5},
        tuple({("x", lam): {"s": 1.0} for lam in "01"} for _ in range(n)))
    assert classical_conditional(advice).table == \
        {("x",) * n: {("s",) * n: 1.0}}


def test_quantum_advice_rejects_a_basis_off_by_a_few_ppm():
    long = StateVector(np.array([math.sqrt(1 + 8e-6), 0.0]), (2,))
    basis = (long, StateVector(np.array([0.0, 1.0]), (2,)))
    with pytest.raises(NormalizationError, match="basis is not orthonormal"):
        QuantumAdvice((("x",), ("x",)), (BITS, BITS), ghz_state(2),
                      ({"x": basis}, {"x": phase_basis(0.0)}))


def _ket_sum_ghz(n, dim):
    """The construction ``ghz_state`` replaced: a sum of kets |k..k>."""
    state = ket("0" * n, dim).scaled(0)
    for k in range(dim):
        state = StateVector(
            state.amplitudes + ket(str(k) * n, dim).amplitudes, state.dims)
    return state.scaled(1 / math.sqrt(dim))


def test_ghz_state_matches_the_ket_sum_bit_for_bit():
    for n in range(1, 5):
        for dim in range(1, 5):
            got, want = ghz_state(n, dim), _ket_sum_ghz(n, dim)
            assert got.dims == want.dims
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_ghz_state_beyond_ten_levels():
    for dim in (11, 12):
        psi = ghz_state(2, dim)
        assert psi.dims == (dim, dim)
        nonzero = np.flatnonzero(psi.amplitudes)
        assert nonzero.tolist() == [k * (dim + 1) for k in range(dim)]
        assert np.all(psi.amplitudes[nonzero] == 1 / math.sqrt(dim))
        assert psi.is_normalized()
