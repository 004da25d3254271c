import itertools
import math

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
from qgamelab.linalg import StateVector

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
