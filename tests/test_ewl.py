import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qgamelab.errors import (
    DimensionLimitError,
    DomainMismatchError,
    EmbeddingError,
    NormalizationError,
    UnitarityError,
    UnsupportedDimensionError,
)
from qgamelab.ewl import (
    NASH_TOL,
    PD_PAYOFFS,
    QuantumGameSpec,
    StrategicFormGame,
    ewl_entangler,
    ewl_strategy,
    ewl_strategy_grid,
    final_state,
    pareto_optimal,
    payoff_table,
    payoffs,
    pd_quantum,
    play,
    prisoners_dilemma,
    pure_nash,
    quantize,
    to_strategic_form,
)
from qgamelab import ewl
from qgamelab.linalg import (
    BUILTIN_GATES,
    HADAMARD,
    PAULI_X,
    PROB_TOL,
    LinearMap,
    StateVector,
    apply_on_wires,
    born_probabilities,
    dimension_limit,
    from_matrix,
    identity,
    ket,
    outcome_labels,
    set_dimension_limit,
    states_phase_equal,
)

RT2 = math.sqrt(2)

# Brute-force reference tables, frozen from an independent evaluation of
# sigma = U^dag (s_A x s_B) U |00> against the 3/0/5/1 coefficients.
TABLE_3STRAT = {
    ("I", "I"): (3.0, 3.0),
    ("I", "X"): (0.0, 5.0),
    ("I", "H"): (0.5, 3.0),
    ("X", "I"): (5.0, 0.0),
    ("X", "X"): (1.0, 1.0),
    ("X", "H"): (0.5, 3.0),
    ("H", "I"): (3.0, 0.5),
    ("H", "X"): (3.0, 0.5),
    ("H", "H"): (2.25, 2.25),
}
TABLE_4STRAT_EXTRA = {
    ("I", "Z"): (1.0, 1.0),
    ("X", "Z"): (0.0, 5.0),
    ("H", "Z"): (1.5, 4.0),
    ("Z", "I"): (1.0, 1.0),
    ("Z", "X"): (5.0, 0.0),
    ("Z", "H"): (4.0, 1.5),
    ("Z", "Z"): (3.0, 3.0),
}


def test_entangler_matrix_form():
    u = ewl_entangler(2)
    expected = np.identity(4, dtype=complex) / RT2
    expected += 1j * np.flip(np.identity(4), axis=1) / RT2
    assert np.allclose(u.array, expected, atol=1e-12)


def test_entangler_is_linear_combination_of_two_diagrams():
    for n in (2, 3, 4):
        u = ewl_entangler(n)
        x_n = PAULI_X
        for _ in range(n - 1):
            x_n = x_n.tensor(PAULI_X)
        expected = (identity((2,) * n).array + 1j * x_n.array) / RT2
        assert np.allclose(u.array, expected, atol=1e-12), n


def test_entangler_unitary_within_1e12():
    for n in (2, 3, 4, 5, 6):
        u = ewl_entangler(n)
        assert np.allclose((u.dagger() @ u).array,
                           np.identity(2 ** n), atol=1e-12)


def test_entangler_on_all_zeros():
    state = ewl_entangler(2).apply(ket("00"))
    expected = StateVector(np.array([1, 0, 0, 1j]) / RT2, (2, 2))
    assert state.allclose(expected, tol=1e-12)


def test_entangler_rejects_non_qubits_and_single_player():
    with pytest.raises(UnsupportedDimensionError):
        ewl_entangler(2, dim=3)
    with pytest.raises(DomainMismatchError):
        ewl_entangler(1)


def test_entangler_checks_the_dimension_cap_before_allocating():
    limit = dimension_limit()
    set_dimension_limit(16)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionLimitError):
            ewl_entangler(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        set_dimension_limit(limit)
    # three dense 512x512 complex arrays would take 12 MiB
    assert peak < 2 ** 20


def test_final_state_ih_profile():
    spec = pd_quantum(("I", "X", "H"))
    sigma = final_state(spec, ("I", "H"))
    expected = StateVector(np.array([0, 1, 0, -1j]) / RT2, (2, 2))
    assert states_phase_equal(sigma, expected, tol=1e-9)


def test_final_state_identity_and_zz():
    spec = pd_quantum(("I", "X", "H", "Z"))
    assert final_state(spec, ("I", "I")).allclose(ket("00"), tol=1e-9)
    assert states_phase_equal(final_state(spec, ("Z", "Z")), ket("00"),
                              tol=1e-9)


def test_payoffs_reference_values():
    spec = pd_quantum(("I", "X", "H"))
    assert payoffs(spec, ("I", "H")) == pytest.approx((0.5, 3.0), abs=1e-9)
    assert payoffs(spec, ("H", "H")) == pytest.approx((2.25, 2.25),
                                                      abs=1e-9)
    assert payoffs(spec, ("I", "I")) == pytest.approx((3.0, 3.0), abs=1e-9)


def test_classical_restriction_reproduces_pd():
    table = payoff_table(pd_quantum(("I", "X")))
    assert set(table) == {("I", "I"), ("I", "X"), ("X", "I"), ("X", "X")}
    expected = {("I", "I"): (3, 3), ("I", "X"): (0, 5),
                ("X", "I"): (5, 0), ("X", "X"): (1, 1)}
    for profile, want in expected.items():
        assert table[profile] == pytest.approx(want, abs=1e-9)


def test_three_strategy_table_matches_reference():
    table = payoff_table(pd_quantum(("I", "X", "H")))
    assert len(table) == 9
    for profile, want in TABLE_3STRAT.items():
        assert table[profile] == pytest.approx(want, abs=1e-9), profile


def test_four_strategy_table_matches_reference():
    table = payoff_table(pd_quantum(("I", "X", "H", "Z")))
    assert len(table) == 16
    for profile, want in {**TABLE_3STRAT, **TABLE_4STRAT_EXTRA}.items():
        assert table[profile] == pytest.approx(want, abs=1e-9), profile


def test_pure_nash_three_strategies():
    assert pure_nash(pd_quantum(("I", "X", "H"))) == [("H", "H")]


def test_pure_nash_classical_restriction():
    assert pure_nash(pd_quantum(("I", "X"))) == [("X", "X")]


def test_pure_nash_four_strategies():
    equilibria = pure_nash(pd_quantum(("I", "X", "H", "Z")))
    assert ("Z", "Z") in equilibria
    spec = pd_quantum(("I", "X", "H", "Z"))
    assert payoffs(spec, ("Z", "Z")) == pytest.approx((3.0, 3.0), abs=1e-9)


def test_pareto_three_strategies():
    game = to_strategic_form(pd_quantum(("I", "X", "H")))
    pareto = pareto_optimal(game)
    assert ("H", "H") not in pareto
    assert set(pareto) == {("I", "I"), ("I", "X"), ("X", "I")}


def test_pareto_four_strategies():
    game = to_strategic_form(pd_quantum(("I", "X", "H", "Z")))
    assert ("Z", "Z") in pareto_optimal(game)


def test_profile_result_consistency():
    spec = pd_quantum(("I", "X", "H"))
    result = play(spec, ("H", "X"))
    assert sum(result.outcome_distribution.values()) == pytest.approx(
        1.0, abs=1e-9)
    recomputed = tuple(
        sum(coeffs[s] * p for s, p in result.outcome_distribution.items())
        for coeffs in spec.payoff_coeffs)
    assert result.payoffs == pytest.approx(recomputed, abs=1e-9)


def test_payoff_table_product_order():
    table = payoff_table(pd_quantum(("I", "X")))
    assert list(table) == [("I", "I"), ("I", "X"), ("X", "I"), ("X", "X")]


def test_nash_invariant_under_relabeling():
    spec = pd_quantum(("I", "X", "H"))
    table = payoff_table(spec)
    renamed = {tuple(f"s{'IXH'.index(lab)}" for lab in profile): pay
               for profile, pay in table.items()}
    game = StrategicFormGame((("s0", "s1", "s2"), ("s0", "s1", "s2")),
                             renamed)
    assert pure_nash(game) == [("s2", "s2")]


def test_coefficient_shift_moves_payoffs_only():
    spec = pd_quantum(("I", "X", "H"))
    shifted = QuantumGameSpec(
        players=2,
        strategies=spec.strategies,
        payoff_coeffs=(
            {k: v + 7.0 for k, v in spec.payoff_coeffs[0].items()},
            spec.payoff_coeffs[1]),
        entangler=spec.entangler,
    )
    base = payoff_table(spec)
    moved = payoff_table(shifted)
    for profile in base:
        assert moved[profile][0] == pytest.approx(base[profile][0] + 7.0,
                                                  abs=1e-9)
        assert moved[profile][1] == pytest.approx(base[profile][1],
                                                  abs=1e-9)
    assert pure_nash(shifted) == pure_nash(spec)
    assert pareto_optimal(to_strategic_form(shifted)) == \
        pareto_optimal(to_strategic_form(spec))


def test_all_identity_profile_up_to_six_players():
    for n in range(2, 7):
        spec = QuantumGameSpec(
            players=n,
            strategies=tuple({"I": BUILTIN_GATES["I"]} for _ in range(n)),
            payoff_coeffs=tuple(
                {format(k, f"0{n}b"): 0.0 for k in range(2 ** n)}
                for _ in range(n)),
            entangler=ewl_entangler(n),
        )
        sigma = final_state(spec, ("I",) * n)
        assert sigma.allclose(ket("0" * n), tol=1e-9), n


def test_meis_override_replaces_entangled_state():
    spec = pd_quantum(("I", "X", "H"))
    meis = spec.entangler.apply(ket("00"))
    override = QuantumGameSpec(
        players=2,
        strategies=spec.strategies,
        payoff_coeffs=spec.payoff_coeffs,
        entangler=spec.entangler,
        entangled_state=meis,
    )
    for profile in payoff_table(spec):
        assert payoffs(override, profile) == pytest.approx(
            payoffs(spec, profile), abs=1e-12)


def test_meis_must_be_normalized():
    spec = pd_quantum(("I", "X"))
    with pytest.raises(NormalizationError):
        QuantumGameSpec(
            players=2,
            strategies=spec.strategies,
            payoff_coeffs=spec.payoff_coeffs,
            entangler=spec.entangler,
            entangled_state=StateVector(np.array([1.0, 0, 0, 1.0]), (2, 2)),
        )


def test_spec_rejects_non_unitary_strategy():
    bad = {"I": BUILTIN_GATES["I"],
           "N": identity((2,)).tensor(identity(()))}
    shrunk = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
    from qgamelab.linalg import from_matrix
    bad["N"] = from_matrix(shrunk)
    spec_kwargs = dict(
        players=2,
        payoff_coeffs=({"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0},) * 2,
        entangler=ewl_entangler(2),
    )
    with pytest.raises(UnitarityError):
        QuantumGameSpec(strategies=(bad, bad), **spec_kwargs)


def test_spec_rejects_bad_coefficient_keys():
    with pytest.raises(DomainMismatchError):
        QuantumGameSpec(
            players=2,
            strategies=({"I": BUILTIN_GATES["I"]},) * 2,
            payoff_coeffs=({"00": 1.0, "01": 0.0, "10": 0.0},) * 2,
            entangler=ewl_entangler(2),
        )


def test_unknown_profile_label():
    spec = pd_quantum(("I", "X"))
    with pytest.raises(DomainMismatchError):
        payoffs(spec, ("I", "H"))


def test_quantize_reproduces_classical_with_ewl_and_identity_entangler():
    classical = prisoners_dilemma()
    embedding = {"C": BUILTIN_GATES["I"], "D": BUILTIN_GATES["X"]}
    for entangler in (ewl_entangler(2), identity((2, 2))):
        spec = quantize(classical, embedding, entangler=entangler)
        table = payoff_table(spec)
        for profile, want in PD_PAYOFFS.items():
            assert table[profile] == pytest.approx(want, abs=1e-9)


def test_quantize_with_extras_matches_builtin_pd():
    classical = prisoners_dilemma()
    embedding = {"C": BUILTIN_GATES["I"], "D": BUILTIN_GATES["X"]}
    spec = quantize(classical, embedding,
                    extra_strategies={"H": HADAMARD})
    table = payoff_table(spec)
    ref = payoff_table(pd_quantum(("I", "X", "H")))
    rename = {"C": "I", "D": "X", "H": "H"}
    for profile, pay in table.items():
        mapped = tuple(rename[lab] for lab in profile)
        assert pay == pytest.approx(ref[mapped], abs=1e-12), profile


def test_quantize_rejects_non_permutation_embedding():
    classical = prisoners_dilemma()
    with pytest.raises(EmbeddingError):
        quantize(classical, {"C": BUILTIN_GATES["I"], "D": HADAMARD})


def test_quantize_rejects_colliding_digits():
    classical = prisoners_dilemma()
    with pytest.raises(EmbeddingError):
        quantize(classical, {"C": BUILTIN_GATES["I"],
                             "D": BUILTIN_GATES["I"]})


def test_strategic_form_game_validation():
    with pytest.raises(DomainMismatchError):
        StrategicFormGame((("a",), ("b",)), {})
    with pytest.raises(DomainMismatchError):
        StrategicFormGame((("a",),), {("a",): (1.0, 2.0)})


def test_singleton_payoff_table():
    spec = pd_quantum(("I", "X"))
    single = QuantumGameSpec(
        players=2,
        strategies=({"I": BUILTIN_GATES["I"]},
                    {"X": BUILTIN_GATES["X"]}),
        payoff_coeffs=spec.payoff_coeffs,
        entangler=spec.entangler,
    )
    table = payoff_table(single)
    assert list(table) == [("I", "X")]
    assert table[("I", "X")] == pytest.approx(
        payoffs(spec, ("I", "X")), abs=1e-12)
    assert pareto_optimal(single) == [("I", "X")]


def test_ewl_strategy_family():
    assert ewl_strategy(0.0, 0.0).allclose(BUILTIN_GATES["I"], tol=1e-12)
    grid = ewl_strategy_grid(3, 3)
    assert len(grid) == 9
    for name, gate in grid.items():
        assert gate.is_unitary(), name


# --------------------------------------------- brute-force reference scans
# The original per-profile implementations, kept as oracles for the
# batched payoff table and the array-based Nash and Pareto scans.

def _oracle_payoffs(spec, profile):
    """One profile through the EWL sandwich, state by state."""
    gates = [spec.strategy(i, lab).array for i, lab in enumerate(profile)]
    shared = spec.shared_state()
    moved = apply_on_wires(gates, shared.amplitudes.reshape(shared.dims))
    sigma = StateVector(spec.entangler.array.conj().T @ moved.reshape(-1),
                        shared.dims)
    dist = born_probabilities(sigma, tol=PROB_TOL)
    return tuple(float(sum(coeffs[s] * p for s, p in dist.items()))
                 for coeffs in spec.payoff_coeffs)


def _oracle_table(spec):
    return {profile: _oracle_payoffs(spec, profile)
            for profile in itertools.product(*spec.strategy_labels)}


def _oracle_nash(g, tol=NASH_TOL):
    out = []
    for profile in g.profiles():
        mine = g.payoffs[profile]
        if not any(
            g.payoffs[profile[:i] + (alt,) + profile[i + 1:]][i]
            > mine[i] + tol
            for i in range(g.players)
            for alt in g.strategy_labels[i]
            if alt != profile[i]
        ):
            out.append(profile)
    return out


def _oracle_pareto(g, tol=NASH_TOL):
    rows = [(profile, g.payoffs[profile]) for profile in g.profiles()]
    out = []
    for profile, mine in rows:
        dominated = any(
            all(other[i] >= mine[i] - tol for i in range(g.players))
            and any(other[i] > mine[i] + tol for i in range(g.players))
            for _, other in rows)
        if not dominated:
            out.append(profile)
    return out


def _random_labels(rng, players):
    """1-7 labels per player, not in sorted order."""
    return tuple(tuple(f"s{v}" for v in rng.permutation(10)[:k])
                 for k in rng.integers(1, 8, size=players))


def _random_game(rng, kind):
    labels = _random_labels(rng, int(rng.integers(1, 4)))
    n = len(labels)
    shape = tuple(map(len, labels)) + (n,)
    if kind == "integer":
        pay = rng.integers(-2, 3, size=shape).astype(float)
    elif kind == "near_tie":
        offsets = np.array([0.0, 0.5, -0.5, 2.0, -2.0]) * NASH_TOL
        pay = rng.integers(-1, 2, size=shape) + rng.choice(offsets, shape)
    else:
        pay = rng.normal(size=shape)
    rows = pay.reshape(-1, n).tolist()
    return StrategicFormGame(
        labels, dict(zip(itertools.product(*labels), map(tuple, rows))))


def _random_unitary(rng, size):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_grid_spec(rng):
    """2-3 players over seeded subsets of ewl_strategy_grid(4, 4)."""
    n = int(rng.integers(2, 4))
    grid = list(ewl_strategy_grid(4, 4).items())
    strategies = tuple(
        dict(grid[j] for j in rng.permutation(len(grid))[:k])
        for k in rng.integers(1, 8, size=n))
    outcomes = outcome_labels((2,) * n)
    coeffs = tuple(dict(zip(outcomes, rng.integers(-3, 4, size=2 ** n)
                            .astype(float).tolist()))
                   for _ in range(n))
    shared = None
    if rng.random() < 0.25:
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        shared = StateVector(amps / np.linalg.norm(amps), (2,) * n)
    initial = "".join(str(b) for b in rng.integers(0, 2, size=n))
    return QuantumGameSpec(players=n, strategies=strategies,
                           payoff_coeffs=coeffs, entangler=ewl_entangler(n),
                           initial_ket=initial, entangled_state=shared)


def _unitary_spec(rng, dim, counts, initial):
    """Random unitary strategies and a random unitary, non-EWL entangler."""
    n = len(counts)
    outcomes = outcome_labels((dim,) * n)
    strategies = tuple(
        {f"u{j}": from_matrix(_random_unitary(rng, dim)) for j in range(k)}
        for k in counts)
    coeffs = tuple(dict(zip(outcomes, rng.normal(size=dim ** n).tolist()))
                   for _ in range(n))
    wires = (dim,) * n
    entangler = LinearMap(_random_unitary(rng, dim ** n), wires, wires)
    return QuantumGameSpec(players=n, strategies=strategies,
                           payoff_coeffs=coeffs, entangler=entangler,
                           dim=dim, initial_ket=initial)


def _assert_scans_match_oracles(game):
    g = ewl._as_game(game)
    for tol in (NASH_TOL, 0.0, 0.5):
        assert pure_nash(game, tol=tol) == _oracle_nash(g, tol), tol
        assert pareto_optimal(game, tol=tol) == _oracle_pareto(g, tol), tol


def test_scans_match_brute_force_on_seeded_games():
    rng = np.random.default_rng(31)
    kinds = ("integer", "near_tie", "gaussian")
    for trial in range(300):
        game = _random_game(rng, kinds[trial % 3])
        _assert_scans_match_oracles(game)
        if trial % 10 == 0:
            _assert_scans_match_oracles(dict(game.payoffs))


def test_batched_table_matches_per_profile_oracle():
    rng = np.random.default_rng(32)
    specs = [_random_grid_spec(rng) for _ in range(40)]
    specs += [_unitary_spec(rng, 3, (4, 6), "12"),
              _unitary_spec(rng, 2, (5,), "1")]
    for spec in specs:
        want = _oracle_table(spec)
        got = payoff_table(spec)
        assert list(got) == list(want)
        for profile, pay in want.items():
            assert got[profile] == pytest.approx(pay, rel=0.0, abs=1e-12)
        game = to_strategic_form(spec)
        _assert_scans_match_oracles(game)
        assert pure_nash(spec) == pure_nash(game)
        profile = next(reversed(want))
        assert play(spec, profile).payoffs == pytest.approx(
            want[profile], rel=0.0, abs=1e-12)


def test_pareto_scan_spans_several_blocks():
    # 33 x 33 profiles compared against each other need two 1 MiB blocks.
    # Zero-sum rows (10k, -10k) never dominate each other; the last two
    # profiles are dominated only by profile 700, which is not among the
    # rows of highest sum, so only the exact scan's second block sees it.
    labels = tuple(tuple(f"s{k}" for k in range(33)) for _ in range(2))
    x = 10.0 * np.arange(33 * 33)
    rows = np.column_stack([x, -x])
    rows[-2:] = rows[700] - [[1.0, 1.0], [0.0, 2.0]]
    profiles = list(itertools.product(*labels))
    game = StrategicFormGame(
        labels, dict(zip(profiles, map(tuple, rows.tolist()))))
    assert pareto_optimal(game) == profiles[:-2]


def test_three_player_pareto_scan_spans_several_blocks():
    # 11 x 10 x 10 profiles: rows (10k, -10k, 0) never dominate each other
    # and all have sum 0, so the first pass holds profiles 0-63.  The last
    # three profiles are dominated only by profile 700, one through each
    # player, and lie in the exact scan's second block.
    shape = (11, 10, 10)
    labels = tuple(tuple(f"s{k}" for k in range(n)) for n in shape)
    n = math.prod(shape)
    x = 10.0 * np.arange(n)
    rows = np.column_stack([x, -x, np.zeros(n)])
    rows[-3:] = rows[700] - [[1.0, 1.0, 0.0], [0.0, 2.0, 0.0],
                             [0.0, 0.0, 1.0]]
    assert 700 >= ewl._FIRST_PASS
    assert n - 3 >= ewl._BLOCK_BYTES // n  # past the first block
    profiles = list(itertools.product(*labels))
    game = StrategicFormGame(
        labels, dict(zip(profiles, map(tuple, rows.tolist()))))
    assert pareto_optimal(game) == profiles[:-3]


def _block_scan_pareto(g, tol):
    """The two-pass block scan's rule, every row against every row."""
    rows = g._pay.reshape(-1, g.players)
    return [p for p, out in zip(g.profiles(), ewl._dominated(rows, rows, tol))
            if not out]


def _two_player_game(pay):
    """A game over labels s0, s1, ... with payoffs ``pay``, (k_0, k_1, 2)."""
    labels = tuple(tuple(f"s{k}" for k in range(n)) for n in pay.shape[:2])
    return StrategicFormGame(labels, dict(zip(
        itertools.product(*labels), map(tuple, pay.reshape(-1, 2).tolist()))))


def _edge_case_payoffs(rng, shape, tols):
    """Two-player payoffs from a few levels, each nudged by 0, +-tol/2 or
    +-tol for some tol, so rows tie exactly or sit on a comparison's
    edge; about one entry in ten is NaN, +-inf or -0.0."""
    nudges = np.concatenate([[0.0], *(t * np.array([-1.0, -0.5, 0.5, 1.0])
                                      for t in tols)])
    size = shape + (2,)
    pay = rng.choice([-1.0, 0.0, 1.0, 2.0], size) + rng.choice(nudges, size)
    special = rng.random(size) < 0.1
    pay[special] = rng.choice([math.nan, math.inf, -math.inf, -0.0],
                              special.sum())
    return pay


def test_two_player_sweep_matches_the_block_scan_and_the_oracle():
    rng = np.random.default_rng(47)
    tols = (0.0, NASH_TOL, 0.5)
    shapes = [(1, 1), (1, 7), (7, 1), (36, 36)]
    shapes += [tuple(rng.integers(1, 9, size=2)) for _ in range(40)]
    games = [_two_player_game(_edge_case_payoffs(rng, shape, tols))
             for shape in shapes]
    assert any(math.isnan(v) for v in games[3]._pay.ravel())
    # a row that no row beats in one column, at -inf in the other, is
    # not dominated; nor is a row with a NaN, nor one that -0.0 ties
    inf, nan = math.inf, math.nan
    games += [_two_player_game(np.array([rows])) for rows in (
        [(1.0, -inf), (0.0, 0.0)], [(-inf, 1.0), (0.0, 0.0)],
        [(inf, -inf), (-inf, inf), (0.0, 0.0)], [(nan, 5.0), (0.0, 0.0)],
        [(5.0, nan), (0.0, 0.0)], [(0.0, 1.0), (-0.0, 1.0), (nan, nan)])]
    grid = list(ewl_strategy_grid(6, 6).items())
    specs = [pd_quantum(("I", "X", "H", "Z"))]
    for counts in ((1, 5), (5, 1), (36, 36)):
        strategies = tuple(dict(grid[j] for j in rng.permutation(36)[:k])
                           for k in counts)
        coeffs = tuple(dict(zip(outcome_labels((2, 2)), rng.integers(
            -3, 4, size=4).astype(float).tolist())) for _ in range(2))
        specs.append(QuantumGameSpec(
            players=2, strategies=strategies, payoff_coeffs=coeffs,
            entangler=ewl_entangler(2)))
    cases = [(g, (g, dict(g.payoffs))) for g in games]
    cases += [(to_strategic_form(spec), (spec,)) for spec in specs]
    for g, inputs in cases:
        for tol in tols:
            want = _block_scan_pareto(g, tol)
            assert _oracle_pareto(g, tol) == want
            for game in inputs:
                assert pareto_optimal(game, tol=tol) == want, tol


def test_nash_and_pareto_reject_bad_tolerance():
    spec = pd_quantum(("I", "X", "H"))
    for tol in (math.nan, -1.0, math.inf):
        for scan in (pure_nash, pareto_optimal):
            with pytest.raises(DomainMismatchError, match="tolerance"):
                scan(spec, tol=tol)
    assert pure_nash(spec, tol=0.0) == [("H", "H")]


def test_strategic_form_rejects_duplicate_labels():
    with pytest.raises(DomainMismatchError, match="duplicate"):
        StrategicFormGame((("a", "a"),), {("a",): (1.0,)})


def _table_peak(spec) -> tuple[int, int]:
    """tracemalloc peak of one batched table, and the table's own bytes."""
    tracemalloc.start()
    try:
        table = ewl._payoff_array(spec, spec.strategy_labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, table.nbytes


def _grid_spec(counts):
    grid = list(ewl_strategy_grid(10, 10).items())
    n = len(counts)
    coeffs = {label: float(v)
              for v, label in enumerate(outcome_labels((2,) * n))}
    return QuantumGameSpec(players=n,
                           strategies=tuple(dict(grid[:k]) for k in counts),
                           payoff_coeffs=(coeffs,) * n,
                           entangler=ewl_entangler(n))


def test_batched_table_memory_stays_bounded():
    # Besides the float table itself, the transient is one block of
    # player 0's profiles; it must not grow with player 0's strategy count.
    bound = 4 * 2 ** 20
    for counts, fewer in (((100, 100), (10, 100)),
                          ((30, 30, 30), (3, 30, 30))):
        peak, out = _table_peak(_grid_spec(counts))
        small_peak, small_out = _table_peak(_grid_spec(fewer))
        assert peak < bound, (counts, peak)
        assert abs((peak - out) - (small_peak - small_out)) < 64 * 2 ** 10, \
            (counts, peak - out, small_peak - small_out)


def test_table_reports_the_first_unnormalized_profile_like_the_oracle():
    # (1 + eps) I passes the unitarity check (|G^dag G - I| = 8e-10), but
    # two or more such factors push |sigma|^2 past PROB_TOL.  The first
    # failing profile is (I, I, J, J); (I, J, J, J) fails by more.
    scaled = from_matrix(np.eye(2) * (1 + 4e-10))
    gates = {"I": BUILTIN_GATES["I"], "J": scaled}
    zeros = {label: 0.0 for label in outcome_labels((2,) * 4)}
    spec = QuantumGameSpec(players=4, strategies=(gates,) * 4,
                           payoff_coeffs=(zeros,) * 4,
                           entangler=ewl_entangler(4))
    with pytest.raises(NormalizationError) as want:
        _oracle_table(spec)
    with pytest.raises(NormalizationError) as got:
        payoff_table(spec)
    assert str(got.value).startswith("state is not normalized")
    assert got.value.total == pytest.approx(want.value.total, rel=0.0,
                                            abs=1e-14)
    assert got.value.total < 1 + 2e-9
    with pytest.raises(NormalizationError):
        play(spec, ("I", "I", "J", "J"))


def test_quantize_names_the_first_profile_that_breaks_the_embedding():
    # Under H x I the move D = X on player A turns into Z, so (D, C) and
    # (D, D) both miss the classical table; (D, C) comes first.
    embedding = {"C": BUILTIN_GATES["I"], "D": BUILTIN_GATES["X"]}
    with pytest.raises(EmbeddingError, match=r"\('D', 'C'\) yields"):
        quantize(prisoners_dilemma(), embedding,
                 entangler=HADAMARD.tensor(BUILTIN_GATES["I"]))


def test_spec_scans_read_the_payoff_array_directly(monkeypatch):
    """pure_nash(spec) and pareto_optimal(spec) scan the contraction's
    array, with no label-keyed table, and give the profiles the
    to_strategic_form path gives, in the same order."""
    rng = np.random.default_rng(33)
    specs = [_random_grid_spec(rng) for _ in range(40)]
    specs += [_unitary_spec(rng, 3, (4, 6), "12"),
              _unitary_spec(rng, 2, (5,), "1"),
              pd_quantum(("I", "X", "H", "Z"))]
    games = [to_strategic_form(spec) for spec in specs]

    def no_table(spec):
        raise AssertionError("a spec scan built the label-keyed table")

    monkeypatch.setattr(ewl, "payoff_table", no_table)
    for spec, game in zip(specs, games):
        for tol in (NASH_TOL, 0.0, 0.5):
            assert pure_nash(spec, tol=tol) == pure_nash(game, tol=tol)
            assert pareto_optimal(spec, tol=tol) == \
                pareto_optimal(game, tol=tol)
