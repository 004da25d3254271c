import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qgamelab.diagrams import (
    Box,
    Cap,
    Cup,
    Id,
    Ket,
    ObservableStructure,
    Par,
    PhaseElement,
    Seq,
    Spider,
    Swap,
    classical_points,
    evaluate,
    frobenius_generators,
    ghz_state_map,
    ket_map,
    measure,
    parse,
    spider_map,
    validate_born_vector,
)
from qgamelab.errors import (
    DimensionLimitError,
    NormalizationError,
    ShapeMismatchError,
    UnboundBoxError,
)
from qgamelab.linalg import (
    HADAMARD,
    PAULI_X,
    LinearMap,
    StateVector,
    identity,
    ket,
)

Z = ObservableStructure.computational()
X = ObservableStructure.fourier()
RT2 = math.sqrt(2)


def _col(*entries) -> np.ndarray:
    return np.array(entries, dtype=complex).reshape(-1, 1)


def test_spider_02_is_unnormalized_bell():
    out = evaluate(Spider(0, 2), Z)
    assert np.allclose(out.array, _col(1, 0, 0, 1))
    assert out.in_dims == () and out.out_dims == (2, 2)


def test_spider_03_is_unnormalized_ghz():
    out = evaluate(Spider(0, 3), Z)
    expected = np.zeros((8, 1), dtype=complex)
    expected[0, 0] = expected[7, 0] = 1.0
    assert np.allclose(out.array, expected)


def test_ghz_spider_matches_explicit_vector_up_to_five():
    for n in range(1, 6):
        out = ghz_state_map(Z, n)
        expected = np.zeros(2 ** n, dtype=complex)
        expected[0] = expected[-1] = 1.0
        assert np.allclose(out.array[:, 0], expected, atol=1e-12), n


def test_phase_spider_flips_plus_to_minus():
    plus = HADAMARD.apply(ket("0"))
    out = evaluate(Spider(1, 1, PhaseElement.qubit(math.pi)), Z).apply(plus)
    minus = HADAMARD.apply(ket("1"))
    assert out.allclose(minus, tol=1e-12)


def test_spider_against_fourier_basis():
    # sum_k |b_k><b_k| with both points of the X observable is the identity
    out = evaluate(Spider(1, 1), X)
    assert out.allclose(identity((2,)), tol=1e-12)
    # the X-basis copy spider is not the Z-basis one
    assert not evaluate(Spider(1, 2), X).allclose(
        evaluate(Spider(1, 2), Z), tol=1e-6)


def test_cup_cap_equal_phaseless_spiders():
    assert evaluate(Cup(), Z) == evaluate(Spider(0, 2), Z)
    assert evaluate(Cap(), Z) == evaluate(Spider(2, 0), Z)


def test_snake_equation():
    term = parse("id(1) * cup ; cap * id(1)")
    assert evaluate(term, Z).allclose(identity((2,)), tol=1e-12)


def test_swap_exchanges_wires():
    out = evaluate(Swap(), Z).apply(ket("01"))
    assert out == ket("10")
    qutrit = ObservableStructure.computational(3)
    out3 = evaluate(Swap(), qutrit).apply(ket("12", dim=3))
    assert out3 == ket("21", dim=3)


def test_ket_uses_observable_points():
    assert evaluate(Ket("01"), Z).to_state() == ket("01")
    plus_minus = evaluate(Ket("01"), X).to_state()
    expected = StateVector(np.kron([1 / RT2, 1 / RT2],
                                   [1 / RT2, -1 / RT2]), (2, 2))
    assert plus_minus.allclose(expected, tol=1e-12)


def test_seq_applies_first_listed_first():
    env = {"A": PAULI_X, "B": HADAMARD}
    out = evaluate(parse("box(A) ; box(B)"), Z, env)
    assert np.allclose(out.array, HADAMARD.array @ PAULI_X.array)


def test_par_is_tensor_exactly():
    left = evaluate(Spider(1, 2), Z)
    right = evaluate(Spider(2, 1), Z)
    both = evaluate(Par((Spider(1, 2), Spider(2, 1))), Z)
    assert both == left.tensor(right)


def test_box_binding_and_dimension_check():
    with pytest.raises(UnboundBoxError):
        evaluate(Box("missing"), Z)
    qutrit_gate = identity((3,))
    with pytest.raises(ShapeMismatchError):
        evaluate(Box("U"), Z, {"U": qutrit_gate})


def test_phase_dimension_must_match_observable():
    qutrit = ObservableStructure.computational(3)
    term = Spider(1, 1, PhaseElement.qubit(1.0))
    with pytest.raises(ShapeMismatchError):
        evaluate(term, qutrit)


def test_typecheck_runs_before_evaluation():
    term = Seq((Spider(0, 2), Id(3)))
    with pytest.raises(Exception):
        evaluate(term, Z)


def test_frobenius_generators_shapes():
    gen = frobenius_generators(Z)
    assert gen["multiply"].in_dims == (2, 2)
    assert gen["multiply"].out_dims == (2,)
    assert gen["unit"].in_dims == ()
    assert gen["copy"] == gen["multiply"].dagger()
    assert gen["erase"] == gen["unit"].dagger()


def test_classical_points():
    points = classical_points(Z)
    assert points[0] == ket("0") and points[1] == ket("1")
    x_points = classical_points(X)
    assert x_points[0].allclose(StateVector(np.array([1, 1]) / RT2, (2,)),
                                tol=1e-12)
    assert x_points[1].allclose(StateVector(np.array([1, -1]) / RT2, (2,)),
                                tol=1e-12)


def test_copyability_of_classical_points():
    copy = evaluate(Spider(1, 2), Z)
    assert copy.apply(ket("1")).allclose(ket("11"), tol=1e-12)
    copy_x = evaluate(Spider(1, 2), X)
    minus = classical_points(X)[1]
    assert copy_x.apply(minus).allclose(minus.tensor(minus), tol=1e-12)


def test_measure_bell_state():
    bell = evaluate(Spider(0, 2), Z).to_state().scaled(1 / RT2)
    dist = measure(Z, bell)
    assert dist["00"] == pytest.approx(0.5, abs=1e-12)
    assert dist["11"] == pytest.approx(0.5, abs=1e-12)
    assert dist["01"] == pytest.approx(0.0, abs=1e-12)


def test_measure_ghz3_in_x_basis():
    ghz = ghz_state_map(Z, 3).to_state().scaled(1 / RT2)
    dist = measure(X, ghz)
    even = {"000", "011", "101", "110"}
    for outcome, p in dist.items():
        want = 0.25 if outcome in even else 0.0
        assert p == pytest.approx(want, abs=1e-9), outcome


def test_measure_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        measure(Z, ghz_state_map(Z, 2).to_state())


def test_validate_born_vector():
    bv = validate_born_vector([0.5, 0.5])
    assert bv.arity == 1 and bv.dim == 2
    bv2 = validate_born_vector([0.25, 0.25, 0.25, 0.25])
    assert bv2.arity == 2
    with pytest.raises(NormalizationError):
        validate_born_vector([0.7, 0.7])
    with pytest.raises(NormalizationError):
        validate_born_vector([1.5, -0.5])
    # tiny negatives clamp to zero
    bv3 = validate_born_vector([1.0, -1e-13])
    assert bv3.weights[1] == 0.0


def test_spider_fusion_random_cases():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m1, n1, m2, n2 = rng.integers(0, 3, size=4)
        shared = int(rng.integers(1, 3))
        alpha = PhaseElement.qubit(float(rng.uniform(0, 2 * math.pi)))
        beta = PhaseElement.qubit(float(rng.uniform(0, 2 * math.pi)))
        top = Par((Spider(int(m1), int(n1) + shared, alpha), Id(int(m2))))
        bottom = Par((Id(int(n1)), Spider(shared + int(m2), int(n2), beta)))
        fused = Spider(int(m1) + int(m2), int(n1) + int(n2), alpha + beta)
        assert evaluate(Seq((top, bottom)), Z).allclose(
            evaluate(fused, Z), tol=1e-12)


def test_coassociativity_speciality_and_dagger_scfa():
    for obs in (Z, X, ObservableStructure.computational(3)):
        delta = spider_map(obs, 1, 2)
        mu = spider_map(obs, 2, 1)
        d = obs.dim
        left = delta.tensor(identity((d,))) @ delta
        right = identity((d,)).tensor(delta) @ delta
        assert left.allclose(right, tol=1e-12)
        assert (mu @ delta).allclose(identity((d,)), tol=1e-12)
        assert delta.allclose(mu.dagger(), tol=1e-12)


def test_phase_group_additivity_under_evaluate():
    rng = np.random.default_rng(31)
    for _ in range(30):
        a = float(rng.uniform(0, 2 * math.pi))
        b = float(rng.uniform(0, 2 * math.pi))
        one = evaluate(Spider(1, 1, PhaseElement.qubit(a)), Z)
        two = evaluate(Spider(1, 1, PhaseElement.qubit(b)), Z)
        both = evaluate(Spider(1, 1, PhaseElement.qubit(a + b)), Z)
        assert (two @ one).allclose(both, tol=1e-12)


def test_observable_requires_orthonormal_basis():
    with pytest.raises(NormalizationError):
        ObservableStructure.from_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NormalizationError):
        ObservableStructure.from_matrix(
            np.array([[1.0, 1 / RT2], [0.0, 1 / RT2]]))


def test_orthogonality_check_names_the_first_skew_pair_at_d256():
    d = 256
    rng = np.random.default_rng(256)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    for obs in (ObservableStructure.computational(d),
                ObservableStructure.from_matrix(q)):
        assert obs.dim == d
    cols = np.eye(d, dtype=complex)
    # Pairs (5, 6) and (2, 9) both fail; (2, 9) comes first in row-major
    # order over j < k.  Each tilted column stays normalized.
    for j, k in ((5, 6), (2, 9)):
        cols[:, k] = (cols[:, k] + 0.1 * cols[:, j]) / math.sqrt(1.01)
    with pytest.raises(NormalizationError,
                       match=r"basis vectors 2 and 9 are not orthogonal"):
        ObservableStructure.from_matrix(cols)
    cols[:, 9] = np.eye(d)[:, 9]
    with pytest.raises(NormalizationError, match=r"vectors 5 and 6 ") as info:
        ObservableStructure.from_matrix(cols)
    assert info.value.total == pytest.approx(0.1 / math.sqrt(1.01))


def test_fourier_basis_matches_the_dft_beyond_two_hundred_points():
    for d in (2, 3, 7, 256, 512):
        points = ObservableStructure.fourier(d).point_matrix()
        dft = np.fft.ifft(np.identity(d), axis=0) * math.sqrt(d)
        assert np.abs(points - dft).max() <= 1e-12, d


def test_evaluate_scalar_spider():
    # a 0 -> 0 spider is the scalar d (trace of the identity over points)
    out = evaluate(Spider(0, 0), Z)
    assert out.array.shape == (1, 1)
    assert out.array[0, 0] == pytest.approx(2.0)


def _kron_power(vecs) -> np.ndarray:
    return reduce(np.kron, vecs, np.ones(1, dtype=complex))


def _outer_product_spider(obs, inputs, outputs, phase=None) -> np.ndarray:
    """Reference spider: sum_k w_k |k..k><k..k|, one outer product per k."""
    d = obs.dim
    weights = np.ones(d) if phase is None else phase.weights()
    arr = np.zeros((d ** outputs, d ** inputs), dtype=complex)
    for k, point in enumerate(obs.basis):
        col = _kron_power([point.amplitudes] * outputs)
        row = _kron_power([point.amplitudes] * inputs)
        arr += weights[k] * np.outer(col, row.conj())
    return arr


def test_spider_and_ket_maps_match_the_outer_product_oracle():
    for d in (2, 3):
        phases = (None, PhaseElement(tuple(np.linspace(0.0, 2.5, d))))
        for obs in (ObservableStructure.computational(d),
                    ObservableStructure.fourier(d)):
            for m, n, phase in itertools.product(range(4), range(4), phases):
                got = spider_map(obs, m, n, phase)
                assert got.in_dims == (d,) * m and got.out_dims == (d,) * n
                assert np.allclose(got.array,
                                   _outer_product_spider(obs, m, n, phase),
                                   rtol=0.0, atol=1e-12)
            for length in (1, 2, 3):
                for digits in itertools.product("012"[:d], repeat=length):
                    got = ket_map(obs, "".join(digits))
                    want = _kron_power(obs.basis[int(c)].amplitudes
                                       for c in digits)
                    assert got.out_dims == (d,) * length
                    assert np.allclose(got.array[:, 0], want, rtol=0.0,
                                       atol=1e-12)


def test_size_caps_are_checked_before_allocating():
    tracemalloc.start()
    try:
        for source in ("id(13)", "spider(13,13)", "ket(0000000000000)"):
            with pytest.raises(DimensionLimitError):
                evaluate(parse(source), Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    with pytest.raises(DimensionLimitError):
        spider_map(Z, 0, 30)


def test_validate_born_vector_rejects_non_finite_weights():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NormalizationError, match="weight 0 is not finite"):
            validate_born_vector([bad, 0.5, 0.5, 0.0])
    with pytest.raises(NormalizationError, match="weight 3 is not finite"):
        validate_born_vector([0.5, 0.5, 0.0, math.nan])
