import math
from functools import reduce

import numpy as np
import pytest

from qgamelab.errors import (
    DimensionLimitError,
    NormalizationError,
    ShapeMismatchError,
)
from qgamelab.linalg import (
    ALGEBRA_TOL,
    BUILTIN_GATES,
    HADAMARD,
    IDENTITY_1Q,
    PAULI_X,
    PAULI_Z,
    LinearMap,
    StateVector,
    apply_on_wires,
    basis_state,
    born_probabilities,
    compose,
    dagger,
    dimension_limit,
    from_matrix,
    identity,
    ket,
    outcome_labels,
    set_dimension_limit,
    states_phase_equal,
    tensor,
)

RT2 = math.sqrt(2)


def test_linear_map_shape_and_entries():
    m = from_matrix([[1, 2], [3, 4]])
    assert m.in_dims == (2,) and m.out_dims == (2,)
    assert m.rows == 2 and m.cols == 2
    assert np.array_equal(m.array, np.array([[1, 2], [3, 4]], dtype=complex))


def test_linear_map_rejects_wrong_shape():
    with pytest.raises(ShapeMismatchError):
        LinearMap(np.zeros((3, 2), dtype=complex), (2,), (2,))


def test_linear_map_rejects_non_finite():
    with pytest.raises(ValueError):
        from_matrix([[np.inf, 0], [0, 1]])


def test_array_is_read_only():
    m = from_matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 5


def test_dimension_limit_enforced():
    assert dimension_limit() == 4096
    with pytest.raises(DimensionLimitError):
        identity((2,) * 13)
    set_dimension_limit(8)
    try:
        with pytest.raises(DimensionLimitError):
            identity((2, 2, 2, 2))
        identity((2, 2, 2))
    finally:
        set_dimension_limit(4096)


def test_tensor_is_kron_big_endian():
    # first factor owns the most significant digit
    x0 = tensor(PAULI_X, IDENTITY_1Q)
    state = x0.apply(ket("00"))
    assert born_probabilities(state) == {"00": 0.0, "01": 0.0,
                                         "10": 1.0, "11": 0.0}


def test_compose_applies_right_then_left():
    hx = compose(HADAMARD, PAULI_X)  # X first, then H
    expected = HADAMARD.array @ PAULI_X.array
    assert np.allclose(hx.array, expected)


def test_compose_shape_mismatch_message():
    two = identity((2,))
    three = identity((3,))
    with pytest.raises(ShapeMismatchError):
        compose(two, three)


def test_dagger_is_conjugate_transpose():
    m = from_matrix([[1, 2j], [3, 4]])
    assert np.array_equal(dagger(m).array, m.array.conj().T)
    assert dagger(m).in_dims == m.out_dims


def test_dagger_involution_and_contravariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = from_matrix(rng.normal(size=(2, 2))
                        + 1j * rng.normal(size=(2, 2)))
        b = from_matrix(rng.normal(size=(2, 2))
                        + 1j * rng.normal(size=(2, 2)))
        assert dagger(dagger(a)) == a
        assert dagger(compose(a, b)).allclose(
            compose(dagger(b), dagger(a)), tol=ALGEBRA_TOL)


def test_matmul_operator_composes():
    assert (HADAMARD @ HADAMARD).allclose(IDENTITY_1Q)


def test_builtin_gates_unitary():
    for name, gate in BUILTIN_GATES.items():
        assert gate.is_unitary(), name


def test_hadamard_entries():
    assert np.allclose(HADAMARD.array,
                       np.array([[1, 1], [1, -1]]) / RT2)


def test_pauli_algebra():
    assert (PAULI_X @ PAULI_X).allclose(IDENTITY_1Q)
    assert (PAULI_Z @ PAULI_Z).allclose(IDENTITY_1Q)
    xz = (PAULI_X @ PAULI_Z).array
    zx = (PAULI_Z @ PAULI_X).array
    assert np.allclose(xz, -zx)


def test_ket_and_basis_state():
    assert ket("10") == basis_state(2, (2, 2))
    assert ket("012", dim=3).dims == (3, 3, 3)
    amps = ket("012", dim=3).amplitudes
    assert amps[0 * 9 + 1 * 3 + 2] == 1.0
    assert np.count_nonzero(amps) == 1


def test_outcome_labels_qubits_and_qutrits():
    assert outcome_labels((2, 2)) == ["00", "01", "10", "11"]
    assert outcome_labels((3,)) == ["0", "1", "2"]
    assert outcome_labels((2, 12))[:3] == ["0,0", "0,1", "0,2"]


def test_born_probabilities_full_support():
    state = HADAMARD.apply(ket("0"))
    dist = born_probabilities(state)
    assert set(dist) == {"0", "1"}
    assert dist["0"] == pytest.approx(0.5, abs=1e-12)
    assert dist["1"] == pytest.approx(0.5, abs=1e-12)


def test_born_probabilities_rejects_unnormalized():
    state = StateVector(np.array([1.0, 1.0]), (2,))
    with pytest.raises(NormalizationError) as err:
        born_probabilities(state)
    assert err.value.total == pytest.approx(2.0)


def test_apply_shape_check():
    with pytest.raises(ShapeMismatchError):
        HADAMARD.apply(ket("00"))


def test_to_state_requires_column():
    col = LinearMap(np.array([[1.0], [0.0]]), (), (2,))
    assert col.to_state() == ket("0")
    with pytest.raises(ShapeMismatchError):
        HADAMARD.to_state()


def test_state_tensor_and_norm():
    plus = HADAMARD.apply(ket("0"))
    two = plus.tensor(plus)
    assert two.dims == (2, 2)
    assert two.is_normalized()
    assert two.squared_norm == pytest.approx(1.0, abs=1e-12)


def test_states_phase_equal_ignores_global_phase():
    state = ket("01")
    rotated = state.scaled(np.exp(1j * 0.83))
    assert states_phase_equal(state, rotated)
    assert not states_phase_equal(state, ket("10"))


def test_states_phase_equal_respects_relative_phase():
    a = StateVector(np.array([1, 1]) / RT2, (2,))
    b = StateVector(np.array([1, -1]) / RT2, (2,))
    assert not states_phase_equal(a, b)


def test_unitarity_random_products():
    rng = np.random.default_rng(11)
    for _ in range(20):
        # random unitaries via QR of a Ginibre matrix
        q, _r = np.linalg.qr(rng.normal(size=(4, 4))
                             + 1j * rng.normal(size=(4, 4)))
        u = LinearMap(q, (2, 2), (2, 2))
        assert u.is_unitary()
        assert (dagger(u) @ u).allclose(identity((2, 2)), tol=1e-9)


def test_unitarity_verdict_is_the_entrywise_gram_rule():
    rng = np.random.default_rng(12)
    tol = 1e-9
    cases = [np.array([[1e200, 1e200], [1e200, -1e200]]),  # NaN in U^dag U
             np.identity(3), np.ones((2, 2))]
    for scale in (0.0, 0.3e-9, 0.5e-9, 0.7e-9, 1e-6):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        cases.append(q + scale * rng.normal(size=(3, 3)))
    verdicts = []
    for arr in cases:
        u = LinearMap(arr, (len(arr),), (len(arr),))
        with np.errstate(over="ignore", invalid="ignore"):
            gram = arr.conj().T @ arr
            want = bool(np.allclose(gram, np.identity(len(arr)), rtol=0.0,
                                    atol=tol))
            assert u.is_unitary(tol) is want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_apply_on_wires_matches_kron_of_the_factors():
    rng = np.random.default_rng(5)

    def rand(rows, cols):
        return (rng.normal(size=(rows, cols))
                + 1j * rng.normal(size=(rows, cols)))

    cases = [
        [],
        [rand(2, 2)],
        [rand(3, 2), rand(2, 3)],
        [rand(2, 1), rand(3, 3), rand(1, 2)],
        [rand(3, 1), rand(2, 1), rand(3, 1)],
        [rand(2, 3), rand(3, 2), rand(2, 2), rand(1, 3)],
    ]
    for ops in cases:
        in_shape = tuple(op.shape[1] for op in ops)
        vec = rand(math.prod(in_shape), 1)[:, 0]
        got = apply_on_wires(ops, vec.reshape(in_shape))
        assert got.shape == tuple(op.shape[0] for op in ops)
        want = reduce(np.kron, ops, np.ones((1, 1))) @ vec
        assert np.allclose(got.reshape(-1), want, rtol=0.0, atol=1e-12)


def _loop_states_phase_equal(a, b, tol):
    """The pivot search ``states_phase_equal`` replaced: a scan for the
    first amplitude above ``tol`` in either vector."""
    if a.dims != b.dims:
        return False
    va, vb = a.amplitudes, b.amplitudes
    pivot = None
    for i in range(va.shape[0]):
        if abs(va[i]) > tol or abs(vb[i]) > tol:
            pivot = i
            break
    if pivot is None:
        return True
    if abs(va[pivot]) <= tol or abs(vb[pivot]) <= tol:
        return False
    phase = va[pivot] / vb[pivot]
    phase /= abs(phase)
    return bool(np.allclose(va, phase * vb, rtol=0.0, atol=tol))


def test_states_phase_equal_matches_the_pivot_loop():
    rng = np.random.default_rng(329)
    tol = 1e-9
    seen = set()
    for trial in range(600):
        size = int(rng.integers(1, 9))
        va = rng.normal(size=size) + 1j * rng.normal(size=size)
        va[rng.random(size) < 0.4] = 0.0
        va[rng.random(size) < 0.2] = tol / 2   # below the pivot threshold
        kind = trial % 4
        if kind == 0:    # a global phase: equal
            vb = np.exp(1j * rng.uniform(0, 2 * np.pi)) * va
        elif kind == 1:  # a relative phase on one entry: a mismatch
            vb = va.copy()
            vb[rng.integers(size)] *= np.exp(1j * rng.uniform(0.5, 3))
        elif kind == 2:  # the pivot present in only one of the vectors
            vb = va.copy()
            vb[np.flatnonzero(np.abs(va) > tol)[:1]] = 0.0
        else:            # both effectively zero
            va = np.full(size, tol / 2)
            vb = np.zeros(size, dtype=complex)
        a, b = StateVector(va, (size,)), StateVector(vb, (size,))
        got = states_phase_equal(a, b, tol)
        assert got == _loop_states_phase_equal(a, b, tol), trial
        seen.add((kind, got))
    assert {(0, True), (1, False), (2, False), (3, True)} <= seen


def _refused(error, message, call, *args):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error
    assert str(info.value) == message
    return info.value


def test_refusals_of_bad_values():
    _refused(ValueError, "dimension limit must be positive, got 0",
             set_dimension_limit, 0)
    assert dimension_limit() == 4096
    _refused(ShapeMismatchError, "3 amplitudes do not fill dims (2,)",
             StateVector, np.ones(3), (2,))
    zero = StateVector(np.zeros(2), (2,))
    assert _refused(NormalizationError, "cannot normalize the zero vector",
                    zero.normalized).total == 0.0
    _refused(ShapeMismatchError, "expected a matrix, got ndim=3",
             from_matrix, np.zeros((2, 2, 2)))
    _refused(ValueError, "ket digit out of range for dimension 2: '2'",
             ket, "2")
