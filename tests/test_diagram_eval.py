import itertools
import math
import tracemalloc
import warnings
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
    swap_map,
    validate_born_vector,
)
from qgamelab.errors import (
    DimensionLimitError,
    NormalizationError,
    ShapeMismatchError,
    UnboundBoxError,
)
from qgamelab.ewl import (
    QuantumGameSpec,
    ewl_entangler,
    ewl_strategy_grid,
    final_state,
)
from qgamelab.linalg import (
    HADAMARD,
    PAULI_X,
    LinearMap,
    StateVector,
    apply_on_wires,
    dimension_limit,
    identity,
    ket,
    outcome_labels,
    set_dimension_limit,
    tensor_in_place,
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


def _copy_tensor_spider(obs, inputs, outputs, phase=None) -> np.ndarray:
    """The spider as it was built before the rank-d product: the copy
    tensor with w_k at |k..k>, moved leg by leg to the standard basis."""
    d = obs.dim
    if phase is None:
        weights = np.ones(d, dtype=complex)
    else:
        if phase.dim != d:
            raise ShapeMismatchError("phase and observable dims differ")
        weights = phase.weights()
    legs = outputs + inputs
    copy = np.zeros(d ** legs, dtype=complex)
    np.add.at(copy, np.arange(d) * sum(d ** a for a in range(legs)), weights)
    points = obs.point_matrix()
    arr = apply_on_wires([points] * outputs + [points.conj()] * inputs,
                         copy.reshape((d,) * legs))
    return arr.reshape(d ** outputs, d ** inputs)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_spider_map_matches_the_copy_tensor_oracle(d):
    rng = np.random.default_rng(900 + d)
    qudit = PhaseElement((0.0,) + tuple(rng.uniform(-4, 4, d - 1)))
    qubit = PhaseElement.qubit(float(rng.uniform(-4, 4)))
    for m, n in itertools.product(range(5), range(5)):
        for phase in (None, qubit, qudit):
            for obs, exact in ((ObservableStructure.computational(d), True),
                               (ObservableStructure.fourier(d), False)):
                if phase is not None and phase.dim != d:
                    with pytest.raises(ShapeMismatchError):
                        spider_map(obs, m, n, phase)
                    with pytest.raises(ShapeMismatchError):
                        _copy_tensor_spider(obs, m, n, phase)
                    continue
                got = spider_map(obs, m, n, phase).array
                want = _copy_tensor_spider(obs, m, n, phase)
                assert got.shape == want.shape
                if exact:
                    assert np.array_equal(got, want), (m, n, phase)
                else:
                    scale = float(np.abs(want).max())
                    assert np.abs(got - want).max() <= 1e-12 * scale, \
                        (m, n, phase)


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


# ------------------------------------------------- the kron/compose oracle


def _oracle_eval(term, obs, boxes=None) -> LinearMap:
    """The evaluator before streaming: every Seq stage multiplied out as a
    dense matrix and every Par built as a chain of Kronecker products."""
    d = obs.dim
    if isinstance(term, Id):
        return identity((d,) * term.wires)
    if isinstance(term, Spider):
        return spider_map(obs, term.inputs, term.outputs, term.phase)
    if isinstance(term, Cup):
        return spider_map(obs, 0, 2)
    if isinstance(term, Cap):
        return spider_map(obs, 2, 0)
    if isinstance(term, Swap):
        return swap_map(d)
    if isinstance(term, Box):
        return boxes[term.name]
    if isinstance(term, Ket):
        return ket_map(obs, term.digits)
    if isinstance(term, Seq):
        acc = _oracle_eval(term.stages[0], obs, boxes)
        for stage in term.stages[1:]:
            acc = _oracle_eval(stage, obs, boxes) @ acc
        return acc
    if isinstance(term, Par):
        acc = _oracle_eval(term.factors[0], obs, boxes)
        for factor in term.factors[1:]:
            acc = acc.tensor(_oracle_eval(factor, obs, boxes))
        return acc
    raise TypeError(f"not a diagram term: {term!r}")


# Wires per side a random term may reach, per dimension.
_MAX_WIRES = {1: 8, 2: 5, 3: 4}


def _random_atom(rng, ins, d, boxes, phased):
    """A random atom with ``ins`` <= 2 inputs, and its output count."""
    outs = int(rng.integers(0, 3))
    kind = int(rng.integers(4))
    if kind == 0:
        phase = None
        if phased and rng.random() < 0.7:
            phase = PhaseElement((0.0,) + tuple(rng.uniform(-4, 4, d - 1)))
        return Spider(ins, outs, phase), outs
    if kind == 1:
        # One entry of 1, i, -1 or -i per column: exact in the
        # computational basis, and no growth to cancel out later
        name = f"b{len(boxes)}"
        rows, cols = d ** outs, d ** ins
        arr = np.zeros((rows, cols), dtype=complex)
        arr[rng.integers(rows, size=cols), np.arange(cols)] = \
            np.array([1, 1j, -1, -1j])[rng.integers(4, size=cols)]
        boxes[name] = LinearMap(arr, (d,) * ins, (d,) * outs)
        return Box(name), outs
    if ins == 0:
        pick = int(rng.integers(3))
        if pick == 0:
            return Cup(), 2
        if pick == 1:
            digits = "".join(str(k) for k in rng.integers(0, d, size=outs + 1))
            return Ket(digits), len(digits)
        return Seq((Cup(), Cap())), 0
    if ins == 2 and kind == 2:
        return (Swap(), 2) if rng.random() < 0.5 else (Cap(), 0)
    return Id(ins), ins


def _random_stage(rng, ins, d, boxes, depth, phased):
    """A Par over ``ins`` wires of atoms and nested terms."""
    while True:
        factors, outs, left = [], 0, ins
        while left or not factors:
            take = int(rng.integers(0, min(left, 2) + 1))
            if depth and rng.random() < 0.2:
                factor, made = _random_term(rng, take, d, boxes, phased,
                                            depth - 1)
            else:
                factor, made = _random_atom(rng, take, d, boxes, phased)
            factors.append(factor)
            left, outs = left - take, outs + made
        if outs <= _MAX_WIRES[d]:
            return (factors[0] if len(factors) == 1 else Par(tuple(factors)),
                    outs)


def _random_term(rng, ins, d, boxes, phased, depth=2):
    """A random Seq of 1-4 Par stages with ``ins`` inputs, and its output
    count; factors nest further terms ``depth`` levels deep.  Unless
    ``phased``, spiders carry no phase, so every entry of a computational
    map is a Gaussian integer and exact in any summation order."""
    stages, wires = [], ins
    for _ in range(int(rng.integers(1, 5))):
        stage, wires = _random_stage(rng, wires, d, boxes, depth, phased)
        stages.append(stage)
    return (stages[0] if len(stages) == 1 else Seq(tuple(stages))), wires


@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluate_matches_the_kron_compose_oracle(d):
    rng = np.random.default_rng(700 + d)
    for trial in range(80):
        boxes, phased = {}, trial % 2 == 1
        term, _ = _random_term(rng, int(rng.integers(0, 4)), d, boxes,
                               phased)
        for obs, exact in ((ObservableStructure.computational(d), not phased),
                           (ObservableStructure.fourier(d), False)):
            got = evaluate(term, obs, boxes)
            want = _oracle_eval(term, obs, boxes)
            assert (got.in_dims, got.out_dims) == \
                (want.in_dims, want.out_dims), term
            scale = max(1.0, float(np.abs(want.array).max()))
            assert got.allclose(want, tol=1e-12 * scale), term
            if exact:
                assert got == want, term


def test_ewl_circuit_as_a_diagram_matches_final_state():
    """The EWL protocol is the diagram ket ; J ; (U_A * U_B) ; J-dagger."""
    rng = np.random.default_rng(2014)
    grid = ewl_strategy_grid(4, 4)
    outcomes = outcome_labels((2, 2))
    coeffs = tuple(dict(zip(outcomes, rng.normal(size=4).tolist()))
                   for _ in range(2))
    for initial in ("00", "01", "11"):
        spec = QuantumGameSpec(players=2, strategies=(grid, dict(grid)),
                               payoff_coeffs=coeffs,
                               entangler=ewl_entangler(2),
                               initial_ket=initial)
        term = parse(f"ket({initial}) ; box(J) ; box(A) * box(B) ; "
                     f"box(Jdag)")
        labels = list(grid)
        for _ in range(12):
            a, b = (labels[k] for k in rng.integers(len(labels), size=2))
            boxes = {"J": spec.entangler, "Jdag": spec.entangler.dagger(),
                     "A": spec.strategy(0, a), "B": spec.strategy(1, b)}
            got = evaluate(term, Z, boxes).to_state()
            assert got.allclose(final_state(spec, (a, b)), tol=1e-12)


# ------------------------------------------------------ caps and memory


def test_par_stages_shrink_before_they_grow():
    """cup * cap * id(6) on 8 wires stays at 8 wires when the cap goes
    first; the cup first would need 10 wires, over a cap of 256."""
    term = parse("id(8) ; cup * cap * id(6)")
    limit = dimension_limit()
    try:
        set_dimension_limit(256)
        got = evaluate(term, Z)
        want = _oracle_eval(term, Z)
    finally:
        set_dimension_limit(limit)
    assert got == want


def test_streamed_intermediates_are_checked_before_allocating():
    # Streaming the two cups into the 512-column map would allocate 16 and
    # then 64 MiB before the 13-wire result met the cap.
    term = parse("id(9) ; cup * cup * id(9)")
    limit = dimension_limit()
    try:
        set_dimension_limit(512)
        tracemalloc.start()
        with pytest.raises(DimensionLimitError):
            evaluate(term, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        set_dimension_limit(limit)
    assert peak < 12 * 2 ** 20


@pytest.mark.parametrize("source", [
    "id(3) * spider(1,1,0.3) * id(3) * swap * id(2)",
    "id(10) * spider(1,1,0.3)",
])
def test_lone_par_is_built_in_one_allocation(source):
    # 11 wires at d = 2: the 2048 x 2048 result is 64 MiB, and a Kronecker
    # chain would hold a 16 MiB identity next to it
    result_bytes = 16 * 2 ** 22
    tracemalloc.start()
    try:
        out = evaluate(parse(source), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.array.nbytes == result_bytes
    assert peak < 1.25 * result_bytes


def test_lone_par_rejects_entries_that_overflow():
    big = LinearMap(np.diag([1e200, 1.0]).astype(complex), (2,), (2,))
    message = r"^entries must be finite \(no NaN/Inf\)$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            evaluate(parse("box(A) * box(B)"), Z, {"A": big, "B": big})
        for factors in ([big.array, 4, big.array], [np.array([[np.nan]]), 2],
                        [3, np.array([[0.0, np.inf]])]):
            with pytest.raises(ValueError, match=message):
                tensor_in_place(factors)


def test_lone_par_checks_only_the_entries_it_writes():
    # 11 wires at d = 2: a finiteness pass over the whole 64 MiB result
    # would allocate a 4 MiB bool array next to it
    result_bytes = 16 * 2 ** 22
    tracemalloc.start()
    try:
        out = evaluate(parse("id(10) * spider(1,1,0.3)"), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.array.nbytes == result_bytes
    assert peak < 1.02 * result_bytes


def test_lone_par_raises_with_no_warning_first():
    """An overflow or a NaN in a lone Par is reported by the ValueError
    alone: no numpy RuntimeWarning reaches the caller before it."""
    big = LinearMap(np.diag([1e200, 1.0]).astype(complex), (2,), (2,))
    message = r"^entries must be finite \(no NaN/Inf\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            evaluate(parse("box(A) * box(B)"), Z, {"A": big, "B": big})
        for factors in ([big.array, 4, big.array], [np.array([[np.nan]]), 2],
                        [3, np.array([[0.0, np.inf]])],
                        [np.array([[np.inf]]), np.array([[0.0, 1.0]])]):
            with pytest.raises(ValueError, match=message):
                tensor_in_place(factors)
