"""The Mermin GHZ game as a string diagram (Brunner & Linden 2013).

Party i answers type x by measuring the qubit basis
b_s = (|0> + (-1)^s e^{i a}|1>)/sqrt 2 of phase a = a_i(x).  On the GHZ
state the amplitude of outcomes s for a type profile is then the column

    spider(0,3) ; spider(1,1,-a1) * spider(1,1,-a2) * spider(1,1,-a3)
                ; box(H) * box(H) * box(H)

under the computational observable, scaled by 1/sqrt 2, since the GHZ
spider is unnormalized.  The diagram is checked against the advice's own
bases as complex amplitudes, which see the sign of each phase, and its
Born rule against ``quantum_conditional``.
"""

import itertools
import math

import numpy as np
import pytest

from qgamelab import formats
from qgamelab.bayes import QuantumAdvice, quantum_conditional
from qgamelab.diagrams import ObservableStructure, evaluate, parse
from qgamelab.linalg import HADAMARD, StateVector

Z = ObservableStructure.computational()
GHZ3 = StateVector(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2),
                   (2, 2, 2))
MERMIN_PHASES = {"X": 0.0, "Y": math.pi / 2}


def _diagram_column(phases) -> np.ndarray:
    """The diagram's 8 amplitudes for one phase per party, over sqrt 2."""
    spiders = " * ".join(f"spider(1,1,{-a!r})" for a in phases)
    term = parse(f"spider(0,3) ; {spiders} ; box(H) * box(H) * box(H)")
    result = evaluate(term, Z, {"H": HADAMARD})
    assert (result.in_dims, result.out_dims) == ((), (2, 2, 2))
    return result.array[:, 0] / math.sqrt(2)


def _reference_column(advice: QuantumAdvice, joint_type) -> np.ndarray:
    """<b_{s1} (x) b_{s2} (x) b_{s3} | psi> for every outcome string s,
    from the advice's measurement bases and shared state."""
    bases = [advice.measurements[i][x] for i, x in enumerate(joint_type)]
    psi = advice.shared_state.amplitudes
    return np.array([
        np.vdot(np.kron(np.kron(bases[0][s1].amplitudes,
                                bases[1][s2].amplitudes),
                        bases[2][s3].amplitudes), psi)
        for s1, s2, s3 in itertools.product(range(2), repeat=3)])


def _check_advice(advice: QuantumAdvice, phases) -> None:
    """The diagram against ``advice`` on every type profile, where party
    i's basis for type x has phase ``phases[i][x]``."""
    conditional = quantum_conditional(advice)
    assert conditional.signaling_deviation() < 1e-12
    labels = list(itertools.product(*advice.strategies))
    for joint_type in advice.joint_types():
        column = _diagram_column(
            [phases[i][x] for i, x in enumerate(joint_type)])
        np.testing.assert_allclose(
            column, _reference_column(advice, joint_type), rtol=0,
            atol=1e-12)
        # the factor 1/2 of the Born rule is the 1/sqrt 2 taken above
        born = np.abs(column) ** 2
        expected = [conditional.prob(joint_type, js) for js in labels]
        np.testing.assert_allclose(born, expected, rtol=0, atol=1e-12)


def _seeded_advice(seed: int, n_types: int):
    rng = np.random.default_rng(seed)
    types = [[f"t{k}" for k in range(n_types)]] * 3
    phases = [{x: float(rng.uniform(0, 2 * math.pi)) for x in per}
              for per in types]
    advice = QuantumAdvice.from_phases(types, [["0", "1"]] * 3, GHZ3,
                                       phases)
    return advice, phases


def test_mermin_fixture_is_the_ghz_diagram():
    _, (_, advice) = formats.load_fixture("mermin_ghz3.json")
    assert advice.shared_state.allclose(GHZ3)
    assert advice.types == (("X", "Y"),) * 3
    _check_advice(advice, [MERMIN_PHASES] * 3)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_phase_advice_is_the_ghz_diagram(seed):
    advice, phases = _seeded_advice(seed, n_types=1 + seed % 3)
    _check_advice(advice, phases)


def test_amplitudes_see_the_sign_of_a_phase_the_born_rule_does_not():
    # on GHZ, flipping every phase conjugates the column: the Born rule
    # is unchanged, the amplitudes are not
    advice, phases = _seeded_advice(101, n_types=2)
    joint_type = ("t1",) * 3
    reference = _reference_column(advice, joint_type)
    angles = [phases[i][x] for i, x in enumerate(joint_type)]
    flipped = _diagram_column([-a for a in angles])
    np.testing.assert_allclose(np.abs(flipped) ** 2, np.abs(reference) ** 2,
                               rtol=0, atol=1e-12)
    assert np.abs(flipped - reference).max() > 0.1
