"""The EWL half of the phase-group argument: phase strategies fuse.

With the strategies U(0, phi) = diag(e^{i phi}, e^{-i phi}), the EWL
state before J-dagger is one box-free diagram:
(U(0,a) * U(0,b)) J|00> = e^{i(a+b)} / sqrt 2 times

    spider(0,2,0.5pi) ; spider(1,1,-2a) * spider(1,1,-2b)

and the spider theorem fuses that diagram to one 0 -> 2 spider of phase
pi/2 - 2(a+b).  So the outcome depends on a+b alone: P(00) = cos^2(a+b)
and P(11) = sin^2(a+b), which ``ewl.play`` must agree with.
"""

import math

import numpy as np

from qgamelab.diagrams import (
    ObservableStructure,
    PhaseElement,
    evaluate,
    normal_form,
    parse,
)
from qgamelab.ewl import QuantumGameSpec, ewl_entangler, ewl_strategy, play

Z = ObservableStructure.computational(2)
_OUTCOMES = ("00", "01", "10", "11")


def _phase_strategies(a: float, b: float) -> str:
    return (f"spider(0,2,0.5pi) ; spider(1,1,{-2 * a!r}) * "
            f"spider(1,1,{-2 * b!r})")


def test_phase_strategies_fuse_to_one_spider():
    rng = np.random.default_rng(1999)
    for a, b in rng.uniform(-math.pi, math.pi, size=(50, 2)).tolist():
        form = normal_form(parse(_phase_strategies(a, b)), Z)
        assert (form.in_wires, form.out_wires) == (0, 2)
        assert (form.wires, form.scalar) == ((), 1)
        [part] = form.components
        assert (part.inputs, part.outputs) == ((), (0, 1))
        fused = PhaseElement.qubit(math.pi / 2 - 2 * (a + b)).weights()
        assert np.abs(part.weights - fused).max() <= 1e-12


def test_the_payoffs_depend_on_a_plus_b_alone():
    rng = np.random.default_rng(2014)
    entangler = ewl_entangler(2)
    boxes = {"Jdag": entangler.dagger()}
    coeffs = ({"00": 3.0, "01": 0.0, "10": 5.0, "11": 1.0},
              {"00": 3.0, "01": 5.0, "10": 0.0, "11": 1.0})
    for a, b in rng.uniform(-math.pi, math.pi, size=(200, 2)).tolist():
        term = parse(_phase_strategies(a, b) + " ; box(Jdag)")
        # the diagram is sqrt 2 e^{-i(a+b)} times the played state
        state = evaluate(term, Z, boxes).to_state()
        probs = np.abs(state.amplitudes) ** 2 / 2
        want = [math.cos(a + b) ** 2, 0.0, 0.0, math.sin(a + b) ** 2]
        assert np.abs(probs - want).max() <= 1e-12
        spec = QuantumGameSpec(
            players=2, strategies=({"A": ewl_strategy(0, a)},
                                   {"B": ewl_strategy(0, b)}),
            payoff_coeffs=coeffs, entangler=entangler)
        result = play(spec, ("A", "B"))
        played = [result.outcome_distribution[k] for k in _OUTCOMES]
        assert np.abs(probs - played).max() <= 1e-12
        for table, paid in zip(coeffs, result.payoffs):
            assert abs(paid - sum(p * table[k] for p, k in
                                  zip(probs, _OUTCOMES))) <= 1e-12
