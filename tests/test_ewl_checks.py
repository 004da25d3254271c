"""Every refusal of the ``ewl`` inputs: the error class and its message.

Each case gives one faulty input to an otherwise valid call and checks
the exact text of the error it raises.
"""

import numpy as np
import pytest

from qgamelab.errors import (
    DomainMismatchError,
    EmbeddingError,
    ShapeMismatchError,
    UnitarityError,
    UnsupportedDimensionError,
)
from qgamelab.ewl import (
    PD_PAYOFFS,
    QuantumGameSpec,
    StrategicFormGame,
    ewl_entangler,
    ewl_strategy_grid,
    payoff_table,
    pd_quantum,
    play,
    prisoners_dilemma,
    pure_nash,
    quantize,
)
from qgamelab.linalg import (
    HADAMARD,
    IDENTITY_1Q,
    PAULI_X,
    from_matrix,
    identity,
    ket,
)

COEFFS = {"00": 3.0, "01": 0.0, "10": 5.0, "11": 1.0}


def _spec(**changes):
    fields = dict(players=2, strategies=({"I": IDENTITY_1Q},) * 2,
                  payoff_coeffs=(COEFFS, COEFFS), entangler=ewl_entangler(2))
    fields.update(changes)
    return QuantumGameSpec(**fields)


def _raises(error, message, call, *args, **kwargs):
    with pytest.raises(error) as info:
        call(*args, **kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("changes, error, message", [
    ({"players": 0}, DomainMismatchError,
     "a game needs at least one player"),
    ({"dim": 1}, UnsupportedDimensionError, "qudit dimension 1 < 2"),
    ({"strategies": ({"I": IDENTITY_1Q},)}, DomainMismatchError,
     "1 strategy sets for 2 players"),
    ({"strategies": ({"I": IDENTITY_1Q}, {})}, DomainMismatchError,
     "player 1 has no strategies"),
    ({"strategies": ({"I": IDENTITY_1Q}, {"II": identity((2, 2))})},
     ShapeMismatchError, "strategy 'II' of player 1 is not a single "
                         "dimension-2 wire: (2, 2) -> (2, 2)"),
    ({"entangler": identity((2,))}, ShapeMismatchError,
     "entangler acts on (2,), expected (2, 2)"),
    ({"entangler": from_matrix(np.diag([1.0, 1.0, 1.0, 2.0]), (2, 2),
                               (2, 2))},
     UnitarityError, "entangler is not unitary"),
    ({"payoff_coeffs": (COEFFS,)}, DomainMismatchError,
     "1 payoff tables for 2 players"),
    ({"entangled_state": ket("0")}, ShapeMismatchError,
     "entangled state on (2,), expected (2, 2)"),
])
def test_spec_refusals(changes, error, message):
    _raises(error, message, _spec, **changes)


def test_play_refuses_a_profile_of_the_wrong_length():
    _raises(DomainMismatchError, "profile ('I',) has 1 entries for 2 "
                                 "players", play, _spec(), ["I"])


def test_pure_nash_refuses_an_empty_table_and_a_non_game():
    _raises(DomainMismatchError, "empty payoff table", pure_nash, {})
    thing = object()
    _raises(TypeError, f"expected a game, spec, or payoff table: {thing!r}",
            pure_nash, thing)


def test_strategy_grid_needs_a_point_per_axis():
    _raises(DomainMismatchError, "grid needs at least one point per axis",
            ewl_strategy_grid, 0, 1)


@pytest.mark.parametrize("names, message", [
    (("X", "H"), "strategy set ('X', 'H') must contain 'I'"),
    (("I", "H"), "strategy set ('I', 'H') must contain 'X'"),
    (("I", "X", "Q"),
     "unknown builtin gate 'Q'; known: ['H', 'I', 'X', 'Z']"),
])
def test_pd_quantum_refusals(names, message):
    _raises(DomainMismatchError, message, pd_quantum, names)


def test_quantize_takes_one_embedding_per_player():
    spec = quantize(prisoners_dilemma(), [{"C": IDENTITY_1Q, "D": PAULI_X},
                                          {"C": PAULI_X, "D": IDENTITY_1Q}])
    assert spec.strategies[0] == {"C": IDENTITY_1Q, "D": PAULI_X}
    assert spec.strategies[1] == {"C": PAULI_X, "D": IDENTITY_1Q}
    table = payoff_table(spec)
    assert list(table) == list(PD_PAYOFFS)
    for profile, want in PD_PAYOFFS.items():
        assert table[profile] == pytest.approx(want, abs=1e-12)


def test_quantize_refusals():
    pd = prisoners_dilemma()
    embedding = {"C": IDENTITY_1Q, "D": PAULI_X}
    _raises(DomainMismatchError, "1 embedding mappings for 2 players",
            quantize, pd, [embedding])
    _raises(EmbeddingError, "player 1 embedding lacks labels ['D']",
            quantize, pd, [embedding, {"C": IDENTITY_1Q}])
    three = StrategicFormGame((("a", "b", "c"),) * 2, {
        (x, y): (0.0, 0.0) for x in "abc" for y in "abc"})
    _raises(EmbeddingError, "player 0 has 3 labels; need exactly 2 to key "
                            "dimension-2 outcomes",
            quantize, three, {"a": IDENTITY_1Q, "b": PAULI_X,
                              "c": HADAMARD})
    _raises(DomainMismatchError, "extra strategy 'C' collides with an "
                                 "embedded label of player 0",
            quantize, pd, embedding, extra_strategies={"C": HADAMARD})
