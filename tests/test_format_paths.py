"""``formats`` paths the fixtures never take: a spec with an entangler
matrix and an entangled state round-trips, and each refusal below gives
its exact FormatError message."""

import json
import math

import numpy as np
import pytest

from qgamelab import formats
from qgamelab.bayes import chsh_game
from qgamelab.errors import FormatError
from qgamelab.ewl import QuantumGameSpec
from qgamelab.linalg import BUILTIN_GATES, StateVector, from_matrix


def _refused(message, call, *args):
    with pytest.raises(FormatError) as info:
        call(*args)
    assert type(info.value) is FormatError
    assert str(info.value) == message


def test_an_entangler_matrix_and_entangled_state_round_trip():
    # a CNOT is unitary but not the EWL entangler, so it is written as a
    # matrix; the state is the Bell state it would not produce from |00>
    cnot = from_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                        [0, 0, 1, 0]], (2, 2), (2, 2))
    r = 1 / math.sqrt(2)
    bell = StateVector(np.array([r, 0, 0, 1j * r]), (2, 2))
    gates = {name: BUILTIN_GATES[name] for name in ("I", "X", "H")}
    spec = QuantumGameSpec(
        players=2, strategies=(gates, dict(gates)),
        payoff_coeffs=({"00": 3.0, "01": 0.0, "10": 5.0, "11": 1.0},
                       {"00": 3.0, "01": 5.0, "10": 0.0, "11": 1.0}),
        entangler=cnot, entangled_state=bell)
    text = formats.dumps(spec)
    doc = json.loads(text)
    assert set(doc["entangler"]) == {"matrix"}
    assert doc["entangled_state"] == [[r, 0.0], [0.0, 0.0], [0.0, 0.0],
                                      [0.0, r]]
    kind, again = formats.loads(text)
    assert kind == "ewl"
    assert again == spec
    assert formats.dumps(again) == text


def _bayes_doc(advice):
    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    doc["advice"] = advice
    return doc


CLASSICAL = {"kind": "classical", "lambdas": ["0"], "rho": {"0": 1.0},
             "responses": [{"0|0": {"0": 1.0}, "1|0": {"0": 1.0}}] * 2}
QUANTUM = {"kind": "quantum",
           "state": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]],
           "measurements": [{"0": {"phase": 0}, "1": {"phase": "pi/2"}}] * 2}


def test_the_advice_documents_the_refusals_start_from_load():
    for advice in (CLASSICAL, QUANTUM):
        game, loaded = formats.bayes_from_json(_bayes_doc(advice))
        assert formats.advice_to_json(loaded)["kind"] == advice["kind"]


@pytest.mark.parametrize("change, message", [
    ({"lambdas": []}, "advice.lambdas: expected a nonempty list"),
    ({"lambdas": "0"}, "advice.lambdas: expected a nonempty list"),
    ({"rho": [1.0]}, "advice.rho: expected an object"),
    ({"responses": [CLASSICAL["responses"][0], []]},
     "advice.responses[1]: expected an object"),
])
def test_classical_advice_refusals(change, message):
    _refused(message, formats.bayes_from_json,
             _bayes_doc(dict(CLASSICAL, **change)))


@pytest.mark.parametrize("change, message", [
    ({"state": [[1.0, 0.0]] * 3},
     "advice.state: cannot infer 2 equal wire sizes from 3 amplitudes; "
     "give advice.dims"),
    ({"dims": [3, 3], "state": [[1 / 3, 0.0]] * 9},
     "advice.measurements[0]['0']: phase bases need a qubit wire, got "
     "dimension 3"),
])
def test_quantum_advice_refusals(change, message):
    _refused(message, formats.bayes_from_json,
             _bayes_doc(dict(QUANTUM, **change)))


def test_refusals_of_the_wrong_kind_of_document():
    _refused("ewl spec: expected an object, got list",
             formats.ewl_from_json, [])
    _refused("ewl spec: kind is 'bayes'", formats.ewl_from_json,
             {"kind": "bayes"})
    _refused("bayes spec: kind is 'ewl'", formats.bayes_from_json,
             {"kind": "ewl"})
    _refused("advice: expected an object", formats.bayes_from_json,
             _bayes_doc([]))


def test_advice_tables_keyed_by_other_than_strings_are_refused():
    # json never gives such a key; a caller's mapping can, and the
    # constructor would read it as its str()
    _refused("advice: tables must map strings to numbers",
             formats.advice_from_json, dict(CLASSICAL, rho={0: 1.0}),
             chsh_game())


def test_only_games_and_advice_serialize():
    thing = object()
    _refused(f"cannot serialize advice {thing!r}", formats.advice_to_json,
             thing)
    _refused(f"cannot serialize {thing!r}", formats.dumps, thing)
