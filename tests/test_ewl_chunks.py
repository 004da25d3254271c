"""The EWL payoff table is contracted a chunk of player 0's gates at a
time; these tests hold it to the one-gate-at-a-time contraction it
replaced, bit for bit, on tables that split into several chunks."""

import math

import numpy as np
import pytest

from qgamelab import ewl
from qgamelab.errors import NormalizationError
from qgamelab.ewl import QuantumGameSpec, ewl_entangler, ewl_strategy_grid
from qgamelab.linalg import (
    LinearMap,
    apply_on_wires,
    born_weights,
    from_matrix,
    outcome_labels,
)


def _stacks(spec):
    return [np.array([gate.array for gate in per.values()])
            for per in spec.strategies]


def _per_gate_finals(spec, stacks):
    """The old ``_final_states``: one block of final states per gate of
    player 0, each contracted on its own."""
    d, n = spec.dim, spec.players
    shared = spec.shared_state().amplitudes.reshape((d,) * n)
    rest = apply_on_wires([stack.transpose(1, 2, 0) for stack in stacks[1:]],
                          np.moveaxis(shared, 0, -1))
    order = [*range(2, 2 * n - 1, 2), 0, *range(1, 2 * n - 2, 2)]
    flat = rest.reshape(d, -1)
    unentangle = spec.entangler.array.conj()
    for gate in stacks[0]:
        moved = (gate @ flat).reshape(rest.shape).transpose(order)
        yield moved.reshape(-1, d ** n) @ unentangle


def _per_gate_table(spec):
    """The payoff array with one Born-weight call per gate of player 0."""
    stacks = _stacks(spec)
    out = np.empty((len(stacks[0]), math.prod(map(len, stacks[1:])),
                    spec.players))
    for block, finals in zip(out, _per_gate_finals(spec, stacks)):
        block[:] = born_weights(finals) @ spec._coeffs.T
    return out.reshape(tuple(map(len, stacks)) + (spec.players,))


def _random_unitary(rng, size):
    q, r = np.linalg.qr(rng.normal(size=(size, size))
                        + 1j * rng.normal(size=(size, size)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_spec(rng, d, counts):
    n = len(counts)
    sets = tuple({f"g{k}": LinearMap(_random_unitary(rng, d), (d,), (d,))
                  for k in range(count)} for count in counts)
    coeffs = tuple(dict(zip(outcome_labels((d,) * n),
                            rng.normal(size=d ** n).tolist()))
                   for _ in range(n))
    entangler = ewl_entangler(n) if d == 2 and n > 1 else \
        LinearMap(_random_unitary(rng, d ** n), (d,) * n, (d,) * n)
    return QuantumGameSpec(n, sets, coeffs, entangler, dim=d)


# (d, strategy counts): K_rest = 1 with one and with two players, qutrits,
# three players, and chunks of one gate or of several
SHAPES = [(2, (700, 1)), (3, (60,)), (2, (100, 100)), (3, (7, 4, 5)),
          (2, (9, 6, 5)), (3, (45, 11)), (2, (1, 30))]


@pytest.mark.parametrize("d, counts", SHAPES)
def test_chunked_table_matches_the_per_gate_oracle_bit_for_bit(d, counts):
    rng = np.random.default_rng([20261021, d, *counts])
    spec = _random_spec(rng, d, counts)
    got = ewl._payoff_array(spec, spec.strategy_labels)
    want = _per_gate_table(spec)
    assert got.shape == want.shape == (*counts, len(counts))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk_bytes", [1, 200, 1000, 5000])
@pytest.mark.parametrize("d, counts", SHAPES)
def test_every_chunk_size_gives_the_same_table(monkeypatch, d, counts,
                                               chunk_bytes):
    monkeypatch.setattr(ewl, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng([20261022, d, *counts])
    spec = _random_spec(rng, d, counts)
    assert ewl._payoff_array(spec, spec.strategy_labels).tobytes() == \
        _per_gate_table(spec).tobytes()


def test_the_shapes_split_into_several_chunks_at_the_default_size():
    # the default size must split the tables above, or the first test
    # would only see one chunk
    rng = np.random.default_rng(5)
    for d, counts in [(2, (700, 1)), (2, (100, 100)), (3, (7, 4, 5)),
                      (3, (45, 11))]:
        spec = _random_spec(rng, d, counts)
        chunks = list(ewl._final_chunks(spec, _stacks(spec)))
        assert len(chunks) > 1, (d, counts)
        assert sum(map(len, chunks)) == counts[0]
        rows = math.prod(counts[1:])
        for chunk in chunks:
            assert chunk.shape[1:] == (rows, d ** len(counts))
            assert chunk.nbytes <= max(ewl._CHUNK_BYTES,
                                       rows * d ** len(counts) * 16)


@pytest.mark.parametrize("d, counts", SHAPES)
def test_final_states_yields_one_two_dimensional_block_per_gate(d, counts):
    rng = np.random.default_rng([20261023, d, *counts])
    spec = _random_spec(rng, d, counts)
    stacks = _stacks(spec)
    blocks = list(ewl._final_states(spec, stacks))
    assert len(blocks) == counts[0]
    rows = math.prod(counts[1:])
    assert all(b.shape == (rows, d ** len(counts)) for b in blocks)
    for got, want in zip(blocks, _per_gate_finals(spec, stacks)):
        assert got.tobytes() == want.tobytes()


def _spec_unnormalized_in_chunk_two():
    # (1 + eps) I passes the unitarity check, and so does one such factor
    # in a profile's state; two of them push |sigma|^2 past PROB_TOL.
    # Player 1 has 100 grid gates and J, so a chunk holds 5 of player 0's
    # gates, and J at index 7 of player 0 sits in the second chunk.
    scaled = from_matrix(np.eye(2) * (1 + 4e-10))
    grid = ewl_strategy_grid(10, 10)
    gates = list(grid.items())[:11]
    first = dict(gates[:7] + [("J", scaled)] + gates[7:])
    second = {**grid, "J": scaled}
    coeffs = {label: float(v)
              for v, label in enumerate(outcome_labels((2, 2)))}
    return QuantumGameSpec(players=2, strategies=(first, second),
                           payoff_coeffs=(coeffs, coeffs),
                           entangler=ewl_entangler(2))


def test_the_first_unnormalized_profile_in_a_later_chunk_is_reported():
    spec = _spec_unnormalized_in_chunk_two()
    labels = spec.strategy_labels
    step = len(next(ewl._final_chunks(spec, _stacks(spec))))
    assert labels[0].index("J") >= step   # J is past the first chunk
    with pytest.raises(NormalizationError) as want:
        _per_gate_table(spec)
    with pytest.raises(NormalizationError) as got:
        ewl._payoff_array(spec, labels)
    assert str(got.value) == str(want.value)
    assert got.value.total == want.value.total
    assert got.value.total > 1 + 1e-9
