"""The map text's zero runs against the old emitter, byte for byte.

``cli._complex_rows`` writes a row as one join of its non-zeros' texts
and of the runs of zeros between them, each run a slice of the all-zero
row.  These maps put non-zeros where a run has an edge: in the first and
last column, next to each other, between all-zero rows, in one-row and
one-column maps, once per row of a 256 x 256 map, and in every entry of
a dense 8-wire Fourier map.  Each is checked against
``tests/test_cli.py``'s ``_oracle_json`` and ``_oracle_table_rows``,
which format every entry as the stdlib path did.
"""

import math

import numpy as np
import pytest

from qgamelab import cli
from qgamelab.diagrams import ObservableStructure, evaluate, parse
from test_cli import _oracle_json, _oracle_round12, _oracle_table_rows


def _oracle_cells(array: np.ndarray) -> list[list[str]]:
    """The old table cells: one format call per entry."""
    return [[f"{_oracle_round12(z.real):.12g}{_oracle_round12(z.imag):+.12g}i"
             for z in row] for row in array]


def _check(array: np.ndarray) -> None:
    report = {"dim": 2, "matrix": array, "pretty": "id(1)"}
    assert cli._json_text(report) == _oracle_json(report)
    assert ["  [" + row + "]" for row in cli._table_rows(array)] == \
        _oracle_table_rows(array)
    cells = cli._table_cells(array)
    assert all(type(row) is list for row in cells)
    assert cells == _oracle_cells(array)


def _map(shape, entries) -> np.ndarray:
    array = np.zeros(shape, dtype=complex)
    for (r, c), z in entries.items():
        array[r, c] = z
    return array


@pytest.mark.parametrize("entries", [
    {(0, 0): 1.0},                                   # first column
    {(0, 6): -2.5j},                                 # last column
    {(0, 0): 1.0, (0, 6): 0.5 - 0.5j},               # both ends
    {(1, 2): 1.0, (1, 3): 1j, (1, 4): -1.0},         # adjacent
    {(0, 5): 1.0, (0, 6): 2.0, (4, 0): 3.0, (4, 1): 4.0},
    {(0, 3): 1.0, (4, 3): 1.0},                      # zero rows between
    {(r, c): 1.0 for r in range(5) for c in range(7) if c != 3},
    {},                                              # no non-zero at all
])
def test_runs_at_every_edge_of_a_row(entries):
    _check(_map((5, 7), entries))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1)])
def test_one_row_and_one_column(shape):
    rng = np.random.default_rng(shape)
    for density in (0.0, 0.3, 1.0):
        array = np.where(rng.random(shape) < density,
                         rng.normal(size=shape) + 1j * rng.normal(size=shape),
                         0)
        _check(array)


def test_signed_zero_parts_of_a_non_zero_share_its_text():
    array = _map((2, 4), {(0, 1): complex(-0.0, 1.0), (0, 2): 1j,
                          (1, 0): complex(1.0, -0.0), (1, 3): 1.0,
                          (1, 2): complex(1e-17, -1e-17)})
    _check(array)


def test_one_non_zero_per_row_of_a_256_map():
    array = evaluate(parse("swap * swap * swap * swap"),
                     ObservableStructure.computational(2)).array
    assert (np.count_nonzero(array, axis=1) == 1).all()
    _check(array)
    rng = np.random.default_rng(256)
    permuted = np.zeros((256, 256), dtype=complex)
    permuted[np.arange(256), rng.permutation(256)] = \
        rng.choice([1, -1, 1j, 0.5 - 0.25j], 256)
    _check(permuted)


def test_seeded_patterns_of_every_density():
    rng = np.random.default_rng(31)
    pool = np.array([1, -1, 1j, 0.1234567890125, -0.0 + 2e-17j, 1e300])
    for density in (0.01, 0.1, 0.5, 0.9, 0.99):
        shape = tuple(int(n) for n in rng.integers(1, 40, 2))
        array = np.where(rng.random(shape) < density,
                         rng.choice(pool, shape), 0)
        _check(array)


def test_the_dense_eight_wire_fourier_map():
    rng = np.random.default_rng(20260418)
    phases = rng.uniform(-math.pi, math.pi, 8).round(6)
    source = (" * ".join(f"spider(1,1,{p!r})" for p in phases.tolist())
              + " ; " + " * ".join(["spider(2,2)"] * 4)
              + " ; id(1) * swap * swap * swap * id(1)")
    array = evaluate(parse(source), ObservableStructure.fourier(2)).array
    assert array.shape == (256, 256) and np.count_nonzero(array) == 2 ** 16
    _check(array)
