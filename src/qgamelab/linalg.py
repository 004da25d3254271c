"""Dense complex linear algebra on small multi-qudit spaces.

Values are immutable wrappers around numpy arrays.  Wire order is
big-endian: the leftmost wire is the most significant digit of a basis
index, matching ket-string notation (|01> is index 1 on two qubits).
All operations are pure; nothing here mutates shared state.

This module is the one place that knows this wire layout, and nothing
else builds an operator on a whole product space to apply a product:

- ``apply_on_wires`` contracts one factor per axis: EWL moves, per-wire
  measurement, Bell bras and kets.
- ``apply_on_span`` and ``swap_on_span`` apply one factor to a run of
  adjacent wires of a map's rows, so diagram evaluation streams each
  ``Par`` stage of a ``Seq`` through the map built so far, one factor
  at a time, with identity factors costing nothing.
- ``tensor_in_place`` builds a Kronecker product in one zeroed
  allocation and writes, and checks to be finite, only its non-zero
  entries, so an identity factor costs one diagonal write and no
  intermediate product.

It is also the one place that decides how a label-keyed table becomes an
array and what makes its rows distributions:

- ``table_grid`` lays a table out in the order of its domain's keys and
  rejects a key outside that domain, or a missing one with no fill.
- ``distributions`` checks every row of such a grid in one pass: finite,
  no weight below -``ALGEBRA_TOL`` (smaller negatives are clamped to 0),
  and unit mass within a tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionLimitError,
    DomainMismatchError,
    NormalizationError,
    ShapeMismatchError,
)

# Probability / payoff comparisons use PROB_TOL; algebraic identities on
# doubles (unitarity, adjoints, Frobenius laws) use ALGEBRA_TOL.
PROB_TOL = 1e-9
ALGEBRA_TOL = 1e-12

DEFAULT_DIMENSION_LIMIT = 4096

_dimension_limit = DEFAULT_DIMENSION_LIMIT


def dimension_limit() -> int:
    """Current cap on the total dimension of any constructed space."""
    return _dimension_limit


def set_dimension_limit(limit: int) -> None:
    """Change the total-dimension cap (applies to values built afterwards)."""
    if limit < 1:
        raise ValueError(f"dimension limit must be positive, got {limit}")
    global _dimension_limit
    _dimension_limit = int(limit)


def check_dims(dims, what: str) -> tuple[int, ...]:
    """Validate wire dims against the cap; call before allocating for them."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"{what} must be positive integers, got {dims}")
    total = math.prod(dims)
    if total > _dimension_limit:
        raise DimensionLimitError(
            f"{what} give total dimension {total}, above the configured "
            f"limit {_dimension_limit}")
    return dims


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite (no NaN/Inf)")


def _as_complex(entries, what: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    _check_finite(arr, what)
    return arr


def outcome_labels(dims) -> list[str]:
    """Basis index strings for the given wire dimensions, in index order.

    One digit per wire for dims up to 10, comma-separated otherwise.
    """
    sep = "" if all(d <= 10 for d in dims) else ","
    return [sep.join(str(i) for i in idx)
            for idx in itertools.product(*(range(d) for d in dims))]


def table_grid(keys, table, what: str, fill=None) -> np.ndarray:
    """``table``'s values as a float array, one per key of ``keys`` (which
    are distinct), in that order.

    A key of ``table`` outside ``keys`` is a DomainMismatchError, and so
    is a key of ``keys`` missing from ``table``, unless ``fill`` stands in
    for it.  Each value is converted by ``float``.
    """
    try:
        values = [table[k] for k in keys] if fill is None \
            else [table.get(k, fill) for k in keys]
    except KeyError as exc:
        raise DomainMismatchError(
            f"{what} has no entry for {exc.args[0]}") from None
    # with every key found, a table of the same size has no other key
    if fill is not None or len(table) != len(values):
        extra = set(table).difference(keys)
        if extra:
            raise DomainMismatchError(
                f"{what} has entries outside its domain: {sorted(extra)[:4]}")
    return np.fromiter(map(float, values), float, len(values))


def distributions(p: np.ndarray, what, keys,
                  tol: float = PROB_TOL) -> np.ndarray:
    """Check that every row of the 2-d array ``p`` is a probability
    distribution, and return the rows with tiny negatives clamped to 0.

    ``what[r]`` names row r and ``keys[k]`` entry k of every row.  A
    weight that is not finite or is below -``ALGEBRA_TOL``, or a row whose
    mass is off 1 by more than ``tol``, raises a NormalizationError naming
    the first faulty row, and in it the first faulty entry.  Each row is
    added from left to right, so a total is the one ``sum()`` gives.
    """
    low = p.min()
    clamped = p if low >= 0.0 else np.where(p < 0.0, 0.0, p)
    # a faulty row may overflow; it is reported below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.add.accumulate(clamped, axis=1)[:, -1]
    if low >= -ALGEBRA_TOL and np.abs(totals - 1.0).max() <= tol:
        return clamped
    bad = ~np.isfinite(p) | (p < -ALGEBRA_TOL)
    r = np.flatnonzero(bad.any(axis=1) | (np.abs(totals - 1.0) > tol))[0]
    if bad[r].any():
        k = bad[r].argmax()
        weight = float(p[r, k])
        kind = "negative" if math.isfinite(weight) else "non-finite"
        raise NormalizationError(f"{what[r]} has {kind} weight {weight} at "
                                 f"{keys[k]}", total=weight)
    total = float(totals[r]) + 0.0  # sum() starts at 0, so never -0.0
    raise NormalizationError(f"{what[r]} sums to {total}, expected 1",
                             total=total)


@dataclass(frozen=True)
class LinearMap:
    """A linear map between tensor products of finite-dimensional wires.

    ``array`` has shape (rows, cols) = (prod(out_dims), prod(in_dims)) and
    row-major big-endian entry order.  Either dims tuple may be empty,
    denoting the 1-dimensional scalar space.
    """

    array: np.ndarray = field(repr=False)
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self):
        in_dims = check_dims(self.in_dims, "in_dims")
        out_dims = check_dims(self.out_dims, "out_dims")
        arr = self.array
        # set only by _of_finite, for entries it has already checked
        if not vars(self).pop("_entries_checked", False):
            arr = _as_complex(arr, "entries")
        expect = (math.prod(out_dims), math.prod(in_dims))
        if arr.shape != expect:
            raise ShapeMismatchError(
                f"entries have shape {arr.shape}, expected {expect} from "
                f"out_dims {out_dims} x in_dims {in_dims}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)

    @classmethod
    def _of_finite(cls, arr: np.ndarray, in_dims, out_dims) -> "LinearMap":
        """Wrap a complex array whose entries are already known to be
        finite: every check of the constructor runs except the pass
        over every entry."""
        new = cls.__new__(cls)
        vars(new).update(array=arr, in_dims=in_dims, out_dims=out_dims,
                         _entries_checked=True)
        new.__post_init__()
        return new

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """Row-major flattened view of the matrix."""
        return self.array.reshape(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.in_dims == other.in_dims
                and self.out_dims == other.out_dims
                and np.array_equal(self.array, other.array))

    def __repr__(self) -> str:
        return (f"LinearMap({self.rows}x{self.cols}, "
                f"in_dims={self.in_dims}, out_dims={self.out_dims})")

    def dagger(self) -> "LinearMap":
        """Conjugate transpose, with in/out wire dimensions swapped."""
        return LinearMap(self.array.conj().T, self.out_dims, self.in_dims)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        return tensor(self, other)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return compose(self, other)

    def apply(self, state: "StateVector") -> "StateVector":
        """Apply to a state; the state's dims must equal in_dims."""
        if state.dims != self.in_dims:
            raise ShapeMismatchError(
                f"cannot apply map with in_dims {self.in_dims} to state "
                f"with dims {state.dims}")
        return StateVector(self.array @ state.amplitudes, self.out_dims)

    def to_state(self) -> "StateVector":
        """Reinterpret a map from the scalar space as a state vector."""
        if self.cols != 1:
            raise ShapeMismatchError(
                f"map with in_dims {self.in_dims} is not a state preparation")
        return StateVector(self.array[:, 0], self.out_dims)

    def allclose(self, other: "LinearMap", tol: float = ALGEBRA_TOL) -> bool:
        return (self.in_dims == other.in_dims
                and self.out_dims == other.out_dims
                and bool(np.allclose(self.array, other.array,
                                     rtol=0.0, atol=tol)))

    def is_unitary(self, tol: float = PROB_TOL) -> bool:
        if self.rows != self.cols:
            return False
        prod = self.array.conj().T @ self.array
        return bool(np.abs(prod - np.eye(self.rows)).max() <= tol)


@dataclass(frozen=True)
class StateVector:
    """State on a tensor product of wires; amplitudes in big-endian order."""

    amplitudes: np.ndarray = field(repr=False)
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = check_dims(self.dims, "dims")
        amps = _as_complex(self.amplitudes, "amplitudes").reshape(-1)
        if amps.shape != (math.prod(dims),):
            raise ShapeMismatchError(
                f"{amps.shape[0]} amplitudes do not fill dims {dims}")
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return (self.dims == other.dims
                and np.array_equal(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(dims={self.dims})"

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def is_normalized(self, tol: float = PROB_TOL) -> bool:
        return abs(self.squared_norm - 1.0) <= tol

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector", 0.0)
        return StateVector(self.amplitudes / n, self.dims)

    def scaled(self, factor: complex) -> "StateVector":
        return StateVector(self.amplitudes * factor, self.dims)

    def tensor(self, other: "StateVector") -> "StateVector":
        dims = check_dims(self.dims + other.dims, "combined dims")
        return StateVector(np.kron(self.amplitudes, other.amplitudes), dims)

    def allclose(self, other: "StateVector", tol: float = ALGEBRA_TOL) -> bool:
        return (self.dims == other.dims
                and bool(np.allclose(self.amplitudes, other.amplitudes,
                                     rtol=0.0, atol=tol)))


def tensor(a: LinearMap, b: LinearMap) -> LinearMap:
    """Kronecker product; the left factor is the most significant wire."""
    in_dims = check_dims(a.in_dims + b.in_dims, "combined in_dims")
    out_dims = check_dims(a.out_dims + b.out_dims, "combined out_dims")
    return LinearMap(np.kron(a.array, b.array), in_dims, out_dims)


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix product f.g (g applied first); wire dims must match."""
    if f.in_dims != g.out_dims:
        raise ShapeMismatchError(
            f"cannot compose: f expects in_dims {f.in_dims} but g produces "
            f"out_dims {g.out_dims} (f is {f.rows}x{f.cols}, "
            f"g is {g.rows}x{g.cols})")
    return LinearMap(f.array @ g.array, g.in_dims, f.out_dims)


def dagger(a: LinearMap) -> LinearMap:
    return a.dagger()


def apply_on_wires(ops, tensor: np.ndarray) -> np.ndarray:
    """Apply ``ops[i]``, a rows x cols matrix, to axis i of ``tensor``.

    ``tensor`` has one axis per wire, axis i of length cols of ops[i]; in
    the result axis i has length rows of ops[i].  Contracting axis 0 and
    appending the new axis last cycles every axis back into place.

    An op may carry trailing axes after (rows, cols), such as a stack of
    gates of shape (rows, cols, k); they follow wire i's new axis in the
    result.  With fewer ops than axes, the axes left untouched come first.
    """
    for op in ops:
        tensor = np.tensordot(tensor, op, axes=(0, 1))
    return tensor


def apply_on_span(op: np.ndarray, matrix: np.ndarray, before) -> np.ndarray:
    """``(I (x) op (x) I) @ matrix``, without building that operator.

    The rows of ``matrix`` index its wires, big-endian.  ``op`` acts on
    the wires that follow the ones whose dims are ``before``; the wires
    after its span are left alone.  The span's axis is contracted in one
    batched product, so the cost is the size of ``matrix`` times the
    rows of ``op``.
    """
    block = matrix.reshape(math.prod(before), op.shape[1], -1)
    return np.matmul(op, block).reshape(-1, matrix.shape[1])


def swap_on_span(matrix: np.ndarray, before, dim: int) -> np.ndarray:
    """Exchange the two dimension-``dim`` wires after ``before`` in the
    rows of ``matrix``: an axis swap and one copy, no contraction."""
    block = matrix.reshape(math.prod(before), dim, dim, -1)
    return block.swapaxes(1, 2).reshape(matrix.shape)


def tensor_in_place(factors) -> np.ndarray:
    """Kronecker product of ``factors``; the first is the most significant.

    A factor is a matrix, or an int n standing for the n x n identity.
    The result is allocated once, zeroed, and only its non-zero entries
    are written: 1 x 1 factors fold into one scalar, and each run of
    identities is one axis of a strided view along its diagonal, so no
    intermediate product is built.  The view has at most two axes per
    factor, and a result that fits in memory has far fewer than 32
    factors that are not 1 x 1, so numpy's 64-axis limit is never met.

    Only the written entries are checked to be finite, through the same
    view, so the check costs as much as the writes.
    """
    scalar, blocks = 1, []      # blocks: identity sizes and matrices
    for f in factors:
        if isinstance(f, int):
            if blocks and isinstance(blocks[-1], int):
                blocks[-1] *= f
            elif f > 1:
                blocks.append(f)
        elif f.shape == (1, 1):
            scalar = scalar * f[0, 0]
        else:
            blocks.append(f)
    rows = tuple(b if isinstance(b, int) else b.shape[0] for b in blocks)
    cols = tuple(b if isinstance(b, int) else b.shape[1] for b in blocks)
    out = np.zeros((math.prod(rows), math.prod(cols)), dtype=complex)
    # Axes: every block's row digit, then each matrix's column digit; an
    # identity's row axis also steps its column digit, along the diagonal.
    step = out.reshape(rows + cols).strides
    k = len(blocks)
    dense = [j for j, b in enumerate(blocks) if not isinstance(b, int)]
    view = np.lib.stride_tricks.as_strided(
        out, rows + tuple(cols[j] for j in dense),
        [step[j] + (0 if j in dense else step[k + j]) for j in range(k)]
        + [step[k + j] for j in dense])
    operands = [np.asarray(scalar, dtype=complex)]
    for n, j in enumerate(dense):
        shape = [1] * view.ndim
        shape[j], shape[k + n] = blocks[j].shape
        operands.append(blocks[j].reshape(shape))
    *head, last = operands
    # an overflow or NaN is reported by the check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(functools.reduce(np.multiply, head, 1), last, out=view)
    _check_finite(view, "entries")
    return out


def identity(dims) -> LinearMap:
    """Identity map; ``dims`` is a wire-dimension tuple (may be empty)."""
    dims = check_dims(dims, "dims")
    return LinearMap(np.eye(math.prod(dims), dtype=complex), dims, dims)


def from_matrix(rows, in_dims=None, out_dims=None) -> LinearMap:
    """Build a LinearMap from a square or rectangular nested sequence.

    Dims default to a single wire per side of the given size.
    """
    arr = _as_complex(rows, "entries")
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got ndim={arr.ndim}")
    if out_dims is None:
        out_dims = (arr.shape[0],)
    if in_dims is None:
        in_dims = (arr.shape[1],)
    return LinearMap(arr, tuple(in_dims), tuple(out_dims))


def basis_state(index: int, dims) -> StateVector:
    dims = tuple(dims)
    amps = np.zeros(math.prod(dims) if dims else 1, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, dims)


def ket(digits: str, dim: int = 2) -> StateVector:
    """Computational basis state from a digit string, one digit per wire."""
    if not digits or not digits.isdigit():
        raise ValueError(f"ket label must be a nonempty digit string, "
                         f"got {digits!r}")
    values = [int(c) for c in digits]
    if any(v >= dim for v in values):
        raise ValueError(f"ket digit out of range for dimension {dim}: "
                         f"{digits!r}")
    index = 0
    for v in values:
        index = index * dim + v
    return basis_state(index, (dim,) * len(values))


def born_probabilities(state: StateVector,
                       tol: float = PROB_TOL) -> dict[str, float]:
    """Measurement distribution |a_k|^2 keyed by basis index strings."""
    total = state.squared_norm
    if abs(total - 1.0) > tol:
        raise NormalizationError(
            f"state is not normalized: sum |a_k|^2 = {total!r}", total)
    probs = np.abs(state.amplitudes) ** 2
    return dict(zip(outcome_labels(state.dims), (float(p) for p in probs)))


def states_phase_equal(a: StateVector, b: StateVector,
                       tol: float = PROB_TOL) -> bool:
    """Equality up to a unit complex scalar.

    The phase is fixed by aligning the first amplitude whose modulus
    exceeds ``tol`` in either vector.
    """
    if a.dims != b.dims:
        return False
    va, vb = a.amplitudes, b.amplitudes
    pivots = np.flatnonzero((np.abs(va) > tol) | (np.abs(vb) > tol))
    if not pivots.size:
        return True  # both effectively zero
    pivot = pivots[0]
    if abs(va[pivot]) <= tol or abs(vb[pivot]) <= tol:
        return False
    phase = va[pivot] / vb[pivot]
    phase /= abs(phase)
    return bool(np.allclose(va, phase * vb, rtol=0.0, atol=tol))


# Named single-qubit operators used throughout the games layer.
def _gate(rows) -> LinearMap:
    return LinearMap(np.array(rows, dtype=complex), (2,), (2,))


IDENTITY_1Q = _gate([[1, 0], [0, 1]])
PAULI_X = _gate([[0, 1], [1, 0]])
PAULI_Z = _gate([[1, 0], [0, -1]])
HADAMARD = _gate([[1 / math.sqrt(2), 1 / math.sqrt(2)],
                  [1 / math.sqrt(2), -1 / math.sqrt(2)]])

BUILTIN_GATES: dict[str, LinearMap] = {
    "I": IDENTITY_1Q,
    "X": PAULI_X,
    "Z": PAULI_Z,
    "H": HADAMARD,
}
