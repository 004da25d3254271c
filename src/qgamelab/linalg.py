"""Dense complex linear algebra on small multi-qudit spaces.

Values are immutable wrappers around numpy arrays.  Wire order is
big-endian: the leftmost wire is the most significant digit of a basis
index, matching ket-string notation (|01> is index 1 on two qubits).
All operations are pure; nothing here mutates shared state.

This module is the one place that knows this wire layout, and nothing
else builds an operator on a whole product space to apply a product:

- ``apply_on_wires`` contracts one factor per axis: EWL moves, per-wire
  measurement, Bell bras and kets.
- ``tensor_in_place`` builds a Kronecker product in one zeroed
  allocation and writes, and checks to be finite, only its non-zero
  entries, so an identity factor costs one diagonal write and no
  intermediate product.  It is the one Kronecker kernel: ``identity`` is
  its one-factor case, and ``tensor`` and ``StateVector.tensor`` are its
  two-factor cases.  Where the platform allows it, that allocation is
  advised against huge pages, so only the 4 KiB pages it writes become
  resident.
- ``_placed``, the kernel under ``tensor_in_place``, places blocks on
  any digits of the result's row and column indices, so the diagram
  evaluator writes a normal form's spiders and bare wires with the
  wires permuted in the strides of one view, never in a copy.

It is also the one place that decides how a label-keyed table becomes an
array and what makes its rows distributions:

- ``table_grid`` lays a table out in the order of its domain's keys and
  rejects a key outside that domain, or a missing one with no fill;
  ``grid_table`` reads such a grid back as the table.
- ``distributions`` checks every row of such a grid in one pass: finite,
  no weight below -``ALGEBRA_TOL`` (smaller negatives are clamped to 0),
  and unit mass within a tolerance.

``_of_checked`` is the one bypass of a constructor's checks in the
library: it builds a frozen dataclass around input that has already
passed some of them, and the constructor runs every other.
``LinearMap._of_finite`` and ``bayes._Domain._of_grid`` go through it,
and so does ``ewl.to_strategic_form``.  ``_defer`` and ``_view`` are the
one way a class keeps its checked arrays as its state and a label-keyed
field as a view of them: the constructor drops the field from
``vars()``, and the class's ``__getattr__`` builds it when first read.

And it writes each remaining validation rule once:

- ``check_domain`` names the keys of a table outside its domain.
- ``ascii_digits`` is the rule of a digit string: a ket label, a
  diagram ket's digits, an EWL spec's initial ket.
- ``born_weights`` applies the Born rule to a batch of states and checks
  each is normalized.
- ``orthonormal`` is the Gram test of a unitary or a measurement basis,
  or of a stack of them in one product.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import mmap
import operator
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
    dims = tuple(map(int, dims))
    if min(dims, default=1) < 1:
        raise ValueError(f"{what} must be positive integers, got {dims}")
    total = math.prod(dims)
    if total > _dimension_limit:
        raise DimensionLimitError(
            f"{what} give total dimension {total}, above the configured "
            f"limit {_dimension_limit}")
    return dims


def check_wires(d: int, n: int, what: str) -> tuple[int, ...]:
    """``check_dims((d,) * n, what)``, with a huge count refused by
    arithmetic before the tuple is built: for d > 1, a d**n that is
    surely over the cap and has 4096 bits or more; for d = 1, more wires
    than the cap, since the tuple itself would be that long."""
    d, n = int(d), int(n)
    # d**n >= 2**(n * (bits of d - 1)), and the cap is below 2**(its bits)
    if n > _dimension_limit if d <= 1 else n * (d.bit_length() - 1) >= \
            max(_dimension_limit.bit_length(), 4096):
        raise DimensionLimitError(
            f"{what}: {n} wires of dimension {d} exceed the configured "
            f"limit {_dimension_limit}")
    return check_dims((d,) * n, what)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
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
        check_domain(table, keys, what)
    return np.fromiter(map(float, values), float, len(values))


def grid_table(keys, grid: np.ndarray) -> dict:
    """The values of ``grid`` in C order, as Python floats, keyed by
    ``keys`` in order."""
    return dict(zip(keys, grid.ravel().tolist()))


def check_domain(table, keys, what: str) -> None:
    """Raise a DomainMismatchError naming up to four keys of ``table``
    that are not among ``keys``: the least four, or the first four by
    ``repr`` when the stray keys cannot be ordered among themselves."""
    extra = set(table).difference(keys)
    if extra:
        try:
            extra = sorted(extra)
        except TypeError:
            extra = sorted(extra, key=repr)
        raise DomainMismatchError(
            f"{what} has entries outside its domain: {extra[:4]}")


def distributions(p: np.ndarray, what, keys) -> np.ndarray:
    """Check that every row of the 2-d array ``p`` is a probability
    distribution, and return the rows with tiny negatives clamped to 0.

    ``what[r]`` names row r and ``keys[k]`` entry k of every row.  A
    weight that is not finite or is below -``ALGEBRA_TOL``, or a row whose
    mass is off 1 by more than ``PROB_TOL``, raises a NormalizationError
    naming the first faulty row, and in it the first faulty entry.  Each
    row is added from left to right, so a total is the one ``sum()``
    gives.
    """
    low = p.min()
    clamped = p if low >= 0.0 else np.where(p < 0.0, 0.0, p)
    # a faulty row may overflow; it is reported below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.add.accumulate(clamped, axis=1)[:, -1]
    if low >= -ALGEBRA_TOL and np.abs(totals - 1.0).max() <= PROB_TOL:
        return clamped
    bad = ~np.isfinite(p) | (p < -ALGEBRA_TOL)
    r = np.flatnonzero(bad.any(axis=1)
                       | (np.abs(totals - 1.0) > PROB_TOL))[0]
    if bad[r].any():
        k = bad[r].argmax()
        weight = float(p[r, k])
        kind = "negative" if math.isfinite(weight) else "non-finite"
        raise NormalizationError(f"{what[r]} has {kind} weight {weight} at "
                                 f"{keys[k]}", total=weight)
    total = float(totals[r]) + 0.0  # sum() starts at 0, so never -0.0
    raise NormalizationError(f"{what[r]} sums to {total}, expected 1",
                             total=total)


def _of_checked(cls, unchecked, **fields):
    """The frozen dataclass ``cls`` built around input that has already
    passed some of its constructor's checks: the one bypass of a
    constructor in the library.

    The fields are set as given, and any field not given is None.
    ``__post_init__`` pops ``unchecked`` (the checked input, or True) and
    skips only the checks that input has passed; every other runs.
    """
    new = cls.__new__(cls)
    vars(new).update(dict.fromkeys(cls.__dataclass_fields__), **fields,
                     _unchecked=unchecked)
    new.__post_init__()
    return new


def _defer(obj, *names) -> None:
    """Drop the fields ``names`` from ``vars(obj)`` once its constructor
    has checked them: each becomes a view that ``_view`` builds."""
    for name in names:
        del vars(obj)[name]


def _view(obj, name: str):
    """The ``__getattr__`` of a class with deferred fields: the field
    ``name``, built by the class's ``_view_<name>`` from the checked
    arrays the first time it is read, then kept in ``vars(obj)``."""
    build = getattr(type(obj), "_view_" + name, None)
    if build is None:
        raise AttributeError(
            f"{type(obj).__name__!r} object has no attribute {name!r}")
    return vars(obj).setdefault(name, build(obj))


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
        if not vars(self).pop("_unchecked", False):
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
        return _of_checked(cls, True, array=arr, in_dims=in_dims,
                           out_dims=out_dims)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

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
        return self.rows == self.cols and orthonormal(self.array, tol)


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
        with np.errstate(over="ignore"):   # an overflow reads as inf
            return float(np.sum(np.abs(self.amplitudes) ** 2))

    def is_normalized(self) -> bool:
        """True iff the squared norm is within ``PROB_TOL`` of 1."""
        return abs(self.squared_norm - 1.0) <= PROB_TOL

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector", 0.0)
        return StateVector(self.amplitudes / n, self.dims)

    def scaled(self, factor: complex) -> "StateVector":
        return StateVector(self.amplitudes * factor, self.dims)

    def tensor(self, other: "StateVector") -> "StateVector":
        dims = check_dims(self.dims + other.dims, "combined dims")
        columns = [v.amplitudes.reshape(-1, 1) for v in (self, other)]
        return StateVector(tensor_in_place(columns), dims)

    def allclose(self, other: "StateVector", tol: float = ALGEBRA_TOL) -> bool:
        return (self.dims == other.dims
                and bool(np.allclose(self.amplitudes, other.amplitudes,
                                     rtol=0.0, atol=tol)))


def tensor(*maps: LinearMap) -> LinearMap:
    """Kronecker product of any number of maps, the first on the most
    significant wires; of none, the identity on no wires."""
    in_dims = check_dims(sum((m.in_dims for m in maps), ()), "combined in_dims")
    out_dims = check_dims(sum((m.out_dims for m in maps), ()),
                          "combined out_dims")
    return LinearMap._of_finite(tensor_in_place([m.array for m in maps]),
                                in_dims, out_dims)


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


# A buffer smaller than one huge page can never be backed by one.
_HUGE_PAGE = 2 ** 21
if hasattr(mmap, "MADV_NOHUGEPAGE"):
    _madvise = ctypes.CDLL(None).madvise
    _madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    _madvise.restype = ctypes.c_int
else:
    _madvise = None


def _sparse_zeros(shape) -> np.ndarray:
    """``np.zeros(shape, complex)`` for a result that will be written
    sparsely: the page-aligned interior of a buffer of a huge page or more
    is advised ``MADV_NOHUGEPAGE`` before any write, so each write faults
    in one base page (4 KiB on x86-64) and not a whole huge page.  The advice drops no
    data, and a failed call changes nothing.  The buffer is numpy's own,
    so tracemalloc counts it."""
    out = np.zeros(shape, dtype=complex)
    if _madvise is not None and out.nbytes >= _HUGE_PAGE:
        page = mmap.PAGESIZE
        start = -(-out.ctypes.data // page) * page
        end = (out.ctypes.data + out.nbytes) // page * page
        _madvise(start, end - start, mmap.MADV_NOHUGEPAGE)
    return out


def tensor_in_place(factors) -> np.ndarray:
    """Kronecker product of ``factors``; the first is the most significant.

    A factor is a matrix, or an int n standing for the n x n identity.
    Factor j is the block of ``_placed`` on row digit j and column digit
    j, so the result is allocated once and only its non-zero entries are
    written: an identity, or a run of them, is one axis along a diagonal,
    and a 1 x 1 factor only scales the entries.
    """
    rows = [f if isinstance(f, int) else f.shape[0] for f in factors]
    cols = [f if isinstance(f, int) else f.shape[1] for f in factors]
    return _placed(rows, cols, [(None if isinstance(f, int) else f, (j,), (j,))
                                for j, f in enumerate(factors)])


def _placed(rows, cols, blocks) -> np.ndarray:
    """The prod(rows) x prod(cols) array with ``blocks`` written on its
    digits: the one placement kernel, behind ``tensor_in_place`` and the
    diagram evaluator, which permutes wires through it.

    A row index has one digit per entry of ``rows``, big-endian, and a
    column index one per entry of ``cols``.  A block is (matrix, row
    digits, column digits), and each digit is in exactly one block: the
    matrix's rows run over its row digits and its columns over its column
    digits, both listed in ascending order and read big-endian, and a
    matrix of None is the identity that pairs its k-th row digit with its
    k-th column digit, in any order.  An entry is the product of the
    blocks' entries at its digits.

    The result is allocated once, zeroed, and written through one strided
    view: a pair of identity digits is one axis along a diagonal, and a
    matrix digit is one axis.  Axes of length 1 are dropped and adjacent
    axes of one block are merged where the layout allows, so every axis
    has two entries or more and a result that fits in memory never meets
    numpy's 64-axis limit.  The wires' order is in the view's strides
    alone: the result is never copied or transposed.

    Only the matrices' product is checked to be finite, since the view
    holds nothing else, so the check costs no more than the writes.
    Beside an identity, a zero of that product is not written, even
    where a matrix has it, so the pages a result makes resident depend
    on its non-zero pattern alone; a negative zero reads as +0.
    """
    out = _sparse_zeros((math.prod(rows), math.prod(cols)))
    # the byte stride of every row digit, then of every column digit
    step = list(itertools.accumulate(reversed((*rows, *cols)), operator.mul,
                                     initial=out.itemsize))[-2::-1]
    k = len(rows)
    # one axis per digit, in the result's digit order: [length, stride,
    # block number, or None on a diagonal, which also takes its column]
    axes = [None] * len(step)
    for n, (matrix, r, c) in enumerate(blocks):
        if matrix is None:
            for a, b in zip(r, c):
                axes[a] = [rows[a], step[a] + step[k + b], None]
        else:
            for a in r:
                axes[a] = [rows[a], step[a], n]
            for b in c:
                axes[k + b] = [cols[b], step[k + b], n]
    merged = []
    for axis in (a for a in axes if a is not None and a[0] > 1):
        if merged and merged[-1][2] == axis[2] \
                and merged[-1][1] == axis[0] * axis[1]:
            merged[-1][0] *= axis[0]
            merged[-1][1] = axis[1]
        else:
            merged.append(axis)
    view = np.lib.stride_tricks.as_strided(
        out, [a[0] for a in merged], [a[1] for a in merged])
    # The largest matrix goes last, so the product of the others, the one
    # temporary, is as small as it can be.
    *head, last = sorted([np.asarray(1, dtype=complex)] + [
        matrix.reshape([a[0] if a[2] == n else 1 for a in merged])
        for n, (matrix, _, _) in enumerate(blocks) if matrix is not None],
        key=np.size)
    # With no diagonal axis the view is the whole result, so the entries
    # are computed in it; otherwise they are the matrices' product alone,
    # which the view repeats along each diagonal.
    entries = None if any(a[2] is None for a in merged) else view
    # an overflow or NaN is reported by the check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        entries = np.multiply(functools.reduce(np.multiply, head, 1), last,
                              out=entries)
    _check_finite(entries, "entries")
    if entries is not view:
        # a zero is left unwritten, so a page of zeros is never touched
        np.copyto(view, entries, where=entries != 0)
    return out


def identity(dims) -> LinearMap:
    """Identity map; ``dims`` is a wire-dimension tuple (may be empty)."""
    dims = check_dims(dims, "dims")
    return LinearMap._of_finite(tensor_in_place([math.prod(dims)]), dims,
                                dims)


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
    dims = check_dims(dims, "dims")
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, dims)


def ascii_digits(value) -> bool:
    """Whether ``value`` is a nonempty string of the digits 0-9 alone
    (``str.isdigit`` also takes other scripts' digits and superscripts)."""
    return isinstance(value, str) and value.isascii() and value.isdigit()


def ket(digits: str, dim: int = 2) -> StateVector:
    """Computational basis state from a digit string, one digit per wire."""
    if not ascii_digits(digits):
        raise ValueError(f"ket label must be a nonempty digit string, "
                         f"got {digits!r}")
    values = [int(c) for c in digits]
    if any(v >= dim for v in values):
        raise ValueError(f"ket digit out of range for dimension {dim}: "
                         f"{digits!r}")
    dims = check_wires(dim, len(values), "dims")
    index = 0
    for v in values:
        index = index * dim + v
    return basis_state(index, dims)


def orthonormal(columns: np.ndarray, tol: float):
    """Whether the columns of ``columns`` are orthonormal: every entry of
    |C^dag C - I| is at most ``tol``, and a NaN entry never is.  A stack
    of matrices, (..., rows, cols), gets a bool array of one verdict per
    matrix from one stacked Gram product."""
    with np.errstate(over="ignore", invalid="ignore"):   # never within tol
        gram = np.swapaxes(columns, -1, -2).conj() @ columns
    ok = np.abs(gram - np.eye(columns.shape[-1])).max(axis=(-2, -1)) <= tol
    return bool(ok) if columns.ndim == 2 else ok


def born_weights(amplitudes: np.ndarray,
                 tol: float = PROB_TOL) -> np.ndarray:
    """|a_k|^2 along the last axis of ``amplitudes``, one state per row.

    The first row whose mass is off 1 by more than ``tol`` raises a
    NormalizationError; a NaN mass is not off.
    """
    probs = np.abs(amplitudes) ** 2
    totals = probs.sum(axis=-1)
    bad = np.flatnonzero(np.abs(totals - 1.0) > tol)
    if bad.size:
        total = float(totals.flat[bad[0]])
        raise NormalizationError(
            f"state is not normalized: sum |a_k|^2 = {total!r}", total)
    return probs


def born_probabilities(state: StateVector,
                       tol: float = PROB_TOL) -> dict[str, float]:
    """Measurement distribution |a_k|^2 keyed by basis index strings."""
    probs = born_weights(state.amplitudes, tol)
    return dict(zip(outcome_labels(state.dims), probs.tolist()))


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
