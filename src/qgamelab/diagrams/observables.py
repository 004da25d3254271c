"""Observable structures: orthonormal bases, phases, and measurement.

An observable structure is the data of an orthonormal basis (its
classical points).  Spiders, measurements, and Born vectors are all
defined relative to one of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NormalizationError, ShapeMismatchError
from ..linalg import (
    ALGEBRA_TOL,
    PROB_TOL,
    StateVector,
    apply_on_wires,
    born_probabilities,
    check_dims,
    outcome_labels,
)

_TWO_PI = 2.0 * math.pi


def _canonical_angle(x: float) -> float:
    r = math.fmod(float(x), _TWO_PI)
    if r < 0.0:
        r += _TWO_PI
    if r >= _TWO_PI:  # fmod rounding can land exactly on 2*pi
        r = 0.0
    return r


@dataclass(frozen=True)
class PhaseElement:
    """Element of the phase group of an observable.

    One angle per classical point, each in [0, 2*pi), with the first
    pinned to zero.  Composition is entrywise addition mod 2*pi.
    """

    phases: tuple[float, ...]

    def __post_init__(self):
        if len(self.phases) < 1:
            raise ValueError("a phase element needs at least one entry")
        canon = tuple(_canonical_angle(p) for p in self.phases)
        if canon[0] != 0.0:
            raise ValueError(
                f"first phase must be 0 (mod 2*pi), got {self.phases[0]!r}")
        object.__setattr__(self, "phases", canon)

    @classmethod
    def zero(cls, dim: int) -> "PhaseElement":
        return cls((0.0,) * dim)

    @classmethod
    def qubit(cls, alpha: float) -> "PhaseElement":
        """The qubit convention: scalar alpha means (0, alpha)."""
        return cls((0.0, alpha))

    @property
    def dim(self) -> int:
        return len(self.phases)

    def __add__(self, other: "PhaseElement") -> "PhaseElement":
        if self.dim != other.dim:
            raise ShapeMismatchError(
                f"cannot add phases of dimensions {self.dim} and {other.dim}")
        return PhaseElement(tuple(a + b for a, b in
                                  zip(self.phases, other.phases)))

    def inverse(self) -> "PhaseElement":
        return PhaseElement(tuple(-p for p in self.phases))

    def weights(self) -> np.ndarray:
        """Unit complex weights exp(i*phase) per classical point."""
        return np.exp(1j * np.asarray(self.phases))


@dataclass(frozen=True)
class ObservableStructure:
    """An orthonormal basis of a single wire: the classical points."""

    basis: tuple[StateVector, ...]

    def __post_init__(self):
        basis = tuple(self.basis)
        d = len(basis)
        if d < 1:
            raise ValueError("observable needs at least one basis vector")
        for k, v in enumerate(basis):
            if v.dims != (d,):
                raise ShapeMismatchError(
                    f"basis vector {k} has dims {v.dims}, expected ({d},)")
            if abs(v.squared_norm - 1.0) > ALGEBRA_TOL:
                raise NormalizationError(
                    f"basis vector {k} is not normalized: "
                    f"|v|^2 = {v.squared_norm!r}", v.squared_norm)
        points = np.column_stack([v.amplitudes for v in basis])
        gram = points.conj().T @ points  # gram[j, k] = <j|k>
        skew = np.argwhere(np.triu(np.abs(gram) > ALGEBRA_TOL, k=1))
        if skew.size:
            j, k = (int(x) for x in skew[0])  # first pair in row-major order
            inner = complex(gram[j, k])
            raise NormalizationError(
                f"basis vectors {j} and {k} are not orthogonal: "
                f"<{j}|{k}> = {inner!r}", abs(inner))
        points.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_points", points)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def computational(cls, dim: int = 2) -> "ObservableStructure":
        """The Z-type observable: standard basis vectors."""
        check_dims((dim,), "observable dims")
        return cls.from_matrix(np.eye(dim))

    @classmethod
    def fourier(cls, dim: int = 2) -> "ObservableStructure":
        """The X-type observable: Fourier-transformed basis.

        For dim 2 these are the Hadamard basis states |+> and |->.
        """
        check_dims((dim,), "observable dims")
        k = np.outer(np.arange(dim), np.arange(dim)) % dim  # exact phases
        return cls.from_matrix(np.exp(2j * math.pi * k / dim) / math.sqrt(dim))

    @classmethod
    def from_matrix(cls, columns) -> "ObservableStructure":
        """Basis from the columns of a (presumed unitary) matrix."""
        arr = np.asarray(columns, dtype=complex)
        d = arr.shape[0]
        return cls(tuple(StateVector(arr[:, k], (d,)) for k in range(d)))

    def point_matrix(self) -> np.ndarray:
        """Matrix whose k-th column is classical point k (read-only, built
        once by the constructor)."""
        return self._points


def classical_points(obs: ObservableStructure) -> list[StateVector]:
    """The observable's copyable points, i.e. its basis states."""
    return list(obs.basis)


def measure(obs: ObservableStructure, state: StateVector) \
        -> dict[str, float]:
    """Projective per-wire measurement against the classical points.

    Returns P(k_1...k_n) = |<k_1...k_n|state>|^2 keyed by point-index
    strings.  The state must be normalized within ``PROB_TOL`` and every
    wire must have the observable's dimension.
    """
    d = obs.dim
    if any(dim != d for dim in state.dims) or not state.dims:
        raise ShapeMismatchError(
            f"state dims {state.dims} do not match observable dimension {d}")
    change = obs.point_matrix().conj().T
    coeffs = apply_on_wires([change] * len(state.dims),
                            state.amplitudes.reshape(state.dims))
    return born_probabilities(StateVector(coeffs, state.dims))


@dataclass(frozen=True)
class BornVector:
    """A probability distribution over length-``arity`` point strings."""

    arity: int
    dim: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != self.dim ** self.arity:
            raise ShapeMismatchError(
                f"{len(self.weights)} weights do not fill "
                f"{self.dim}^{self.arity} outcomes")

    def as_distribution(self) -> dict[str, float]:
        return dict(zip(outcome_labels((self.dim,) * self.arity),
                        self.weights))


def validate_born_vector(weights, dim: int = 2) -> BornVector:
    """Check candidate weights form a distribution over point strings.

    Weights above -1e-12 are clamped to zero; anything more negative is
    rejected, as is a non-finite weight or a total mass off 1 by more
    than ``PROB_TOL``.  ``dim`` must be at least 1, and for ``dim`` 1 only a
    single weight is a power of it.
    """
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    values = [float(w) for w in weights]
    cleaned = []
    for i, w in enumerate(values):
        if not math.isfinite(w):
            raise NormalizationError(f"weight {i} is not finite: {w!r}", w)
        if w < -ALGEBRA_TOL:
            raise NormalizationError(f"weight {i} is negative: {w!r}", w)
        cleaned.append(max(w, 0.0))
    total = sum(cleaned)
    if abs(total - 1.0) > PROB_TOL:
        raise NormalizationError(
            f"weights must sum to 1, got {total!r}", total)
    n = len(cleaned)
    arity = 0
    size = 1
    while size < n and dim > 1:
        size *= dim
        arity += 1
    if size != n:
        raise ValueError(
            f"{n} weights are not a power of the dimension {dim}")
    return BornVector(arity, dim, tuple(cleaned))
