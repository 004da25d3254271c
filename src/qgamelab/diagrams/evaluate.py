"""Evaluation of diagram terms into linear maps.

Everything is interpreted against a single observable structure: wires
carry its dimension, spiders sum over its classical points, kets pick
them out.  Evaluation is unnormalized; the GHZ spider gives
|0..0> + |1..1> with no 1/sqrt(2), and scalars are carried exactly.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import ShapeMismatchError
from ..linalg import (
    LinearMap,
    apply_on_span,
    check_dims,
    check_wires,
    identity,
    swap_on_span,
    tensor_in_place,
)
from .observables import ObservableStructure, PhaseElement
from .terms import (
    Box,
    Cap,
    Cup,
    DiagramTerm,
    Id,
    Par,
    Seq,
    Spider,
    Swap,
    _too_deep,
    typecheck,
)


def spider_map(obs: ObservableStructure, inputs: int, outputs: int,
               phase: PhaseElement | None = None) -> LinearMap:
    """The (inputs -> outputs) spider: sum_k w_k |k..k><k..k|.

    Built as one rank-d product (A_outputs diag(w)) A_inputs^T, where
    column k of A_n is point k on each of n legs, conjugated on the
    input side.
    """
    d = obs.dim
    if phase is None:
        weights = np.ones(d, dtype=complex)
    else:
        if phase.dim != d:
            raise ShapeMismatchError(
                f"phase over {phase.dim} points used with a dimension-{d} "
                f"observable")
        weights = phase.weights()
    in_dims = check_wires(d, inputs, "spider input dims")
    out_dims = check_wires(d, outputs, "spider output dims")
    points = obs.point_matrix()
    arr = (_on_every_leg(points, outputs) * weights) \
        @ _on_every_leg(points.conj(), inputs).T
    # finite: orthonormal points times unit weights
    return LinearMap._of_finite(arr, in_dims, out_dims)


def _on_every_leg(points: np.ndarray, legs: int) -> np.ndarray:
    """The (d^legs x d) matrix whose column k is ``points[:, k]`` on each
    of ``legs`` wires, big-endian; with no legs, a row of ones."""
    d = points.shape[1]
    out = np.ones((1, d), dtype=complex)
    for _ in range(legs):
        out = (out[:, None, :] * points).reshape(-1, d)
    return out


def swap_map(dim: int) -> LinearMap:
    """The identity on two wires with its output legs exchanged."""
    dims = check_dims((dim, dim), "swap dims")
    arr = swap_on_span(np.eye(dim * dim, dtype=complex), (), dim)
    return LinearMap(arr, dims, dims)


def ket_map(obs: ObservableStructure, digits: str) -> LinearMap:
    d = obs.dim
    for c in digits:
        if int(c) >= d:
            raise ShapeMismatchError(
                f"ket digit {c} out of range for dimension {d}")
    out_dims = check_wires(d, len(digits), "ket dims")
    points = obs.point_matrix()
    col = tensor_in_place([points[:, [int(c)]] for c in digits])
    # finite: tensor_in_place checks every entry it writes
    return LinearMap._of_finite(col, (), out_dims)


def evaluate(term: DiagramTerm, obs: ObservableStructure,
             boxes: Mapping[str, LinearMap] | None = None) -> LinearMap:
    """Evaluate a typechecked term to its linear map.

    ``boxes`` binds box names to maps whose wires must all carry the
    observable's dimension.  A term nested past the recursion limit is a
    NestingDepthError.
    """
    typecheck(term, boxes)
    if boxes:
        d = obs.dim
        for name, bound in boxes.items():
            if any(w != d for w in bound.in_dims + bound.out_dims):
                raise ShapeMismatchError(
                    f"box {name!r} has wire dims {bound.in_dims} -> "
                    f"{bound.out_dims}; every wire must have dimension {d}")
    try:
        return _Evaluation(obs, boxes).map(term)
    except RecursionError:
        raise _too_deep("evaluate") from None


class _Evaluation:
    """One ``evaluate`` call: each atom's map is built once and reused.

    A ``Seq`` starts from its first stage's map and streams every later
    ``Par`` stage through it factor by factor; any other stage is
    composed as a whole.  A ``Par`` evaluated on its own is built in
    place.  Every map and intermediate is checked against the dimension
    cap before it is allocated.
    """

    def __init__(self, obs: ObservableStructure,
                 boxes: Mapping[str, LinearMap] | None):
        self.obs = obs
        self.boxes = boxes
        self.atoms: dict[DiagramTerm, LinearMap] = {}

    def map(self, term: DiagramTerm) -> LinearMap:
        if isinstance(term, Seq):
            return self._seq(term.stages)
        if isinstance(term, Par):
            return self._par(term.factors)
        if isinstance(term, Box):   # typecheck has found it bound
            return self.boxes[term.name]
        if term not in self.atoms:
            self.atoms[term] = _atom_map(term, self.obs)
        return self.atoms[term]

    def _dims(self, wires: int, what: str) -> tuple[int, ...]:
        return check_wires(self.obs.dim, wires, what)

    def _seq(self, stages) -> LinearMap:
        first = self.map(stages[0])
        arr, wires = first.array, len(first.out_dims)
        for stage in stages[1:]:
            if isinstance(stage, Par):
                arr, wires = self._stream(stage.factors, arr, wires)
            else:
                acc = LinearMap(arr, first.in_dims, (self.obs.dim,) * wires)
                acc = self.map(stage) @ acc
                arr, wires = acc.array, len(acc.out_dims)
        return LinearMap(arr, first.in_dims, (self.obs.dim,) * wires)

    def _factors(self, factors) -> list[tuple[int, int, object]]:
        """(inputs, outputs, block) per factor of a ``Par``: an ``Id``'s
        block is its wire count, any other factor's is its matrix."""
        walked = []
        for f in factors:
            if isinstance(f, Id):
                walked.append((f.wires, f.wires, f.wires))
            else:
                m = self.map(f)
                walked.append((len(m.in_dims), len(m.out_dims), m.array))
        return walked

    def _stream(self, factors, arr: np.ndarray,
                wires: int) -> tuple[np.ndarray, int]:
        """Apply one ``Par`` stage to the rows of ``arr``, factor by factor.

        An ``Id`` costs nothing and a ``Swap`` is an axis swap.  Factors
        that add no wires go first, so no intermediate is wider than the
        wider side of the stage.
        """
        d = self.obs.dim
        walked = self._factors(factors)
        width = [ins for ins, _, _ in walked]   # each factor's wires so far
        for k in sorted(range(len(walked)),
                        key=lambda k: walked[k][1] > walked[k][0]):
            ins, outs, block = walked[k]
            if isinstance(factors[k], Id):
                continue
            before = (d,) * sum(width[:k])
            wires += outs - ins
            self._dims(wires, "Par stage intermediate dims")
            if isinstance(factors[k], Swap):
                arr = swap_on_span(arr, before, d)
            else:
                arr = apply_on_span(block, arr, before)
            width[k] = outs
        return arr, wires

    def _par(self, factors) -> LinearMap:
        """The Kronecker product of the factors, in one allocation."""
        d = self.obs.dim
        ins, outs, blocks = zip(*self._factors(factors))
        in_dims = self._dims(sum(ins), "Par in_dims")
        out_dims = self._dims(sum(outs), "Par out_dims")
        blocks = [d ** b if isinstance(b, int) else b for b in blocks]
        return LinearMap._of_finite(tensor_in_place(blocks), in_dims,
                                    out_dims)


def _atom_map(term: DiagramTerm, obs: ObservableStructure) -> LinearMap:
    if isinstance(term, Id):
        return identity(check_wires(obs.dim, term.wires, "dims"))
    if isinstance(term, Spider):
        return spider_map(obs, term.inputs, term.outputs, term.phase)
    if isinstance(term, Cup):
        return spider_map(obs, 0, 2)
    if isinstance(term, Cap):
        return spider_map(obs, 2, 0)
    if isinstance(term, Swap):
        return swap_map(obs.dim)
    return ket_map(obs, term.digits)    # typecheck rules out all else


def ghz_state_map(obs: ObservableStructure, legs: int) -> LinearMap:
    """The unnormalized GHZ preparation |0..0> + ... + |(d-1)..(d-1)>."""
    return spider_map(obs, 0, legs)


def frobenius_generators(obs: ObservableStructure) -> dict[str, LinearMap]:
    """The four canonical maps of the observable's Frobenius algebra.

    multiply: 2 -> 1, unit: 0 -> 1, copy: 1 -> 2, erase: 1 -> 0.
    ``erase`` is the dagger of ``unit`` (and ``copy`` of ``multiply``).
    """
    return {
        "multiply": spider_map(obs, 2, 1),
        "unit": spider_map(obs, 0, 1),
        "copy": spider_map(obs, 1, 2),
        "erase": spider_map(obs, 0, 1).dagger(),
    }
