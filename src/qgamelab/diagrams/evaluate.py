"""Evaluation of diagram terms into linear maps.

Everything is interpreted against a single observable structure: wires
carry its dimension, spiders sum over its classical points, kets pick
them out.  Evaluation is unnormalized; the GHZ spider gives
|0..0> + |1..1> with no 1/sqrt(2), and scalars are carried exactly.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import ShapeMismatchError, UnboundBoxError
from ..linalg import LinearMap, apply_on_wires, check_dims, identity
from .observables import ObservableStructure, PhaseElement
from .terms import (
    Box,
    Cap,
    Cup,
    DiagramTerm,
    Id,
    Ket,
    Par,
    Seq,
    Spider,
    Swap,
    typecheck,
)


def spider_map(obs: ObservableStructure, inputs: int, outputs: int,
               phase: PhaseElement | None = None) -> LinearMap:
    """The (inputs -> outputs) spider: sum_k w_k |k..k><k..k|.

    Built as the copy tensor with w_k at |k..k>, moved leg by leg from
    the observable's point basis to the standard basis.
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
    in_dims = check_dims((d,) * inputs, "spider input dims")
    out_dims = check_dims((d,) * outputs, "spider output dims")
    legs = outputs + inputs
    # |k..k> sits at flat index k * (1 + d + ... + d^(legs-1)); with no
    # legs every k lands on the one entry and the weights add up.
    copy = np.zeros(d ** legs, dtype=complex)
    np.add.at(copy, np.arange(d) * sum(d ** a for a in range(legs)), weights)
    points = obs.point_matrix()
    arr = apply_on_wires([points] * outputs + [points.conj()] * inputs,
                         copy.reshape((d,) * legs))
    return LinearMap(arr.reshape(d ** outputs, d ** inputs), in_dims,
                     out_dims)


def swap_map(dim: int) -> LinearMap:
    """The identity on two wires with its output legs exchanged."""
    dims = check_dims((dim, dim), "swap dims")
    eye = np.eye(dim * dim, dtype=complex).reshape((dim,) * 4)
    arr = eye.transpose(1, 0, 2, 3).reshape(dim * dim, dim * dim)
    return LinearMap(arr, dims, dims)


def ket_map(obs: ObservableStructure, digits: str) -> LinearMap:
    d = obs.dim
    for c in digits:
        if int(c) >= d:
            raise ShapeMismatchError(
                f"ket digit {c} out of range for dimension {d}")
    out_dims = check_dims((d,) * len(digits), "ket dims")
    points = obs.point_matrix()
    col = apply_on_wires([points[:, [int(c)]] for c in digits],
                         np.ones((1,) * len(digits), dtype=complex))
    return LinearMap(col.reshape(-1, 1), (), out_dims)


def evaluate(term: DiagramTerm, obs: ObservableStructure,
             boxes: Mapping[str, LinearMap] | None = None) -> LinearMap:
    """Evaluate a typechecked term to its linear map.

    ``boxes`` binds box names to maps whose wires must all carry the
    observable's dimension.
    """
    typecheck(term, boxes)
    if boxes:
        d = obs.dim
        for name, bound in boxes.items():
            if any(w != d for w in bound.in_dims + bound.out_dims):
                raise ShapeMismatchError(
                    f"box {name!r} has wire dims {bound.in_dims} -> "
                    f"{bound.out_dims}; every wire must have dimension {d}")
    return _eval(term, obs, boxes)


def _eval(term: DiagramTerm, obs: ObservableStructure,
          boxes: Mapping[str, LinearMap] | None) -> LinearMap:
    d = obs.dim
    if isinstance(term, Id):
        return identity((d,) * term.wires)
    if isinstance(term, Spider):
        return spider_map(obs, term.inputs, term.outputs, term.phase)
    if isinstance(term, Cup):
        return spider_map(obs, 0, 2)
    if isinstance(term, Cap):
        return spider_map(obs, 2, 0)
    if isinstance(term, Swap):
        return swap_map(d)
    if isinstance(term, Box):
        if boxes is None or term.name not in boxes:
            raise UnboundBoxError(f"box {term.name!r} is not bound")
        return boxes[term.name]
    if isinstance(term, Ket):
        return ket_map(obs, term.digits)
    if isinstance(term, Seq):
        acc = _eval(term.stages[0], obs, boxes)
        for stage in term.stages[1:]:
            acc = _eval(stage, obs, boxes) @ acc
        return acc
    if isinstance(term, Par):
        acc = _eval(term.factors[0], obs, boxes)
        for factor in term.factors[1:]:
            acc = acc.tensor(_eval(factor, obs, boxes))
        return acc
    raise TypeError(f"not a diagram term: {term!r}")


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
