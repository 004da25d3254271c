"""Evaluation of diagram terms into linear maps.

Everything is interpreted against a single observable structure: wires
carry its dimension, spiders sum over its classical points, kets pick
them out.  Evaluation is unnormalized; the GHZ spider gives
|0..0> + |1..1> with no 1/sqrt(2), and scalars are carried exactly.

Only connectivity matters (the spider theorem: Coecke & Duncan, NJP 13,
043016 (2011); Coecke & Kissinger, Picturing Quantum Processes, CUP
2017), so a box-free term is evaluated through its ``normal_form``: a
connected network of spiders, cups, caps and kets is one spider.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import ShapeMismatchError, UnboundBoxError
from ..linalg import (
    LinearMap,
    _placed,
    check_dims,
    check_wires,
    compose,
    dimension_limit,
    tensor,
    tensor_in_place,
)
from .observables import ObservableStructure, PhaseElement
from .terms import (
    _AS_SPIDER,
    Box,
    DiagramTerm,
    Id,
    Par,
    Seq,
    Spider,
    Swap,
    _depth_guarded,
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
    weights = np.ones(d, dtype=complex) if phase is None \
        else _weights(phase, d)
    in_dims = check_wires(d, inputs, "spider input dims")
    out_dims = check_wires(d, outputs, "spider output dims")
    points = obs.point_matrix()
    arr = (_on_every_leg(points, outputs) * weights) \
        @ _on_every_leg(points.conj(), inputs).T
    # finite: orthonormal points times unit weights
    return LinearMap._of_finite(arr, in_dims, out_dims)


def _weights(phase: PhaseElement, d: int) -> np.ndarray:
    """The weights of ``phase``, which must be over the d points."""
    if phase.dim != d:
        raise ShapeMismatchError(
            f"phase over {phase.dim} points used with a dimension-{d} "
            f"observable")
    return phase.weights()


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
    return LinearMap._of_finite(_placed(dims, dims, [(None, (0, 1), (1, 0))]),
                                dims, dims)


def ket_map(obs: ObservableStructure, digits: str) -> LinearMap:
    d = obs.dim
    ks = _ket_digits(digits, d)
    out_dims = check_wires(d, len(ks), "ket dims")
    points = obs.point_matrix()
    col = tensor_in_place([points[:, [k]] for k in ks])
    # finite: tensor_in_place checks every entry it writes
    return LinearMap._of_finite(col, (), out_dims)


def _ket_digits(digits: str, d: int) -> list[int]:
    """A ket's digits as ints, each of which must be below d."""
    for c in digits:
        if int(c) >= d:
            raise ShapeMismatchError(
                f"ket digit {c} out of range for dimension {d}")
    return [int(c) for c in digits]


@dataclass(frozen=True, eq=False)
class Component:
    """A connected network of nodes, fused into one spider: the map
    sum_k weights[k] |k..k><k..k| from the term's input wires ``inputs``
    to its output wires ``outputs``, both ascending, with k running over
    the observable's points."""

    weights: np.ndarray
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class NormalForm:
    """A box-free term as the spider theorem leaves it: its components
    with boundary legs, its bare wires as (input, output) pairs in output
    order, and the product of its closed components' scalars."""

    in_wires: int
    out_wires: int
    components: tuple[Component, ...]
    wires: tuple[tuple[int, int], ...]
    scalar: complex


@_depth_guarded
def normal_form(term: DiagramTerm, obs: ObservableStructure) -> NormalForm:
    """The spider normal form of a box-free term.

    Every node is a spider over the observable's points: a spider's
    weights are its phase's, a cup's and a cap's are all 1, and each
    digit k of a ket is a 0 -> 1 spider with weights e_k.  A component's
    weights are the entrywise product of its nodes', its inner loops
    vanish, and a closed component is the scalar sum_k w_k; ``id`` and
    ``swap`` are wiring alone.  Each atom's legs are checked against the
    dimension cap, and nothing of d^wires entries is built.  A ``Box``
    has no normal form: typecheck refuses it as unbound.  A term nested
    past the recursion limit is a NestingDepthError.
    """
    typecheck(term)
    return _Trace(obs).run(term)


# the classes _Trace.walk dispatches on; a subclass walks as its class
_WALKED = (Spider, Id, Seq, Par, Swap)


class _Trace:
    """One union-find pass over the nodes of a box-free term.

    A wire end is a node, or ~i for the term's input wire i.  Every part
    of the term takes its input ends from one shared iterator, so each
    ``Par`` factor takes as many as it has inputs without being asked
    for a wire count.  A node's root is the least node it is joined to.
    Each atom's leg counts are checked against ``legs``, the most legs
    the dimension cap allows, read when the trace starts; only a count
    above it goes to ``check_wires``, which raises DimensionLimitError.
    """

    def __init__(self, obs: ObservableStructure):
        self.d = obs.dim
        self.weights: list = []      # per node: its weights, None if all 1
        self.parent: list[int] = []
        self.entered: dict[int, int] = {}    # input wire -> its node
        cap = dimension_limit()     # for d = 1, check_wires counts wires
        self.legs = cap if self.d == 1 else max(
            n for n in range(cap.bit_length()) if self.d ** n <= cap)

    def run(self, term: DiagramTerm) -> NormalForm:
        taken = itertools.count()
        ends = self.walk(term, map(operator.invert, taken))
        root: list[int] = []    # per node; no node's parent is above it
        for node, up in enumerate(self.parent):
            root.append(node if up == node else root[up])
        parts: dict[int, list] = {}  # root -> [weights, inputs, outputs]
        for node, weights in enumerate(self.weights):
            part = parts.setdefault(root[node], [None, [], []])
            if weights is not None:
                part[0] = weights if part[0] is None else part[0] * weights
        for wire, node in sorted(self.entered.items()):
            parts[root[node]][1].append(wire)
        wires = []
        for wire, end in enumerate(ends):
            if end < 0:
                wires.append((~end, wire))
            else:
                parts[root[end]][2].append(wire)
        ones = np.ones(self.d, dtype=complex)
        scalar, components = 1 + 0j, []
        for weights, ins, outs in parts.values():
            weights = ones if weights is None else weights
            weights.setflags(write=False)
            if ins or outs:
                components.append(Component(weights, tuple(ins), tuple(outs)))
            else:
                scalar *= complex(weights.sum())
        return NormalForm(next(taken), len(ends), tuple(components),
                          tuple(wires), scalar)

    def walk(self, term: DiagramTerm, ins) -> list[int]:
        """The ends of ``term``'s output wires, its inputs taken from
        ``ins``.  A ``Par`` walks its factors through a generator, so a
        level of ``Par`` nesting costs two frames to typecheck's one, and
        a term typecheck can walk may still be too deep to trace."""
        kind = type(term)
        if kind not in _WALKED:     # a cup, cap or ket, or a subclass
            term = _AS_SPIDER.get(kind, term)
            kind = next((k for k in _WALKED if isinstance(term, k)), None)
        if kind is Spider:
            if term.inputs > self.legs or term.outputs > self.legs:
                check_wires(self.d, term.inputs, "spider input dims")
                check_wires(self.d, term.outputs, "spider output dims")
            root = node = self.node(None if term.phase is None
                                    else _weights(term.phase, self.d))
            parent = self.parent
            for end in itertools.islice(ins, term.inputs):
                if end < 0:
                    self.entered[~end] = node
                    continue
                while parent[end] != end:       # find, halving the path
                    parent[end] = end = parent[parent[end]]
                if end < root:
                    parent[root] = root = end
                else:
                    parent[end] = root
            return [node] * term.outputs
        if kind is Id:
            if term.wires > self.legs:
                check_wires(self.d, term.wires, "dims")
            return list(itertools.islice(ins, term.wires))
        if kind is Seq:
            ends = self.walk(term.stages[0], ins)
            for stage in term.stages[1:]:
                ends = self.walk(stage, iter(ends))
            return ends
        if kind is Par:
            return list(itertools.chain.from_iterable(
                self.walk(factor, ins) for factor in term.factors))
        if kind is Swap:
            if self.legs < 2:
                check_wires(self.d, 2, "swap dims")
            first = next(ins)
            return [next(ins), first]
        digits = _ket_digits(term.digits, self.d)   # all else is ruled out
        check_wires(self.d, len(digits), "ket dims")
        return [self.node(np.eye(1, self.d, k, dtype=complex)[0])
                for k in digits]

    def node(self, weights) -> int:
        self.weights.append(weights)
        self.parent.append(len(self.parent))
        return len(self.parent) - 1


@_depth_guarded
def evaluate(term: DiagramTerm, obs: ObservableStructure,
             boxes: Mapping[str, LinearMap] | None = None) -> LinearMap:
    """Evaluate a typechecked term to its linear map.

    ``boxes`` binds box names to maps whose wires must all carry the
    observable's dimension.  The result's dims are checked against the
    cap before any work on the term; see ``_Evaluation`` for how the map
    is built.  A term nested past the recursion limit is a
    NestingDepthError.
    """
    ins, outs = typecheck(term, boxes)
    d = obs.dim
    for name, bound in (boxes or {}).items():
        if not isinstance(bound, LinearMap):
            raise UnboundBoxError(f"box {name!r} is bound to a "
                                  f"{type(bound).__name__}, not a LinearMap")
        if any(w != d for w in bound.in_dims + bound.out_dims):
            raise ShapeMismatchError(
                f"box {name!r} has wire dims {bound.in_dims} -> "
                f"{bound.out_dims}; every wire must have dimension {d}")
    check_wires(d, ins, "in_dims")
    check_wires(d, outs, "out_dims")
    evaluation = _Evaluation(obs, boxes)
    evaluation.mark(term)
    return evaluation.map(term)


class _Evaluation:
    """One ``evaluate`` call.

    A term with no box is traced once into its normal form, and the map
    is assembled from that.  A component with n inputs and m outputs is
    spider fusion read backwards: spider(1,m) . W . spider(n,1), where
    W = P diag(w) P^dag for the matrix P of the observable's points.  A
    closed component is its scalar.  One ``linalg._placed`` call writes
    the components and the bare wires into a zeroed result, with the
    wires' permutation in the strides of the view it writes through, so
    a lone ``Par`` of identities, swaps and 1 -> 1 spiders is built in
    one allocation with only its non-zero entries written.

    A term with a box is composed over its ``Seq`` stages and tensored
    over its ``Par`` factors; each of its box-free parts is
    assembled from its own normal form, so no part is traced twice.
    """

    def __init__(self, obs: ObservableStructure,
                 boxes: Mapping[str, LinearMap] | None):
        self.obs = obs
        self.boxes = boxes
        self.boxed: set[int] = set()    # the ids of parts that hold a box

    def mark(self, term: DiagramTerm) -> bool:
        """Whether ``term`` holds a box, with every part that does
        recorded in ``boxed``."""
        if not self.boxes:
            return False
        parts = getattr(term, "stages", ()) or getattr(term, "factors", ())
        held = [self.mark(part) for part in parts]
        if isinstance(term, Box) or any(held):
            self.boxed.add(id(term))
            return True
        return False

    def map(self, term: DiagramTerm) -> LinearMap:
        if id(term) not in self.boxed:
            return self.assembled(_Trace(self.obs).run(term))
        if isinstance(term, Box):
            return self.boxes[term.name]
        if isinstance(term, Seq):
            acc = self.map(term.stages[0])
            for stage in term.stages[1:]:
                acc = compose(self.map(stage), acc)
            return acc
        return tensor(*map(self.map, term.factors))

    def assembled(self, form: NormalForm) -> LinearMap:
        obs, d = self.obs, self.obs.dim
        in_dims = check_wires(d, form.in_wires, "in_dims")
        out_dims = check_wires(d, form.out_wires, "out_dims")
        points = obs.point_matrix()
        dual = points.conj().T
        # each leg count's spider, built once per call
        spiders = {legs: spider_map(obs, *legs) for legs in {
            legs for part in form.components
            for legs in ((1, len(part.outputs)), (len(part.inputs), 1))}}
        blocks = [(np.array([[form.scalar]]), (), ())]
        for part in form.components:
            fused = LinearMap._of_finite((points * part.weights) @ dual,
                                         (d,), (d,))
            core = compose(compose(spiders[1, len(part.outputs)], fused),
                           spiders[len(part.inputs), 1])
            blocks.append((core.array, part.outputs, part.inputs))
        blocks += [(None, (output,), (wire,)) for wire, output in form.wires]
        return LinearMap._of_finite(_placed(out_dims, in_dims, blocks),
                                    in_dims, out_dims)


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
