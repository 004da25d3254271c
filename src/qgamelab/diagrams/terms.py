"""Typed AST for the string-diagram language, with typechecking.

Diagrams are terms, not pictures: Seq composes stages in listed order
(first listed applied first) and Par juxtaposes wires left to right.
Typechecking computes wire counts only; wire dimensions are fixed later
by the observable the term is evaluated against.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Mapping, Union

from ..errors import NestingDepthError, UnboundBoxError, WireCountError
from ..linalg import ascii_digits
from .observables import PhaseElement


def _count(value, what: str) -> int:
    """A wire or leg count as a Python int, through ``operator.index``,
    so a numpy integer or a bool is one; ValueError naming ``what`` if it
    is negative or not an integer at all, such as 2.0 or "1"."""
    n = operator.index(value) if hasattr(value, "__index__") else -1
    if n < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    return n


@dataclass(frozen=True)
class Id:
    wires: int

    def __post_init__(self):
        object.__setattr__(self, "wires", _count(self.wires, "id wire count"))


@dataclass(frozen=True)
class Spider:
    inputs: int
    outputs: int
    phase: PhaseElement | None = None

    def __post_init__(self):
        for legs in ("inputs", "outputs"):
            count = _count(getattr(self, legs), f"spider {legs}")
            object.__setattr__(self, legs, count)


@dataclass(frozen=True)
class Cup:
    """The preparation sum_k |kk>, a map from no wires to two."""


@dataclass(frozen=True)
class Cap:
    """Dagger of Cup: two wires to none."""


@dataclass(frozen=True)
class Swap:
    """Transposition of two adjacent wires."""


@dataclass(frozen=True)
class Box:
    name: str


@dataclass(frozen=True)
class Ket:
    digits: str

    def __post_init__(self):
        if not ascii_digits(self.digits):
            raise ValueError(f"ket needs a nonempty digit string, "
                             f"got {self.digits!r}")


@dataclass(frozen=True)
class Seq:
    stages: tuple["DiagramTerm", ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("empty sequential composition")
        object.__setattr__(self, "stages", tuple(self.stages))


@dataclass(frozen=True)
class Par:
    factors: tuple["DiagramTerm", ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty parallel composition")
        object.__setattr__(self, "factors", tuple(self.factors))


DiagramTerm = Union[Id, Spider, Cup, Cap, Swap, Box, Ket, Seq, Par]

# The concrete syntax of every atom, read by both the parser and pretty():
# keyword -> (term class, kinds of its arguments, in field order).  An
# argument is a "nat" (natural number), a "name" (identifier), "digits"
# (a digit string) or a "phase", the optional last ", phase" in radians.
ATOM_SYNTAX = {
    "id": (Id, ("nat",)),
    "spider": (Spider, ("nat", "nat", "phase")),
    "cup": (Cup, ()),
    "cap": (Cap, ()),
    "swap": (Swap, ()),
    "box": (Box, ("name",)),
    "ket": (Ket, ("digits",)),
}
_KEYWORDS = {cls: keyword for keyword, (cls, _) in ATOM_SYNTAX.items()}

BoxSignatures = Mapping[str, object]


def _box_signature(name: str, boxes: BoxSignatures | None) -> tuple[int, int]:
    if boxes is None or name not in boxes:
        raise UnboundBoxError(f"box {name!r} is not bound")
    sig = boxes[name]
    if isinstance(sig, tuple):
        ins, outs = sig
        return int(ins), int(outs)
    # anything map-like with wire dims, e.g. a LinearMap binding
    return len(sig.in_dims), len(sig.out_dims)


def typecheck(term: DiagramTerm,
              boxes: BoxSignatures | None = None) -> tuple[int, int]:
    """Wire counts (inputs, outputs) of a term, bottom-up.

    ``boxes`` maps box names to (in_wires, out_wires) pairs or to bound
    LinearMaps.  Raises WireCountError on a Seq stage mismatch,
    UnboundBoxError for unknown boxes, and NestingDepthError for a term
    nested past the recursion limit.
    """
    try:
        return _wire_counts(term, boxes)
    except RecursionError:
        raise _too_deep("typecheck") from None


def _too_deep(what: str) -> NestingDepthError:
    return NestingDepthError(
        f"{what}: diagram term nests too deeply for the recursion limit "
        f"({sys.getrecursionlimit()})")


def _wire_counts(term: DiagramTerm,
                 boxes: BoxSignatures | None) -> tuple[int, int]:
    if isinstance(term, Id):
        return term.wires, term.wires
    if isinstance(term, Spider):
        return term.inputs, term.outputs
    if isinstance(term, Cup):
        return 0, 2
    if isinstance(term, Cap):
        return 2, 0
    if isinstance(term, Swap):
        return 2, 2
    if isinstance(term, Box):
        return _box_signature(term.name, boxes)
    if isinstance(term, Ket):
        return 0, len(term.digits)
    if isinstance(term, Seq):
        ins, current = _wire_counts(term.stages[0], boxes)
        for i, stage in enumerate(term.stages[1:], start=1):
            sin, sout = _wire_counts(stage, boxes)
            if sin != current:
                raise WireCountError(
                    f"stage {i} consumes {sin} wires but stage {i - 1} "
                    f"produces {current}",
                    stage=i, produced=current, consumed=sin)
            current = sout
        return ins, current
    if isinstance(term, Par):
        ins = outs = 0
        for factor in term.factors:
            fin, fout = _wire_counts(factor, boxes)
            ins += fin
            outs += fout
        return ins, outs
    raise TypeError(f"not a diagram term: {term!r}")


def pretty(term: DiagramTerm) -> str:
    """Render a term back to concrete syntax; reparses to an equal AST.

    Spider phases are printable only in the qubit convention (0, alpha);
    other phase vectors have no concrete syntax.  A term nested past the
    recursion limit is a NestingDepthError.
    """
    try:
        return _render_seq(term)
    except RecursionError:
        raise _too_deep("pretty") from None


def _render_seq(term: DiagramTerm) -> str:
    if isinstance(term, Seq):
        return " ; ".join(_render_par(s) for s in term.stages)
    return _render_par(term)


def _render_par(term: DiagramTerm) -> str:
    if isinstance(term, Par):
        return " * ".join(_render_atom(f) for f in term.factors)
    return _render_atom(term)


def _render_atom(term: DiagramTerm) -> str:
    if isinstance(term, (Seq, Par)):
        return f"({_render_seq(term)})"
    keyword = _KEYWORDS.get(type(term))
    if keyword is None:
        raise TypeError(f"not a diagram term: {term!r}")
    if isinstance(term, Spider):
        phase = ""
        if term.phase is not None:
            if term.phase.dim != 2:
                raise ValueError(f"phase over {term.phase.dim} points has "
                                 f"no concrete syntax")
            phase = f",{term.phase.phases[1]!r}"
        return f"{keyword}({term.inputs},{term.outputs}{phase})"
    values = vars(term).values()
    return f"{keyword}({','.join(map(str, values))})" if values else keyword
