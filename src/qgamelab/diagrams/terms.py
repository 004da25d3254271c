"""Typed AST for the string-diagram language, with typechecking.

Diagrams are terms, not pictures: Seq composes stages in listed order
(first listed applied first) and Par juxtaposes wires left to right.
Typechecking computes wire counts only; wire dimensions are fixed later
by the observable the term is evaluated against.
"""

from __future__ import annotations

import functools
import operator
import sys
from dataclasses import dataclass
from typing import Mapping, Union

from ..errors import NestingDepthError, UnboundBoxError, WireCountError
from ..linalg import LinearMap, ascii_digits
from .observables import PhaseElement


def _count(value, what: str) -> int:
    """A wire or leg count as a Python int, through ``operator.index``,
    so a numpy integer or a bool is one; ValueError naming ``what`` if it
    is negative or not an integer at all, such as 2.0 or "1"."""
    n = operator.index(value) if hasattr(value, "__index__") else -1
    if n < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    return n


def _depth_guarded(walk):
    """``walk``, a walk over a term, with a RecursionError turned into a
    NestingDepthError named after it, such as "typecheck: …"."""
    @functools.wraps(walk)
    def guarded(*args, **kwargs):
        try:
            return walk(*args, **kwargs)
        except RecursionError:
            raise NestingDepthError(
                f"{walk.__name__.strip('_')}: diagram term nests too deeply "
                f"for the recursion limit ({sys.getrecursionlimit()})") \
                from None
    return guarded


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

# the dataclass repr, == and hash walk a term as deep as it nests
for _cls in (Seq, Par):
    for _name in ("__repr__", "__eq__", "__hash__"):
        setattr(_cls, _name, _depth_guarded(getattr(_cls, _name)))

# cup and cap are the spiders they stand for
_AS_SPIDER = {Cup: Spider(0, 2), Cap: Spider(2, 0)}

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
    if isinstance(sig, LinearMap):
        sig = len(sig.in_dims), len(sig.out_dims)
    if not isinstance(sig, tuple) or len(sig) != 2:
        raise UnboundBoxError(
            f"box {name!r} is bound to a {type(sig).__name__}, not an "
            f"(inputs, outputs) pair or a LinearMap")
    return tuple(_count(n, f"box {name!r} wire count") for n in sig)


@_depth_guarded
def typecheck(term: DiagramTerm,
              boxes: BoxSignatures | None = None) -> tuple[int, int]:
    """Wire counts (inputs, outputs) of a term, bottom-up.

    ``boxes`` maps box names to (in_wires, out_wires) pairs or to bound
    LinearMaps.  Raises WireCountError on a Seq stage mismatch,
    UnboundBoxError for unknown boxes and malformed bindings, and
    NestingDepthError for a term nested past the recursion limit.
    """
    return _wire_counts(term, boxes)


def _wire_counts(term: DiagramTerm,
                 boxes: BoxSignatures | None) -> tuple[int, int]:
    if type(term) is Spider:    # the two commonest atoms first
        return term.inputs, term.outputs
    if type(term) is Id:
        return term.wires, term.wires
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
    term = _AS_SPIDER.get(type(term), term)
    if isinstance(term, Id):
        return term.wires, term.wires
    if isinstance(term, Spider):
        return term.inputs, term.outputs
    if isinstance(term, Swap):
        return 2, 2
    if isinstance(term, Box):
        return _box_signature(term.name, boxes)
    if isinstance(term, Ket):
        return 0, len(term.digits)
    raise TypeError(f"not a diagram term: {term!r}")


@_depth_guarded
def pretty(term: DiagramTerm) -> str:
    """Render a term back to concrete syntax; reparses to an equal AST.

    Spider phases are printable only in the qubit convention (0, alpha);
    other phase vectors have no concrete syntax.  A term nested past the
    recursion limit is a NestingDepthError.
    """
    return _render_seq(term)


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
