"""String-diagram language: terms, parser, observables, evaluation."""

from .evaluate import (
    evaluate,
    frobenius_generators,
    ghz_state_map,
    ket_map,
    normal_form,
    spider_map,
    swap_map,
)
from .observables import (
    BornVector,
    ObservableStructure,
    PhaseElement,
    classical_points,
    measure,
    validate_born_vector,
)
from .parse import parse
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
    pretty,
    typecheck,
)

__all__ = [
    "BornVector",
    "Box",
    "Cap",
    "Cup",
    "DiagramTerm",
    "Id",
    "Ket",
    "ObservableStructure",
    "Par",
    "PhaseElement",
    "Seq",
    "Spider",
    "Swap",
    "classical_points",
    "evaluate",
    "frobenius_generators",
    "ghz_state_map",
    "ket_map",
    "measure",
    "normal_form",
    "parse",
    "pretty",
    "spider_map",
    "swap_map",
    "typecheck",
    "validate_born_vector",
]
