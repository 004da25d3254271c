"""A diagram term built in Python can nest deeper than the interpreter's
recursion limit; typecheck and evaluate then raise a NestingDepthError,
a GameLabError, and leave the interpreter able to walk the next term."""

import sys

import numpy as np
import pytest

from qgamelab import GameLabError, NestingDepthError
from qgamelab.diagrams import (
    Id,
    ObservableStructure,
    Par,
    Seq,
    Spider,
    evaluate,
    parse,
    typecheck,
)
from qgamelab.diagrams.parse import MAX_NESTING

Z = ObservableStructure.computational()


def _nested_seq(depth):
    term = Id(1)
    for _ in range(depth):
        term = Seq((term, Id(1)))
    return term


def _nested_par(depth):
    term = Spider(1, 1)
    for _ in range(depth):
        term = Par((term, Id(0)))
    return term


def test_a_seq_nested_5000_deep_is_a_nesting_depth_error():
    term = _nested_seq(5000)
    assert issubclass(NestingDepthError, GameLabError)
    with pytest.raises(NestingDepthError, match=r"^typecheck: .* \(\d+\)$"):
        typecheck(term)
    with pytest.raises(NestingDepthError, match=r"^typecheck: "):
        evaluate(term, Z)   # evaluate typechecks first
    # the stack unwound: the next term is walked as usual
    assert typecheck(Seq((Id(1), Id(1)))) == (1, 1)


def test_a_term_that_typechecks_but_is_too_deep_to_evaluate():
    # typecheck spends one frame per level, the evaluator more than two,
    # so half the recursion limit passes the one and not the other
    term = _nested_par(sys.getrecursionlimit() // 2)
    assert typecheck(term) == (1, 1)
    with pytest.raises(NestingDepthError, match=r"^evaluate: "):
        evaluate(term, Z)
    assert np.array_equal(evaluate(_nested_par(50), Z).array, np.eye(2))


def test_the_parsers_cap_is_unchanged():
    deepest = "(" * MAX_NESTING + "id(1)" + ")" * MAX_NESTING
    assert evaluate(parse(deepest), Z).array.shape == (2, 2)
    assert MAX_NESTING == 100
