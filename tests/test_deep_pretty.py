"""pretty and normal_form on a library-built term nested past the
recursion limit raise a NestingDepthError, like typecheck and evaluate
(tests/test_deep_terms.py), and leave the interpreter able to walk the
next term.  The dataclass repr and hash of such a term are not covered."""

import sys

import pytest

from qgamelab import GameLabError, NestingDepthError
from qgamelab.diagrams import (
    Id,
    ObservableStructure,
    Par,
    Seq,
    Spider,
    normal_form,
    parse,
    pretty,
    typecheck,
)

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


@pytest.mark.parametrize("nested", [_nested_seq, _nested_par])
def test_pretty_of_a_term_nested_5000_deep_is_a_nesting_depth_error(nested):
    assert issubclass(NestingDepthError, GameLabError)
    with pytest.raises(NestingDepthError, match=r"^pretty: .* \(\d+\)$"):
        pretty(nested(5000))
    # the stack unwound: the next term is rendered as usual
    assert pretty(Seq((Id(1), Id(1)))) == "id(1) ; id(1)"


def test_pretty_of_a_shallow_nested_term_still_reparses():
    term = _nested_seq(50)
    assert parse(pretty(term)) == parse(pretty(parse(pretty(term))))
    assert typecheck(parse(pretty(term))) == (1, 1)


def test_normal_form_of_a_term_too_deep_to_trace():
    # typecheck spends one frame per level and the trace two, so half
    # the recursion limit passes the one and not the other
    term = _nested_par(sys.getrecursionlimit() // 2)
    assert typecheck(term) == (1, 1)
    with pytest.raises(NestingDepthError, match=r"^normal_form: "):
        normal_form(term, Z)
    with pytest.raises(NestingDepthError, match=r"^typecheck: "):
        normal_form(_nested_seq(5000), Z)
    form = normal_form(_nested_par(50), Z)
    assert [(c.inputs, c.outputs) for c in form.components] == [((0,), (0,))]
