"""The dataclass repr, == and hash of a library-built term nested past
the recursion limit raise a NestingDepthError, like typecheck, evaluate,
normal_form and pretty (tests/test_deep_terms.py,
tests/test_deep_pretty.py), and leave the interpreter able to walk the
next term.  A term at the parser's nesting cap is unaffected."""

import pytest

from qgamelab import GameLabError, NestingDepthError
from qgamelab.diagrams import Id, Par, Seq, Spider, parse, pretty
from qgamelab.diagrams.parse import MAX_NESTING


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
@pytest.mark.parametrize("name, walk", [
    ("repr", lambda term, _: repr(term)),
    ("hash", lambda term, _: hash(term)),
    ("hash", lambda term, _: {term}),
    ("eq", lambda term, other: term == other),
    ("eq", lambda term, other: term != other),
])
def test_a_term_nested_5000_deep_is_a_nesting_depth_error(nested, name,
                                                         walk):
    assert issubclass(NestingDepthError, GameLabError)
    # two terms built apart, so == cannot stop at an identical object
    with pytest.raises(NestingDepthError, match=rf"^{name}: .* \(\d+\)$"):
        walk(nested(5000), nested(5000))
    # the stack unwound: the next term is walked as usual
    assert repr(Seq((Id(1), Id(1)))) == \
        "Seq(stages=(Id(wires=1), Id(wires=1)))"


def test_a_term_at_the_parsers_cap_reprs_hashes_and_compares():
    # each parenthesised group is a Seq of its own, so this one nests as
    # deep as the parser allows
    source = "(" * MAX_NESTING + "id(1)" + " ; id(1))" * MAX_NESTING
    term, again = parse(source), parse(source)
    assert term == _nested_seq(MAX_NESTING) and term is not again
    assert term == again and not term != again
    assert hash(term) == hash(again)
    assert repr(term) == repr(again) == repr(_nested_seq(MAX_NESTING))
    assert term == parse(pretty(term))
    assert term != _nested_seq(MAX_NESTING - 1)


def test_shallow_terms_keep_their_dataclass_methods():
    term = Par((Seq((Spider(1, 2), Spider(2, 1))), Id(0)))
    assert term == Par((Seq((Spider(1, 2), Spider(2, 1))), Id(0)))
    assert term != Par((Seq((Spider(1, 2), Spider(2, 1))), Id(1)))
    assert term.__eq__(Id(0)) is NotImplemented
    assert len({term, Par((Seq((Spider(1, 2), Spider(2, 1))), Id(0)))}) == 1
    assert Seq.__repr__.__name__ == "__repr__"
