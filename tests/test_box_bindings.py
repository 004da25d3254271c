"""A box is bound to an (inputs, outputs) pair of wire counts for
typecheck, or to a LinearMap for typecheck and evaluate.  A binding of
any other shape is an UnboundBoxError naming the box, and a count that
is not an integer >= 0 a ValueError naming it, read by the rule every
other wire count of a term uses (``terms._count``)."""

import numpy as np
import pytest

from qgamelab import GameLabError, UnboundBoxError
from qgamelab.diagrams import (
    Box,
    ObservableStructure,
    evaluate,
    parse,
    typecheck,
)
from qgamelab.linalg import PAULI_X, from_matrix, identity

Z = ObservableStructure.computational()


@pytest.mark.parametrize("binding, kind", [
    ([1, 2], "list"),
    ("x", "str"),
    ((1, 2, 3), "tuple"),
    ((1,), "tuple"),
    (None, "NoneType"),
    ({"in": 1, "out": 1}, "dict"),
])
def test_a_malformed_binding_is_an_unbound_box_error(binding, kind):
    assert issubclass(UnboundBoxError, GameLabError)
    with pytest.raises(UnboundBoxError,
                       match=rf"^box 'U' is bound to a {kind}, not an "):
        typecheck(parse("box(U)"), {"U": binding})
    # evaluate typechecks first
    with pytest.raises(UnboundBoxError,
                       match=rf"^box 'U' is bound to a {kind}, not an "):
        evaluate(parse("box(U)"), Z, {"U": binding})


@pytest.mark.parametrize("binding", [(1, 1), (1.5, 2), "x"])
def test_evaluate_needs_a_map_where_typecheck_takes_a_pair(binding):
    with pytest.raises(UnboundBoxError, match=r"^box 'V' is bound to a "):
        evaluate(parse("box(U)"), Z, {"U": PAULI_X, "V": binding})
    if binding == (1, 1):
        assert typecheck(parse("box(U)"), {"U": binding}) == (1, 1)
        with pytest.raises(UnboundBoxError,
                           match=r"^box 'U' is bound to a tuple, not a "
                                 r"LinearMap$"):
            evaluate(parse("box(U)"), Z, {"U": binding})


@pytest.mark.parametrize("signature", [(1.5, 2), (1, 2.0), (-1, 0),
                                       (0, -3), ("1", 1), (1, None)])
def test_a_count_that_is_not_a_natural_number_is_refused(signature):
    # int() would have read (1.5, 2) as (1, 2) and (-1, 0) as a count
    with pytest.raises(ValueError, match=r"^box 'U' wire count must be an "
                                         r"integer >= 0, got "):
        typecheck(parse("box(U)"), {"U": signature})
    with pytest.raises(ValueError, match=r"^box 'U' wire count "):
        typecheck(parse("box(U) * id(1)"), {"U": signature})


def test_integer_counts_of_any_integer_type_are_python_ints():
    for signature in [(np.int64(1), np.int32(2)), (True, 2), (0, 0)]:
        got = typecheck(parse("box(U)"), {"U": signature})
        assert got == tuple(int(n) for n in signature)
        assert all(type(n) is int for n in got)
    two_to_one = from_matrix(np.ones((2, 4)), in_dims=(2, 2), out_dims=(2,))
    got = typecheck(parse("box(U) ; box(V)"),
                    {"U": (np.uint8(1), 2), "V": two_to_one})
    assert got == (1, 1) and all(type(n) is int for n in got)


def test_a_map_binding_still_typechecks_and_evaluates():
    assert typecheck(Box("I"), {"I": identity((2, 2))}) == (2, 2)
    assert evaluate(parse("box(U) ; box(U)"), Z, {"U": PAULI_X}) == \
        identity((2,))
