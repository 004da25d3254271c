"""The documented errors of the diagrams layer: term counts, phases,
observables, measurement and Born vectors, each with its message."""

import math

import numpy as np
import pytest

from qgamelab.diagrams import (
    BornVector,
    Id,
    ObservableStructure,
    Par,
    PhaseElement,
    Spider,
    evaluate,
    measure,
    spider_map,
    typecheck,
)
from qgamelab.errors import NormalizationError, ShapeMismatchError
from qgamelab.linalg import StateVector, ket

Z = ObservableStructure.computational()


# ------------------------------------------------------------ term counts


def test_term_counts_are_python_ints():
    """A numpy-integer count is stored as a Python int, so a lone Par of
    one evaluates like the int one; a count that is not an integer is a
    ValueError naming it."""
    with_numpy = Par((Id(np.int64(1)), Spider(np.int32(1), np.uint8(1))))
    assert evaluate(with_numpy, Z) == evaluate(Par((Id(1), Spider(1, 1))), Z)
    assert type(Id(np.int64(2)).wires) is int
    assert Id(np.int64(2)) == Id(2) and hash(Id(np.int64(2))) == hash(Id(2))
    spider = Spider(np.int64(2), np.int16(0))
    assert (type(spider.inputs), type(spider.outputs)) == (int, int)
    assert type(Id(True).wires) is int and Id(True) == Id(1)
    with pytest.raises(ValueError,
                       match=r"^id wire count must be an integer >= 0, "
                             r"got 2\.0$"):
        Id(2.0)
    with pytest.raises(ValueError,
                       match=r"^id wire count must be an integer >= 0, "
                             r"got '1'$"):
        Id("1")
    with pytest.raises(ValueError,
                       match=r"^spider inputs must be an integer >= 0, "
                             r"got 1\.0$"):
        Spider(1.0, 2)
    with pytest.raises(ValueError, match=r"^spider outputs must be an "
                                         r"integer >= 0, got np\.float64"):
        Spider(1, np.float64(2.0))


def test_negative_counts_are_refused():
    with pytest.raises(ValueError, match=r"^spider inputs must be an "
                                         r"integer >= 0, got -1$"):
        Spider(-1, 0)
    with pytest.raises(ValueError, match=r"^spider outputs must be an "
                                         r"integer >= 0, "
                                         r"got np\.int64\(-3\)$"):
        Spider(0, np.int64(-3))
    with pytest.raises(ValueError, match=r"^id wire count must be an "
                                         r"integer >= 0, got -2$"):
        Id(-2)


def test_typecheck_and_evaluate_refuse_a_value_that_is_not_a_term():
    for bad in ("spider(1,1)", 3, None):
        with pytest.raises(TypeError, match=r"^not a diagram term: "):
            typecheck(bad)
        with pytest.raises(TypeError, match=r"^not a diagram term: "):
            evaluate(bad, Z)
    with pytest.raises(TypeError, match=r"^not a diagram term: 'x'$"):
        typecheck(Par((Id(1), "x")))


def test_spider_map_refuses_a_phase_of_another_dimension():
    qutrit = ObservableStructure.computational(3)
    with pytest.raises(ShapeMismatchError,
                       match=r"^phase over 2 points used with a dimension-3 "
                             r"observable$"):
        spider_map(qutrit, 1, 1, PhaseElement.qubit(1.0))


# ----------------------------------------------------------------- phases


def test_phase_element_needs_a_first_phase_of_zero():
    with pytest.raises(ValueError,
                       match=r"^a phase element needs at least one entry$"):
        PhaseElement(())
    with pytest.raises(ValueError,
                       match=r"^first phase must be 0 \(mod 2\*pi\), "
                             r"got 1\.0$"):
        PhaseElement((1.0, 0.0))
    # a whole turn is 0 mod 2*pi
    assert PhaseElement((2 * math.pi, 0.5)).phases[0] == 0.0


def test_phases_of_different_dimensions_do_not_add():
    with pytest.raises(ShapeMismatchError,
                       match=r"^cannot add phases of dimensions 2 and 3$"):
        PhaseElement.qubit(1.0) + PhaseElement.zero(3)


# ------------------------------------------------------------ observables


def test_observable_refuses_an_empty_wrong_sized_or_unnormalised_basis():
    with pytest.raises(ValueError,
                       match=r"^observable needs at least one basis vector$"):
        ObservableStructure(())
    with pytest.raises(ShapeMismatchError,
                       match=r"^basis vector 1 has dims \(3,\), "
                             r"expected \(2,\)$"):
        ObservableStructure((ket("0"), ket("0", dim=3)))
    with pytest.raises(NormalizationError,
                       match=r"^basis vector 0 is not normalized: "
                             r"\|v\|\^2 = 4\.0$") as info:
        ObservableStructure.from_matrix([[2.0]])
    assert info.value.total == 4.0


def test_computational_observable_is_the_identity_basis():
    for d in (1, 2, 3, 5):
        obs = ObservableStructure.computational(d)
        assert obs.point_matrix().dtype == complex
        assert np.array_equal(obs.point_matrix(), np.eye(d))
        assert all(type(v) is StateVector for v in obs.basis)


def test_measure_refuses_a_wire_of_another_dimension():
    with pytest.raises(ShapeMismatchError,
                       match=r"^state dims \(3, 3\) do not match observable "
                             r"dimension 2$"):
        measure(Z, ket("12", dim=3))
    with pytest.raises(ShapeMismatchError,
                       match=r"^state dims \(\) do not match observable "
                             r"dimension 2$"):
        measure(Z, StateVector(np.ones(1), ()))


def test_born_vector_size_must_fill_its_outcomes():
    with pytest.raises(ShapeMismatchError,
                       match=r"^2 weights do not fill 2\^2 outcomes$"):
        BornVector(2, 2, (0.5, 0.5))
    assert BornVector(1, 3, (0.5, 0.5, 0.0)).as_distribution() == \
        {"0": 0.5, "1": 0.5, "2": 0.0}
