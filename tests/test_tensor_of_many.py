"""``linalg.tensor`` takes any number of maps, and the evaluator tensors
a boxed ``Par`` through it in one call."""

import numpy as np
import pytest

from qgamelab.diagrams import ObservableStructure, evaluate, parse
from qgamelab.errors import DimensionLimitError
from qgamelab.linalg import (
    LinearMap,
    dimension_limit,
    identity,
    set_dimension_limit,
    tensor,
)
from test_diagram_eval import _oracle_eval


def _gaussian_map(rng, in_dims, out_dims):
    """A map whose entries are Gaussian integers with no zero part: every
    product of such entries is exact and no zero in it is signed, so no
    grouping of a Kronecker product can change a bit of it."""
    shape = (2, int(np.prod(out_dims)), int(np.prod(in_dims)))
    re, im = rng.choice([-3, -2, -1, 1, 2, 3], shape)
    return LinearMap(re + 1j * im, in_dims, out_dims)


def _random_map(rng, in_dims, out_dims):
    shape = (int(np.prod(out_dims)), int(np.prod(in_dims)))
    return LinearMap(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                     in_dims, out_dims)


def test_tensor_of_three_is_the_nested_pair_byte_for_byte():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = _gaussian_map(rng, (3,), (2,))
        b = _gaussian_map(rng, (), (2, 2))
        c = _gaussian_map(rng, (2, 3), (3,))
        got = tensor(a, b, c)
        for want in (tensor(tensor(a, b), c), tensor(a, tensor(b, c))):
            assert (got.in_dims, got.out_dims) == (want.in_dims,
                                                   want.out_dims)
            assert got.array.tobytes() == want.array.tobytes()
        assert got.array.tobytes() == \
            np.kron(np.kron(a.array, b.array), c.array).tobytes()


def test_tensor_of_three_float_maps_matches_kron():
    rng = np.random.default_rng(2929)
    a, b, c = (_random_map(rng, (2,), (3,)), _random_map(rng, (2, 2), (2,)),
               _random_map(rng, (3,), ()))
    got = tensor(a, b, c)
    assert (got.in_dims, got.out_dims) == ((2, 2, 2, 3), (3, 2))
    assert np.allclose(got.array, np.kron(np.kron(a.array, b.array), c.array),
                       rtol=0, atol=1e-12)


def test_tensor_of_one_is_the_map_and_of_none_the_unit():
    rng = np.random.default_rng(7)
    a = _random_map(rng, (2, 3), (3,))
    assert tensor(a) == a
    assert tensor(a).array.tobytes() == a.array.tobytes()
    assert tensor() == identity(())
    assert a.tensor(identity(())) == a


def test_tensor_of_many_checks_the_combined_dims_before_building():
    limit = dimension_limit()
    set_dimension_limit(64)
    try:
        with pytest.raises(DimensionLimitError, match="^combined in_dims"):
            tensor(identity((4,)), identity((4,)), identity((4,)),
                   identity((2,)))
    finally:
        set_dimension_limit(limit)


@pytest.mark.parametrize("d", [2, 3])
def test_a_boxed_three_factor_par_matches_the_kron_oracle(d):
    rng = np.random.default_rng(290 + d)
    boxes = {"A": _gaussian_map(rng, (d,), (d, d)),
             "B": _gaussian_map(rng, (d, d), ())}
    for source in ("box(A) * spider(1,2) * box(B)",
                   "box(B) * box(A) * (cup ; box(B))",
                   "(box(A) ; box(B)) * id(1) * box(A)"):
        term = parse(source)
        for obs in (ObservableStructure.computational(d),
                    ObservableStructure.fourier(d)):
            got = evaluate(term, obs, boxes)
            want = _oracle_eval(term, obs, boxes)
            assert (got.in_dims, got.out_dims) == \
                (want.in_dims, want.out_dims), source
            assert got.allclose(want, tol=1e-12 * np.abs(want.array).max())
        computational = ObservableStructure.computational(d)
        assert evaluate(term, computational, boxes) == \
            _oracle_eval(term, computational, boxes), source

