"""The normal form's spider cores keep every bit of the composed chain.

A component with n inputs and m outputs is the core spider(1,m) . W .
spider(n,1), W = P diag(w) P^dag, written by ``linalg._placed``.  The
evaluator builds each leg count's spider once per call; the oracle here
builds every core from scratch as
``compose(compose(spider_map(1, m), fused), spider_map(n, 1))`` and
places it the same way.  ``evaluate``'s map must match it byte for byte
(rounding noise and the sign of zero included), since the CLI goldens
pin Fourier residues such as 4.59869434059e-17.  The plain array
products ``(A @ W) @ B`` of the same spiders must match it too, so an
evaluator that builds its cores from arrays keeps the bits.
"""

import re

import numpy as np
import pytest

from qgamelab.diagrams import (
    ObservableStructure,
    evaluate,
    normal_form,
    parse,
    spider_map,
)
from qgamelab.linalg import LinearMap, _placed, compose
from test_normal_form import _box_free_terms
from test_diagram_rewrites import _benchmark_shapes

# closed components, kets, cups and caps, phases and permuted wires; a
# phase is a qubit's, so at d = 3 the spiders drop theirs
_SOURCES = (
    "cup ; cap",
    "spider(0,2,0.3) ; cap",
    "ket(1) * id(1) ; cap",
    "ket(10) ; spider(2,1,-1.25) ; spider(1,0)",
    "spider(1,3,0.7) * cup ; id(1) * swap * id(2) ; spider(3,1) * cap",
    "cap * id(1) ; spider(1,2,2.5) ; swap",
    "(spider(1,2,0.1) ; spider(2,1,-0.4)) * (cup ; cap) * ket(0)",
)


def _observables(d):
    return (ObservableStructure.computational(d),
            ObservableStructure.fourier(d))


def _chain_cores(form, obs):
    """Each component's core by the composed chain, with its legs."""
    d, points = obs.dim, obs.point_matrix()
    for part in form.components:
        fused = LinearMap._of_finite(
            (points * part.weights) @ points.conj().T, (d,), (d,))
        core = compose(compose(spider_map(obs, 1, len(part.outputs)), fused),
                       spider_map(obs, len(part.inputs), 1))
        yield core.array, part


def _chain_map(form, obs) -> np.ndarray:
    """The normal form placed from composed-chain cores."""
    d = obs.dim
    blocks = [(np.array([[form.scalar]]), (), ())]
    blocks += [(core, part.outputs, part.inputs)
               for core, part in _chain_cores(form, obs)]
    blocks += [(None, (output,), (wire,)) for wire, output in form.wires]
    return _placed((d,) * form.out_wires, (d,) * form.in_wires, blocks)


def _terms(d):
    rng = np.random.default_rng(3100 + d)
    terms = _box_free_terms(rng, d, 40)
    terms += [t for _ in range(2) for t in _benchmark_shapes(rng, d)]
    return terms


@pytest.mark.parametrize("d", [2, 3])
def test_evaluate_keeps_every_bit_of_the_composed_chain(d):
    terms = _terms(d) + [
        parse(source if d == 2 else
              re.sub(r"(spider\(\d+,\d+),[^)]*\)", r"\1)", source))
        for source in _SOURCES]
    closed = phased = 0
    for term in terms:
        for obs in _observables(d):
            form = normal_form(term, obs)
            closed += form.scalar != 1
            phased += any(np.any(part.weights != 1)
                          for part in form.components)
            got = evaluate(term, obs).array
            want = _chain_map(form, obs)
            assert got.shape == want.shape, term
            assert got.tobytes() == want.tobytes(), term
    # the seeded terms reach closed components and phased ones
    assert closed and phased


@pytest.mark.parametrize("d", [2, 3])
def test_array_products_of_the_spiders_keep_every_bit(d):
    for term in _terms(d):
        for obs in _observables(d):
            points = obs.point_matrix()
            for core, part in _chain_cores(normal_form(term, obs), obs):
                copy = spider_map(obs, 1, len(part.outputs)).array
                merge = spider_map(obs, len(part.inputs), 1).array
                built = (copy @ ((points * part.weights)
                                 @ points.conj().T)) @ merge
                assert built.tobytes() == core.tobytes(), term

