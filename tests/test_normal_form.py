"""The spider normal form: a box-free term is its connected components,
each one spider, plus bare wires and a scalar.

An einsum assembly of the normal form, written here independently of
the evaluator's, is checked against ``evaluate``; the connectivity-
preserving rewrites of tests/test_diagram_rewrites.py leave the normal
form unchanged; the benchmark's long family fuses to its closed form;
and the Mermin GHZ diagram fuses to one spider whose phase is the
parity argument's.  The last tests check that a lone ``Par`` that
permutes wires is written through a strided view, in one allocation.
"""

import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest

from qgamelab import GameLabError
from qgamelab.bayes import MERMIN_SETTINGS, mermin_inequivalence
from qgamelab.diagrams import (
    Box,
    Id,
    ObservableStructure,
    Par,
    evaluate,
    normal_form,
    parse,
)
from qgamelab.errors import UnboundBoxError
from test_diagram_eval import _MAX_WIRES, _random_term
from test_diagram_rewrites import _benchmark_shapes, rewrite, workloads

DIMS = (1, 2, 3, 5)


def _observables(d):
    return (ObservableStructure.computational(d),
            ObservableStructure.fourier(d))


def _box_free_terms(rng, d, count):
    """``count`` random terms of the rewrite tests' generator that drew
    no box, half of them with phases."""
    terms = []
    while len(terms) < count:
        boxes = {}
        term, _ = _random_term(rng, int(rng.integers(0, 3)), d, boxes,
                               phased=len(terms) % 2 == 1)
        if not boxes:
            terms.append(term)
    return terms


def _einsum_map(form, obs) -> np.ndarray:
    """The normal form as a matrix by one einsum: output wire j is label
    j, input wire i label out_wires + i, and component c sums over its
    own label; each of its output legs is the matrix P of the points,
    each input leg conj(P), and a bare wire is the identity."""
    d, p = obs.dim, obs.point_matrix()
    m, n = form.out_wires, form.in_wires
    operands = []
    for c, part in enumerate(form.components):
        k = m + n + c
        operands += [part.weights, [k]]
        for j in part.outputs:
            operands += [p, [j, k]]
        for i in part.inputs:
            operands += [p.conj(), [m + i, k]]
    for i, j in form.wires:
        operands += [np.eye(d), [j, m + i]]
    operands.append(list(range(m + n)))
    tensor = np.einsum(*operands) if len(operands) > 1 \
        else np.ones((), dtype=complex)
    return form.scalar * tensor.reshape(d ** m, d ** n)


def _close(got, want, what):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert got.shape == want.shape, what
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale, what


@pytest.mark.parametrize("d", DIMS)
def test_einsum_assembly_of_the_normal_form_equals_evaluate(d, monkeypatch):
    monkeypatch.setitem(_MAX_WIRES, 5, 3)
    rng = np.random.default_rng(2800 + d)
    terms = _box_free_terms(rng, d, 40)
    terms += [t for _ in range(3) for t in _benchmark_shapes(rng, d)]
    for term in terms:
        for obs in _observables(d):
            form = normal_form(term, obs)
            got = evaluate(term, obs)
            assert (len(got.in_dims), len(got.out_dims)) == \
                (form.in_wires, form.out_wires), term
            _close(got.array, _einsum_map(form, obs), term)


def _canonical(form):
    """The parts of a normal form, with a 1 -> 1 component of weights
    all 1 read as the bare wire it is: a snake turns a wire into such a
    component, and splitting a spider of no phase leaves one within
    rounding of it."""
    wires, parts = set(form.wires), {}
    for part in form.components:
        identity = len(part.inputs) == len(part.outputs) == 1 \
            and np.abs(part.weights - 1).max() <= 1e-12
        if identity:
            wires.add((part.inputs[0], part.outputs[0]))
        else:
            parts[part.inputs, part.outputs] = part.weights
    return (form.in_wires, form.out_wires), wires, parts, form.scalar


def _same_normal_form(a, b, what):
    wires_a, wiring_a, parts_a, scalar_a = _canonical(a)
    wires_b, wiring_b, parts_b, scalar_b = _canonical(b)
    assert (wires_a, wiring_a) == (wires_b, wiring_b), what
    assert parts_a.keys() == parts_b.keys(), what
    for legs, weights in parts_a.items():
        assert np.abs(weights - parts_b[legs]).max() <= 1e-12, what
    assert abs(scalar_a - scalar_b) <= 1e-12 * max(1.0, abs(scalar_a)), what


@pytest.mark.parametrize("d", DIMS)
def test_rewrites_leave_the_normal_form_unchanged(d, monkeypatch):
    monkeypatch.setitem(_MAX_WIRES, 5, 3)
    rng = np.random.default_rng(2810 + d)
    obs = ObservableStructure.computational(d)
    terms = _box_free_terms(rng, d, 40)
    terms += [t for _ in range(3) for t in _benchmark_shapes(rng, d)]
    for term in terms:
        want = normal_form(term, obs)
        for _ in range(3):
            changed = rewrite(rng, term, d)
            _same_normal_form(normal_form(changed, obs), want, changed)


def test_the_normal_form_depends_on_the_dimension_alone():
    rng = np.random.default_rng(2820)
    for term in _box_free_terms(rng, 3, 20):
        z, x = (normal_form(term, obs) for obs in _observables(3))
        assert _canonical(z)[:2] == _canonical(x)[:2]
        assert all(np.array_equal(a.weights, b.weights)
                   for a, b in zip(z.components, x.components))


def test_a_box_is_refused():
    z = ObservableStructure.computational(2)
    for term in (Box("A"), Par((Id(1), Box("A"))), parse("id(1) ; box(A)")):
        with pytest.raises(GameLabError) as caught:
            normal_form(term, z)
        assert isinstance(caught.value, UnboundBoxError)


def test_atoms_and_loops():
    z = ObservableStructure.computational(3)
    form = normal_form(parse("ket(21) ; swap * cup ; id(2) * cap"), z)
    assert (form.in_wires, form.out_wires, form.wires) == (0, 2, ())
    assert [(c.inputs, c.outputs, c.weights.tolist())
            for c in form.components] == [
        ((), (1,), [0, 0, 1]), ((), (0,), [0, 1, 0])]
    loop = normal_form(parse("cup ; spider(1,2) * id(1) ; id(1) * cap "
                             "; spider(1,0)"), z)
    assert (loop.components, loop.wires, loop.scalar) == ((), (), 3)
    wiring = normal_form(parse("swap * id(1) ; id(1) * swap"), z)
    assert (wiring.components, wiring.wires) == ((), ((1, 0), (2, 1),
                                                      (0, 2)))


@pytest.mark.parametrize("dim, wires", [(2, 2), (2, 4), (3, 2), (3, 3)])
def test_the_long_family_fuses_to_one_spider_per_wire(dim, wires):
    """Hundreds of stages of the benchmark's long family: one 1 -> 1
    component per wire, carrying that wire's phases, plus a permutation;
    no bare wire and no scalar."""
    rng = np.random.default_rng(2830 + 10 * dim + wires)
    stages, order, phases = workloads.long_stages(rng, wires, 200, dim)
    term = parse(workloads.diagram_source(stages))
    for obs in _observables(dim):
        form = normal_form(term, obs)
        assert (form.in_wires, form.out_wires) == (wires, wires)
        assert form.wires == () and form.scalar == 1
        assert sorted((c.inputs, c.outputs) for c in form.components) == \
            sorted(((order[p],), (p,)) for p in range(wires))
        for part in form.components:
            phase = phases[part.inputs[0]]
            want = [1.0, np.exp(1j * phase)] if dim == 2 else [1.0] * dim
            assert np.abs(part.weights - want).max() <= 1e-12


# ------------------------------------------------ the Mermin phase group


def test_mermin_spiders_fuse_to_the_parity_of_each_setting():
    """The GHZ spider and the three phase spiders of the Mermin game fuse
    into one 0 -> 3 spider of phase -(a1+a2+a3): 0 or pi on XXX, XYY,
    YXY and YYX, so each outcome parity is certain, and its sign is the
    quantum expectation that mermin_inequivalence reports."""
    z = ObservableStructure.computational(2)
    report = mermin_inequivalence()
    phase_of = {"X": 0.0, "Y": math.pi / 2}
    for setting, expectation in zip(MERMIN_SETTINGS,
                                    report.quantum_expectations):
        angles = [phase_of[c] for c in setting]
        spiders = " * ".join(f"spider(1,1,{-a!r})" for a in angles)
        form = normal_form(parse(f"spider(0,3) ; {spiders}"), z)
        assert (form.wires, form.scalar) == ((), 1)
        [part] = form.components
        assert (part.inputs, part.outputs) == ((), (0, 1, 2))
        fused = np.exp(-1j * sum(angles))
        assert np.abs(part.weights - [1.0, fused]).max() <= 1e-15
        assert abs(part.weights[1] - round(part.weights[1].real)) <= 1e-15
        assert round(part.weights[1].real) == round(expectation)
    assert report.quantum_parity_product == -1


# ------------------------------------------- wires permuted in the strides

# 11 wires at d = 2: the 2048 x 2048 result is 64 MiB
_PERMUTING = ("id(11) ; id(4) * swap * id(5)", "swap * id(9) ; id(9) * swap")


def _permuted_rows(source: str) -> np.ndarray:
    """The row of each column's one non-zero: the column's bits with the
    wires moved as the source's swaps move them."""
    bits = (np.arange(2048)[:, None] >> np.arange(10, -1, -1)) & 1
    if source.startswith("id(11)"):
        bits[:, [4, 5]] = bits[:, [5, 4]]
    else:
        bits = bits[:, [1, 0] + list(range(2, 11))]
        bits[:, [9, 10]] = bits[:, [10, 9]]
    return bits @ (1 << np.arange(10, -1, -1))


@pytest.mark.parametrize("source", _PERMUTING)
def test_a_permuting_par_is_built_in_one_allocation(source):
    result_bytes = 16 * 2 ** 22
    tracemalloc.start()
    try:
        out = evaluate(parse(source), ObservableStructure.computational(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.array.nbytes == result_bytes
    assert peak < 1.25 * result_bytes
    assert np.count_nonzero(out.array) == 2048
    assert (out.array[_permuted_rows(source), np.arange(2048)] == 1).all()


def _resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * mmap.PAGESIZE


@pytest.mark.skipif(not os.path.exists("/proc/self/statm")
                    or not hasattr(mmap, "MADV_NOHUGEPAGE"),
                    reason="needs /proc/self/statm and MADV_NOHUGEPAGE")
@pytest.mark.parametrize("source", _PERMUTING)
def test_a_permuting_par_makes_only_its_written_pages_resident(source):
    # one write per 32 KiB row reaches one 4 KiB page in eight
    result_bytes = 16 * 2 ** 22
    before = _resident_bytes()
    out = evaluate(parse(source), ObservableStructure.computational(2))
    grown = _resident_bytes() - before
    assert out.array.nbytes == result_bytes
    assert grown < result_bytes / 4
