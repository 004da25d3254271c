"""Topology as an oracle: rewrites that keep a diagram's connectivity keep
its map, and the complementarity laws of two observables hold.

The rewrites are the ones the spider calculus allows: an identity wire
bent into a snake, a swap written as three swaps, a spider split in two
along one wire with its phase shared between the halves, identities
inserted, and ``;`` and ``*`` re-associated.  Each rewritten term is
evaluated and compared with the original, so a wrong evaluator shows up
as a term whose map changed under a rewrite that should not change it,
with no second evaluator to agree with.
"""

import math
import os
import sys

import numpy as np
import pytest

from qgamelab.diagrams import (
    Cap,
    Cup,
    Id,
    ObservableStructure,
    Par,
    PhaseElement,
    Seq,
    Spider,
    Swap,
    evaluate,
    parse,
    typecheck,
)
from qgamelab.linalg import PAULI_X, LinearMap
from test_diagram_eval import _MAX_WIRES, _random_term

_BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)
import workloads  # noqa: E402  (the benchmark's diagram generators)

DIMS = (1, 2, 3, 5)


# ------------------------------------------------------ the rewrite generator


def _snake(rng):
    """One of the two snakes, each the identity on one wire."""
    if rng.random() < 0.5:
        return Seq((Par((Id(1), Cup())), Par((Cap(), Id(1)))))
    return Seq((Par((Cup(), Id(1))), Par((Id(1), Cap()))))


def _random_phase(rng, d):
    return PhaseElement((0.0,) + tuple(rng.uniform(-4, 4, d - 1)))


def _split(rng, spider, d):
    """spider(m,n,a) as spider(m,1,b) ; spider(1,n,a-b), for a random b."""
    total = spider.phase or PhaseElement.zero(d)
    first = _random_phase(rng, d)
    return Seq((Spider(spider.inputs, 1, first),
                Spider(1, spider.outputs, total + first.inverse())))


def _parts(term, kind):
    """The stages of a Seq or the factors of a Par, with directly nested
    terms of the same kind spliced in."""
    out = []
    for part in (term.stages if kind is Seq else term.factors):
        out.extend(_parts(part, kind) if isinstance(part, kind) else [part])
    return out


def _bracket(rng, kind, parts):
    """``parts`` joined by ``kind`` under a random binary bracketing."""
    if len(parts) == 1:
        return parts[0]
    cut = int(rng.integers(1, len(parts)))
    return kind((_bracket(rng, kind, parts[:cut]),
                 _bracket(rng, kind, parts[cut:])))


def _pad(rng, term, boxes):
    """``term`` with an identity inserted before, after or beside it."""
    ins, outs = typecheck(term, boxes)
    pick = int(rng.integers(3))
    if pick == 0:
        return Seq((Id(ins), term))
    if pick == 1:
        return Seq((term, Id(outs)))
    return Par((term, Id(0)) if rng.random() < 0.5 else (Id(0), term))


def rewrite(rng, term, d, boxes=None):
    """A term with the map of ``term``, by one seeded pass of rewrites
    that keep its connectivity.  Children are rewritten first, and no
    rewrite is applied to its own output, so a rewritten term is at most
    two wires wider than the original anywhere."""
    if isinstance(term, (Seq, Par)):
        kind = type(term)
        parts = [rewrite(rng, p, d, boxes) for p in _parts(term, kind)]
        term = (_bracket(rng, kind, parts) if rng.random() < 0.5
                else kind(tuple(parts)))
    elif isinstance(term, Id) and term.wires and rng.random() < 0.6:
        k = int(rng.integers(term.wires))
        term = Par((Id(k), _snake(rng), Id(term.wires - k - 1)))
    elif isinstance(term, Swap) and rng.random() < 0.6:
        term = Seq((Swap(), Swap(), Swap()))
    elif isinstance(term, Spider) and rng.random() < 0.6:
        term = _split(rng, term, d)
    if rng.random() < 0.2:
        term = _pad(rng, term, boxes)
    return term


def _agree(got, want, what):
    """The maps are equal within 1e-12 of the largest entry (at least 1)."""
    assert (got.in_dims, got.out_dims) == (want.in_dims, want.out_dims), what
    scale = max(1.0, float(np.abs(want.array).max()))
    assert got.allclose(want, tol=1e-12 * scale), what


def _observables(d):
    return (ObservableStructure.computational(d),
            ObservableStructure.fourier(d))


@pytest.mark.parametrize("d", DIMS)
def test_rewrites_keep_the_map_of_random_terms(d, monkeypatch):
    # three wires a side at d = 5 keep every rewritten map within the cap
    monkeypatch.setitem(_MAX_WIRES, 5, 3)
    rng = np.random.default_rng(1400 + d)
    for trial in range(60):
        boxes = {}
        term, _ = _random_term(rng, int(rng.integers(0, 3)), d, boxes,
                               phased=trial % 2 == 1)
        for obs in _observables(d):
            want = evaluate(term, obs, boxes)
            for _ in range(2):
                changed = rewrite(rng, term, d, boxes)
                _agree(evaluate(changed, obs, boxes), want, changed)


def _benchmark_shapes(rng, d):
    """Small terms of the benchmark's three families at dimension d."""
    wires = {1: 4, 2: 4, 3: 3, 5: 2}[d]
    shapes = [workloads.wide_stages(rng, wires, 3, d),
              workloads.long_stages(rng, wires, 12, d)[0]]
    if d == 2:
        shapes.append(workloads.par_only(rng, 5))
    return [parse(workloads.diagram_source(stages)) for stages in shapes]


@pytest.mark.parametrize("d", DIMS)
def test_rewrites_keep_the_map_of_benchmark_shapes(d):
    rng = np.random.default_rng(1410 + d)
    for _ in range(6):
        for term in _benchmark_shapes(rng, d):
            for obs in _observables(d):
                want = evaluate(term, obs)
                for _ in range(2):
                    changed = rewrite(rng, term, d)
                    _agree(evaluate(changed, obs), want, changed)


def _subterms(term):
    yield term
    for part in getattr(term, "stages", ()) + getattr(term, "factors", ()):
        yield from _subterms(part)


def test_every_rewrite_is_applied():
    """The generator reaches each rewrite, so the tests above exercise
    snakes, swaps, splits, insertions and re-bracketings."""
    rng = np.random.default_rng(1420)
    term = parse("id(2) * swap ; spider(2,1,0.5) * spider(2,3) ; id(4)")
    marks = {
        "snake": lambda t: isinstance(t, Cup),
        "three swaps": lambda t: t == Seq((Swap(), Swap(), Swap())),
        "split": lambda t: isinstance(t, Spider)
        and (t.inputs, t.outputs) == (1, 3),
        # a snake's Par has three factors
        "insertion": lambda t: isinstance(t, Par) and len(t.factors) == 2
        and Id(0) in t.factors,
        "nested ;": lambda t: isinstance(t, Seq)
        and any(isinstance(s, Seq) for s in t.stages),
        "nested *": lambda t: isinstance(t, Par)
        and any(isinstance(f, Par) for f in t.factors),
    }
    seen = set()
    for _ in range(30):
        for sub in _subterms(rewrite(rng, term, 2)):
            seen.update(name for name, mark in marks.items() if mark(sub))
    assert seen == set(marks)


# ------------------------------------------------ complementarity laws


def _fourier_boxes(d):
    """The Fourier transform F, its adjoint and the antipode k -> -k, as
    boxes over the computational observable: box(Fd) ; spider ; box(F)
    is the Fourier observable's spider."""
    f = ObservableStructure.fourier(d).point_matrix()
    antipode = np.zeros((d, d))
    antipode[(-np.arange(d)) % d, np.arange(d)] = 1.0
    return {"F": LinearMap(f, (d,), (d,)),
            "Fd": LinearMap(f.conj().T, (d,), (d,)),
            "S": LinearMap(antipode, (d,), (d,))}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_hopf_law_with_the_antipode(d):
    """Copy, antipode on one branch, Fourier merge: the wire is cut, as
    the computational counit then the Fourier unit, times 1/d in the
    unnormalised convention."""
    z, boxes = ObservableStructure.computational(d), _fourier_boxes(d)
    cut = evaluate(parse("spider(1,0) ; spider(0,1) ; box(F)"), z, boxes)
    hopf = evaluate(parse("spider(1,2) ; id(1) * box(S) ; box(Fd) * box(Fd) "
                          "; spider(2,1) ; box(F)"), z, boxes)
    assert np.abs(hopf.array - cut.array / d).max() <= 1e-12
    # box(Fd) * box(Fd) ; spider(2,1) ; box(F) is the Fourier merge
    fourier = ObservableStructure.fourier(d)
    assert np.abs(evaluate(parse("spider(2,1)"), fourier).array
                  - evaluate(parse("box(Fd) * box(Fd) ; spider(2,1) ; box(F)"),
                             z, boxes).array).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_hopf_law_fails_without_the_antipode_above_two(d):
    z, boxes = ObservableStructure.computational(d), _fourier_boxes(d)
    cut = evaluate(parse("spider(1,0) ; spider(0,1) ; box(F)"), z, boxes)
    plain = evaluate(parse("spider(1,2) ; box(Fd) * box(Fd) ; spider(2,1) "
                           "; box(F)"), z, boxes)
    holds = np.abs(plain.array - cut.array / d).max() <= 1e-12
    # at d = 2 the antipode is the identity, so the law holds without it
    assert holds == (d == 2)


def test_bialgebra_law_at_d2():
    """Fourier merge then computational copy equals two copies, the
    middle wires crossed, and two merges, times sqrt(2) in the
    unnormalised convention."""
    z, boxes = ObservableStructure.computational(2), _fourier_boxes(2)
    merge = "box(Fd) * box(Fd) ; spider(2,1) ; box(F)"
    lhs = evaluate(parse(f"{merge} ; spider(1,2)"), z, boxes)
    rhs = evaluate(parse(f"spider(1,2) * spider(1,2) ; id(1) * swap * id(1) "
                         f"; ({merge}) * ({merge})"), z, boxes)
    assert np.abs(lhs.array - math.sqrt(2) * rhs.array).max() <= 1e-12


@pytest.mark.parametrize("legs", [(1, 1), (1, 2), (2, 1), (0, 3), (2, 2)])
def test_pi_copy_at_d2(legs):
    """A Pauli X box on each input leg of a computational spider of
    phase a moves to each of its output legs, negating the phase and
    leaving the scalar exp(i a)."""
    m, n = legs
    z = ObservableStructure.computational(2)
    # the Pauli X is the Fourier spider of phase pi
    assert evaluate(Spider(1, 1, PhaseElement.qubit(math.pi)),
                    ObservableStructure.fourier(2)).allclose(PAULI_X, 1e-15)
    boxes = {"X": PAULI_X}
    rng = np.random.default_rng(1430 + 10 * m + n)
    for a in rng.uniform(-math.pi, math.pi, 4).tolist():
        xs_in = " * ".join(["box(X)"] * m)
        xs_out = " * ".join(["box(X)"] * n)
        source = " ; ".join(s for s in (xs_in, f"spider({m},{n},{a!r})",
                                        xs_out) if s)
        got = evaluate(parse(source), z, boxes)
        want = evaluate(Spider(m, n, PhaseElement.qubit(-a)), z)
        assert np.abs(got.array - np.exp(1j * a) * want.array).max() \
            <= 1e-12
