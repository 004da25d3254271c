"""Only the reported profiles get labels.

``pure_nash`` and ``pareto_optimal`` flag positions of the payoff grid
and label only those, through ``np.unravel_index``, instead of building
``g.profiles()``, every profile's label tuple.  The result must be what
the label-list path gives: the profiles of ``g.profiles()`` that pass
the definition, in product order.  At about a million profiles the label
list alone was 61 MB of an 86 MB ``pure_nash`` peak.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from qgamelab.ewl import (
    NASH_TOL,
    StrategicFormGame,
    pareto_optimal,
    pure_nash,
)
from qgamelab.linalg import _of_checked


def _game(rng, sizes, levels):
    """A seeded game whose payoffs take ``levels`` values, so ties and
    several equilibria are common; labels are not in sorted order."""
    labels = [tuple(f"{'zyxwvutsrq'[j]}{i}" for j in range(k))
              for i, k in enumerate(sizes)]
    table = {p: tuple(float(v) for v in rng.integers(0, levels, len(sizes)))
             for p in itertools.product(*labels)}
    return StrategicFormGame(labels, table)


def _nash_by_labels(g, tol):
    """The label-list path: each profile of ``g.profiles()`` that no
    single player's deviation improves by more than ``tol``."""
    out = []
    for p in g.profiles():
        mine = g.payoffs[p]
        if all(g.payoffs[p[:i] + (s,) + p[i + 1:]][i] <= mine[i] + tol
               for i, per in enumerate(g.strategy_labels) for s in per):
            out.append(p)
    return out


def _pareto_by_labels(g, tol):
    """The profiles of ``g.profiles()`` that no other profile dominates."""
    pay = g.payoffs
    return [p for p in g.profiles()
            if not any(all(b >= a - tol for a, b in zip(pay[p], pay[q]))
                       and any(b > a + tol for a, b in zip(pay[p], pay[q]))
                       for q in g.profiles())]


@pytest.mark.parametrize("sizes", [(1, 1), (3, 4), (5, 2), (2, 3, 2),
                                   (3, 1, 4), (2, 2, 2, 2)])
def test_reported_profiles_match_the_label_list_path(sizes):
    rng = np.random.default_rng(sum(sizes) * 31 + len(sizes))
    for levels in (2, 3, 10):
        g = _game(rng, sizes, levels)
        assert pure_nash(g) == _nash_by_labels(g, NASH_TOL)
        assert pareto_optimal(g) == _pareto_by_labels(g, NASH_TOL)
        # the payoff table goes through the same path
        assert pure_nash(dict(g.payoffs)) == pure_nash(g)


def test_pure_nash_on_a_million_profiles_labels_only_what_it_reports():
    k = 100
    labels = tuple(tuple(f"s{j}" for j in range(k)) for _ in range(3))
    pay = np.random.default_rng(19).integers(0, 5, (k, k, k, 3)) * 1.0
    g = _of_checked(StrategicFormGame, pay, strategy_labels=labels,
                    payoffs=None)
    tracemalloc.start()
    try:
        found = pure_nash(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 10 MB: the flags and one player's temporaries; the label list
    # of every profile alone was 61 MB
    assert peak < 20 * 2 ** 20
    assert found
    flat = np.ravel_multi_index(
        tuple(zip(*((int(s[1:]) for s in p) for p in found))), (k, k, k))
    mine = [pay[..., i] for i in range(3)]
    best = [m.max(axis=i, keepdims=True) for i, m in enumerate(mine)]
    stable = np.logical_and.reduce([b <= m + NASH_TOL
                                    for b, m in zip(best, mine)])
    assert flat.tolist() == np.flatnonzero(stable).tolist()
