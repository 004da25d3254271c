"""Oracles for the builds that skip a constructor's checks.

``linalg._of_checked`` is the one bypass: ``LinearMap._of_finite``,
``bayes._Domain._of_grid`` and ``ewl.to_strategic_form`` go through it.
The CHSH and Mermin games are built from ``np.indices`` grids, and the
GHZ weights as one array; the label-keyed loops they replaced are kept
here as oracles, and every result must equal theirs exactly.
"""

import itertools
import math

import numpy as np
import pytest

from qgamelab import ewl, linalg
from qgamelab.bayes import (
    BayesianGame,
    chsh_game,
    ghz_phase_distribution,
    mermin_game,
    parity,
)
from qgamelab.errors import ShapeMismatchError
from qgamelab.ewl import StrategicFormGame, payoff_table, to_strategic_form
from qgamelab.linalg import LinearMap

from test_ewl import _random_grid_spec, _unitary_spec

BITS = ("0", "1")


def _loop_chsh_game():
    prior = {jt: 0.25 for jt in itertools.product(BITS, BITS)}
    table = {}
    for jt in itertools.product(BITS, BITS):
        for js in itertools.product(BITS, BITS):
            want = int(jt[0]) * int(jt[1])
            got = (int(js[0]) + int(js[1])) % 2
            table[(jt, js)] = 1.0 if got == want else 0.0
    return BayesianGame((BITS, BITS), (BITS, BITS), prior, (table, table))


def _loop_mermin_game():
    types = (("X", "Y"),) * 3
    strategies = (BITS,) * 3
    prior = {jt: 0.0 for jt in itertools.product(*types)}
    for setting in ("XXX", "XYY", "YXY", "YYX"):
        prior[tuple(setting)] = 0.25
    table = {}
    for jt in itertools.product(*types):
        sign = 1 if "".join(jt) == "XXX" else -1
        for js in itertools.product(*strategies):
            table[(jt, js)] = float(sign * parity("".join(js)))
    return BayesianGame(types, strategies, prior, (table,) * 3)


def _loop_ghz_weights(n, phases):
    c = math.cos(math.fsum(phases))
    return {"".join(bits): (1.0 + parity("".join(bits)) * c) / 2 ** n
            for bits in itertools.product("01", repeat=n)}


@pytest.mark.parametrize("build, oracle", [(chsh_game, _loop_chsh_game),
                                           (mermin_game, _loop_mermin_game)])
def test_grid_built_games_equal_the_dict_loops(build, oracle):
    got, want = build(), oracle()
    assert got == want
    assert list(got.prior.items()) == list(want.prior.items())
    assert [list(p.items()) for p in got.payoffs] == \
        [list(p.items()) for p in want.payoffs]
    for name in ("_mu", "_pay", "_alphas"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert "_unchecked" not in vars(got)


def test_ghz_weights_equal_the_per_string_formula():
    rng = np.random.default_rng(22)
    for n in range(2, 13):
        for phases in ([0.0] * n, [math.pi / 2] * n,
                       rng.uniform(-10, 10, size=n).tolist()):
            got = ghz_phase_distribution(n, phases)
            want = _loop_ghz_weights(n, phases)
            assert list(got.items()) == list(want.items()), (n, phases)
            assert all(type(p) is float for p in got.values())


def _random_specs():
    rng = np.random.default_rng(2222)
    specs = [_random_grid_spec(rng) for _ in range(30)]
    specs += [_unitary_spec(rng, 3, (4, 3), "12"),
              _unitary_spec(rng, 2, (3, 2, 4), "101")]
    assert {spec.players for spec in specs} == {2, 3}
    return specs


def test_strategic_form_of_a_spec_equals_the_dict_built_game():
    for spec in _random_specs():
        labels = spec.strategy_labels
        rows = ewl._payoff_array(spec, labels).reshape(-1, spec.players)
        table = dict(zip(itertools.product(*labels),
                         map(tuple, rows.tolist())))
        want = StrategicFormGame(labels, table)
        got = to_strategic_form(spec)
        assert got == want
        assert list(got.payoffs.items()) == list(want.payoffs.items())
        assert got._pay.dtype == want._pay.dtype
        assert got._pay.shape == want._pay.shape
        assert np.array_equal(got._pay, want._pay)
        assert list(payoff_table(spec).items()) == list(table.items())
        assert "_unchecked" not in vars(got)


def test_of_finite_still_runs_every_other_check():
    arr = np.eye(2, dtype=complex)
    built = LinearMap._of_finite(arr, [2], (2,))
    assert built == LinearMap(arr, (2,), (2,))
    assert built.in_dims == (2,) and not built.array.flags.writeable
    assert "_unchecked" not in vars(built)
    with pytest.raises(ShapeMismatchError, match="expected"):
        LinearMap._of_finite(arr, (2,), (3,))
    with pytest.raises(ValueError, match="positive"):
        LinearMap._of_finite(arr, (0,), (2,))


def test_of_checked_sets_the_fields_not_given_to_none():
    seen = {}

    class Probe(StrategicFormGame):
        def __post_init__(self):
            seen.update(vars(self))

    linalg._of_checked(Probe, "grid", strategy_labels=(("a",),))
    assert seen == {"strategy_labels": (("a",),), "payoffs": None,
                    "_unchecked": "grid"}
    seen.clear()
    linalg._of_checked(Probe, True, strategy_labels=(), payoffs={})
    assert seen == {"strategy_labels": (), "payoffs": {},
                    "_unchecked": True}
