"""Each validation rule has one home: ``linalg.check_domain`` names the
keys outside a table's domain, ``linalg.born_weights`` applies the Born
rule and its normalization check, ``linalg.orthonormal`` is the Gram test
of a unitary and of a measurement basis, and ``formats._built`` rewords a
constructor's error as a FormatError.

The copies these replaced are kept below as oracles: ``born_probabilities``
and ``ewl._weigh`` with their own sums, the Gram product of ``is_unitary``
and of ``QuantumAdvice``, and the five ``try/except GameLabError`` blocks
of the loaders.  Seeded differentials require bit-identical results, or
the same exception class and message.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest

from qgamelab import ewl, formats
from qgamelab.bayes import (
    BayesianGame,
    BellExpression,
    ClassicalAdvice,
    ConditionalDistribution,
    QuantumAdvice,
    chsh_expression,
    chsh_game,
    chsh_quantum_advice,
    conditional_of,
    ghz_state,
)
from qgamelab.diagrams import ObservableStructure
from qgamelab.errors import (
    DimensionLimitError,
    DomainMismatchError,
    FormatError,
    GameLabError,
    NormalizationError,
)
from qgamelab.ewl import (
    QuantumGameSpec,
    StrategicFormGame,
    ewl_entangler,
    final_state,
    payoff_table,
    play,
    prisoners_dilemma,
    quantize,
)
from qgamelab.linalg import (
    ALGEBRA_TOL,
    PROB_TOL,
    LinearMap,
    StateVector,
    born_probabilities,
    born_weights,
    dimension_limit,
    identity,
    orthonormal,
    outcome_labels,
    set_dimension_limit,
)
from test_cli import (
    FIXTURES,
    _DELETE,
    _MUTANTS,
    _json_paths,
    _mutated,
    _seeded_spec_texts,
)


# ------------------------------------------------------------ the oracles

def _old_born_probabilities(state, tol=PROB_TOL):
    total = state.squared_norm
    if abs(total - 1.0) > tol:
        raise NormalizationError(
            f"state is not normalized: sum |a_k|^2 = {total!r}", total)
    probs = np.abs(state.amplitudes) ** 2
    return dict(zip(outcome_labels(state.dims), (float(p) for p in probs)))


def _old_weigh(finals, coeffs):
    probs = np.abs(finals) ** 2
    totals = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(totals - 1.0) > PROB_TOL)
    if bad.size:
        total = float(totals[bad[0]])
        raise NormalizationError(
            f"state is not normalized: sum |a_k|^2 = {total!r}", total)
    return probs @ coeffs.T


def _old_play(spec, profile):
    sigma = final_state(spec, profile)
    dist = _old_born_probabilities(sigma, tol=PROB_TOL)
    (pay,) = _old_weigh(sigma.amplitudes[None], spec._coeffs)
    return sigma, dist, tuple(pay.tolist())


def _old_payoff_table(spec):
    labels = spec.strategy_labels
    stacks = [np.array([spec.strategy(i, lab).array for lab in per])
              for i, per in enumerate(labels)]
    out = np.empty((len(stacks[0]), math.prod(map(len, stacks[1:])),
                    spec.players))
    for block, finals in zip(out, ewl._final_states(spec, stacks)):
        block[:] = _old_weigh(finals, spec._coeffs)
    rows = out.reshape(-1, spec.players).tolist()
    return dict(zip(itertools.product(*labels), map(tuple, rows)))


def _old_is_unitary(arr, tol=PROB_TOL):
    if arr.shape[0] != arr.shape[1]:
        return False
    prod = arr.conj().T @ arr
    return bool(np.abs(prod - np.eye(arr.shape[0])).max() <= tol)


def _old_basis_is_orthonormal(basis):
    b = np.array([v.amplitudes for v in basis])  # one row each
    return np.abs(b.conj() @ b.T - np.eye(len(b))).max() <= ALGEBRA_TOL


# The object each loader site built, and where it reworded the error.
_CONSTRUCTOR_SITES = ("ewl spec", "bayes spec", "advice")


def _old_built(where, make, *args, **kwargs):
    """The five loader blocks: the matrix block let a DimensionLimitError
    through, the four constructor blocks reworded every GameLabError."""
    try:
        return make(*args, **kwargs)
    except GameLabError as exc:
        if isinstance(exc, DimensionLimitError) and \
                where not in _CONSTRUCTOR_SITES:
            raise
        raise FormatError(f"{where}: {exc}") from exc


def _outcome(fn, *args):
    """``fn(*args)``, or the class and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by the caller
        return type(exc), str(exc)


def _exactly(text):
    return "^" + re.escape(text) + "$"


# ------------------------------------------------ domain keys, one home

def _stray_keys(rng, make):
    """Three to five stray keys of mixed types, from ``make(kind, k)``."""
    kinds = ["str", "tuple", "int"] + list(rng.choice(
        ["str", "tuple", "int"], size=rng.integers(0, 3)))
    return [make(kind, 90 + k) for k, kind in enumerate(kinds)]


def _flat_key(kind, k):
    return {"str": f"z{k}", "tuple": (f"z{k}",), "int": k}[kind]


def _cell_key(kind, k):
    """A stray (joint type, joint strategy) whose labels have the kind."""
    label = _flat_key(kind, k)
    return ((label, label), (label, label))


def _bell_key(kind, k):
    """A stray Bell key: the constructor turns each half into a tuple."""
    label = _flat_key(kind, k)
    return ((label,), (label, label))


def _with_extra(rng, table, extra):
    """``table`` with the stray keys inserted at random positions."""
    items = list(table.items())
    for key in extra:
        items.insert(int(rng.integers(0, len(items) + 1)), (key, 0.0))
    return dict(items)


def _expected_listing(keys):
    try:
        return sorted(keys)[:4]
    except TypeError:
        return sorted(keys, key=repr)[:4]


def _table_cases(rng):
    """(constructor, what, stray keys as the constructor keys them)."""
    g = chsh_game()
    cond = conditional_of(chsh_quantum_advice())
    expr = chsh_expression()
    pd = prisoners_dilemma()
    advice = ClassicalAdvice.deterministic(g.types, g.strategies,
                                           [{"0": "0", "1": "1"}] * 2)
    quantum = chsh_quantum_advice()
    spec = ewl.pd_quantum()

    extra = _stray_keys(rng, _flat_key)
    yield (lambda: BayesianGame(g.types, g.strategies,
                                _with_extra(rng, g.prior, extra),
                                g.payoffs), "prior", extra)
    extra = _stray_keys(rng, _cell_key)
    yield (lambda: BayesianGame(g.types, g.strategies, g.prior, (
        g.payoffs[0], _with_extra(rng, g.payoffs[1], extra))),
        "player 1 payoff table", extra)
    extra = _stray_keys(rng, _flat_key)
    yield (lambda: ConditionalDistribution(
        cond.types, cond.strategies, _with_extra(rng, cond.table, extra)),
        "conditional", extra)
    extra = _stray_keys(rng, _flat_key)
    yield (lambda: ClassicalAdvice(
        advice.types, advice.strategies, advice.lambdas,
        _with_extra(rng, advice.rho, extra), advice.responses),
        "rho", extra)
    extra = _stray_keys(rng, _flat_key)
    yield (lambda: ClassicalAdvice(
        advice.types, advice.strategies, advice.lambdas, advice.rho,
        (_with_extra(rng, advice.responses[0], extra),
         advice.responses[1])),
        "player 0 response table", extra)
    extra = _stray_keys(rng, _flat_key)
    yield (lambda: QuantumAdvice(
        quantum.types, quantum.strategies, quantum.shared_state,
        (quantum.measurements[0],
         _with_extra(rng, quantum.measurements[1], extra))),
        "player 1 measurement table", extra)
    extra = _stray_keys(rng, _bell_key)
    yield (lambda: BellExpression(expr.types, expr.strategies,
                                  _with_extra(rng, expr.coefficients, extra)),
           "Bell expression", extra)
    extra = _stray_keys(rng, _flat_key)
    yield (lambda: StrategicFormGame(
        pd.strategy_labels,
        {k: v if k not in extra else (0.0, 0.0)
         for k, v in _with_extra(rng, pd.payoffs, extra).items()}),
        "payoff table", extra)
    extra = _stray_keys(rng, _flat_key)
    # the spec keys its coefficient tables by outcome string
    yield (lambda: QuantumGameSpec(
        2, spec.strategies, (spec.payoff_coeffs[0], _with_extra(
            rng, spec.payoff_coeffs[1], extra)), spec.entangler),
        "player 1 payoff coefficient table", [str(k) for k in extra])


def test_stray_keys_of_mixed_types_are_a_domain_mismatch():
    """Every table-taking constructor lists up to four stray keys, least
    first, or by ``repr`` when they do not order among themselves; keys of
    mixed types used to escape as a bare TypeError from ``sorted``."""
    rng = np.random.default_rng(20261019)
    seen = set()
    for _ in range(4):
        for build, what, extra in _table_cases(rng):
            with pytest.raises(DomainMismatchError) as info:
                build()
            assert str(info.value) == (
                f"{what} has entries outside its domain: "
                f"{_expected_listing(extra)}"), what
            seen.add(what)
    assert len(seen) == 9


# ------------------------------------------------------------- marginal

def test_marginal_rejects_an_unknown_type_or_player_with_a_domain_error():
    cond = conditional_of(chsh_quantum_advice())
    assert cond.marginal(1, ("0", "1")) == pytest.approx(
        {"0": 0.5, "1": 0.5})
    for player, jt in ((0, ("9", "9")), (5, ("0", "0")), (-1, ("0", "0")),
                       (0, ("0",))):
        with pytest.raises(DomainMismatchError,
                           match=_exactly(f"no entry for types {jt}, "
                                           f"player {player}")):
            cond.marginal(player, jt)


# ------------------------------------------------------ quantize, dim > 10

def _shift(dim, k):
    return LinearMap(np.roll(np.eye(dim, dtype=complex), k, axis=0),
                     (dim,), (dim,))


def test_quantize_keys_outcomes_of_eleven_labels_by_position():
    """With 11 labels outcome strings are comma-joined, so the digits of
    an outcome are no longer its characters."""
    rng = np.random.default_rng(11)
    labels = tuple(f"s{k}" for k in range(11))
    pay = rng.normal(size=(11, 11, 2))
    game = StrategicFormGame((labels, labels), {
        (a, b): tuple(pay[i, j]) for (i, a), (j, b) in itertools.product(
            enumerate(labels), repeat=2)})
    # label s_k sends |0> to |(3k + 1) mod 11>, so positions are permuted
    embedding = {lab: _shift(11, (3 * k + 1) % 11)
                 for k, lab in enumerate(labels)}
    spec = quantize(game, embedding, entangler=identity((11, 11)), dim=11)
    assert payoff_table(spec) == game.payoffs
    assert list(spec.payoff_coeffs[0])[:3] == ["0,0", "0,1", "0,2"]
    assert spec.payoff_coeffs[1]["1,4"] == game.payoffs[("s0", "s1")][1]


def test_quantize_coefficients_match_the_digit_reading_below_eleven():
    """For dims up to 10 the positional read gives the table the digit
    characters gave, here with C sending |0> to |1> and D to |0>."""
    pd = prisoners_dilemma()
    spec = ewl.quantize(pd, {"C": _shift(2, 1), "D": identity((2,))})
    want = []
    for i in range(2):
        want.append({o: pd.payoffs[tuple("DC"[int(c)] for c in o)][i]
                     for o in outcome_labels((2, 2))})
    assert [dict(per) for per in spec.payoff_coeffs] == want
    assert [list(per) for per in spec.payoff_coeffs] == \
        [list(per) for per in want]


# ------------------------------------------------- the point matrix, once

def test_point_matrix_is_built_once_and_read_only():
    for obs in (ObservableStructure.computational(3),
                ObservableStructure.fourier(4)):
        points = obs.point_matrix()
        assert points is obs.point_matrix()
        assert not points.flags.writeable
        assert np.array_equal(
            points, np.column_stack([v.amplitudes for v in obs.basis]))
        with pytest.raises(ValueError):
            points[0, 0] = 2.0


# ------------------------------------------------ Born rule differential

def _random_unitary(rng, size):
    q, r = np.linalg.qr(rng.normal(size=(size, size))
                        + 1j * rng.normal(size=(size, size)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_spec(rng):
    n = int(rng.integers(2, 4))
    d = 2 if n == 3 else int(rng.integers(2, 4))
    sets = tuple({f"g{k}": LinearMap(_random_unitary(rng, d), (d,), (d,))
                  for k in range(int(rng.integers(1, 4)))}
                 for _ in range(n))
    coeffs = tuple(dict(zip(outcome_labels((d,) * n),
                            rng.normal(size=d ** n).tolist()))
                   for _ in range(n))
    entangler = ewl_entangler(n) if d == 2 and rng.random() < 0.5 else \
        LinearMap(_random_unitary(rng, d ** n), (d,) * n, (d,) * n)
    return QuantumGameSpec(n, sets, coeffs, entangler, dim=d)


def _spoil(rng, spec):
    """Swap one strategy for a gate off unitarity by a random scale, past
    the spec's check: the Born check then reports its mass (or passes)."""
    i = int(rng.integers(spec.players))
    name = str(rng.choice(list(spec.strategies[i])))
    scale = 1.0 + float(rng.choice([1e-11, 3e-10, 2e-9, 1e-3]))
    gate = spec.strategies[i][name]
    spec.strategies[i][name] = LinearMap(gate.array * scale, gate.in_dims,
                                         gate.out_dims)


def test_play_and_payoff_table_match_the_per_site_born_checks():
    rng = np.random.default_rng(20261020)
    errors = passes = 0
    for trial in range(120):
        spec = _random_spec(rng)
        if trial % 3 == 2:
            _spoil(rng, spec)
        profiles = list(itertools.product(*spec.strategy_labels))
        for profile in profiles[:6]:
            got = _outcome(play, spec, profile)
            want = _outcome(_old_play, spec, profile)
            if want[0] == "ok":
                passes += 1
                result = got[1]
                assert result.final_state == want[1][0]
                assert result.outcome_distribution == want[1][1]
                assert list(result.outcome_distribution) == list(want[1][1])
                assert result.payoffs == want[1][2]
            else:
                errors += 1
                assert got == want
        got, want = (_outcome(f, spec)
                     for f in (payoff_table, _old_payoff_table))
        assert got == want
    assert errors and passes


def test_born_weights_pass_a_nan_mass_like_the_old_checks():
    rows = np.array([[np.nan, 0.0], [0.6, 0.8]], dtype=complex)
    coeffs = np.array([[1.0, 2.0]])
    assert np.array_equal(born_weights(rows) @ coeffs.T,
                          _old_weigh(rows, coeffs), equal_nan=True)
    with pytest.raises(NormalizationError, match="= 1.25$") as info:
        born_weights(np.array([[1.0, 0.5]]))
    assert info.value.total == 1.25


def test_born_probabilities_matches_its_old_body_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(
            1, 4)))
        amps = rng.normal(size=math.prod(dims)) \
            + 1j * rng.normal(size=math.prod(dims))
        amps /= np.linalg.norm(amps)
        amps *= 1.0 + float(rng.choice([0.0, 1e-12, 4e-10, 1e-6]))
        state = StateVector(amps, dims)
        got = _outcome(born_probabilities, state)
        assert got == _outcome(_old_born_probabilities, state)
        if got[0] == "ok":
            assert list(got[1]) == outcome_labels(dims)


# ------------------------------------------------- Gram rule differential

def test_is_unitary_matches_its_old_gram_product():
    rng = np.random.default_rng(13)
    verdicts = set()
    for _ in range(300):
        rows, cols = (int(x) for x in rng.integers(1, 5, size=2))
        if rng.random() < 0.7:
            cols = rows
        arr = _random_unitary(rng, max(rows, cols))[:rows, :cols]
        arr = arr + float(rng.choice([0.0, 1e-13, 3e-10, 1e-9, 1e-6])) \
            * rng.normal(size=arr.shape)
        u = LinearMap(arr, (cols,), (rows,))
        tol = float(rng.choice([PROB_TOL, ALGEBRA_TOL, 1e-6]))
        want = _old_is_unitary(u.array, tol)
        assert u.is_unitary(tol) is want
        verdicts.add(want)
    assert verdicts == {True, False}


def _random_basis(rng, d, fault):
    cols = _random_unitary(rng, d)
    j, k = rng.choice(d, size=2, replace=False) if d > 1 else (0, 0)
    eps = float(rng.choice([1e-13, 4e-13, 2e-12, 1e-6]))
    if fault == "skewed" and d > 1:
        cols[:, k] = cols[:, k] + eps * cols[:, j]
    elif fault == "unnormalized":
        cols[:, k] = cols[:, k] * (1.0 + eps)
    return tuple(StateVector(cols[:, m], (d,)) for m in range(d))


def test_quantum_advice_basis_check_matches_its_old_gram_product():
    rng = np.random.default_rng(17)
    verdicts = set()
    for trial in range(150):
        d = int(rng.integers(2, 4))
        fault = ("valid", "skewed", "unnormalized")[trial % 3]
        types = (("0", "1"), ("0", "1"))
        strategies = (tuple(map(str, range(d))),) * 2
        bases = [{x: _random_basis(rng, d, fault if x == "1" and i == 1
                                   else "valid") for x in ("0", "1")}
                 for i in range(2)]
        ok = all(_old_basis_is_orthonormal(b) for per in bases
                 for b in per.values())
        got = _outcome(QuantumAdvice, types, strategies, ghz_state(2, d),
                       tuple(bases))
        if ok:
            assert got[0] == "ok"
        else:
            assert got == (NormalizationError,
                           "player 1 type '1': basis is not orthonormal")
        verdicts.add(ok)
        basis = bases[1]["1"]
        cols = np.array([v.amplitudes for v in basis]).T
        assert orthonormal(cols, ALGEBRA_TOL) == \
            _old_basis_is_orthonormal(basis)
    assert verdicts == {True, False}


# ----------------------------------------- loader wording differential

def _load(text):
    """What loading gives: the dump of the loaded objects, or the class and
    message of the error."""
    try:
        kind, loaded = formats.loads(text)
    except GameLabError as exc:
        return type(exc), str(exc)
    return "ok", formats.dumps(loaded) if kind == "ewl" else \
        formats.dumps(*loaded)


def _mutant_texts():
    rng = np.random.default_rng(20260418)
    texts = [formats.fixture_text(name) for name in FIXTURES]
    for text in texts + _seeded_spec_texts([0]):
        yield text
        doc = json.loads(text)
        paths = list(_json_paths(doc))
        for k in rng.choice(len(paths), size=12, replace=False):
            for mutant in _MUTANTS + (_DELETE,):
                yield json.dumps(_mutated(doc, paths[k], mutant))


@pytest.mark.parametrize("limit", [None, 4])
def test_loaders_word_errors_as_the_five_old_blocks(monkeypatch, limit):
    """The mutants of the documented-errors test load to the same dump, or
    fail with the same class and message, under the one rewording helper
    and under the old blocks; also with a dimension cap small enough for
    some documents to hit it."""
    texts = list(_mutant_texts())
    old_limit = dimension_limit()
    if limit is not None:
        set_dimension_limit(limit)
    try:
        new = [_load(text) for text in texts]
        monkeypatch.setattr(formats, "_built", _old_built)
        old = [_load(text) for text in texts]
    finally:
        set_dimension_limit(old_limit)
    assert new == old
    kinds = {result[0] for result in new}
    assert {"ok", FormatError} <= kinds
    if limit is not None:
        assert DimensionLimitError in kinds
