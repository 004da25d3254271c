"""Label-keyed tables go through one grid builder (``table_grid``) and one
distribution check (``distributions``).

The table code these replaced is kept below as the oracle: the per-cell
``_grid``, ``_from_grid``, the row-by-row ``_clamped_distribution`` and
the constructor loops of the games, conditionals, advice, expressions,
strategic games and EWL specs.  A seeded differential runs both on valid
tables and on single-fault mutants of them.
"""

import itertools
import json
import math
import types as namespaces

import numpy as np
import pytest

from qgamelab import bayes, formats
from qgamelab.bayes import (
    BayesianGame,
    BellExpression,
    ClassicalAdvice,
    ConditionalDistribution,
    QuantumAdvice,
    classical_conditional,
    phase_basis,
    quantum_conditional,
)
from qgamelab.cli import main
from qgamelab.errors import DomainMismatchError, NormalizationError
from qgamelab.ewl import QuantumGameSpec, StrategicFormGame
from qgamelab.linalg import (
    ALGEBRA_TOL,
    PROB_TOL,
    StateVector,
    apply_on_wires,
    distributions,
    identity,
    outcome_labels,
    table_grid,
)

_label_lists = bayes._label_lists


# ------------------------------------------------------------ the oracle

def _old_grid(domain, entry) -> np.ndarray:
    shape = [len(x) for x in domain.types + domain.strategies]
    cells = itertools.product(itertools.product(*domain.types),
                              itertools.product(*domain.strategies))
    return np.fromiter(map(entry, cells), float,
                       math.prod(shape)).reshape(shape)


def _old_from_grid(domain, p):
    """The conditional table whose grid is ``p``, as dicts."""
    keys = list(itertools.product(*domain.strategies))
    rows = (dict(zip(keys, r)) for r in p.reshape(-1, len(keys)).tolist())
    return dict(zip(itertools.product(*domain.types), rows))


def _old_clamped_distribution(raw, domain, what, tol=PROB_TOL):
    extra = set(raw) - set(domain)
    if extra:
        raise DomainMismatchError(
            f"{what} has entries outside its domain: {sorted(extra)[:4]}")
    out = {}
    for key in domain:
        p = float(raw.get(key, 0.0))
        if not math.isfinite(p):
            raise NormalizationError(f"{what} has non-finite weight {p} at "
                                     f"{key}", total=p)
        if p < -ALGEBRA_TOL:
            raise NormalizationError(f"{what} has negative weight {p} at "
                                     f"{key}", total=p)
        out[key] = max(p, 0.0)
    total = sum(out.values())
    if abs(total - 1.0) > tol:
        raise NormalizationError(f"{what} sums to {total}, expected 1",
                                 total=total)
    return out


def _old_game(types, strategies, prior, payoffs):
    self = namespaces.SimpleNamespace(types=_label_lists(types, "type"),
                                      strategies=_label_lists(strategies,
                                                              "strategy"))
    if len(self.types) != len(self.strategies):
        raise DomainMismatchError("type sets vs strategy sets")
    joint_types = list(itertools.product(*self.types))
    self.prior = _old_clamped_distribution(prior, joint_types, "prior")
    if len(payoffs) != len(self.types):
        raise DomainMismatchError("payoff tables vs players")
    tables = []
    for i, raw in enumerate(payoffs):
        table = {}
        for jt in joint_types:
            for js in itertools.product(*self.strategies):
                try:
                    table[(jt, js)] = float(raw[(jt, js)])
                except KeyError:
                    raise DomainMismatchError(
                        f"player {i} payoff is undefined at types {jt}, "
                        f"strategies {js}") from None
        if not all(map(math.isfinite, table.values())):
            raise DomainMismatchError(f"player {i} has a non-finite payoff")
        tables.append(table)
    self.payoffs = tuple(tables)
    mu = _old_grid(self, lambda key: self.prior[key[0]])
    self._alphas = mu * np.stack([_old_grid(self, t.__getitem__)
                                  for t in tables])
    return self


def _old_conditional(types, strategies, raw):
    self = namespaces.SimpleNamespace(types=_label_lists(types, "type"),
                                      strategies=_label_lists(strategies,
                                                              "strategy"))
    joint_strategies = list(itertools.product(*self.strategies))
    table = {}
    for jt in itertools.product(*self.types):
        if jt not in raw:
            raise DomainMismatchError(
                f"conditional is missing joint type {jt}")
        table[jt] = _old_clamped_distribution(
            raw[jt], joint_strategies, f"p(s | {jt})")
    extra = set(raw) - set(table)
    if extra:
        raise DomainMismatchError(
            f"conditional has unknown joint types: {sorted(extra)[:4]}")
    self.table = table
    self._p = _old_grid(self, lambda key: table[key[0]][key[1]])
    return self


def _old_classical(types, strategies, lambdas, rho, responses):
    types = _label_lists(types, "type")
    strategies = _label_lists(strategies, "strategy")
    lambdas = tuple(str(v) for v in lambdas)
    self = namespaces.SimpleNamespace(
        rho=_old_clamped_distribution(rho, list(lambdas), "rho"))
    if len(responses) != len(types):
        raise DomainMismatchError("response tables vs players")
    tables = []
    for i, raw in enumerate(responses):
        table = {}
        for x in types[i]:
            for lam in lambdas:
                if (x, lam) not in raw:
                    raise DomainMismatchError(
                        f"player {i} has no response row for type {x!r}, "
                        f"lambda {lam!r}")
                table[(x, lam)] = _old_clamped_distribution(
                    raw[(x, lam)], list(strategies[i]),
                    f"p(s | {x}, {lam}) of player {i}")
        tables.append(table)
    self.responses = tuple(tables)
    return self


def _old_bell(types, strategies, coefficients):
    self = namespaces.SimpleNamespace(types=_label_lists(types, "type"),
                                      strategies=_label_lists(strategies,
                                                              "strategy"))
    domain = set(itertools.product(itertools.product(*self.types),
                                   itertools.product(*self.strategies)))
    coeffs = {}
    for key, v in coefficients.items():
        jt, js = tuple(key[0]), tuple(key[1])
        if (jt, js) not in domain:
            raise DomainMismatchError(
                f"coefficient at types {jt}, strategies {js} is outside "
                f"the domain")
        coeffs[(jt, js)] = float(v)
    if not all(map(math.isfinite, coeffs.values())):
        raise DomainMismatchError("a coefficient is not finite")
    self.coefficients = coeffs
    self._alpha = _old_grid(self, lambda key: coeffs.get(key, 0.0))
    return self


def _old_strategic(labels, payoffs):
    labels = tuple(tuple(per) for per in labels)
    n = len(labels)
    table = {}
    for profile in itertools.product(*labels):
        try:
            row = payoffs[profile]
        except KeyError:
            raise DomainMismatchError(
                f"payoff table is missing profile {profile}") from None
        row = tuple(map(float, row))
        if len(row) != n:
            raise DomainMismatchError(
                f"profile {profile} has {len(row)} payoffs for {n} players")
        table[profile] = row
    if len(payoffs) != len(table):
        extra = set(payoffs) - set(table)
        raise DomainMismatchError(
            f"payoff table has entries outside the strategy sets: "
            f"{sorted(extra)}")
    return namespaces.SimpleNamespace(
        payoffs=table, _pay=np.reshape(list(table.values()),
                                       tuple(map(len, labels)) + (n,)))


def _old_spec(players, coeff_tables):
    labels = outcome_labels((2,) * players)
    coeffs = []
    for i, per in enumerate(coeff_tables):
        per = {str(k): float(v) for k, v in per.items()}
        missing = [k for k in labels if k not in per]
        extra = sorted(set(per) - set(labels))
        if missing or extra:
            raise DomainMismatchError(
                f"player {i} payoff coefficients must be keyed by the "
                f"{len(labels)} outcome strings; missing {missing[:4]}, "
                f"unexpected {extra[:4]}")
        coeffs.append(per)
    if len(coeffs) != players:
        raise DomainMismatchError("payoff tables vs players")
    return namespaces.SimpleNamespace(
        payoff_coeffs=tuple(coeffs),
        _coeffs=np.array([[per[s] for s in labels] for per in coeffs]))


def _old_quantum_grid(advice):
    n = len(advice.types)
    psi = advice.shared_state.amplitudes.reshape(advice.shared_state.dims)
    bras = [np.stack([[b.amplitudes for b in per[x]] for x in x_i], -1).conj()
            for per, x_i in zip(advice.measurements, advice.types)]
    out = np.moveaxis(apply_on_wires(bras, psi), range(1, 2 * n, 2), range(n))
    return np.abs(out) ** 2


def _old_classical_grid(advice):
    n, lams = len(advice.types), advice.lambdas
    operands, sizes = [np.array([advice.rho[lam] for lam in lams]), [n]], []
    for i, (table, x_i, s_i) in enumerate(zip(
            advice.responses, advice.types, advice.strategies)):
        rows = [[table[(x, lam)][s] for s in s_i for x in x_i] for lam in lams]
        operands += [np.array(rows), [n, i]]
        sizes += len(s_i), len(x_i)
    p = np.einsum(*operands, list(range(n))).reshape(sizes)
    return np.moveaxis(p, range(1, 2 * n, 2), range(n))


# -------------------------------------------------------- random tables

def _labels(rng, prefix, low=1, high=3):
    return tuple(f"{prefix}{k}" for k in range(int(rng.integers(low,
                                                                high + 1))))


def _distribution(rng, keys, zeros=False):
    w = rng.dirichlet(np.ones(len(keys)))
    if zeros and len(keys) > 1:
        w[rng.integers(len(keys))] = 0.0
        w /= w.sum()
    return dict(zip(keys, map(float, w)))


def _domain(rng):
    n = int(rng.integers(1, 4))
    return (tuple(_labels(rng, "x") for _ in range(n)),
            tuple(_labels(rng, "s") for _ in range(n)))


def _cells(types, strategies):
    return list(itertools.product(itertools.product(*types),
                                  itertools.product(*strategies)))


def _random_cases(rng):
    """(name, new constructor, oracle, keyword arguments, fault sites)
    for one random table of each kind.  A site is (path to a table in the
    arguments, kind of table)."""
    types, strategies = _domain(rng)
    n = len(types)
    joint_types = list(itertools.product(*types))
    cells = _cells(types, strategies)
    game = dict(types=types, strategies=strategies,
                prior=_distribution(rng, joint_types, zeros=True),
                payoffs=tuple(dict(zip(cells, map(float, rng.integers(
                    -5, 6, len(cells))))) for _ in range(n)))
    conditional = dict(types=types, strategies=strategies, raw={
        jt: _distribution(rng, list(itertools.product(*strategies)))
        for jt in joint_types})
    lambdas = _labels(rng, "l", 1, 3)
    classical = dict(
        types=types, strategies=strategies, lambdas=lambdas,
        rho=_distribution(rng, list(lambdas), zeros=True),
        responses=tuple({(x, lam): _distribution(rng, list(s_i))
                         for x in x_i for lam in lambdas}
                        for x_i, s_i in zip(types, strategies)))
    picked = rng.choice(len(cells), size=max(1, len(cells) // 2),
                        replace=False)
    bell = dict(types=types, strategies=strategies, coefficients={
        cells[k]: float(rng.normal()) for k in picked})
    labels = tuple(_labels(rng, f"p{i}s") for i in range(n))
    strategic = dict(labels=labels, payoffs={
        p: tuple(map(float, rng.integers(-9, 10, n)))
        for p in itertools.product(*labels)})
    outcomes = outcome_labels((2,) * n)
    spec = dict(players=n, coeff_tables=tuple(
        {outcomes[k]: float(rng.integers(-5, 6))
         for k in rng.permutation(len(outcomes))} for _ in range(n)))

    def new_conditional(types, strategies, raw):
        return ConditionalDistribution(types, strategies, raw)

    def new_strategic(labels, payoffs):
        return StrategicFormGame(labels, payoffs)

    def new_spec(players, coeff_tables):
        gates = {"I": identity((2,)), "X": identity((2,))}
        return QuantumGameSpec(players, (gates,) * players, coeff_tables,
                               identity((2,) * players))

    return [
        ("game", BayesianGame, _old_game, game,
         [(("prior",), "distribution")]
         + [(("payoffs", i), "payoffs") for i in range(n)]),
        ("conditional", new_conditional, _old_conditional, conditional,
         [(("raw",), "rows")]
         + [(("raw", jt), "distribution") for jt in joint_types]),
        ("classical", ClassicalAdvice, _old_classical, classical,
         [(("rho",), "distribution")]
         + [(("responses", i), "rows") for i in range(n)]
         + [(("responses", i, k), "distribution")
            for i in range(n) for k in classical["responses"][i]]),
        ("bell", BellExpression, _old_bell, bell,
         [(("coefficients",), "coefficients")]),
        ("strategic", new_strategic, _old_strategic, strategic,
         [(("payoffs",), "rows of numbers")]),
        ("spec", new_spec, _old_spec, spec,
         [(("coeff_tables", i), "coefficients") for i in range(n)]),
    ]


ATTRIBUTES = {
    "game": ("prior", "payoffs", "_alphas"),
    "conditional": ("table", "_p"),
    "classical": ("rho", "responses"),
    "bell": ("coefficients", "_alpha"),
    "strategic": ("payoffs", "_pay"),
    "spec": ("payoff_coeffs", "_coeffs"),
}


def _assert_same(a, b, what):
    """Equal values, bit for bit, with the same key order throughout."""
    if isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype, what
        assert a.tobytes() == b.tobytes(), what
    else:
        # repr lists every key in order and every float exactly
        assert repr(a) == repr(b), what


# ------------------------------------------------------- single faults

def _outside(key):
    """A key just outside the domain: its first label replaced."""
    if isinstance(key, str):
        return "zz"
    return (_outside(key[0]),) + tuple(key[1:])


def _named(key) -> list[str]:
    """What a message about ``key`` must mention."""
    if isinstance(key, tuple) and key and isinstance(key[0], tuple):
        return [str(part) for part in key]
    return [str(key)]


def _mutants(rng, table, kind):
    """(fault, faulty key, mutated table) for each single fault that
    applies to a table of the given kind."""
    keys = list(table)
    key = keys[rng.integers(len(keys))]

    def edit(fn):
        out = dict(table)
        fn(out)
        return out

    yield "missing", key, edit(lambda t: t.pop(key))
    if kind == "rows":
        row = table[key]
        yield "outside", _outside(key), edit(
            lambda t: t.__setitem__(_outside(key), row))
        return
    if kind == "rows of numbers":
        yield "outside", _outside(key), edit(
            lambda t: t.__setitem__(_outside(key), table[key]))
        for value in (math.nan, math.inf):
            yield "value", key, edit(lambda t: t.__setitem__(
                key, (value,) + tuple(table[key][1:])))
        return
    yield "outside", _outside(key), edit(
        lambda t: t.__setitem__(_outside(key), 0.0))
    for value in (math.nan, math.inf, -math.inf, -1e-3, -1e-13):
        yield "value", key, edit(lambda t: t.__setitem__(key, value))
    if kind == "distribution":
        heavy = max(keys, key=table.__getitem__)
        for shift in (2e-9, -2e-9):
            yield "value", heavy, edit(lambda t: t.__setitem__(
                heavy, table[heavy] + shift))


def _at(args, path):
    target = args[path[0]]
    for step in path[1:]:
        target = target[step]
    return target


def _with(args, path, table):
    """A copy of the arguments with the table at ``path`` replaced."""
    out = dict(args)
    if len(path) == 1:
        out[path[0]] = table
        return out
    outer = list(out[path[0]])
    if len(path) == 2:
        if isinstance(out[path[0]], dict):
            outer = dict(out[path[0]])
        outer[path[1]] = table
    else:
        inner = dict(outer[path[1]])
        inner[path[2]] = table
        outer[path[1]] = inner
    out[path[0]] = outer if isinstance(outer, dict) else tuple(outer)
    return out


def _outcome(build, args):
    try:
        return build(**args), None
    except Exception as exc:  # compared class by class below
        return None, exc


# sites whose out-of-domain keys the old code dropped without a word
_NEWLY_STRICT = {("game", "payoffs"), ("classical", "rows")}


def test_valid_tables_build_what_the_old_code_built():
    rng = np.random.default_rng(2057)
    for trial in range(60):
        for name, new, old, args, _ in _random_cases(rng):
            built, expected = new(**args), old(**args)
            for attr in ATTRIBUTES[name]:
                _assert_same(getattr(built, attr), getattr(expected, attr),
                             (trial, name, attr))


def test_single_faults_get_the_old_verdicts():
    rng = np.random.default_rng(2013)
    seen = set()
    for trial in range(40):
        for name, new, old, args, sites in _random_cases(rng):
            for path, kind in sites:
                for fault, key, table in _mutants(rng, _at(args, path), kind):
                    mutated = _with(args, path, table)
                    got, error = _outcome(new, mutated)
                    want, old_error = _outcome(old, mutated)
                    where = (trial, name, path, fault, key)
                    seen.add((name, kind, fault, type(old_error).__name__))
                    if old_error is None and error is None:
                        for attr in ATTRIBUTES[name]:
                            _assert_same(getattr(got, attr),
                                         getattr(want, attr), where)
                    elif old_error is None:
                        assert (name, kind) in _NEWLY_STRICT, where
                        assert fault == "outside", where
                        assert isinstance(error, DomainMismatchError), where
                        for part in _named(key):
                            assert part in str(error), where
                    else:
                        assert type(error) is type(old_error), where
                        if str(error) != str(old_error):
                            # only a key's wording may change, and both
                            # messages still name the faulty key
                            assert fault in ("missing", "outside"), where
                            assert isinstance(error, DomainMismatchError)
                            for part in _named(key):
                                assert part in str(error), where
                                assert part in str(old_error), where
                        if isinstance(error, NormalizationError):
                            assert repr(error.total) == \
                                repr(old_error.total), where
    # the fault kinds this test exists for were all reached
    for reached in (("conditional", "distribution", "value",
                     "NormalizationError"),
                    ("classical", "distribution", "value", "NoneType"),
                    ("game", "payoffs", "missing", "DomainMismatchError"),
                    ("game", "payoffs", "outside", "NoneType"),
                    ("classical", "rows", "outside", "NoneType"),
                    ("classical", "rows", "missing", "DomainMismatchError"),
                    ("bell", "coefficients", "outside",
                     "DomainMismatchError"),
                    ("strategic", "rows of numbers", "missing",
                     "DomainMismatchError"),
                    ("spec", "coefficients", "outside",
                     "DomainMismatchError")):
        assert reached in seen, reached


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d))
                        + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_quantum_advice(rng):
    n = int(rng.integers(1, 4))
    dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
    types = tuple(_labels(rng, "x") for _ in range(n))
    strategies = tuple(tuple(f"s{k}" for k in range(d)) for d in dims)
    psi = rng.normal(size=math.prod(dims)) \
        + 1j * rng.normal(size=math.prod(dims))
    state = StateVector(psi / np.linalg.norm(psi), dims)
    measurements = tuple(
        {x: tuple(StateVector(col, (d,))
                  for col in _random_unitary(rng, d).T) for x in x_i}
        for x_i, d in zip(types, dims))
    return QuantumAdvice(types, strategies, state, measurements)


def test_conditionals_from_the_grid_equal_the_ones_through_dicts():
    rng = np.random.default_rng(4)
    for trial in range(40):
        quantum = _random_quantum_advice(rng)
        name, _, _, args, _ = _random_cases(rng)[2]
        classical = ClassicalAdvice(**args)
        for advice, reduce, grid in (
                (quantum, quantum_conditional, _old_quantum_grid),
                (classical, classical_conditional, _old_classical_grid)):
            cond = reduce(advice)
            dicts = _old_from_grid(advice, grid(advice))
            expected = _old_conditional(advice.types, advice.strategies,
                                        dicts)
            _assert_same(cond.table, expected.table, (trial, reduce))
            _assert_same(cond._p, expected._p, (trial, reduce))
            assert cond == ConditionalDistribution(
                advice.types, advice.strategies, dicts)


# ------------------------------------------------- the two table helpers

def test_table_grid_orders_fills_and_rejects_keys():
    keys = [("a", "x"), ("a", "y"), ("b", "x")]
    table = {("b", "x"): 3, ("a", "x"): "1.5"}
    assert table_grid(keys, table, "t", 0.0).tolist() == [1.5, 0.0, 3.0]
    with pytest.raises(DomainMismatchError,
                       match=r"^t has no entry for \('a', 'y'\)$"):
        table_grid(keys, table, "t")
    with pytest.raises(DomainMismatchError,
                       match=r"^t has entries outside its domain: "
                             r"\[\('c', 'x'\)\]$"):
        table_grid(keys, {**table, ("c", "x"): 1.0}, "t", 0.0)
    with pytest.raises(TypeError):
        table_grid(keys[:1], {keys[0]: None}, "t")


def test_distributions_clamp_and_name_the_first_faulty_row():
    keys = ["a", "b", "c"]
    names = ["first", "second"]
    ok = np.array([[0.5, 0.5, -1e-13], [-0.0, 1.0, 0.0]])
    out = distributions(ok, names, keys)
    assert out[0].tolist() == [0.5, 0.5, 0.0]
    assert math.copysign(1.0, out[1, 0]) == -1.0  # as max(-0.0, 0.0)
    cases = [
        ([[0.5, 0.5, 0.0], [0.2, math.nan, -1.0]],
         "second has non-finite weight nan at b"),
        ([[0.5, -1e-3, 0.5], [0.2, math.nan, -1.0]],
         "first has negative weight -0.001 at b"),
        ([[1.0, 0.0, 0.0], [0.3, 0.3, 0.3]],
         "second sums to 0.8999999999999999, expected 1"),
        ([[-0.0, -0.0, -0.0], [1.0, 0.0, 0.0]],
         "first sums to 0.0, expected 1"),
        ([[1e308, 1e308, 0.0], [1.0, 0.0, 0.0]],
         "first sums to inf, expected 1"),
    ]
    for rows, message in cases:
        with pytest.raises(NormalizationError) as info:
            distributions(np.array(rows), names, keys)
        assert str(info.value) == message


def test_row_totals_are_added_left_to_right():
    row = [0.127, 0.054, 0.008, 0.003, 0.163, 0.183, 0.121, 0.146, 0.109,
           0.187, 0.163, 0.001, 0.171, 0.007, 0.146, 0.035]
    # numpy's pairwise sum of this row differs from sum() in the last bit
    assert np.add.reduce(np.array(row)) != sum(row)
    with pytest.raises(NormalizationError) as info:
        distributions(np.array([row]), ["r"], list(range(16)))
    assert info.value.total == sum(row)
    assert str(info.value) == f"r sums to {sum(row)}, expected 1"


# ---------------------------------------------- keys outside the domain

def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _json_error(capsys, argv):
    code = main(argv + ["--output", "json"])
    out = capsys.readouterr().out
    assert code == 1
    return json.loads(out)["error"]


def test_out_of_domain_keys_are_rejected_everywhere(tmp_path, capsys):
    game = bayes.chsh_game()
    payoff = {**game.payoffs[0], (("0", "7"), ("0", "0")): 5.0}
    with pytest.raises(DomainMismatchError, match=r"\('0', '7'\)"):
        BayesianGame(game.types, game.strategies, game.prior,
                     (payoff, game.payoffs[1]))
    rows = {("0", "0"): {"0": 1.0}, ("1", "0"): {"1": 1.0}}
    with pytest.raises(DomainMismatchError, match="'7'"):
        ClassicalAdvice(game.types, game.strategies, ("0",), {"0": 1.0},
                        ({**rows, ("7", "0"): {"0": 1.0}}, rows))
    bases = {"0": phase_basis(0.0), "1": phase_basis(1.0)}
    with pytest.raises(DomainMismatchError, match="'9'"):
        QuantumAdvice(game.types, game.strategies, bayes.ghz_state(2),
                      ({**bases, "9": phase_basis(0.5)}, bases))

    doc = json.loads(formats.fixture_text("chsh_common_interest.json"))
    bad_payoff = json.loads(json.dumps(doc))
    bad_payoff["payoffs"][0]["0,7|0,0"] = 5.0
    wrong_arity = json.loads(json.dumps(doc))
    wrong_arity["prior"]["0,0,0"] = 0.0
    bad_basis = json.loads(json.dumps(doc))
    per = bad_basis["advice"]["measurements"][0]
    per["9"] = per["0"]
    bad_row = json.loads(json.dumps(doc))
    bad_row["advice"] = {
        "kind": "classical", "lambdas": ["0"], "rho": {"0": 1.0},
        "responses": [{"0|0": {"0": 1.0}, "1|0": {"1": 1.0},
                       "7|0": {"0": 1.0}},
                      {"0|0": {"0": 1.0}, "1|0": {"0": 1.0}}]}
    for name, bad in (("payoff", bad_payoff), ("arity", wrong_arity),
                      ("basis", bad_basis), ("row", bad_row)):
        path = _write(tmp_path, f"{name}.json", bad)
        error = _json_error(capsys, ["bayes-payoff", path])
        assert error["type"] == "FormatError", name
        assert "outside its domain" in error["message"], name
