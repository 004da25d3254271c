"""Bayesian games with advice, framed as Bell test scenarios.

Types are questions, strategies are answers: a game is a prior over
joint types plus per-player payoffs on types x strategies.  Advice is
whatever correlates the answers — a shared classical variable or a
shared quantum state with per-type measurements — and always reduces to
a ConditionalDistribution p(s_1..s_N | X_1..X_N).  Bell expressions are
linear functionals on those conditionals; with coefficients mu(X) *
P_i(X, s) the Bell value of player i's expression is exactly their
average payoff.

Each constructor lays its label-keyed tables out with ``_grid``
(``linalg.table_grid``) as float arrays with axes (X_1..X_N, S_1..S_N) in
label order, and checks every table of distributions in one
``linalg.distributions`` pass on that grid.  It keeps the grid privately:
a game its coefficients mu(X) P_i(X, s) per player, an expression its
coefficients, a conditional its probabilities.  The public dicts are read
back from the checked grids.  Each advice object reduces to its
conditional once, straight from the reduction's array through
``ConditionalDistribution._of_grid``, and keeps it.  Payoffs, Bell values
and every search read those stored arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DomainMismatchError,
    EnumerationLimitError,
    NormalizationError,
    ShapeMismatchError,
)
from .linalg import (ALGEBRA_TOL, PROB_TOL, StateVector, apply_on_wires,
                     check_dims, distributions)
from .linalg import table_grid as _grid

EQUILIBRIUM_TOL = 1e-9
DEFAULT_ENUMERATION_LIMIT = 10 ** 7

Labels = tuple[str, ...]
JointLabels = tuple[str, ...]


def _label_lists(value, what: str) -> tuple[Labels, ...]:
    lists = tuple(tuple(str(x) for x in per) for per in value)
    if not lists or any(not per for per in lists):
        raise DomainMismatchError(f"every player needs at least one {what}")
    for per in lists:
        if len(set(per)) != len(per):
            raise DomainMismatchError(f"duplicate {what} labels in {per}")
    return lists


def _distribution(keys: list, raw: Mapping, what: str) -> dict:
    """A table over ``keys`` that must be one distribution, missing
    entries read as 0, clamped and checked."""
    (row,) = distributions(_grid(keys, raw, what, 0.0)[None], (what,), keys)
    return dict(zip(keys, row.tolist()))


def _rows(keys: list, cols, table: Mapping, what: str,
          missing) -> np.ndarray:
    """A table of rows as one grid over its cells (row key, column key):
    row r is ``table[keys[r]]`` over ``cols``, missing entries read as 0.
    ``missing(key)`` words the error for a missing row."""
    extra = set(table).difference(keys)
    if extra:
        raise DomainMismatchError(
            f"{what} has entries outside its domain: {sorted(extra)[:4]}")
    try:
        cells = {(k, c): v for k in keys for c, v in table[k].items()}
    except KeyError as exc:
        raise DomainMismatchError(missing(exc.args[0])) from None
    return _grid(list(itertools.product(keys, cols)), cells, what,
                 0.0).reshape(len(keys), -1)


def _cells(domain) -> list[tuple[JointLabels, JointLabels]]:
    """Every (joint type, joint strategy) of a domain, in grid order."""
    return list(itertools.product(itertools.product(*domain.types),
                                  itertools.product(*domain.strategies)))


def _shape(domain) -> tuple[int, ...]:
    return tuple(len(x) for x in domain.types + domain.strategies)


@dataclass(frozen=True)
class BayesianGame:
    """Prior over joint types plus per-player payoffs on the full domain."""

    types: tuple[Labels, ...]
    strategies: tuple[Labels, ...]
    prior: Mapping[JointLabels, float]
    payoffs: tuple[Mapping[tuple[JointLabels, JointLabels], float], ...]

    def __post_init__(self):
        types = _label_lists(self.types, "type")
        strategies = _label_lists(self.strategies, "strategy")
        n = len(types)
        if n != len(strategies):
            raise DomainMismatchError(
                f"{n} type sets but {len(strategies)} strategy sets")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "strategies", strategies)

        joint_types = list(itertools.product(*types))
        prior = _distribution(joint_types, self.prior, "prior")
        object.__setattr__(self, "prior", prior)

        if len(self.payoffs) != n:
            raise DomainMismatchError(
                f"{len(self.payoffs)} payoff tables for {n} players")
        cells = _cells(self)
        pay = np.array([_grid(cells, raw, f"player {i} payoff table")
                        for i, raw in enumerate(self.payoffs)])
        if not np.isfinite(pay).all():
            i = np.isfinite(pay).all(axis=1).argmin()
            raise DomainMismatchError(f"player {i} has a non-finite payoff")
        object.__setattr__(self, "payoffs", tuple(
            dict(zip(cells, row)) for row in pay.tolist()))
        # player i's Bell coefficients mu(X) P_i(X, s), stacked on axis 0
        shape = _shape(self)
        mu = np.reshape(list(prior.values()), shape[:n] + (1,) * n)
        object.__setattr__(self, "_alphas", mu * pay.reshape((n,) + shape))

    @property
    def players(self) -> int:
        return len(self.types)

    def joint_types(self) -> list[JointLabels]:
        return list(itertools.product(*self.types))

    def joint_strategies(self) -> list[JointLabels]:
        return list(itertools.product(*self.strategies))

    @classmethod
    def from_nature(cls, nature_states: Sequence[str],
                    prior: Mapping[str, float],
                    type_maps: Sequence[Mapping[str, str]],
                    strategies, payoffs) -> "BayesianGame":
        """Build from a prior over nature states Omega and type maps
        tau_i: Omega -> X_i, pushing the prior forward to joint types."""
        omega = [str(w) for w in nature_states]
        rho = _distribution(omega, prior, "nature prior")
        types = _label_lists(
            [_ordered_values(tau, omega) for tau in type_maps], "type")
        joint_prior: dict[JointLabels, float] = {}
        for w in omega:
            jt = tuple(str(tau[w]) for tau in type_maps)
            joint_prior[jt] = joint_prior.get(jt, 0.0) + rho[w]
        return cls(types, strategies, joint_prior, payoffs)


def _ordered_values(tau: Mapping[str, str], omega: list[str]) -> list[str]:
    out: dict[str, None] = {}
    for w in omega:
        if w not in tau:
            raise DomainMismatchError(f"type map is undefined at state {w!r}")
        out.setdefault(str(tau[w]))
    return list(out)


@dataclass(frozen=True)
class ConditionalDistribution:
    """A table p(s_1..s_N | X_1..X_N), one distribution per joint type."""

    types: tuple[Labels, ...]
    strategies: tuple[Labels, ...]
    table: Mapping[JointLabels, Mapping[JointLabels, float]]

    def __post_init__(self):
        types = _label_lists(self.types, "type")
        strategies = _label_lists(self.strategies, "strategy")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "strategies", strategies)
        joint_types = list(itertools.product(*types))
        joint_strategies = list(itertools.product(*strategies))
        names = [f"p(s | {jt})" for jt in joint_types]
        p = vars(self).pop("_unchecked", None)  # set only by _of_grid
        if p is None:
            p = _rows(joint_types, joint_strategies, self.table,
                      "conditional",
                      lambda jt: f"conditional is missing joint type {jt}")
        rows = distributions(p.reshape(len(names), -1), names,
                             joint_strategies)
        object.__setattr__(self, "table", {
            jt: dict(zip(joint_strategies, row))
            for jt, row in zip(joint_types, rows.tolist())})
        object.__setattr__(self, "_p", rows.reshape(_shape(self)))

    @classmethod
    def _of_grid(cls, domain, p: np.ndarray) -> "ConditionalDistribution":
        """The conditional whose grid is ``p``, with axes (X_1..X_N,
        S_1..S_N), on ``domain``'s labels: every check of the constructor
        runs on ``p`` itself, with no label-keyed table in between."""
        new = cls.__new__(cls)
        vars(new).update(types=domain.types, strategies=domain.strategies,
                         table=None, _unchecked=p)
        new.__post_init__()
        return new

    @property
    def players(self) -> int:
        return len(self.types)

    def prob(self, joint_type: JointLabels,
             joint_strategy: JointLabels) -> float:
        try:
            return self.table[tuple(joint_type)][tuple(joint_strategy)]
        except KeyError:
            raise DomainMismatchError(
                f"no entry for types {tuple(joint_type)}, strategies "
                f"{tuple(joint_strategy)}") from None

    def marginal(self, player: int,
                 joint_type: JointLabels) -> dict[str, float]:
        """p(s_i | X) summed over the other players' strategies."""
        out = {s: 0.0 for s in self.strategies[player]}
        for js, p in self.table[tuple(joint_type)].items():
            out[js[player]] += p
        return out

    def signaling_deviation(self) -> float:
        """Largest change in any player's marginal when only the other
        players' types change; 0 for a no-signaling table."""
        n = self.players
        p = self._p
        worst = 0.0
        for i in range(n):
            others = tuple(n + j for j in range(n) if j != i)
            # rows of player i's marginal: (X_i, other joint types, S_i)
            m = np.moveaxis(p.sum(axis=others), i, 0)
            m = m.reshape(m.shape[0], -1, m.shape[-1])
            worst = max(worst, float(np.abs(m - m[:, :1]).max()))
        return worst

    def is_no_signaling(self, tol: float = PROB_TOL) -> bool:
        return self.signaling_deviation() <= tol


@dataclass(frozen=True)
class ClassicalAdvice:
    """A shared variable lambda ~ rho plus local response tables
    p(s_i | X_i, lambda)."""

    types: tuple[Labels, ...]
    strategies: tuple[Labels, ...]
    lambdas: Labels
    rho: Mapping[str, float]
    responses: tuple[Mapping[tuple[str, str], Mapping[str, float]], ...]

    def __post_init__(self):
        types = _label_lists(self.types, "type")
        strategies = _label_lists(self.strategies, "strategy")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "strategies", strategies)
        lambdas = tuple(str(v) for v in self.lambdas)
        if not lambdas or len(set(lambdas)) != len(lambdas):
            raise DomainMismatchError("lambda values must be nonempty and "
                                      "distinct")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "rho",
                           _distribution(list(lambdas), self.rho, "rho"))

        if len(self.responses) != len(types):
            raise DomainMismatchError(
                f"{len(self.responses)} response tables for {len(types)} "
                f"players")
        tables = []
        for i, (raw, s_i) in enumerate(zip(self.responses, strategies)):
            keys = list(itertools.product(types[i], lambdas))
            names = [f"p(s | {x}, {lam}) of player {i}" for x, lam in keys]
            p = _rows(keys, s_i, raw, f"player {i} response table",
                      lambda k: f"player {i} has no response row for type "
                                f"{k[0]!r}, lambda {k[1]!r}")
            rows = distributions(p, names, s_i).tolist()
            tables.append({k: dict(zip(s_i, row))
                           for k, row in zip(keys, rows)})
        object.__setattr__(self, "responses", tuple(tables))

    @classmethod
    def deterministic(cls, types, strategies,
                      response_maps: Sequence[Mapping[str, str]]) \
            -> "ClassicalAdvice":
        """Singleton-lambda advice from per-player maps type -> strategy."""
        types = _label_lists(types, "type")
        strategies = _label_lists(strategies, "strategy")
        # a map without a type, or one map too many or too few, is left
        # for the constructor to report
        responses = tuple(
            {(x, "0"): {str(fn[x]): 1.0} for x in xs if x in fn}
            for fn, xs in itertools.zip_longest(response_maps, types,
                                                fillvalue=()))
        return cls(types, strategies, ("0",), {"0": 1.0}, responses)

    @functools.cached_property
    def _conditional(self) -> ConditionalDistribution:
        return classical_conditional(self)


def classical_conditional(advice: ClassicalAdvice) -> ConditionalDistribution:
    """p(s|X) = sum_lambda rho(lambda) prod_i p(s_i | X_i, lambda) in one
    einsum; a label per player (S_i X_i) fits numpy's 52 up to 32 players."""
    n, lams = len(advice.types), advice.lambdas
    operands, sizes = [np.array([advice.rho[lam] for lam in lams]), [n]], []
    for i, (table, x_i, s_i) in enumerate(zip(
            advice.responses, advice.types, advice.strategies)):
        rows = [[table[(x, lam)][s] for s in s_i for x in x_i] for lam in lams]
        operands += [np.array(rows), [n, i]]
        sizes += len(s_i), len(x_i)
    p = np.einsum(*operands, list(range(n))).reshape(sizes)
    return ConditionalDistribution._of_grid(
        advice, np.moveaxis(p, range(1, 2 * n, 2), range(n)))


def phase_basis(alpha: float) -> tuple[StateVector, StateVector]:
    """The qubit basis b_s = (|0> + (-1)^s e^{i alpha} |1>)/sqrt 2."""
    w = np.exp(1j * float(alpha)) / math.sqrt(2)
    r = 1 / math.sqrt(2)
    return (StateVector(np.array([r, w]), (2,)),
            StateVector(np.array([r, -w]), (2,)))


@dataclass(frozen=True)
class QuantumAdvice:
    """A shared state plus, per player and type, a measurement basis
    whose outcome k is announced as that player's k-th strategy label."""

    types: tuple[Labels, ...]
    strategies: tuple[Labels, ...]
    shared_state: StateVector
    measurements: tuple[Mapping[str, tuple[StateVector, ...]], ...]

    def __post_init__(self):
        types = _label_lists(self.types, "type")
        strategies = _label_lists(self.strategies, "strategy")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "strategies", strategies)
        n = len(types)
        if len(self.shared_state.dims) != n:
            raise ShapeMismatchError(
                f"shared state has {len(self.shared_state.dims)} wires for "
                f"{n} players")
        if not self.shared_state.is_normalized(PROB_TOL):
            raise NormalizationError(
                "shared state is not normalized",
                total=self.shared_state.squared_norm)
        if len(self.measurements) != n:
            raise DomainMismatchError(
                f"{len(self.measurements)} measurement maps for {n} "
                f"players")
        cleaned = []
        for i, per in enumerate(self.measurements):
            extra = set(per).difference(types[i])
            if extra:
                raise DomainMismatchError(
                    f"player {i} measurement table has entries outside its "
                    f"domain: {sorted(extra)[:4]}")
            d = self.shared_state.dims[i]
            if len(strategies[i]) != d:
                raise DomainMismatchError(
                    f"player {i} has {len(strategies[i])} strategies but "
                    f"a dimension-{d} wire")
            table = {}
            for x in types[i]:
                if x not in per:
                    raise DomainMismatchError(
                        f"player {i} has no measurement for type {x!r}")
                basis = tuple(per[x])
                if len(basis) != d or any(v.dims != (d,) for v in basis):
                    raise ShapeMismatchError(
                        f"player {i} type {x!r}: need {d} basis vectors on "
                        f"a dimension-{d} wire")
                b = np.array([v.amplitudes for v in basis])  # one row each
                if not np.abs(b.conj() @ b.T - np.eye(d)).max() <= ALGEBRA_TOL:
                    raise NormalizationError(
                        f"player {i} type {x!r}: basis is not orthonormal")
                table[x] = basis
            cleaned.append(table)
        object.__setattr__(self, "measurements", tuple(cleaned))

    @classmethod
    def from_phases(cls, types, strategies, shared_state: StateVector,
                    phases: Sequence[Mapping[str, float]]) \
            -> "QuantumAdvice":
        """Qubit advice where player i measures type x in
        phase_basis(phases[i][x])."""
        measurements = []
        for per in phases:
            measurements.append(
                {str(x): phase_basis(a) for x, a in per.items()})
        return cls(types, strategies, shared_state, tuple(measurements))

    @functools.cached_property
    def _conditional(self) -> ConditionalDistribution:
        return quantum_conditional(self)


def quantum_conditional(advice: QuantumAdvice) -> ConditionalDistribution:
    """Born rule: p(s|X) = |<b_{X_1 s_1} x ... x b_{X_N s_N} | psi>|^2, with
    player i's bras stacked as (S_i, d_i, X_i): wire i leaves (S_i, X_i)."""
    n = len(advice.types)
    psi = advice.shared_state.amplitudes.reshape(advice.shared_state.dims)
    bras = [np.stack([[b.amplitudes for b in per[x]] for x in x_i], -1).conj()
            for per, x_i in zip(advice.measurements, advice.types)]
    out = np.moveaxis(apply_on_wires(bras, psi), range(1, 2 * n, 2), range(n))
    return ConditionalDistribution._of_grid(advice, np.abs(out) ** 2)


def conditional_of(advice) -> ConditionalDistribution:
    """Reduce any advice (or a raw conditional) to its conditional, once
    per advice object."""
    if isinstance(advice, ConditionalDistribution):
        return advice
    if isinstance(advice, (ClassicalAdvice, QuantumAdvice)):
        return advice._conditional
    raise TypeError(f"not advice: {advice!r}")


@dataclass(frozen=True)
class BellExpression:
    """A linear functional sum alpha(s, X) p(s|X), with missing
    coefficients read as 0."""

    types: tuple[Labels, ...]
    strategies: tuple[Labels, ...]
    coefficients: Mapping[tuple[JointLabels, JointLabels], float]
    bound: float | None = None

    def __post_init__(self):
        types = _label_lists(self.types, "type")
        strategies = _label_lists(self.strategies, "strategy")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "strategies", strategies)
        coeffs = {(tuple(k[0]), tuple(k[1])): float(v)
                  for k, v in self.coefficients.items()}
        alpha = _grid(_cells(self), coeffs, "Bell expression", 0.0)
        if not np.isfinite(alpha).all():
            raise DomainMismatchError("a coefficient is not finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_alpha", alpha.reshape(_shape(self)))
        if self.bound is not None:
            object.__setattr__(self, "bound", float(self.bound))

    def coefficient(self, joint_type: JointLabels,
                    joint_strategy: JointLabels) -> float:
        return self.coefficients.get(
            (tuple(joint_type), tuple(joint_strategy)), 0.0)

    @classmethod
    def from_payoff(cls, game: BayesianGame, player: int) \
            -> "BellExpression":
        """The identification alpha(s, X) = mu(X) P_i(X, s)."""
        if not 0 <= player < game.players:
            raise DomainMismatchError(
                f"player {player} is out of range for {game.players} "
                f"players")
        return cls(game.types, game.strategies, {
            key: game.prior[key[0]] * p
            for key, p in game.payoffs[player].items()})


def _check_same_domain(a, b, what: str) -> None:
    if a.types != b.types or a.strategies != b.strategies:
        raise DomainMismatchError(
            f"{what}: domains disagree ({a.types} x {a.strategies} vs "
            f"{b.types} x {b.strategies})")


def average_payoff(game: BayesianGame, advice) -> tuple[float, ...]:
    """F_i = sum_X mu(X) sum_s p(s|X) P_i(X, s) for every player: the Bell
    value of player i's coefficients, summed in the same order."""
    cond = conditional_of(advice)
    _check_same_domain(game, cond, "average_payoff")
    return tuple(float((alpha * cond._p).sum()) for alpha in game._alphas)


def bell_value(expr: BellExpression, advice) -> float:
    """The functional sum alpha(s, X) p(s|X)."""
    cond = conditional_of(advice)
    _check_same_domain(expr, cond, "bell_value")
    return float((expr._alpha * cond._p).sum())


@dataclass(frozen=True)
class ClassicalOptimum:
    """The exact maximum of a Bell expression over local advice."""

    value: float
    responses: tuple[Mapping[str, str], ...]
    types: tuple[Labels, ...]
    strategies: tuple[Labels, ...]

    def advice(self) -> ClassicalAdvice:
        """The maximizing responses as singleton-lambda advice."""
        return ClassicalAdvice.deterministic(
            self.types, self.strategies, self.responses)


def classical_optimum(expr: BellExpression,
                      limit: int = DEFAULT_ENUMERATION_LIMIT) \
        -> ClassicalOptimum:
    """Maximize the expression over deterministic local responses.

    By convexity this equals the maximum over all classical advice.
    ``limit`` caps the number of response profiles the result covers,
    prod_i |S_i|^|X_i|, and is checked before any work.  The responses
    of parties 1..N-1 are folded in one type at a time; party N then
    best-responds to each of them type by type, in closed form.  Ties
    break toward the first optimal profile in lexicographic enumeration
    order (parties, then their types, in order; strategies in label
    order), so the result is deterministic.
    """
    n = len(expr.types)
    count = math.prod(len(s) ** len(x)
                      for x, s in zip(expr.types, expr.strategies))
    if count > limit:
        raise EnumerationLimitError(
            f"{count} deterministic response profiles exceed the limit "
            f"{limit}", count, limit)
    # party-major axes (X_1, S_1, .., X_N, S_N); summing the axes of a
    # one-strategy party first keeps every array below the profile count
    alpha = expr._alpha.transpose([a for i in range(n) for a in (i, n + i)])
    forced = tuple(a for i, s in enumerate(expr.strategies) if len(s) == 1
                   for a in (2 * i, 2 * i + 1))
    values = alpha.sum(axis=forced, keepdims=True)[np.newaxis]
    for _ in range(n - 1):
        # values: (profiles so far, X_i, S_i, later parties' axes)
        head, rest = values.shape[:1], values.shape[3:]
        folded = np.zeros(head + (1,) + rest)
        for row in values.swapaxes(0, 1):
            folded = (folded[:, :, np.newaxis] + row[:, np.newaxis]).reshape(
                head + (-1,) + rest)
        values = folded.reshape((-1,) + rest)
    scores = values.max(axis=2).sum(axis=1)
    best = int(np.argmax(scores))
    # the optimum's index in enumeration order, read back digit by digit
    index = best
    for d in values[best].argmax(axis=1):
        index = index * values.shape[2] + int(d)
    responses = []
    for xs, ss in zip(expr.types, expr.strategies):
        responses.append({})
        for x in xs:
            count //= len(ss)
            digit, index = divmod(index, count)
            responses[-1][x] = ss[digit]
    return ClassicalOptimum(float(scores[best]), tuple(responses),
                            expr.types, expr.strategies)


def classical_bound(expr: BellExpression,
                    limit: int = DEFAULT_ENUMERATION_LIMIT) -> float:
    """The LHV bound L: max of the expression over classical advice."""
    return classical_optimum(expr, limit).value


@dataclass(frozen=True)
class PolytopeVerdict:
    """One advice point checked against sum beta_i F_i <= beta_0."""

    payoffs: tuple[float, ...]
    value: float
    satisfied: bool


def payoff_polytope_check(game: BayesianGame,
                          inequality: Sequence[float],
                          advices: Iterable,
                          tol: float = EQUILIBRIUM_TOL) \
        -> list[PolytopeVerdict]:
    """Evaluate sum beta_i F_i <= beta_0 at each advice point.

    ``inequality`` is (beta_0, beta_1, ..., beta_N).
    """
    beta0, betas = _split_inequality(game, inequality)
    out = []
    for advice in advices:
        fs = average_payoff(game, advice)
        value = sum(b * f for b, f in zip(betas, fs))
        out.append(PolytopeVerdict(fs, value, value <= beta0 + tol))
    return out


def certify_payoff_inequality(game: BayesianGame,
                              inequality: Sequence[float],
                              limit: int = DEFAULT_ENUMERATION_LIMIT,
                              tol: float = EQUILIBRIUM_TOL) \
        -> tuple[bool, float]:
    """Decide whether every classical advice satisfies the inequality,
    by maximizing sum beta_i F_i over deterministic responses.

    Returns (certified, classical maximum of the left-hand side).
    """
    beta0, betas = _split_inequality(game, inequality)
    expr = BellExpression(game.types, game.strategies, {
        key: game.prior[key[0]] * sum(
            b * table[key] for b, table in zip(betas, game.payoffs))
        for key in game.payoffs[0]})
    best = classical_bound(expr, limit)
    return best <= beta0 + tol, best


def _split_inequality(game: BayesianGame,
                      inequality: Sequence[float]) \
        -> tuple[float, list[float]]:
    values = [float(v) for v in inequality]
    if len(values) != game.players + 1:
        raise DomainMismatchError(
            f"inequality needs 1 + {game.players} coefficients, got "
            f"{len(values)}")
    return values[0], values[1:]


def ghz_state(n: int, dim: int = 2) -> StateVector:
    """(|0..0> + ... + |(d-1)..(d-1)>)/sqrt d on n wires."""
    if n < 1:
        raise DomainMismatchError("need at least one wire")
    dims = check_dims((dim,) * n, "dims")
    stride = sum(dim ** j for j in range(n))  # |k..k> is at k * stride
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[np.arange(dim) * stride] = 1 / math.sqrt(dim)
    return StateVector(amps, dims)


def parity(outcomes) -> int:
    """The product of +-1 outcomes.

    A string is read as bits ("011" -> (+1)(-1)(-1) = +1).  An iterable
    of numbers is read as signs if every entry is +-1, as bits if every
    entry is 0/1; all-ones is read as signs.
    """
    if isinstance(outcomes, str):
        if not outcomes or not all(c in "01" for c in outcomes):
            raise ValueError(f"not a bit string: {outcomes!r}")
        bits = [int(c) for c in outcomes]
        return -1 if sum(bits) % 2 else 1
    values = []
    for v in outcomes:
        if int(v) != v:
            raise ValueError(f"non-integer outcome {v!r}")
        values.append(int(v))
    if not values:
        raise ValueError("empty outcome sequence")
    if all(v in (1, -1) for v in values):
        sign = 1
        for v in values:
            sign *= v
        return sign
    if all(v in (0, 1) for v in values):
        return -1 if sum(values) % 2 else 1
    raise ValueError(f"outcomes must be +-1 signs or 0/1 bits: {values}")


def ghz_phase_distribution(n: int, phases: Sequence[float]) \
        -> dict[str, float]:
    """Phase measurements on GHZ^n: P(s) = (1 + (-1)^parity(s)
    cos(sum alpha)) / 2^n over all bit strings s."""
    if n < 2:
        raise DomainMismatchError(f"need at least 2 parties, got {n}")
    alphas = [float(a) for a in phases]
    if len(alphas) != n:
        raise DomainMismatchError(
            f"{len(alphas)} phases for {n} parties")
    c = math.cos(math.fsum(alphas))
    out = {}
    for bits in itertools.product("01", repeat=n):
        s = "".join(bits)
        out[s] = (1.0 + parity(s) * c) / 2 ** n
    return out


MERMIN_SETTINGS = ("XXX", "XYY", "YXY", "YYX")
_MERMIN_PHASE = {"X": 0.0, "Y": math.pi / 2}


@dataclass(frozen=True)
class MerminReport:
    """Quantum vs deterministic-LHV parity expectations on GHZ^3."""

    settings: tuple[str, ...]
    quantum_expectations: tuple[float, ...]
    classical_assignments: int
    satisfying_assignments: int
    quantum_parity_product: int
    classical_parity_product: int
    inequivalent: bool


def mermin_inequivalence(n: int = 3) -> MerminReport:
    """The GHZ^3 parity argument: settings XXX, XYY, YXY, YYX.

    Quantum expectations come from ghz_phase_distribution with X as
    phase 0 and Y as phase pi/2.  The classical side enumerates all 64
    sign assignments to (X_i, Y_i) and counts how many reproduce all
    four expectations; the product of the four classical parities is
    identically +1 while the quantum product is -1.
    """
    if n != 3:
        raise DomainMismatchError(
            f"the parity argument is implemented for n=3, got {n}")
    expectations = []
    for setting in MERMIN_SETTINGS:
        dist = ghz_phase_distribution(3, [_MERMIN_PHASE[c]
                                          for c in setting])
        expectations.append(sum(parity(s) * p for s, p in dist.items()))

    satisfying = 0
    total = 0
    for signs in itertools.product((1, -1), repeat=6):
        x = signs[0::2]
        y = signs[1::2]
        total += 1
        values = (
            x[0] * x[1] * x[2],
            x[0] * y[1] * y[2],
            y[0] * x[1] * y[2],
            y[0] * y[1] * x[2],
        )
        if all(v == round(e) for v, e in zip(values, expectations)):
            satisfying += 1

    quantum_product = round(math.prod(expectations))
    return MerminReport(
        settings=MERMIN_SETTINGS,
        quantum_expectations=tuple(expectations),
        classical_assignments=total,
        satisfying_assignments=satisfying,
        quantum_parity_product=quantum_product,
        classical_parity_product=1,
        inequivalent=satisfying == 0,
    )


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of the advised-equilibrium check.

    ``best_deviation`` maps (own type, recommended strategy) to the
    strategy actually played; None when no deviation gains more than
    the tolerance.
    """

    equilibrium: bool
    payoffs: tuple[float, ...]
    best_player: int | None
    best_deviation: Mapping[tuple[str, str], str] | None
    best_gain: float


def is_advised_equilibrium(game: BayesianGame, advice,
                           tol: float = EQUILIBRIUM_TOL,
                           limit: int = DEFAULT_ENUMERATION_LIMIT) \
        -> EquilibriumReport:
    """Check that no player gains more than ``tol`` by post-processing.

    A deviation is any function from (own type, own recommendation) to
    own strategy; for quantum advice this rewrites the announced label,
    it never touches the measurement.  ``limit`` caps each player's
    number of deviation functions, |S_i|^(|X_i||S_i|), and is checked
    for every player before any work.  The deviated payoff is a sum of
    one term per (type, recommendation) pair, so a player's best
    deviation plays the first argmax for every pair and gains that
    player's exact maximum.  The report keeps the first player whose
    gain beats the running best (starting at 0) by more than ``tol``.
    """
    cond = conditional_of(advice)
    _check_same_domain(game, cond, "is_advised_equilibrium")
    for i, (x_i, s_i) in enumerate(zip(game.types, game.strategies)):
        count = len(s_i) ** (len(x_i) * len(s_i))
        if count > limit:
            raise EnumerationLimitError(
                f"player {i} has {count} deviation functions, over the "
                f"limit {limit}", count, limit)
    base = average_payoff(game, cond)
    n = game.players

    best_gain = 0.0
    best_player = None
    best_deviation = None
    for i, alpha in enumerate(game._alphas):
        p_i, a_i = (np.moveaxis(a, (i, n + i), (0, 1)).reshape(
            a.shape[i], a.shape[n + i], -1) for a in (cond._p, alpha))
        # g[x, r, t]: payoff at own type x, recommendation r, playing t
        g = np.einsum("xrm,xtm->xrt", p_i, a_i)
        gain = float(g.max(axis=2).sum()) - base[i]
        if gain > best_gain + tol:
            best_gain = gain
            best_player = i
            best_deviation = dict(zip(
                itertools.product(game.types[i], game.strategies[i]),
                (game.strategies[i][t] for t in g.argmax(axis=2).ravel())))
    return EquilibriumReport(
        equilibrium=best_deviation is None,
        payoffs=base,
        best_player=best_player,
        best_deviation=best_deviation,
        best_gain=best_gain,
    )


def equivalence_of_conditionals(a: ConditionalDistribution,
                                b: ConditionalDistribution,
                                tol: float = EQUILIBRIUM_TOL) -> bool:
    """True iff the two tables agree entrywise within ``tol``."""
    if a.types != b.types or a.strategies != b.strategies:
        raise ShapeMismatchError(
            f"conditionals have different shapes: {a.types} x "
            f"{a.strategies} vs {b.types} x {b.strategies}")
    return bool(np.all(np.abs(a._p - b._p) <= tol))


BITS = ("0", "1")


def chsh_game() -> BayesianGame:
    """The common-interest CHSH game: uniform prior on joint types,
    both players paid 1 when s_1 xor s_2 = X_1 and X_2."""
    types = (BITS, BITS)
    strategies = (BITS, BITS)
    prior = {jt: 0.25 for jt in itertools.product(BITS, BITS)}
    table = {}
    for jt in itertools.product(BITS, BITS):
        for js in itertools.product(BITS, BITS):
            want = int(jt[0]) * int(jt[1])
            got = (int(js[0]) + int(js[1])) % 2
            table[(jt, js)] = 1.0 if got == want else 0.0
    return BayesianGame(types, strategies, prior, (table, table))


def chsh_expression(player: int = 0) -> BellExpression:
    return BellExpression.from_payoff(chsh_game(), player)


CHSH_PHASES = ({"0": 0.0, "1": math.pi / 2},
               {"0": -math.pi / 4, "1": math.pi / 4})


def chsh_quantum_advice() -> QuantumAdvice:
    """GHZ^2 advice at the angles maximizing the CHSH payoff."""
    return QuantumAdvice.from_phases(
        (BITS, BITS), (BITS, BITS), ghz_state(2), CHSH_PHASES)


def mermin_game() -> BayesianGame:
    """Three-player parity game over the Mermin contexts.

    Types X/Y per player; the prior is uniform over the four joint
    types XXX, XYY, YXY, YYX; every player's payoff is the outcome
    parity, negated outside XXX.
    """
    types = (("X", "Y"),) * 3
    strategies = (BITS,) * 3
    prior = {jt: 0.0 for jt in itertools.product(*types)}
    for setting in MERMIN_SETTINGS:
        prior[tuple(setting)] = 0.25
    table = {}
    for jt in itertools.product(*types):
        sign = 1 if "".join(jt) == "XXX" else -1
        for js in itertools.product(*strategies):
            table[(jt, js)] = float(sign * parity("".join(js)))
    return BayesianGame(types, strategies, prior, (table,) * 3)


def mermin_expression(player: int = 0) -> BellExpression:
    return BellExpression.from_payoff(mermin_game(), player)


def mermin_quantum_advice() -> QuantumAdvice:
    """GHZ^3 advice measuring X as phase 0 and Y as phase pi/2."""
    phases = ({"X": 0.0, "Y": math.pi / 2},) * 3
    return QuantumAdvice.from_phases(
        (("X", "Y"),) * 3, (BITS,) * 3, ghz_state(3), phases)
