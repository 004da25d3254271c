"""Bayesian games with advice, framed as Bell test scenarios.

Types are questions, strategies are answers: a game is a prior over
joint types plus per-player payoffs on types x strategies.  Advice is
whatever correlates the answers — a shared classical variable or a
shared quantum state with per-type measurements — and always reduces to
a ConditionalDistribution p(s_1..s_N | X_1..X_N).  Bell expressions are
linear functionals on those conditionals; with coefficients mu(X) *
P_i(X, s) the Bell value of player i's expression is exactly their
average payoff.

Tables keep their string labels; ``_grid`` lays any of them out as a
float array with axes (X_1..X_N, S_1..S_N) in label order, and is the
one place that knows this axis layout.  Payoffs, Bell values, the
signaling check and both exact searches run on those arrays.
"""

from __future__ import annotations

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
from .linalg import ALGEBRA_TOL, PROB_TOL, StateVector, apply_on_wires, ket

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


def _grid(domain, entry) -> np.ndarray:
    """``entry((joint_type, joint_strategy))`` on every cell of a game's,
    expression's or conditional's domain, as a float array with axes
    (X_1..X_N, S_1..S_N), each in label order."""
    shape = [len(x) for x in domain.types + domain.strategies]
    cells = itertools.product(itertools.product(*domain.types),
                              itertools.product(*domain.strategies))
    return np.fromiter(map(entry, cells), float,
                       math.prod(shape)).reshape(shape)


def _clamped_distribution(raw: Mapping, domain: list, what: str,
                          tol: float = PROB_TOL) -> dict:
    """Validate a distribution over ``domain``: clamp tiny negatives,
    reject real ones, require unit mass within ``tol``."""
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
        if len(types) != len(strategies):
            raise DomainMismatchError(
                f"{len(types)} type sets but {len(strategies)} strategy "
                f"sets")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "strategies", strategies)

        joint_types = list(itertools.product(*types))
        prior = _clamped_distribution(self.prior, joint_types, "prior")
        object.__setattr__(self, "prior", prior)

        if len(self.payoffs) != len(types):
            raise DomainMismatchError(
                f"{len(self.payoffs)} payoff tables for {len(types)} "
                f"players")
        tables = []
        for i, raw in enumerate(self.payoffs):
            table = {}
            for jt in joint_types:
                for js in itertools.product(*strategies):
                    try:
                        table[(jt, js)] = float(raw[(jt, js)])
                    except KeyError:
                        raise DomainMismatchError(
                            f"player {i} payoff is undefined at types {jt}, "
                            f"strategies {js}") from None
            if not all(map(math.isfinite, table.values())):
                raise DomainMismatchError(
                    f"player {i} has a non-finite payoff")
            tables.append(table)
        object.__setattr__(self, "payoffs", tuple(tables))

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
        rho = _clamped_distribution(prior, omega, "nature prior")
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
        joint_strategies = list(itertools.product(*strategies))
        table = {}
        for jt in itertools.product(*types):
            if jt not in self.table:
                raise DomainMismatchError(
                    f"conditional is missing joint type {jt}")
            table[jt] = _clamped_distribution(
                self.table[jt], joint_strategies, f"p(s | {jt})")
        extra = set(self.table) - set(table)
        if extra:
            raise DomainMismatchError(
                f"conditional has unknown joint types: {sorted(extra)[:4]}")
        object.__setattr__(self, "table", table)

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
        p = _conditional_grid(self)
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
        object.__setattr__(self, "rho", _clamped_distribution(
            self.rho, list(lambdas), "rho"))

        if len(self.responses) != len(types):
            raise DomainMismatchError(
                f"{len(self.responses)} response tables for {len(types)} "
                f"players")
        tables = []
        for i, raw in enumerate(self.responses):
            table = {}
            for x in types[i]:
                for lam in lambdas:
                    if (x, lam) not in raw:
                        raise DomainMismatchError(
                            f"player {i} has no response row for type "
                            f"{x!r}, lambda {lam!r}")
                    table[(x, lam)] = _clamped_distribution(
                        raw[(x, lam)], list(strategies[i]),
                        f"p(s | {x}, {lam}) of player {i}")
            tables.append(table)
        object.__setattr__(self, "responses", tuple(tables))

    @classmethod
    def deterministic(cls, types, strategies,
                      response_maps: Sequence[Mapping[str, str]]) \
            -> "ClassicalAdvice":
        """Singleton-lambda advice from per-player maps type -> strategy."""
        types = _label_lists(types, "type")
        strategies = _label_lists(strategies, "strategy")
        responses = []
        for i, fn in enumerate(response_maps):
            table = {}
            for x in types[i]:
                s = str(fn[x])
                table[(x, "0")] = {s: 1.0}
            responses.append(table)
        return cls(types, strategies, ("0",), {"0": 1.0}, tuple(responses))


def classical_conditional(advice: ClassicalAdvice) -> ConditionalDistribution:
    """p(s|X) = sum_lambda rho(lambda) prod_i p(s_i | X_i, lambda)."""
    table = {}
    for jt in itertools.product(*advice.types):
        row = {}
        for js in itertools.product(*advice.strategies):
            p = 0.0
            for lam in advice.lambdas:
                w = advice.rho[lam]
                for i, (x, s) in enumerate(zip(jt, js)):
                    w *= advice.responses[i][(x, lam)][s]
                p += w
            row[js] = p
        table[jt] = row
    return ConditionalDistribution(advice.types, advice.strategies, table)


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
                gram = np.array([[np.vdot(u.amplitudes, v.amplitudes)
                                  for v in basis] for u in basis])
                if not np.allclose(gram, np.identity(d), atol=ALGEBRA_TOL):
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


def quantum_conditional(advice: QuantumAdvice) -> ConditionalDistribution:
    """Born rule: p(s|X) = |<b_{X_1 s_1} x ... x b_{X_N s_N} | psi>|^2."""
    psi = advice.shared_state.amplitudes.reshape(advice.shared_state.dims)
    table = {}
    for jt in itertools.product(*advice.types):
        bras = [np.array([b.amplitudes.conj() for b in per[x]])
                for per, x in zip(advice.measurements, jt)]
        probs = np.abs(apply_on_wires(bras, psi)) ** 2
        table[jt] = dict(zip(itertools.product(*advice.strategies),
                             map(float, probs.reshape(-1))))
    return ConditionalDistribution(advice.types, advice.strategies, table)


def conditional_of(advice) -> ConditionalDistribution:
    """Reduce any advice (or a raw conditional) to its conditional."""
    if isinstance(advice, ConditionalDistribution):
        return advice
    if isinstance(advice, ClassicalAdvice):
        return classical_conditional(advice)
    if isinstance(advice, QuantumAdvice):
        return quantum_conditional(advice)
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
        domain = set(itertools.product(
            itertools.product(*types), itertools.product(*strategies)))
        coeffs = {}
        for key, v in self.coefficients.items():
            jt, js = tuple(key[0]), tuple(key[1])
            if (jt, js) not in domain:
                raise DomainMismatchError(
                    f"coefficient at types {jt}, strategies {js} is "
                    f"outside the domain")
            coeffs[(jt, js)] = float(v)
        if not all(map(math.isfinite, coeffs.values())):
            raise DomainMismatchError("a coefficient is not finite")
        object.__setattr__(self, "coefficients", coeffs)
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


def _conditional_grid(cond: ConditionalDistribution) -> np.ndarray:
    return _grid(cond, lambda key: cond.table[key[0]][key[1]])


def _weights(game: BayesianGame, cond: ConditionalDistribution) \
        -> np.ndarray:
    """mu(X) p(s|X) on the grid."""
    return _grid(game, lambda key: game.prior[key[0]]) \
        * _conditional_grid(cond)


def average_payoff(game: BayesianGame, advice) -> tuple[float, ...]:
    """F_i = sum_X mu(X) sum_s p(s|X) P_i(X, s) for every player."""
    cond = conditional_of(advice)
    _check_same_domain(game, cond, "average_payoff")
    weights = _weights(game, cond)
    return tuple(float((weights * _grid(game, table.__getitem__)).sum())
                 for table in game.payoffs)


def bell_value(expr: BellExpression, advice) -> float:
    """The functional sum alpha(s, X) p(s|X)."""
    cond = conditional_of(advice)
    _check_same_domain(expr, cond, "bell_value")
    alpha = _grid(expr, lambda key: expr.coefficients.get(key, 0.0))
    return float((alpha * _conditional_grid(cond)).sum())


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
    alpha = _grid(expr, lambda key: expr.coefficients.get(key, 0.0))
    # party-major axes (X_1, S_1, .., X_N, S_N); summing the axes of a
    # one-strategy party first keeps every array below the profile count
    alpha = alpha.transpose([a for i in range(n) for a in (i, n + i)])
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
    state = ket("0" * n, dim).scaled(0)
    for k in range(dim):
        state = StateVector(
            state.amplitudes + ket(str(k) * n, dim).amplitudes,
            state.dims)
    return state.scaled(1 / math.sqrt(dim))


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
    weights = _weights(game, cond)

    best_gain = 0.0
    best_player = None
    best_deviation = None
    for i, table in enumerate(game.payoffs):
        p = _grid(game, table.__getitem__)
        w_i, p_i = (np.moveaxis(a, (i, n + i), (0, 1)).reshape(
            a.shape[i], a.shape[n + i], -1) for a in (weights, p))
        # g[x, r, t]: payoff at own type x, recommendation r, playing t
        g = np.einsum("xrm,xtm->xrt", w_i, p_i)
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
    return bool(np.all(
        np.abs(_conditional_grid(a) - _conditional_grid(b)) <= tol))


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
