"""Bayesian games with advice, framed as Bell test scenarios.

Types are questions, strategies are answers: a game is a prior over
joint types plus per-player payoffs on types x strategies.  Advice is
whatever correlates the answers — a shared classical variable or a
shared quantum state with per-type measurements — and always reduces to
a ConditionalDistribution p(s_1..s_N | X_1..X_N).  Bell expressions are
linear functionals on those conditionals; with coefficients mu(X) *
P_i(X, s) the Bell value of player i's expression is exactly their
average payoff.

The domain, per-player types x strategies, is written once, in
``_Domain``: its label checks, the rule of one strategy list per type
list, the joint labels, the grid shape and the same-domain check.  The
game, both kinds of advice, the conditional and the Bell expression all
derive from it.  Each constructor lays its label-keyed tables out with
``_grid`` (``linalg.table_grid``) as float arrays with axes (X_1..X_N,
S_1..S_N) in label order, and checks every table of distributions in one
``linalg.distributions`` pass on that grid.  It keeps the grid
as its state: a game its prior, payoffs and coefficients mu(X) P_i(X, s)
per player, classical advice rho and its response tables, quantum advice
the stack of bras its orthonormality check builds, an expression its
coefficients, a conditional its probabilities.  The label-keyed public
fields are views of those grids: the constructor drops each from
``vars()`` with ``linalg._defer``, and ``linalg._view``, the domain's
``__getattr__``, builds it the first time it is read (``grid_table``
for the tables, a ``StateVector`` per basis vector for measurements).
A Bell expression built from a table keeps that table as given.  A key
outside a table's domain is named by ``linalg.check_domain``, as in
``_grid``; a measurement basis must pass ``linalg.orthonormal``, all of
a player's bases in one stacked product.  ``_Domain._of_grid`` is the
one path from a grid: it builds a game, either kind of advice, a
conditional or an expression from arrays on a checked domain, with
every other check of the constructor run on the arrays themselves,
through ``linalg._of_checked``, the one bypass of a constructor's
checks.  The loader, ``chsh_game`` and ``mermin_game`` build games
through it, and the loader both kinds of advice; each advice object
reduces to its conditional once through it, a game's payoff becomes an
expression through it, and no grid goes through a label-keyed dict on
the way.  Payoffs, Bell values and every search read the stored
arrays.
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
from .linalg import (ALGEBRA_TOL, PROB_TOL, StateVector, _defer,
                     _of_checked, _view, apply_on_wires, check_domain,
                     check_wires, distributions, grid_table, orthonormal,
                     outcome_labels)
from .linalg import table_grid as _grid

EQUILIBRIUM_TOL = 1e-9
DEFAULT_ENUMERATION_LIMIT = 10 ** 7

Labels = tuple[str, ...]
JointLabels = tuple[str, ...]


def _label_lists(value, what: str) -> tuple[Labels, ...]:
    lists = tuple(tuple(map(str, per)) for per in value)
    if not lists or not all(lists):
        raise DomainMismatchError(f"every player needs at least one {what}")
    for per in lists:
        if len(set(per)) != len(per):
            raise DomainMismatchError(f"duplicate {what} labels in {per}")
    return lists


def _distribution(keys: list, raw: Mapping, what: str,
                  grid: np.ndarray | None = None) -> np.ndarray:
    """The checked row, in the order of ``keys``, of a table that must be
    one distribution, missing entries read as 0 and tiny negatives
    clamped; ``grid``, when given, holds its values already laid out, and
    ``raw`` is not read."""
    grid = _grid(keys, raw, what, 0.0) if grid is None else grid
    return distributions(grid[None], (what,), keys)[0]


def _rows(keys: list, cols, table: Mapping, what: str,
          missing) -> np.ndarray:
    """A table of rows as one grid over its cells (row key, column key):
    row r is ``table[keys[r]]`` over ``cols``, missing entries read as 0.
    ``missing(key)`` words the error for a missing row."""
    check_domain(table, keys, what)
    try:
        cells = {(k, c): v for k in keys for c, v in table[k].items()}
    except KeyError as exc:
        raise DomainMismatchError(missing(exc.args[0])) from None
    return _grid(list(itertools.product(keys, cols)), cells, what,
                 0.0).reshape(len(keys), -1)


@dataclass(frozen=True)
class _Domain:
    """Per-player types x strategies, the one domain a game, its advice,
    their conditional and every Bell expression live on.  Its grids have
    axes (X_1..X_N, S_1..S_N) in label order."""

    types: tuple[Labels, ...]
    strategies: tuple[Labels, ...]

    __getattr__ = _view

    def __post_init__(self):
        if "_unchecked" in vars(self):   # from _of_grid, on checked labels
            return
        types = _label_lists(self.types, "type")
        strategies = _label_lists(self.strategies, "strategy")
        if len(types) != len(strategies):
            raise DomainMismatchError(
                f"{len(types)} type sets but {len(strategies)} strategy sets")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "strategies", strategies)

    @classmethod
    def _of_grid(cls, domain: "_Domain", grid, **given):
        """The object on the labels of ``domain``, a checked domain, whose
        grid is ``grid``: the labels are not checked again, and every
        other check of the constructor runs on ``grid`` itself, with no
        label-keyed table in between.  A game's grid is the pair (prior,
        payoffs), classical advice's (rho, response grids), and quantum
        advice's every player's bases stacked as (X_i, d_i, d_i) in type
        order; the fields in ``given`` are set as given, and every other
        is None."""
        return _of_checked(cls, grid, types=domain.types,
                           strategies=domain.strategies, **given)

    @property
    def players(self) -> int:
        return len(self.types)

    def joint_types(self) -> list[JointLabels]:
        return list(itertools.product(*self.types))

    def joint_strategies(self) -> list[JointLabels]:
        return list(itertools.product(*self.strategies))

    def _cells(self) -> list[tuple[JointLabels, JointLabels]]:
        """Every (joint type, joint strategy), in grid order."""
        return list(itertools.product(self.joint_types(),
                                      self.joint_strategies()))

    def _shape(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.types + self.strategies)

    def _check_same_domain(self, other: "_Domain", what: str) -> None:
        if self.types != other.types or self.strategies != other.strategies:
            raise DomainMismatchError(
                f"{what}: domains disagree ({self.types} x {self.strategies}"
                f" vs {other.types} x {other.strategies})")


@dataclass(frozen=True)
class BayesianGame(_Domain):
    """Prior over joint types plus per-player payoffs on the full domain."""

    prior: Mapping[JointLabels, float]
    payoffs: tuple[Mapping[tuple[JointLabels, JointLabels], float], ...]

    def __post_init__(self):
        super().__post_init__()
        n = self.players
        # set only by _of_grid: the prior, and the payoffs as (n, cells)
        mu, pay = vars(self).pop("_unchecked", (None, None))
        mu = _distribution(self.joint_types(), self.prior, "prior", mu)
        if pay is None:
            if len(self.payoffs) != n:
                raise DomainMismatchError(
                    f"{len(self.payoffs)} payoff tables for {n} players")
            cells = self._cells()
            pay = np.array([_grid(cells, raw, f"player {i} payoff table")
                            for i, raw in enumerate(self.payoffs)])
        if not np.isfinite(pay).all():
            i = np.isfinite(pay).all(axis=1).argmin()
            raise DomainMismatchError(f"player {i} has a non-finite payoff")
        _defer(self, "prior", "payoffs")
        # the prior mu(X), the payoffs P_i(X, s) stacked on axis 0, and
        # player i's Bell coefficients mu(X) P_i(X, s)
        shape = self._shape()
        mu = mu.reshape(shape[:n] + (1,) * n)
        object.__setattr__(self, "_mu", mu)
        object.__setattr__(self, "_pay", pay.reshape((n,) + shape))
        object.__setattr__(self, "_alphas", mu * self._pay)

    def _view_prior(self):
        return grid_table(self.joint_types(), self._mu)

    def _view_payoffs(self):
        cells = self._cells()
        return tuple(grid_table(cells, pay) for pay in self._pay)

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
        for w, weight in zip(omega, rho.tolist()):
            jt = tuple(str(tau[w]) for tau in type_maps)
            joint_prior[jt] = joint_prior.get(jt, 0.0) + weight
        return cls(types, strategies, joint_prior, payoffs)


def _ordered_values(tau: Mapping[str, str], omega: list[str]) -> list[str]:
    out: dict[str, None] = {}
    for w in omega:
        if w not in tau:
            raise DomainMismatchError(f"type map is undefined at state {w!r}")
        out.setdefault(str(tau[w]))
    return list(out)


@dataclass(frozen=True)
class ConditionalDistribution(_Domain):
    """A table p(s_1..s_N | X_1..X_N), one distribution per joint type."""

    table: Mapping[JointLabels, Mapping[JointLabels, float]]

    def __post_init__(self):
        super().__post_init__()
        joint_types = self.joint_types()
        joint_strategies = self.joint_strategies()
        names = [f"p(s | {jt})" for jt in joint_types]
        p = vars(self).pop("_unchecked", None)  # set only by _of_grid
        if p is None:
            p = _rows(joint_types, joint_strategies, self.table,
                      "conditional",
                      lambda jt: f"conditional is missing joint type {jt}")
        rows = distributions(p.reshape(len(names), -1), names,
                             joint_strategies)
        _defer(self, "table")
        object.__setattr__(self, "_p", rows.reshape(self._shape()))

    def _view_table(self):
        joint_strategies = self.joint_strategies()
        return {jt: grid_table(joint_strategies, row) for jt, row in zip(
            self.joint_types(), self._p.reshape(-1, len(joint_strategies)))}

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
        jt = tuple(joint_type)
        if jt not in self.table or not 0 <= player < self.players:
            raise DomainMismatchError(
                f"no entry for types {jt}, player {player}")
        out = {s: 0.0 for s in self.strategies[player]}
        for js, p in self.table[jt].items():
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
class ClassicalAdvice(_Domain):
    """A shared variable lambda ~ rho plus local response tables
    p(s_i | X_i, lambda)."""

    lambdas: Labels
    rho: Mapping[str, float]
    responses: tuple[Mapping[tuple[str, str], Mapping[str, float]], ...]

    def __post_init__(self):
        super().__post_init__()
        types, strategies = self.types, self.strategies
        # set only by _of_grid: rho, and a (type, lambda) x strategy grid
        # of responses per player
        rho, read = vars(self).pop("_unchecked", (None, None))
        lambdas = tuple(str(v) for v in self.lambdas)
        if not lambdas or len(set(lambdas)) != len(lambdas):
            raise DomainMismatchError("lambda values must be nonempty and "
                                      "distinct")
        rho = _distribution(list(lambdas), self.rho, "rho", rho)
        object.__setattr__(self, "lambdas", lambdas)

        if read is None and len(self.responses) != len(types):
            raise DomainMismatchError(
                f"{len(self.responses)} response tables for {len(types)} "
                f"players")
        grids = []
        for i, s_i in enumerate(strategies):
            keys = list(itertools.product(types[i], lambdas))
            names = [f"p(s | {x}, {lam}) of player {i}" for x, lam in keys]
            p = read[i] if read is not None else _rows(
                keys, s_i, self.responses[i], f"player {i} response table",
                lambda k: f"player {i} has no response row for type "
                          f"{k[0]!r}, lambda {k[1]!r}")
            rows = distributions(p, names, s_i)
            grids.append(rows.reshape(len(types[i]), len(lambdas), -1))
        _defer(self, "rho", "responses")
        # rho(lambda), and player i's p(s_i | X_i, lambda) with axes
        # (X_i, lambda, S_i)
        object.__setattr__(self, "_rho", rho)
        object.__setattr__(self, "_responses", tuple(grids))

    def _view_rho(self):
        return grid_table(self.lambdas, self._rho)

    def _view_responses(self):
        return tuple({k: grid_table(s_i, row) for k, row in zip(
            itertools.product(x_i, self.lambdas), grid.reshape(-1, len(s_i)))}
            for x_i, s_i, grid in zip(self.types, self.strategies,
                                      self._responses))

    @classmethod
    def deterministic(cls, types, strategies,
                      response_maps: Sequence[Mapping[str, str]]) \
            -> "ClassicalAdvice":
        """Singleton-lambda advice from per-player maps type -> strategy."""
        domain = _Domain(types, strategies)
        # a map without a type, or one map too many or too few, is left
        # for the constructor to report
        responses = tuple(
            {(x, "0"): {str(fn[x]): 1.0} for x in xs if x in fn}
            for fn, xs in itertools.zip_longest(response_maps, domain.types,
                                                fillvalue=()))
        return cls(domain.types, domain.strategies, ("0",), {"0": 1.0},
                   responses)

    @functools.cached_property
    def _conditional(self) -> ConditionalDistribution:
        return classical_conditional(self)


def classical_conditional(advice: ClassicalAdvice) -> ConditionalDistribution:
    """p(s|X) = sum_lambda rho(lambda) prod_i p(s_i | X_i, lambda) in one
    einsum over the checked response grids; a label per player (S_i X_i)
    fits numpy's 52 up to 32 players."""
    n = advice.players
    operands, sizes = [advice._rho, [n]], []
    for i, grid in enumerate(advice._responses):
        x_i, lam, s_i = grid.shape
        operands += [grid.transpose(1, 2, 0).reshape(lam, -1), [n, i]]
        sizes += s_i, x_i
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
class QuantumAdvice(_Domain):
    """A shared state plus, per player and type, a measurement basis
    whose outcome k is announced as that player's k-th strategy label."""

    shared_state: StateVector
    measurements: tuple[Mapping[str, tuple[StateVector, ...]], ...]

    def __post_init__(self):
        super().__post_init__()
        types, strategies, n = self.types, self.strategies, self.players
        # set only by _of_grid: per player, the bases of every type
        # stacked as (X_i, d_i, d_i) in type order
        stacks = vars(self).pop("_unchecked", None)
        if len(self.shared_state.dims) != n:
            raise ShapeMismatchError(
                f"shared state has {len(self.shared_state.dims)} wires for "
                f"{n} players")
        if not self.shared_state.is_normalized():
            raise NormalizationError(
                "shared state is not normalized",
                total=self.shared_state.squared_norm)
        if stacks is None and len(self.measurements) != n:
            raise DomainMismatchError(
                f"{len(self.measurements)} measurement maps for {n} "
                f"players")
        bras = []
        for i, d in enumerate(self.shared_state.dims):
            # from a grid, every type has a basis of the right shape
            per = types[i] if stacks is not None else self.measurements[i]
            check_domain(per, types[i], f"player {i} measurement table")
            if len(strategies[i]) != d:
                raise DomainMismatchError(
                    f"player {i} has {len(strategies[i])} strategies but "
                    f"a dimension-{d} wire")
            if stacks is not None:
                stack, shaped = stacks[i], [True] * len(per)
            else:
                # every basis in one stacked Gram product, a missing or
                # misshapen one standing in as the identity until its turn
                bases = [tuple(per.get(x, ())) for x in types[i]]
                shaped = [len(b) == d and all(v.dims == (d,) for v in b)
                          for b in bases]
                stack = np.array([[v.amplitudes for v in b] if ok
                                  else np.eye(d)
                                  for b, ok in zip(bases, shaped)])
            verdicts = orthonormal(stack.transpose(0, 2, 1), ALGEBRA_TOL)
            for x, ok, unitary in zip(types[i], shaped, verdicts):
                if x not in per:
                    raise DomainMismatchError(
                        f"player {i} has no measurement for type {x!r}")
                if not ok:
                    raise ShapeMismatchError(
                        f"player {i} type {x!r}: need {d} basis vectors on "
                        f"a dimension-{d} wire")
                if not unitary:
                    raise NormalizationError(
                        f"player {i} type {x!r}: basis is not orthonormal")
            bras.append(stack.transpose(1, 2, 0).conj())
        _defer(self, "measurements")
        # player i's bras <b_{X_i S_i}|, stacked as (S_i, d_i, X_i)
        object.__setattr__(self, "_bras", tuple(bras))

    def _view_measurements(self):
        return tuple({x: tuple(StateVector(v, v.shape) for v in basis.conj())
                      for x, basis in zip(x_i, bras.transpose(2, 0, 1))}
                     for x_i, bras in zip(self.types, self._bras))

    @classmethod
    def from_phases(cls, types, strategies, shared_state: StateVector,
                    phases: Sequence[Mapping[str, float]]) \
            -> "QuantumAdvice":
        """Qubit advice where player i measures type x in
        phase_basis(phases[i][x])."""
        return cls(types, strategies, shared_state, tuple(
            {str(x): phase_basis(a) for x, a in per.items()} for per in phases))

    @functools.cached_property
    def _conditional(self) -> ConditionalDistribution:
        return quantum_conditional(self)


def quantum_conditional(advice: QuantumAdvice) -> ConditionalDistribution:
    """Born rule: p(s|X) = |<b_{X_1 s_1} x ... x b_{X_N s_N} | psi>|^2, with
    player i's bras stacked as (S_i, d_i, X_i): wire i leaves (S_i, X_i)."""
    n = advice.players
    psi = advice.shared_state.amplitudes.reshape(advice.shared_state.dims)
    out = np.moveaxis(apply_on_wires(advice._bras, psi), range(1, 2 * n, 2),
                      range(n))
    return ConditionalDistribution._of_grid(advice, np.abs(out) ** 2)


def conditional_of(advice) -> ConditionalDistribution:
    """Reduce any advice (or a raw conditional) to its conditional, once
    per advice object."""
    if isinstance(advice, ConditionalDistribution):
        return advice
    if isinstance(advice, (ClassicalAdvice, QuantumAdvice)):
        return advice._conditional
    raise TypeError(f"not advice: {advice!r}")


def _bell_key(key):
    """A coefficient key as a (joint type, joint strategy) pair of
    tuples; a key that is not a pair of label sequences is kept as it is,
    for the domain check to name."""
    if isinstance(key, tuple) and len(key) == 2:
        try:
            return tuple(key[0]), tuple(key[1])
        except TypeError:
            pass
    return key


@dataclass(frozen=True)
class BellExpression(_Domain):
    """A linear functional sum alpha(s, X) p(s|X), with missing
    coefficients read as 0."""

    coefficients: Mapping[tuple[JointLabels, JointLabels], float]
    bound: float | None = None

    def __post_init__(self):
        super().__post_init__()
        alpha = vars(self).pop("_unchecked", None)  # set only by _of_grid
        if alpha is None:
            coeffs = {_bell_key(k): float(v)
                      for k, v in self.coefficients.items()}
            alpha = _grid(self._cells(), coeffs, "Bell expression", 0.0)
            object.__setattr__(self, "coefficients", coeffs)
        else:
            _defer(self, "coefficients")
        if not np.isfinite(alpha).all():
            raise DomainMismatchError("a coefficient is not finite")
        object.__setattr__(self, "_alpha", alpha.reshape(self._shape()))
        if self.bound is not None:
            object.__setattr__(self, "bound", float(self.bound))

    def _view_coefficients(self):
        return grid_table(self._cells(), self._alpha)

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
        return cls._of_grid(game, game._alphas[player])


def average_payoff(game: BayesianGame, advice) -> tuple[float, ...]:
    """F_i = sum_X mu(X) sum_s p(s|X) P_i(X, s) for every player: the Bell
    value of player i's coefficients, summed in the same order."""
    cond = conditional_of(advice)
    game._check_same_domain(cond, "average_payoff")
    return tuple(float((alpha * cond._p).sum()) for alpha in game._alphas)


def bell_value(expr: BellExpression, advice) -> float:
    """The functional sum alpha(s, X) p(s|X)."""
    cond = conditional_of(advice)
    expr._check_same_domain(cond, "bell_value")
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
                          advices: Iterable) -> list[PolytopeVerdict]:
    """Evaluate sum beta_i F_i <= beta_0, within ``EQUILIBRIUM_TOL``, at
    each advice point.

    ``inequality`` is (beta_0, beta_1, ..., beta_N).
    """
    beta0, betas = _split_inequality(game, inequality)
    out = []
    for advice in advices:
        fs = average_payoff(game, advice)
        value = sum(b * f for b, f in zip(betas, fs))
        out.append(PolytopeVerdict(fs, value,
                                   value <= beta0 + EQUILIBRIUM_TOL))
    return out


def certify_payoff_inequality(game: BayesianGame,
                              inequality: Sequence[float]) \
        -> tuple[bool, float]:
    """Decide whether every classical advice satisfies the inequality,
    within ``EQUILIBRIUM_TOL``, by maximizing sum beta_i F_i over the
    deterministic responses, at most ``DEFAULT_ENUMERATION_LIMIT``.

    Returns (certified, classical maximum of the left-hand side).
    """
    beta0, betas = _split_inequality(game, inequality)
    expr = BellExpression._of_grid(
        game, game._mu * sum(b * p for b, p in zip(betas, game._pay)))
    best = classical_bound(expr)
    return best <= beta0 + EQUILIBRIUM_TOL, best


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
    dims = check_wires(dim, n, "dims")
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
    cos(sum alpha)) / 2^n over all bit strings s, capped like
    ``ghz_state``."""
    if n < 2:
        raise DomainMismatchError(f"need at least 2 parties, got {n}")
    alphas = [float(a) for a in phases]
    if len(alphas) != n:
        raise DomainMismatchError(
            f"{len(alphas)} phases for {n} parties")
    dims = check_wires(2, n, "outcome dims")
    c = math.cos(math.fsum(alphas))
    # (-1)^parity(s) for every bit string s, in index order
    signs = (-1) ** np.indices(dims).sum(axis=0).ravel()
    weights = (1.0 + signs * c) / 2 ** n
    return dict(zip(outcome_labels(dims), weights.tolist()))


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
                           limit: int = DEFAULT_ENUMERATION_LIMIT) \
        -> EquilibriumReport:
    """Check that no player gains more than ``EQUILIBRIUM_TOL`` by
    post-processing.

    A deviation is any function from (own type, own recommendation) to
    own strategy; for quantum advice this rewrites the announced label,
    it never touches the measurement.  ``limit`` caps each player's
    number of deviation functions, |S_i|^(|X_i||S_i|), and is checked
    for every player before any work.  The deviated payoff is a sum of
    one term per (type, recommendation) pair, so a player's best
    deviation plays the first argmax for every pair and gains that
    player's exact maximum.  The report keeps the first player whose
    gain beats the running best (starting at 0) by more than
    ``EQUILIBRIUM_TOL``.
    """
    cond = conditional_of(advice)
    game._check_same_domain(cond, "is_advised_equilibrium")
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
        # own type and strategy first, the other axes in order
        axes = [i, n + i, *(k for k in range(2 * n) if k not in (i, n + i))]
        p_i, a_i = (a.transpose(axes).reshape(
            a.shape[i], a.shape[n + i], -1) for a in (cond._p, alpha))
        # g[x, r, t]: payoff at own type x, recommendation r, playing t
        g = np.einsum("xrm,xtm->xrt", p_i, a_i)
        gain = float(g.max(axis=2).sum()) - base[i]
        if gain > best_gain + EQUILIBRIUM_TOL:
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
                                b: ConditionalDistribution) -> bool:
    """True iff the two tables agree entrywise within ``EQUILIBRIUM_TOL``."""
    if a.types != b.types or a.strategies != b.strategies:
        raise ShapeMismatchError(
            f"conditionals have different shapes: {a.types} x "
            f"{a.strategies} vs {b.types} x {b.strategies}")
    return bool(np.all(np.abs(a._p - b._p) <= EQUILIBRIUM_TOL))


BITS = ("0", "1")


def chsh_game() -> BayesianGame:
    """The common-interest CHSH game: uniform prior on joint types,
    both players paid 1 when s_1 xor s_2 = X_1 and X_2."""
    x1, x2, s1, s2 = np.indices((2,) * 4).reshape(4, -1)
    win = ((s1 ^ s2) == (x1 & x2)).astype(float)
    return BayesianGame._of_grid(_Domain((BITS, BITS), (BITS, BITS)),
                                 (np.full(4, 0.25), np.array([win, win])))


def chsh_expression() -> BellExpression:
    """Player 0's payoff expression; the game is common-interest, so
    every player's is the same."""
    return BellExpression.from_payoff(chsh_game(), 0)


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
    # with X as type 0 and Y as 1, the settings are the joint types with
    # an even number of Ys
    prior = np.where(np.indices((2,) * 3).sum(axis=0).ravel() % 2, 0.0, 0.25)
    x, s = np.indices((2,) * 6).reshape(2, 3, -1)
    pay = np.where(x.any(axis=0), -1.0, 1.0) * (-1.0) ** s.sum(axis=0)
    return BayesianGame._of_grid(_Domain((("X", "Y"),) * 3, (BITS,) * 3),
                                 (prior, np.array([pay] * 3)))


def mermin_expression() -> BellExpression:
    """Player 0's payoff expression; the game is common-interest, so
    every player's is the same."""
    return BellExpression.from_payoff(mermin_game(), 0)


def mermin_quantum_advice() -> QuantumAdvice:
    """GHZ^3 advice measuring X as phase 0 and Y as phase pi/2."""
    phases = ({"X": 0.0, "Y": math.pi / 2},) * 3
    return QuantumAdvice.from_phases(
        (("X", "Y"),) * 3, (BITS,) * 3, ghz_state(3), phases)
