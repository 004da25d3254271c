"""EWL quantization of strategic-form games.

A quantum game runs the circuit sigma = U_dagger (s_1 x ... x s_N) U |init>
where U is the entangler and each player picks the local unitary s_i from
a finite named set.  Payoffs weight the Born distribution of sigma by
per-player outcome coefficients, so restricting every player to basis
permutations recovers an ordinary strategic-form game.

Payoff tables are dense float arrays indexed (k_0, ..., k_{N-1}, player)
by label position: one contraction runs the shared state through each
player's stack of gates.  ``StrategicFormGame`` builds that array once, in
its constructor, and Nash and Pareto scans and ``quantize`` read it; the
scans read a spec's array as it comes out of the contraction.
Label strings appear only where a table becomes a dict in product order
of the label lists, which is also the order ``StrategicFormGame`` keeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DomainMismatchError,
    EmbeddingError,
    NormalizationError,
    ShapeMismatchError,
    UnitarityError,
    UnsupportedDimensionError,
)
from .linalg import (
    BUILTIN_GATES,
    PROB_TOL,
    LinearMap,
    StateVector,
    apply_on_wires,
    born_probabilities,
    check_dims,
    from_matrix,
    ket,
    outcome_labels,
    table_grid,
)

NASH_TOL = 1e-9

Profile = tuple[str, ...]
PayoffTable = dict[Profile, tuple[float, ...]]


@dataclass(frozen=True)
class StrategicFormGame:
    """A finite normal-form game: labels per player, payoffs per profile."""

    strategy_labels: tuple[tuple[str, ...], ...]
    payoffs: Mapping[Profile, tuple[float, ...]]

    def __post_init__(self):
        labels = tuple(tuple(per) for per in self.strategy_labels)
        object.__setattr__(self, "strategy_labels", labels)
        if not labels or any(not per for per in labels):
            raise DomainMismatchError("every player needs at least one "
                                      "strategy label")
        for i, per in enumerate(labels):
            if len(set(per)) != len(per):
                raise DomainMismatchError(
                    f"player {i} has duplicate strategy labels: {per}")
        n = len(labels)
        profiles = list(itertools.product(*labels))
        # the keys are checked on the row widths, which must all be n
        widths = table_grid(profiles, dict(zip(
            self.payoffs, map(len, self.payoffs.values()))), "payoff table")
        off = np.flatnonzero(widths != n)
        if off.size:
            raise DomainMismatchError(
                f"profile {profiles[off[0]]} has {int(widths[off[0]])} "
                f"payoffs for {n} players")
        pay = np.fromiter(map(float, itertools.chain.from_iterable(map(
            self.payoffs.__getitem__, profiles))), float, len(profiles) * n)
        object.__setattr__(self, "payoffs", dict(zip(
            profiles, map(tuple, pay.reshape(-1, n).tolist()))))
        # the payoffs as (k_0..k_{N-1}, player), in product order
        object.__setattr__(self, "_pay", pay.reshape(
            tuple(map(len, labels)) + (n,)))

    @property
    def players(self) -> int:
        return len(self.strategy_labels)

    def profiles(self) -> list[Profile]:
        return list(itertools.product(*self.strategy_labels))

    def payoff(self, profile: Profile) -> tuple[float, ...]:
        try:
            return self.payoffs[tuple(profile)]
        except KeyError:
            raise DomainMismatchError(
                f"unknown profile {tuple(profile)}") from None


@dataclass(frozen=True)
class QuantumGameSpec:
    """An EWL game: entangler, named unitary strategies, outcome payoffs.

    ``entangled_state`` optionally replaces ``entangler @ |initial_ket>``
    as the shared state the strategies act on (it must be normalized; the
    un-entangling side still applies the entangler's adjoint).
    """

    players: int
    strategies: tuple[Mapping[str, LinearMap], ...]
    payoff_coeffs: tuple[Mapping[str, float], ...]
    entangler: LinearMap
    dim: int = 2
    initial_ket: str = ""
    entangled_state: StateVector | None = None

    def __post_init__(self):
        n = int(self.players)
        if n < 1:
            raise DomainMismatchError("a game needs at least one player")
        d = int(self.dim)
        if d < 2:
            raise UnsupportedDimensionError(f"qudit dimension {d} < 2")
        object.__setattr__(self, "players", n)
        object.__setattr__(self, "dim", d)

        sets = tuple(dict(per) for per in self.strategies)
        if len(sets) != n:
            raise DomainMismatchError(
                f"{len(sets)} strategy sets for {n} players")
        for i, per in enumerate(sets):
            if not per:
                raise DomainMismatchError(f"player {i} has no strategies")
            for name, gate in per.items():
                if gate.in_dims != (d,) or gate.out_dims != (d,):
                    raise ShapeMismatchError(
                        f"strategy {name!r} of player {i} is not a single "
                        f"dimension-{d} wire: {gate.in_dims} -> "
                        f"{gate.out_dims}")
                if not gate.is_unitary(NASH_TOL):
                    raise UnitarityError(
                        f"strategy {name!r} of player {i} is not unitary")
        object.__setattr__(self, "strategies", sets)

        wire_dims = (d,) * n
        if self.entangler.in_dims != wire_dims or \
                self.entangler.out_dims != wire_dims:
            raise ShapeMismatchError(
                f"entangler acts on {self.entangler.in_dims}, expected "
                f"{wire_dims}")
        if not self.entangler.is_unitary(NASH_TOL):
            raise UnitarityError("entangler is not unitary")

        labels = outcome_labels(wire_dims)
        # keyed by outcome string, in the order given
        tables = tuple(dict(zip(map(str, per), map(float, per.values())))
                       for per in self.payoff_coeffs)
        if len(tables) != n:
            raise DomainMismatchError(
                f"{len(tables)} payoff tables for {n} players")
        # outcome coefficients as an (N, d^N) array in basis-index order
        object.__setattr__(self, "_coeffs", np.array(
            [table_grid(labels, per, f"player {i} payoff coefficient table")
             for i, per in enumerate(tables)]))
        object.__setattr__(self, "payoff_coeffs", tables)

        init = self.initial_ket or "0" * n
        if len(init) != n or not init.isdigit() or \
                any(int(c) >= d for c in init):
            raise DomainMismatchError(
                f"initial ket {init!r} is not a length-{n} base-{d} string")
        object.__setattr__(self, "initial_ket", init)

        if self.entangled_state is not None:
            if self.entangled_state.dims != wire_dims:
                raise ShapeMismatchError(
                    f"entangled state on {self.entangled_state.dims}, "
                    f"expected {wire_dims}")
            if not self.entangled_state.is_normalized(PROB_TOL):
                raise NormalizationError(
                    "entangled state is not normalized",
                    total=self.entangled_state.squared_norm)

    @property
    def strategy_labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(per) for per in self.strategies)

    def strategy(self, player: int, label: str) -> LinearMap:
        per = self.strategies[player]
        if label not in per:
            raise DomainMismatchError(
                f"player {player} has no strategy {label!r}; "
                f"available: {sorted(per)}")
        return per[label]

    def shared_state(self) -> StateVector:
        """The state the strategies act on: MEIS or entangler @ |init>."""
        if self.entangled_state is not None:
            return self.entangled_state
        return self.entangler.apply(ket(self.initial_ket, self.dim))


@dataclass(frozen=True)
class ProfileResult:
    """Everything one profile produces: state, distribution, payoffs."""

    profile: Profile
    final_state: StateVector
    outcome_distribution: dict[str, float]
    payoffs: tuple[float, ...]


def ewl_entangler(n_players: int, dim: int = 2) -> LinearMap:
    """The entangler (1/sqrt 2)(I^xN + i X^xN) on N qubit wires."""
    if dim != 2:
        raise UnsupportedDimensionError(
            f"the sigma_x entangler is defined for qubits only, not "
            f"dimension {dim}")
    if n_players < 2:
        raise DomainMismatchError("the entangler couples at least 2 players")
    dims = check_dims((2,) * n_players, "entangler dims")
    size = 2 ** n_players
    arr = np.identity(size, dtype=complex)
    arr += 1j * np.flip(np.identity(size, dtype=complex), axis=1)
    arr /= math.sqrt(2)
    return LinearMap(arr, dims, dims)


def _profile_maps(spec: QuantumGameSpec,
                  profile: Iterable[str]) -> list[LinearMap]:
    labels = tuple(profile)
    if len(labels) != spec.players:
        raise DomainMismatchError(
            f"profile {labels} has {len(labels)} entries for "
            f"{spec.players} players")
    return [spec.strategy(i, lab) for i, lab in enumerate(labels)]


def _final_states(spec: QuantumGameSpec, stacks):
    """sigma for every profile of the gate stacks, one block per k_0.

    ``stacks[i]`` holds player i's k_i gates, shape (k_i, d, d).  The
    shared state runs through the stacks of players 1..N-1 once; then
    each gate of player 0 gives one block, after the entangler's adjoint,
    whose rows are the k_1 * ... * k_{N-1} final states in product order.
    No block grows with k_0.
    """
    d, n = spec.dim, spec.players
    shared = spec.shared_state().amplitudes.reshape((d,) * n)
    # Wire 0 moves last, so the result has axes
    # (w_0, w_1, k_1, ..., w_{N-1}, k_{N-1}).
    rest = apply_on_wires([stack.transpose(1, 2, 0) for stack in stacks[1:]],
                          np.moveaxis(shared, 0, -1))
    order = [*range(2, 2 * n - 1, 2), 0, *range(1, 2 * n - 2, 2)]
    flat = rest.reshape(d, -1)
    unentangle = spec.entangler.array.conj()  # sigma^T = v^T (U^dag)^T
    for gate in stacks[0]:
        moved = (gate @ flat).reshape(rest.shape).transpose(order)
        yield moved.reshape(-1, d ** n) @ unentangle


def _weigh(finals: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Payoff rows of final states given as rows, Born rule checked.

    Every state must be normalized within PROB_TOL, as in
    ``born_probabilities``, which raises the same error.
    """
    probs = np.abs(finals) ** 2
    totals = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(totals - 1.0) > PROB_TOL)
    if bad.size:
        total = float(totals[bad[0]])
        raise NormalizationError(
            f"state is not normalized: sum |a_k|^2 = {total!r}", total)
    return probs @ coeffs.T


def _payoff_array(spec: QuantumGameSpec, labels) -> np.ndarray:
    """Payoffs of every profile over ``labels``: (k_0..k_{N-1}, player)."""
    stacks = [np.array([spec.strategy(i, lab).array for lab in per])
              for i, per in enumerate(labels)]
    out = np.empty((len(stacks[0]), math.prod(map(len, stacks[1:])),
                    spec.players))
    for block, finals in zip(out, _final_states(spec, stacks)):
        block[:] = _weigh(finals, spec._coeffs)
    return out.reshape(tuple(map(len, stacks)) + (spec.players,))


def final_state(spec: QuantumGameSpec, profile: Iterable[str]) -> StateVector:
    """sigma = entangler_dagger (s_1 x ... x s_N) (shared state)."""
    stacks = [gate.array[None] for gate in _profile_maps(spec, profile)]
    (sigma,) = next(_final_states(spec, stacks))
    return StateVector(sigma, (spec.dim,) * spec.players)


def play(spec: QuantumGameSpec, profile: Iterable[str]) -> ProfileResult:
    labels = tuple(profile)
    sigma = final_state(spec, labels)
    dist = born_probabilities(sigma, tol=PROB_TOL)
    (pay,) = _weigh(sigma.amplitudes[None], spec._coeffs)
    return ProfileResult(labels, sigma, dist, tuple(pay.tolist()))


def payoffs(spec: QuantumGameSpec, profile: Iterable[str]) -> tuple[float, ...]:
    return play(spec, profile).payoffs


def payoff_table(spec: QuantumGameSpec) -> PayoffTable:
    """Payoffs for every profile, in product order of the label lists."""
    labels = spec.strategy_labels
    rows = _payoff_array(spec, labels).reshape(-1, spec.players).tolist()
    return dict(zip(itertools.product(*labels), map(tuple, rows)))


def to_strategic_form(spec: QuantumGameSpec) -> StrategicFormGame:
    return StrategicFormGame(spec.strategy_labels, payoff_table(spec))


def _as_game(game) -> StrategicFormGame:
    if isinstance(game, StrategicFormGame):
        return game
    if isinstance(game, Mapping):
        labels = _labels_from_table(game)
        return StrategicFormGame(labels, game)
    raise TypeError(f"expected a game, spec, or payoff table: {game!r}")


def _scanned(game) -> tuple[list[Profile], np.ndarray]:
    """Profiles in product order, and payoffs as (k_0..k_{N-1}, player).

    A spec's payoffs come straight from ``_payoff_array``, with no
    label-keyed table in between: the spec's own checks already
    guarantee everything ``StrategicFormGame`` would check.
    """
    if isinstance(game, QuantumGameSpec):
        labels = game.strategy_labels
        return list(itertools.product(*labels)), _payoff_array(game, labels)
    g = _as_game(game)
    return list(g.payoffs), g._pay


def _labels_from_table(table: Mapping[Profile, Sequence[float]]) \
        -> tuple[tuple[str, ...], ...]:
    profiles = list(table)
    if not profiles:
        raise DomainMismatchError("empty payoff table")
    n = len(profiles[0])
    labels: list[dict[str, None]] = [{} for _ in range(n)]
    for profile in profiles:
        for i, lab in enumerate(profile):
            labels[i].setdefault(lab)
    return tuple(tuple(per) for per in labels)


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise DomainMismatchError(
            f"tolerance must be finite and non-negative, got {tol}")


def pure_nash(game, tol: float = NASH_TOL) -> list[Profile]:
    """Profiles with no strictly improving unilateral deviation.

    Accepts a StrategicFormGame, a QuantumGameSpec, or a payoff table.
    A deviation counts only if it gains more than ``tol``, which must be
    finite and non-negative.  Each player's best response is a maximum
    along that player's axis (NaN payoffs never count as a gain).
    """
    _check_tol(tol)
    profiles, pay = _scanned(game)
    stable = np.ones(pay.shape[:-1], dtype=bool)
    for i in range(pay.shape[-1]):
        mine = pay[..., i]
        best = np.fmax.reduce(mine, axis=i, keepdims=True)
        stable &= ~(best > mine + tol)
    return [profiles[k] for k in np.flatnonzero(stable)]


# Dominance comparisons run in row blocks of about this many bytes.
_BLOCK_BYTES = 1 << 20
# Rows of highest payoff sum that every row is first compared against.
_FIRST_PASS = 64


def _dominated(rows: np.ndarray, others: np.ndarray, tol: float) \
        -> np.ndarray:
    """For each of ``rows``, whether some row of ``others`` dominates it."""
    out = np.zeros(len(rows), dtype=bool)
    step = max(1, _BLOCK_BYTES // len(others))
    for start in range(0, len(rows), step):
        mine = rows[start:start + step]
        weak = np.ones((len(mine), len(others)), dtype=bool)
        strict = np.zeros_like(weak)
        for theirs, own in zip(others.T, mine.T):
            weak &= theirs >= own[:, None] - tol
            strict |= theirs > own[:, None] + tol
        out[start:start + step] = (weak & strict).any(axis=1)
    return out


def pareto_optimal(game, tol: float = NASH_TOL) -> list[Profile]:
    """Profiles whose payoff vector no other profile dominates.

    Domination: weakly better for everyone (within ``tol``), strictly
    better (by more than ``tol``) for someone; ``tol`` must be finite
    and non-negative.  Profiles come in product order.
    """
    _check_tol(tol)
    profiles, pay = _scanned(game)
    rows = pay.reshape(-1, pay.shape[-1])
    # Rows with the highest sums dominate most others, so a pass against
    # them leaves few rows for the exact scan against every row.
    top = np.argsort(-rows.sum(axis=1), kind="stable")[:_FIRST_PASS]
    alive = np.flatnonzero(~_dominated(rows, rows[top], tol))
    alive = alive[~_dominated(rows[alive], rows, tol)]
    return [profiles[k] for k in alive]


def _per_player(value, players: int, what: str) -> list[dict]:
    """Broadcast a shared mapping to every player, or validate a list."""
    if isinstance(value, Mapping):
        return [dict(value) for _ in range(players)]
    per = [dict(v) for v in value]
    if len(per) != players:
        raise DomainMismatchError(
            f"{len(per)} {what} mappings for {players} players")
    return per


def _permutation_digit(gate: LinearMap, label: str, tol: float) -> int:
    """For a 0/1 permutation matrix, the digit it sends |0> to."""
    arr = gate.array
    near_one = np.abs(arr - 1.0) <= tol
    near_zero = np.abs(arr) <= tol
    if not np.all(near_one | near_zero) or \
            not np.all(near_one.sum(axis=0) == 1) or \
            not np.all(near_one.sum(axis=1) == 1):
        raise EmbeddingError(
            f"embedded strategy {label!r} is not a basis permutation "
            f"(entries must be 0 or 1)")
    return int(np.argmax(near_one[:, 0]))


def quantize(classical: StrategicFormGame, embedding,
             entangler: LinearMap | None = None,
             extra_strategies=None, dim: int = 2,
             tol: float = NASH_TOL) -> QuantumGameSpec:
    """Embed a classical game into an EWL quantum game.

    ``embedding`` maps classical labels to basis-permutation unitaries,
    either one mapping shared by all players or one per player.  Payoff
    coefficients are induced through the permutations, so the quantum
    table restricted to the embedded labels reproduces the classical
    table; this is checked and a failure (e.g. an entangler that does
    not commute with the permutations) raises EmbeddingError.

    ``extra_strategies`` optionally adds named unitaries beyond the
    embedded ones, again shared or per player.
    """
    n = classical.players
    embeddings = _per_player(embedding, n, "embedding")
    extras = _per_player(extra_strategies or {}, n, "extra strategy")

    digit_to_label: list[dict[int, str]] = []
    for i, (labels, emb) in enumerate(zip(classical.strategy_labels,
                                          embeddings)):
        missing = [lab for lab in labels if lab not in emb]
        if missing:
            raise EmbeddingError(
                f"player {i} embedding lacks labels {missing}")
        if len(labels) != dim:
            raise EmbeddingError(
                f"player {i} has {len(labels)} labels; need exactly {dim} "
                f"to key dimension-{dim} outcomes")
        seen: dict[int, str] = {}
        for lab in labels:
            digit = _permutation_digit(emb[lab], lab, tol)
            if digit in seen:
                raise EmbeddingError(
                    f"player {i} labels {seen[digit]!r} and {lab!r} both "
                    f"map |0> to |{digit}>")
            seen[digit] = lab
        digit_to_label.append(seen)

    coeffs = []
    for i in range(n):
        per: dict[str, float] = {}
        for outcome in outcome_labels((dim,) * n):
            profile = tuple(digit_to_label[j][int(c)]
                            for j, c in enumerate(outcome))
            per[outcome] = classical.payoffs[profile][i]
        coeffs.append(per)

    strategy_sets = []
    for i, labels in enumerate(classical.strategy_labels):
        per = {lab: embeddings[i][lab] for lab in labels}
        for name, gate in extras[i].items():
            if name in per:
                raise DomainMismatchError(
                    f"extra strategy {name!r} collides with an embedded "
                    f"label of player {i}")
            per[name] = gate
        strategy_sets.append(per)

    spec = QuantumGameSpec(
        players=n,
        strategies=tuple(strategy_sets),
        payoff_coeffs=tuple(coeffs),
        entangler=entangler if entangler is not None
        else ewl_entangler(n, dim),
        dim=dim,
    )

    got = _payoff_array(spec, classical.strategy_labels).reshape(-1, n)
    want = classical._pay.reshape(-1, n)
    off = np.flatnonzero((np.abs(got - want) > tol).any(axis=1))
    if off.size:
        profile = classical.profiles()[off[0]]
        raise EmbeddingError(
            f"embedded profile {profile} yields {tuple(got[off[0]].tolist())}"
            f", classical table says {classical.payoffs[profile]}; the "
            f"entangler does not commute with the embedding")
    return spec


def ewl_strategy(theta: float, phi: float) -> LinearMap:
    """One member of the two-parameter EWL strategy family."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return from_matrix([
        [np.exp(1j * phi) * c, s],
        [-s, np.exp(-1j * phi) * c],
    ])


def ewl_strategy_grid(n_theta: int, n_phi: int) -> dict[str, LinearMap]:
    """A named grid over the EWL family, theta in [0,pi], phi in [0,pi/2].

    Endpoints included; names record the parameters to three decimals.
    """
    if n_theta < 1 or n_phi < 1:
        raise DomainMismatchError("grid needs at least one point per axis")
    thetas = [math.pi * k / max(n_theta - 1, 1) for k in range(n_theta)]
    phis = [math.pi / 2 * k / max(n_phi - 1, 1) for k in range(n_phi)]
    return {
        f"U({theta:.3f},{phi:.3f})": ewl_strategy(theta, phi)
        for theta in thetas for phi in phis
    }


PD_PAYOFFS: PayoffTable = {
    ("C", "C"): (3.0, 3.0),
    ("C", "D"): (0.0, 5.0),
    ("D", "C"): (5.0, 0.0),
    ("D", "D"): (1.0, 1.0),
}


def prisoners_dilemma() -> StrategicFormGame:
    """The classical Prisoners' Dilemma with payoffs 3/0/5/1."""
    return StrategicFormGame((("C", "D"), ("C", "D")), PD_PAYOFFS)


def pd_quantum(strategy_names: Sequence[str] = ("I", "X", "H"),
               entangler: LinearMap | None = None) -> QuantumGameSpec:
    """The EWL Prisoners' Dilemma over named builtin gates.

    ``strategy_names`` must include "I" and "X" (the embedded classical
    moves C and D); further names come from the builtin gate table.
    """
    names = tuple(strategy_names)
    for required in ("I", "X"):
        if required not in names:
            raise DomainMismatchError(
                f"strategy set {names} must contain {required!r}")
    gates = {}
    for name in names:
        if name not in BUILTIN_GATES:
            raise DomainMismatchError(
                f"unknown builtin gate {name!r}; known: "
                f"{sorted(BUILTIN_GATES)}")
        gates[name] = BUILTIN_GATES[name]
    coeffs_a = {"00": 3.0, "01": 0.0, "10": 5.0, "11": 1.0}
    coeffs_b = {"00": 3.0, "01": 5.0, "10": 0.0, "11": 1.0}
    return QuantumGameSpec(
        players=2,
        strategies=(gates, dict(gates)),
        payoff_coeffs=(coeffs_a, coeffs_b),
        entangler=entangler if entangler is not None else ewl_entangler(2),
    )
