"""EWL quantization of strategic-form games.

A quantum game runs the circuit sigma = U_dagger (s_1 x ... x s_N) U |init>
where U is the entangler and each player picks the local unitary s_i from
a finite named set.  Payoffs weight the Born distribution of sigma by
per-player outcome coefficients, so restricting every player to basis
permutations recovers an ordinary strategic-form game.
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
    from_matrix,
    ket,
    outcome_labels,
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
        n = len(labels)
        table: PayoffTable = {}
        for profile in itertools.product(*labels):
            try:
                row = self.payoffs[profile]
            except KeyError:
                raise DomainMismatchError(
                    f"payoff table is missing profile {profile}") from None
            row = tuple(float(v) for v in row)
            if len(row) != n:
                raise DomainMismatchError(
                    f"profile {profile} has {len(row)} payoffs for {n} "
                    f"players")
            table[profile] = row
        if len(self.payoffs) != len(table):
            extra = set(self.payoffs) - set(table)
            raise DomainMismatchError(
                f"payoff table has entries outside the strategy sets: "
                f"{sorted(extra)}")
        object.__setattr__(self, "payoffs", table)

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
        coeffs = []
        for i, per in enumerate(self.payoff_coeffs):
            per = {str(k): float(v) for k, v in per.items()}
            missing = [k for k in labels if k not in per]
            extra = sorted(set(per) - set(labels))
            if missing or extra:
                raise DomainMismatchError(
                    f"player {i} payoff coefficients must be keyed by the "
                    f"{len(labels)} outcome strings; missing {missing[:4]}, "
                    f"unexpected {extra[:4]}")
            coeffs.append(per)
        if len(coeffs) != n:
            raise DomainMismatchError(
                f"{len(coeffs)} payoff tables for {n} players")
        object.__setattr__(self, "payoff_coeffs", tuple(coeffs))

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
    size = 2 ** n_players
    arr = np.identity(size, dtype=complex)
    arr += 1j * np.flip(np.identity(size, dtype=complex), axis=1)
    arr /= math.sqrt(2)
    dims = (2,) * n_players
    return LinearMap(arr, dims, dims)


def _profile_maps(spec: QuantumGameSpec,
                  profile: Iterable[str]) -> list[LinearMap]:
    labels = tuple(profile)
    if len(labels) != spec.players:
        raise DomainMismatchError(
            f"profile {labels} has {len(labels)} entries for "
            f"{spec.players} players")
    return [spec.strategy(i, lab) for i, lab in enumerate(labels)]


def final_state(spec: QuantumGameSpec, profile: Iterable[str]) -> StateVector:
    """sigma = entangler_dagger (s_1 x ... x s_N) (shared state)."""
    gates = [gate.array for gate in _profile_maps(spec, profile)]
    shared = spec.shared_state()
    moved = apply_on_wires(gates, shared.amplitudes.reshape(shared.dims))
    return StateVector(spec.entangler.array.conj().T @ moved.reshape(-1),
                       shared.dims)


def play(spec: QuantumGameSpec, profile: Iterable[str]) -> ProfileResult:
    labels = tuple(profile)
    sigma = final_state(spec, labels)
    dist = born_probabilities(sigma, tol=PROB_TOL)
    pay = tuple(
        float(sum(coeffs[s] * p for s, p in dist.items()))
        for coeffs in spec.payoff_coeffs)
    return ProfileResult(labels, sigma, dist, pay)


def payoffs(spec: QuantumGameSpec, profile: Iterable[str]) -> tuple[float, ...]:
    return play(spec, profile).payoffs


def payoff_table(spec: QuantumGameSpec) -> PayoffTable:
    """Payoffs for every profile, in product order of the label lists."""
    return {profile: payoffs(spec, profile)
            for profile in itertools.product(*spec.strategy_labels)}


def to_strategic_form(spec: QuantumGameSpec) -> StrategicFormGame:
    return StrategicFormGame(spec.strategy_labels, payoff_table(spec))


def _as_game(game) -> StrategicFormGame:
    if isinstance(game, StrategicFormGame):
        return game
    if isinstance(game, QuantumGameSpec):
        return to_strategic_form(game)
    if isinstance(game, Mapping):
        labels = _labels_from_table(game)
        return StrategicFormGame(labels, game)
    raise TypeError(f"expected a game, spec, or payoff table: {game!r}")


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


def pure_nash(game, tol: float = NASH_TOL) -> list[Profile]:
    """Profiles with no strictly improving unilateral deviation.

    Accepts a StrategicFormGame, a QuantumGameSpec, or a payoff table.
    A deviation counts only if it gains more than ``tol``.
    """
    g = _as_game(game)
    out = []
    for profile in g.profiles():
        mine = g.payoffs[profile]
        if not any(
            g.payoffs[profile[:i] + (alt,) + profile[i + 1:]][i]
            > mine[i] + tol
            for i in range(g.players)
            for alt in g.strategy_labels[i]
            if alt != profile[i]
        ):
            out.append(profile)
    return out


def pareto_optimal(game, tol: float = NASH_TOL) -> list[Profile]:
    """Profiles whose payoff vector no other profile dominates.

    Domination: weakly better for everyone (within ``tol``), strictly
    better (by more than ``tol``) for someone.
    """
    g = _as_game(game)
    rows = [(profile, g.payoffs[profile]) for profile in g.profiles()]
    out = []
    for profile, mine in rows:
        dominated = any(
            all(other[i] >= mine[i] - tol for i in range(g.players))
            and any(other[i] > mine[i] + tol for i in range(g.players))
            for _, other in rows)
        if not dominated:
            out.append(profile)
    return out


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

    for profile in classical.profiles():
        got = payoffs(spec, profile)
        want = classical.payoffs[profile]
        if any(abs(a - b) > tol for a, b in zip(got, want)):
            raise EmbeddingError(
                f"embedded profile {profile} yields {got}, classical "
                f"table says {want}; the entangler does not commute "
                f"with the embedding")
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
