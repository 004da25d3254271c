"""EWL quantization of strategic-form games.

A quantum game runs the circuit sigma = U_dagger (s_1 x ... x s_N) U |init>
where U is the entangler and each player picks the local unitary s_i from
a finite named set.  Payoffs weight the Born distribution of sigma by
per-player outcome coefficients, so restricting every player to basis
permutations recovers an ordinary strategic-form game.

Payoff tables are dense float arrays indexed (k_0, ..., k_{N-1}, player)
by label position: one contraction runs the shared state through each
player's stack of gates, and ``linalg.born_weights`` turns each chunk of
final states into checked Born weights.  ``StrategicFormGame`` builds
that array once, in its constructor, and keeps it as its state; Nash
and Pareto scans and ``quantize`` read it.  ``to_strategic_form`` hands
a spec's array to the game through ``linalg._of_checked``, the one
bypass of a constructor's checks, so a spec's table never becomes a
label-keyed dict that is parsed back, and ``payoff_table`` is that
game's payoffs.  Label strings appear only where a table becomes a dict
in product order of the label lists, which is also the order
``StrategicFormGame`` keeps: its ``payoffs`` field is a view of the
array, built when first read (``linalg._view``).

``pareto_optimal`` picks its exact dominance test by the player count it
reads from the table: two players take a sort and sweep in O(n log n)
over the n profiles (Kung, Luccio & Preparata, J. ACM 22, 1975), three
or more a quadratic scan in row blocks.  The sweep makes the block
scan's float comparisons, ``q_k > r_k + tol`` and ``q_k >= r_k - tol``,
so both give the same list; a profile with a NaN payoff neither
dominates nor is dominated in either.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

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
    LinearMap,
    StateVector,
    _defer,
    _of_checked,
    _view,
    apply_on_wires,
    ascii_digits,
    born_weights,
    check_wires,
    from_matrix,
    ket,
    orthonormal,
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

    __getattr__ = _view

    def __post_init__(self):
        labels = tuple(tuple(per) for per in self.strategy_labels)
        object.__setattr__(self, "strategy_labels", labels)
        n = len(labels)
        # set only by to_strategic_form: a spec's payoff array, on labels
        # the spec has checked
        pay = vars(self).pop("_unchecked", None)
        if pay is None:
            if not labels or any(not per for per in labels):
                raise DomainMismatchError("every player needs at least one "
                                          "strategy label")
            for i, per in enumerate(labels):
                if len(set(per)) != len(per):
                    raise DomainMismatchError(
                        f"player {i} has duplicate strategy labels: {per}")
            # the keys are checked on the row widths, which must all be n
            profiles = self.profiles()
            widths = table_grid(profiles, dict(zip(self.payoffs, map(
                len, self.payoffs.values()))), "payoff table")
            off = np.flatnonzero(widths != n)
            if off.size:
                raise DomainMismatchError(
                    f"profile {profiles[off[0]]} has {int(widths[off[0]])} "
                    f"payoffs for {n} players")
            pay = np.fromiter(map(float, itertools.chain.from_iterable(map(
                self.payoffs.__getitem__, profiles))), float,
                len(profiles) * n)
        _defer(self, "payoffs")
        # the payoffs as (k_0..k_{N-1}, player), in product order
        object.__setattr__(self, "_pay", pay.reshape(
            tuple(map(len, labels)) + (n,)))

    def _view_payoffs(self):
        return dict(zip(self.profiles(), map(
            tuple, self._pay.reshape(-1, self.players).tolist())))

    @property
    def players(self) -> int:
        return len(self.strategy_labels)

    def profiles(self) -> list[Profile]:
        return list(itertools.product(*self.strategy_labels))


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
            # every gate in one stacked Gram product, one not on a single
            # dimension-d wire standing in as the identity until its turn
            unitary = iter(orthonormal(np.array([
                g.array if g.in_dims == g.out_dims == (d,) else np.eye(d)
                for g in per.values()]), NASH_TOL))
            for name, gate in per.items():
                if gate.in_dims != (d,) or gate.out_dims != (d,):
                    raise ShapeMismatchError(
                        f"strategy {name!r} of player {i} is not a single "
                        f"dimension-{d} wire: {gate.in_dims} -> "
                        f"{gate.out_dims}")
                if not next(unitary):
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
        if not ascii_digits(init) or len(init) != n or \
                any(int(c) >= d for c in init):
            raise DomainMismatchError(
                f"initial ket {init!r} is not a length-{n} base-{d} string")
        object.__setattr__(self, "initial_ket", init)

        if self.entangled_state is not None:
            if self.entangled_state.dims != wire_dims:
                raise ShapeMismatchError(
                    f"entangled state on {self.entangled_state.dims}, "
                    f"expected {wire_dims}")
            if not self.entangled_state.is_normalized():
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
    dims = check_wires(2, n_players, "entangler dims")
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


# About this many bytes of final states per chunk of player 0's gates.
_CHUNK_BYTES = 1 << 15


def _final_chunks(spec: QuantumGameSpec, stacks):
    """sigma for every profile of the gate stacks, in chunks of player 0's
    gates.

    ``stacks[i]`` holds player i's k_i gates, shape (k_i, d, d).  The
    shared state runs through the stacks of players 1..N-1 once; then
    each chunk of player 0's gates, after the entangler's adjoint, is one
    (g, k_1 * ... * k_{N-1}, d^N) array whose rows are the final states
    in product order.  A chunk holds about ``_CHUNK_BYTES`` of final
    states (one gate at least), so no chunk grows with k_0.  Every
    product is a stacked matmul whose matrices have the shapes of the
    one-gate case, so each profile's state is the same bit for bit.
    """
    d, n = spec.dim, spec.players
    shared = spec.shared_state().amplitudes.reshape((d,) * n)
    # Wire 0 moves last, so the result has axes
    # (w_0, w_1, k_1, ..., w_{N-1}, k_{N-1}).
    rest = apply_on_wires([stack.transpose(1, 2, 0) for stack in stacks[1:]],
                          np.moveaxis(shared, 0, -1))
    # behind the chunk's gate axis: (k_1, ..., k_{N-1}, w_0, ..., w_{N-1})
    order = [0, *range(3, 2 * n, 2), 1, *range(2, 2 * n - 1, 2)]
    flat = rest.reshape(d, -1)
    unentangle = spec.entangler.array.conj()  # sigma^T = v^T (U^dag)^T
    step = max(1, _CHUNK_BYTES // rest.nbytes)
    for start in range(0, len(stacks[0]), step):
        gates = stacks[0][start:start + step]
        moved = (gates @ flat).reshape(-1, *rest.shape).transpose(order)
        yield moved.reshape(len(gates), -1, d ** n) @ unentangle


def _final_states(spec: QuantumGameSpec, stacks):
    """sigma for every profile, one (k_1 * ... * k_{N-1}, d^N) block per
    gate of player 0, read off the chunks of ``_final_chunks``."""
    for chunk in _final_chunks(spec, stacks):
        yield from chunk


def _payoff_array(spec: QuantumGameSpec, labels) -> np.ndarray:
    """Payoffs of every profile over ``labels``: (k_0..k_{N-1}, player)."""
    stacks = [np.array([spec.strategy(i, lab).array for lab in per])
              for i, per in enumerate(labels)]
    out = np.empty((len(stacks[0]), math.prod(map(len, stacks[1:])),
                    spec.players))
    done = 0
    for chunk in _final_chunks(spec, stacks):
        out[done:done + len(chunk)] = born_weights(chunk) @ spec._coeffs.T
        done += len(chunk)
    return out.reshape(tuple(map(len, stacks)) + (spec.players,))


def final_state(spec: QuantumGameSpec, profile: Iterable[str]) -> StateVector:
    """sigma = entangler_dagger (s_1 x ... x s_N) (shared state)."""
    stacks = [gate.array[None] for gate in _profile_maps(spec, profile)]
    (sigma,) = next(_final_states(spec, stacks))
    return StateVector(sigma, (spec.dim,) * spec.players)


def play(spec: QuantumGameSpec, profile: Iterable[str]) -> ProfileResult:
    labels = tuple(profile)
    sigma = final_state(spec, labels)
    probs = born_weights(sigma.amplitudes[None])
    (pay,) = probs @ spec._coeffs.T
    dist = dict(zip(outcome_labels(sigma.dims), probs[0].tolist()))
    return ProfileResult(labels, sigma, dist, tuple(pay.tolist()))


def payoffs(spec: QuantumGameSpec, profile: Iterable[str]) -> tuple[float, ...]:
    return play(spec, profile).payoffs


def payoff_table(spec: QuantumGameSpec) -> PayoffTable:
    """Payoffs for every profile, in product order of the label lists."""
    return to_strategic_form(spec).payoffs


def to_strategic_form(spec: QuantumGameSpec) -> StrategicFormGame:
    """The spec's payoff array as a game, with no label-keyed table in
    between: the spec's own checks cover everything the game's would."""
    labels = spec.strategy_labels
    return _of_checked(StrategicFormGame, _payoff_array(spec, labels),
                       strategy_labels=labels, payoffs=None)


def _as_game(game) -> StrategicFormGame:
    if isinstance(game, StrategicFormGame):
        return game
    if isinstance(game, Mapping):
        labels = _labels_from_table(game)
        return StrategicFormGame(labels, game)
    raise TypeError(f"expected a game, spec, or payoff table: {game!r}")


def _scanned(game) -> tuple[list[Profile], np.ndarray]:
    """Profiles in product order, and payoffs as (k_0..k_{N-1}, player).

    A spec goes through ``to_strategic_form``, whose payoff dict is not
    built unless read.
    """
    g = to_strategic_form(game) if isinstance(game, QuantumGameSpec) \
        else _as_game(game)
    return g.profiles(), g._pay


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


def _dominated_pairs(rows: np.ndarray, tol: float) -> np.ndarray:
    """``_dominated(rows, rows, tol)`` for two-column rows, by sort and
    sweep in O(n log n).

    Row r is dominated iff, for k = 0 or 1, some row q has
    q_k > r_k + tol and q_{1-k} >= r_{1-k} - tol (strict in k implies
    weak in k, since tol >= 0).  With the rows sorted by column k, the
    q with q_k > r_k + tol are those after one ``searchsorted``, and the
    suffix maximum of the other column says whether one of them reaches
    r_{1-k} - tol.  Both comparisons are ``_dominated``'s, on the same
    floats, so the answer is the same bit for bit.  A row with a NaN
    fails every comparison there, so it is left out of the sort (NaN
    would sort last and poison the maximum) and is never dominated.
    """
    out = np.zeros(len(rows), dtype=bool)
    valid = ~(np.isnan(rows[:, 0]) | np.isnan(rows[:, 1]))
    rows = rows[valid]
    hit = np.zeros(len(rows), dtype=bool)
    for k in (0, 1):
        order = np.argsort(rows[:, k])
        mine, other = rows[order, k], rows[order, 1 - k]
        # best[j]: the largest other payoff at sorted position j or later;
        # the NaN after the last fails the >= of a row nothing beats in k
        best = np.append(np.maximum.accumulate(other[::-1])[::-1], np.nan)
        # mine + tol is sorted too, which searchsorted runs faster on
        above = np.searchsorted(mine, mine + tol, side="right")
        hit[order] |= best[above] >= other - tol
    out[valid] = hit
    return out


def pareto_optimal(game, tol: float = NASH_TOL) -> list[Profile]:
    """Profiles whose payoff vector no other profile dominates.

    Domination: weakly better for everyone (within ``tol``), strictly
    better (by more than ``tol``) for someone; ``tol`` must be finite
    and non-negative.  Profiles come in product order.  A profile with
    a NaN payoff neither dominates nor is dominated.

    Two players take an exact sort and sweep (``_dominated_pairs``),
    O(n log n) in the n profiles; three or more take an exact scan in
    row blocks of about 1 MiB, after a first pass against the rows of
    highest payoff sum.  Both compare the same floats, so they agree.
    """
    _check_tol(tol)
    profiles, pay = _scanned(game)
    rows = pay.reshape(-1, pay.shape[-1])
    if rows.shape[1] == 2:
        alive = np.flatnonzero(~_dominated_pairs(rows, tol))
    else:
        # Rows with the highest sums dominate most others, so a pass
        # against them leaves few rows for the exact scan against every
        # row.
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


def _permutation_digit(gate: LinearMap, label: str) -> int:
    """For a 0/1 permutation matrix (entries within ``NASH_TOL``), the
    digit it sends |0> to."""
    arr = gate.array
    near_one = np.abs(arr - 1.0) <= NASH_TOL
    near_zero = np.abs(arr) <= NASH_TOL
    if not np.all(near_one | near_zero) or \
            not np.all(near_one.sum(axis=0) == 1) or \
            not np.all(near_one.sum(axis=1) == 1):
        raise EmbeddingError(
            f"embedded strategy {label!r} is not a basis permutation "
            f"(entries must be 0 or 1)")
    return int(np.argmax(near_one[:, 0]))


def quantize(classical: StrategicFormGame, embedding,
             entangler: LinearMap | None = None,
             extra_strategies=None, dim: int = 2) -> QuantumGameSpec:
    """Embed a classical game into an EWL quantum game.

    ``embedding`` maps classical labels to basis-permutation unitaries,
    either one mapping shared by all players or one per player.  Payoff
    coefficients are induced through the permutations, so the quantum
    table restricted to the embedded labels reproduces the classical
    table within ``NASH_TOL``; this is checked and a failure (e.g. an
    entangler that does not commute with the permutations) raises
    EmbeddingError.

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
            digit = _permutation_digit(emb[lab], lab)
            if digit in seen:
                raise EmbeddingError(
                    f"player {i} labels {seen[digit]!r} and {lab!r} both "
                    f"map |0> to |{digit}>")
            seen[digit] = lab
        digit_to_label.append(seen)

    # outcome k_0..k_{N-1} pays what the labels sending |0> to them do
    pay = classical._pay[np.ix_(*(
        [labels.index(seen[k]) for k in range(dim)]
        for labels, seen in zip(classical.strategy_labels, digit_to_label)))]
    outcomes = outcome_labels((dim,) * n)
    coeffs = [dict(zip(outcomes, pay[..., i].ravel().tolist()))
              for i in range(n)]

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
    off = np.flatnonzero((np.abs(got - want) > NASH_TOL).any(axis=1))
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


def pd_quantum(strategy_names: Sequence[str] = ("I", "X", "H")) \
        -> QuantumGameSpec:
    """The EWL Prisoners' Dilemma over named builtin gates, entangled by
    ``ewl_entangler(2)``.

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
        entangler=ewl_entangler(2),
    )
