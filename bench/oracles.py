"""Independent numpy oracles the benchmark checks qgamelab's answers with.

Nothing here imports qgamelab: every expected value is computed from the
generator's own description of an input, by a different algorithm than
the program uses (batched einsum instead of per-profile loops, closed-form
best responses instead of exhaustive enumeration, stage-by-stage tensor
application instead of dense Kronecker products).
"""

from __future__ import annotations

import itertools
import math
import string

import numpy as np

# --- EWL games ---------------------------------------------------------------


def ewl_gate(theta: float, phi: float) -> np.ndarray:
    """The two-parameter EWL strategy U(theta, phi)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[np.exp(1j * phi) * c, s],
                     [-s, np.exp(-1j * phi) * c]])


def ewl_grid(n_theta: int, n_phi: int) -> list[tuple[str, float, float]]:
    """(name, theta, phi) for the grid theta in [0, pi], phi in [0, pi/2]."""
    thetas = [math.pi * k / max(n_theta - 1, 1) for k in range(n_theta)]
    phis = [math.pi / 2 * k / max(n_phi - 1, 1) for k in range(n_phi)]
    return [(f"U({t:.3f},{p:.3f})", t, p) for t in thetas for p in phis]


def _entangler(n: int) -> np.ndarray:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    flip = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        flip = np.kron(flip, x)
    return (np.identity(2 ** n) + 1j * flip) / math.sqrt(2)


def ewl_payoff_array(gates: list[np.ndarray],
                     coeffs: np.ndarray) -> np.ndarray:
    """Payoffs of every profile, shape (k_1, ..., k_N, N).

    ``gates[i]`` stacks player i's strategies, shape (k_i, 2, 2);
    ``coeffs[i]`` is player i's payoff per outcome index (big-endian).
    Computes U^dagger (s_1 x ... x s_N) U |0...0> for all profiles at once.
    """
    n = len(gates)
    ent = _entangler(n)
    psi = ent[:, 0].reshape((2,) * n)
    prof = string.ascii_lowercase[:n]
    out = string.ascii_uppercase[:n]
    inp = "pqrstuvw"[:n]
    spec = ",".join(f"{prof[i]}{out[i]}{inp[i]}" for i in range(n))
    spec += f",{inp}->{prof}{out}"
    moved = np.einsum(spec, *gates, psi, optimize=True)
    shape = moved.shape[:n]
    final = moved.reshape(shape + (2 ** n,)) @ ent.conj().T
    probs = np.abs(final) ** 2
    return probs @ np.asarray(coeffs, dtype=float).T


def nash_violations(table: np.ndarray, reported: np.ndarray, tol: float,
                    slack: float = 1e-7) -> int:
    """Profiles whose reported Nash flag contradicts their best deviation.

    ``table`` has shape (k_1, ..., k_N, N) and ``reported`` (k_1, ..., k_N)
    is True where the program listed the profile.  A listed profile must
    have no deviation gaining more than tol + slack; an unlisted one must
    have one gaining more than tol - slack.
    """
    n = table.shape[-1]
    gain = np.zeros(table.shape[:-1])
    for i in range(n):
        mine = table[..., i]
        gain = np.maximum(gain, mine.max(axis=i, keepdims=True) - mine)
    bad_listed = reported & (gain > tol + slack)
    bad_unlisted = ~reported & ~(gain > tol - slack)
    return int(bad_listed.sum() + bad_unlisted.sum())


def pareto_violations(table: np.ndarray, reported: np.ndarray, tol: float,
                      slack: float = 1e-7, chunk: int = 128) -> int:
    """Like nash_violations, for Pareto optimality (chunked for memory)."""
    n = table.shape[-1]
    values = table.reshape(-1, n)
    flags = reported.reshape(-1)
    bad = 0
    for lo in range(0, len(values), chunk):
        mine = values[lo:lo + chunk, None, :]
        diff = values[None, :, :] - mine
        strong = ((diff >= -(tol - slack)).all(-1)
                  & (diff > tol + slack).any(-1)).any(1)
        weak = ((diff >= -(tol + slack)).all(-1)
                & (diff > tol - slack).any(-1)).any(1)
        listed = flags[lo:lo + chunk]
        bad += int((listed & strong).sum() + (~listed & ~weak).sum())
    return bad


# --- Bayesian games ----------------------------------------------------------


def classical_conditional(rho: np.ndarray,
                          responses: list[np.ndarray]) -> np.ndarray:
    """p(s|X) from shared lambda ~ rho and responses[i][lambda, x_i, s_i].

    Returns shape (X_1, ..., X_N, S_1, ..., S_N).
    """
    n = len(responses)
    xs = string.ascii_lowercase[:n]
    ss = string.ascii_uppercase[:n]
    spec = "z," + ",".join(f"z{xs[i]}{ss[i]}" for i in range(n))
    return np.einsum(f"{spec}->{xs}{ss}", rho, *responses)


def quantum_conditional(psi: np.ndarray,
                        bases: list[np.ndarray]) -> np.ndarray:
    """Born rule with bases[i][x_i, k, :] the k-th basis vector of type x_i.

    ``psi`` has one axis per party.  Returns shape (X..., S...).
    """
    n = len(bases)
    xs = string.ascii_lowercase[:n]
    ks = string.ascii_uppercase[:n]
    ws = "pqrstuvw"[:n]
    spec = ",".join(f"{xs[i]}{ks[i]}{ws[i]}" for i in range(n))
    amp = np.einsum(f"{spec},{ws}->{xs}{ks}",
                    *[b.conj() for b in bases], psi)
    return np.abs(amp) ** 2


def average_payoffs(prior: np.ndarray, payoffs: list[np.ndarray],
                    cond: np.ndarray) -> list[float]:
    """F_i = sum_X mu(X) sum_s p(s|X) P_i(X, s)."""
    n = prior.ndim
    weight = cond * prior.reshape(prior.shape + (1,) * n)
    return [float(np.sum(weight * p)) for p in payoffs]


def _all_responses(n_types: int, n_strats: int) -> np.ndarray:
    """Every map X -> S as rows of an (S^X, X) index array, in the
    lexicographic order itertools.product gives."""
    return np.array(list(itertools.product(range(n_strats),
                                           repeat=n_types)), dtype=int)


def local_bound(alpha: np.ndarray) -> float:
    """Maximum of sum alpha(X, s) p(s|X) over local deterministic responses.

    Enumerates the responses of all parties but the last and gives the
    last its best response in closed form.
    """
    n = alpha.ndim // 2
    heads = [_all_responses(alpha.shape[i], alpha.shape[n + i])
             for i in range(n - 1)]
    best = -math.inf
    for combo in itertools.product(*heads):
        reduced = alpha
        for f in combo:
            # axes are (x_i.., s_i..): fix s_i = f(x_i), then sum out x_i
            k = reduced.ndim // 2
            idx_shape = [1] * reduced.ndim
            idx_shape[0] = len(f)
            target = list(reduced.shape)
            target[k] = 1
            idx = np.broadcast_to(f.reshape(idx_shape), target)
            reduced = np.take_along_axis(reduced, idx, axis=k) \
                .squeeze(k).sum(axis=0)
        best = max(best, float(reduced.max(axis=1).sum()))
    return best


def deterministic_value(alpha: np.ndarray, responses) -> float:
    """sum_X alpha(X, f_1(x_1), ..., f_N(x_N)) for index arrays f_i."""
    n = alpha.ndim // 2
    total = 0.0
    for jt in itertools.product(*(range(d) for d in alpha.shape[:n])):
        js = tuple(int(responses[i][x]) for i, x in enumerate(jt))
        total += alpha[jt + js]
    return float(total)


def deviation_gains(prior: np.ndarray, payoffs: list[np.ndarray],
                    cond: np.ndarray) -> list[float]:
    """Best gain each player can get by relabelling (own type, advice).

    The deviated payoff separates into one term per (type, recommendation)
    pair, so the best deviation takes the argmax of each term.
    """
    n = prior.ndim
    weight = cond * prior.reshape(prior.shape + (1,) * n)
    base = average_payoffs(prior, payoffs, cond)
    gains = []
    for i in range(n):
        xs = list(string.ascii_lowercase[:n])
        ss = list(string.ascii_uppercase[:n])
        played = ss.copy()
        played[i] = "Z"
        term = np.einsum(f"{''.join(xs)}{''.join(ss)},"
                         f"{''.join(xs)}{''.join(played)}"
                         f"->{xs[i]}{ss[i]}Z", weight, payoffs[i])
        gains.append(float(term.max(axis=2).sum()) - base[i])
    return gains


def deviated_payoff(prior: np.ndarray, payoff: np.ndarray, cond: np.ndarray,
                    player: int, deviation: np.ndarray) -> float:
    """Payoff of ``player`` when it plays deviation[x_i, r_i] on advice r_i."""
    n = prior.ndim
    weight = cond * prior.reshape(prior.shape + (1,) * n)
    total = 0.0
    for idx in itertools.product(*(range(d) for d in weight.shape)):
        w = weight[idx]
        if w == 0.0:
            continue
        x, s = idx[:n], list(idx[n:])
        s[player] = int(deviation[x[player], s[player]])
        total += w * payoff[x + tuple(s)]
    return total


# --- diagrams ----------------------------------------------------------------


def points(observable: str, dim: int) -> np.ndarray:
    """Matrix whose column k is classical point k of the observable."""
    if observable == "computational":
        return np.identity(dim, dtype=complex)
    w = np.exp(2j * math.pi / dim)
    return np.array([[w ** (j * k) for k in range(dim)]
                     for j in range(dim)]) / math.sqrt(dim)


def _power(vec: np.ndarray, n: int) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for _ in range(n):
        out = np.multiply.outer(out, vec).reshape(-1)
    return out


def atom_matrix(atom: tuple, observable: str, dim: int) -> np.ndarray:
    """Dense (dim^out x dim^in) matrix of one generator atom.

    Atoms: ("id", n), ("spider", m, n, phase or None), ("swap",),
    ("cup",), ("cap",), ("ket", digits).
    """
    pts = points(observable, dim)
    kind = atom[0]
    if kind == "id":
        return np.identity(dim ** atom[1], dtype=complex)
    if kind in ("spider", "cup", "cap"):
        m, n, phase = {"cup": (0, 2, None), "cap": (2, 0, None)}.get(
            kind, atom[1:4])
        weights = np.ones(dim, dtype=complex)
        if phase is not None:
            weights[1] = np.exp(1j * phase)
        out = np.zeros((dim ** n, dim ** m), dtype=complex)
        for k in range(dim):
            out += weights[k] * np.outer(_power(pts[:, k], n),
                                         _power(pts[:, k], m).conj())
        return out
    if kind == "swap":
        out = np.zeros((dim * dim, dim * dim), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                out[j * dim + i, i * dim + j] = 1.0
        return out
    if kind == "ket":
        col = np.ones(1, dtype=complex)
        for c in atom[1]:
            col = np.multiply.outer(col, pts[:, int(c)]).reshape(-1)
        return col.reshape(-1, 1)
    raise ValueError(f"unknown atom {atom!r}")


def atom_arity(atom: tuple) -> tuple[int, int]:
    """(input wires, output wires) of a generator atom."""
    kind = atom[0]
    if kind == "id":
        return atom[1], atom[1]
    if kind == "spider":
        return atom[1], atom[2]
    if kind == "ket":
        return 0, len(atom[1])
    return {"swap": (2, 2), "cup": (0, 2), "cap": (2, 0)}[kind]


def apply_stages(stages: list[list[tuple]], observable: str, dim: int,
                 vec: np.ndarray) -> np.ndarray:
    """Apply a Seq of Par stages to a vector, one atom at a time.

    The vector is held as a tensor with one axis per wire; each atom acts
    on its own consecutive axes and nothing is ever Kronecker-expanded.
    """
    wires = round(math.log(vec.size, dim)) if vec.size > 1 else 0
    tensor = vec.reshape((dim,) * wires)
    for stage in stages:
        cursor = 0
        for atom in stage:
            m, n = atom_arity(atom)
            if atom[0] == "id":
                cursor += m
                continue
            mat = atom_matrix(atom, observable, dim)
            axes = list(range(cursor, cursor + m))
            rest = [a for a in range(tensor.ndim) if a not in axes]
            moved = np.transpose(tensor, axes + rest)
            rest_shape = moved.shape[m:]
            flat = mat @ moved.reshape(dim ** m, -1)
            out = flat.reshape((dim,) * n + rest_shape)
            order = list(range(n, n + cursor)) + list(range(n)) \
                + list(range(n + cursor, out.ndim))
            tensor = np.transpose(out, order)
            cursor += n
    return tensor.reshape(-1)


def phase_rotation(observable: str, dim: int, phase: float) -> np.ndarray:
    """The phase spider(1,1,phase) on one wire, in closed form."""
    pts = points(observable, dim)
    weights = np.ones(dim, dtype=complex)
    weights[1] = np.exp(1j * phase)
    return pts @ np.diag(weights) @ pts.conj().T


def permuted_phases(order: list[int], phases: list[float], observable: str,
                    dim: int) -> np.ndarray:
    """Closed form of a diagram that fused to per-wire phases then a wire
    permutation: output wire p carries input wire order[p]."""
    wires = len(order)
    rot = np.ones((1, 1), dtype=complex)
    for a in phases:
        rot = np.kron(rot, phase_rotation(observable, dim, a))
    size = dim ** wires
    perm = np.zeros((size, size))
    for idx in itertools.product(range(dim), repeat=wires):
        src = int(np.ravel_multi_index(idx, (dim,) * wires))
        dst_digits = tuple(idx[order[p]] for p in range(wires))
        dst = int(np.ravel_multi_index(dst_digits, (dim,) * wires))
        perm[dst, src] = 1.0
    return perm @ rot


def ghz_phase_distribution(phases: list[float]) -> list[float]:
    """P(s) = (1 + (-1)^|s| cos(sum alpha)) / 2^n, s in lexicographic order."""
    n = len(phases)
    c = math.cos(math.fsum(phases))
    return [(1.0 + (-1) ** sum(bits) * c) / 2 ** n
            for bits in itertools.product((0, 1), repeat=n)]
