"""The four benchmark workloads: seeded inputs, the query, the checks.

A workload hands out rounds of queries.  Round r is a pure function of
(seed, r), so the same seed always yields byte-identical inputs; every
round holds one query of each size class, so a run's mix does not depend
on how many rounds it completes.  ``run`` is the timed part and calls
only qgamelab's public API on the generated JSON text, diagram source or
argv.  ``check`` is untimed and compares the answer with pinned values or
with the independent oracles in ``oracles.py``; it raises CheckFailed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles
import qgamelab
from qgamelab import bayes, cli, diagrams, ewl, formats

TOL = 1e-9


class CheckFailed(Exception):
    """The program's answer disagrees with the expected one."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(got, want, what: str, tol: float = TOL) -> None:
    got_arr, want_arr = np.asarray(got), np.asarray(want)
    require(got_arr.shape == want_arr.shape,
            f"{what}: shape {got_arr.shape} != {want_arr.shape}")
    err = float(np.max(np.abs(got_arr - want_arr))) if got_arr.size else 0.0
    scale = 1.0 + float(np.max(np.abs(want_arr))) if want_arr.size else 1.0
    require(err <= tol * scale, f"{what}: off by {err:.3g}")


@dataclass
class Query:
    kind: str
    data: bytes          # canonical input bytes, hashed into the result
    args: dict
    expect: dict = field(default_factory=dict)


def _rng(seed: int, tag: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, r])


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cjson(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_json(arr: np.ndarray) -> list:
    return [[_cjson(z) for z in row] for row in arr]


# --- EWL games ---------------------------------------------------------------

GRID = oracles.ewl_grid(6, 6)      # 36 named EWL strategies
PD_COEFFS = ({"00": 3.0, "01": 0.0, "10": 5.0, "11": 1.0},
             {"00": 3.0, "01": 5.0, "10": 0.0, "11": 1.0})
BUILTIN = {"I": np.identity(2), "X": np.array([[0, 1], [1, 0]]),
           "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
           "Z": np.diag([1.0, -1.0])}
PD_NASH = {"pd3": [("H", "H")], "pd4": [("Z", "Z")]}


def _outcomes(n: int) -> list[str]:
    return [format(k, f"0{n}b") for k in range(2 ** n)]


def pd_spec(names) -> tuple[str, dict]:
    doc = {"kind": "ewl", "players": 2, "dim": 2, "initial_ket": "00",
           "entangler": "ewl", "strategies": [list(names), list(names)],
           "payoff_coeffs": [dict(c) for c in PD_COEFFS]}
    gates = [np.stack([BUILTIN[n] for n in names])] * 2
    coeffs = np.array([[c[o] for o in _outcomes(2)] for c in PD_COEFFS])
    return _dump(doc), {"gates": gates, "coeffs": coeffs,
                        "labels": [list(names)] * 2}


def pd_coefficients(players: int) -> np.ndarray:
    """N-player Prisoners' Dilemma per outcome (bit 0 = cooperate): 3 per
    other cooperator, 2 more for defecting (3/0/5/2 for two players)."""
    out = np.zeros((players, 2 ** players))
    for k, outcome in enumerate(_outcomes(players)):
        for i in range(players):
            others = sum(c == "0" for j, c in enumerate(outcome) if j != i)
            out[i, k] = 3 * others + 2 * (outcome[i] == "1")
    return out


def random_ewl_spec(rng: np.random.Generator, players: int, k: int,
                    plain_names: bool = False) -> tuple[str, dict]:
    """An EWL spec over k seeded grid strategies per player.

    Coefficients are a seeded perturbation of an N-player Prisoners'
    Dilemma.  Uniformly random coefficients would make the Pareto front,
    and so the cost of the Pareto scan, vary 30-fold between draws of one
    size class.  Grid names contain commas; ``plain_names`` uses
    "g<index>" instead, for the CLI, whose --profile is comma-separated.
    """
    labels, gates, sets = [], [], []
    for _ in range(players):
        picks = sorted(rng.choice(len(GRID), size=k, replace=False))
        chosen = [(f"g{i}" if plain_names else GRID[i][0],) + GRID[i][1:]
                  for i in picks]
        mats = [oracles.ewl_gate(t, p) for _, t, p in chosen]
        labels.append([name for name, _, _ in chosen])
        gates.append(np.stack(mats))
        sets.append([{"name": name, "matrix": _matrix_json(m)}
                     for (name, _, _), m in zip(chosen, mats)])
    coeffs = np.round(pd_coefficients(players) + rng.uniform(
        -0.3, 0.3, size=(players, 2 ** players)), 3)
    doc = {"kind": "ewl", "players": players, "dim": 2,
           "initial_ket": "0" * players, "entangler": "ewl",
           "strategies": sets,
           "payoff_coeffs": [dict(zip(_outcomes(players), map(float, row)))
                             for row in coeffs]}
    return _dump(doc), {"gates": gates, "coeffs": coeffs, "labels": labels}


def table_array(table, labels) -> np.ndarray:
    """A {profile: payoffs} table as an array indexed by label position."""
    shape = tuple(len(per) for per in labels)
    out = np.empty(shape + (len(labels),))
    index = [{lab: i for i, lab in enumerate(per)} for per in labels]
    require(len(table) == math.prod(shape),
            f"table has {len(table)} profiles, expected {math.prod(shape)}")
    for profile, pay in table.items():
        out[tuple(index[i][lab] for i, lab in enumerate(profile))] = pay
    return out


def profile_mask(profiles, labels) -> np.ndarray:
    mask = np.zeros(tuple(len(per) for per in labels), dtype=bool)
    index = [{lab: i for i, lab in enumerate(per)} for per in labels]
    for profile in profiles:
        mask[tuple(index[i][lab] for i, lab in enumerate(profile))] = True
    return mask


def check_ewl_analysis(expect: dict, table, nash, pareto) -> None:
    """Table against the batched EWL sandwich, then Nash/Pareto invariants."""
    want = oracles.ewl_payoff_array(expect["gates"], expect["coeffs"])
    got = table_array(table, expect["labels"])
    close(got, want, "payoff table")
    bad = oracles.nash_violations(want, profile_mask(nash, expect["labels"]),
                                  ewl.NASH_TOL)
    require(bad == 0, f"{bad} profiles have the wrong Nash verdict")
    if pareto is not None:
        bad = oracles.pareto_violations(
            want, profile_mask(pareto, expect["labels"]), ewl.NASH_TOL)
        require(bad == 0, f"{bad} profiles have the wrong Pareto verdict")
    if "nash" in expect:
        require([tuple(p) for p in nash] == expect["nash"],
                f"Nash set {nash} != pinned {expect['nash']}")


class EwlSweep:
    """EWL analyses over grid subsets, plus quantize-and-save queries."""

    name = "ewl_sweep"
    TAG = 1
    # one query per size class and round: (kind, players, strategies each)
    # Two of the largest class keep query_tail_ms inside it on slow runs.
    ANALYSES = (("2p-9", 2, 9), ("2p-12", 2, 12), ("2p-16", 2, 16),
                ("2p-20", 2, 20), ("2p-36", 2, 36), ("2p-36", 2, 36),
                ("3p-9", 3, 9))
    BUILDS = 2

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def round(self, r: int) -> list[Query]:
        rng = _rng(self.seed, self.TAG, r)
        out = []
        for kind, names in (("pd3", ("I", "X", "H")),
                            ("pd4", ("I", "X", "H", "Z"))):
            text, expect = pd_spec(names)
            expect["nash"] = PD_NASH[kind]
            out.append(Query(kind, text.encode(), {"text": text}, expect))
        for kind, players, k in self.ANALYSES:
            k = max(2, round(k * self.scale))
            text, expect = random_ewl_spec(rng, players, k)
            out.append(Query(kind, text.encode(), {"text": text}, expect))
        for _ in range(self.BUILDS):
            pay = [[float(v) for v in rng.integers(0, 6, size=2)]
                   for _ in range(4)]
            grid = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            doc = {"payoffs": pay, "grid": grid}
            out.append(Query("build", _dump(doc).encode(), doc))
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def run(self, q: Query):
        if q.kind == "build":
            labels = ("C", "D")
            profiles = [(a, b) for a in labels for b in labels]
            game = ewl.StrategicFormGame(
                (labels, labels),
                {p: tuple(v) for p, v in zip(profiles, q.args["payoffs"])})
            extras = ewl.ewl_strategy_grid(*q.args["grid"])
            spec = ewl.quantize(
                game, {"C": ewl.BUILTIN_GATES["I"],
                       "D": ewl.BUILTIN_GATES["X"]},
                extra_strategies=extras)
            return formats.dumps(spec)
        kind, spec = formats.loads(q.args["text"])
        game = ewl.to_strategic_form(spec)
        return kind, game, ewl.pure_nash(game), ewl.pareto_optimal(game)

    def check(self, q: Query, out) -> None:
        if q.kind == "build":
            check_build(q.args, out)
            return
        kind, game, nash, pareto = out
        require(kind == "ewl", f"loaded kind {kind!r}")
        check_ewl_analysis(q.expect, game.payoffs, nash, pareto)


def check_build(args: dict, text: str) -> None:
    """A saved quantized game: induced coefficients and extra strategies."""
    doc = json.loads(text)
    require(doc["kind"] == "ewl" and doc["entangler"] == "ewl",
            "saved spec is not an EWL-entangled spec")
    digit = {"C": "0", "D": "1"}
    pay = dict(zip(["CC", "CD", "DC", "DD"], args["payoffs"]))
    for i in range(2):
        want = {digit[a] + digit[b]: pay[a + b][i]
                for a in "CD" for b in "CD"}
        require(doc["payoff_coeffs"][i] == want,
                f"player {i} coefficients {doc['payoff_coeffs'][i]}")
    grid = oracles.ewl_grid(*args["grid"])
    for per in doc["strategies"]:
        names = [e["name"] if isinstance(e, dict) else e for e in per]
        require(names == ["C", "D"] + [g[0] for g in grid],
                f"saved strategy names {names}")
        for entry, (_, theta, phi) in zip(per[2:], grid):
            mat = np.array([[complex(*z) for z in row]
                            for row in entry["matrix"]])
            close(mat, oracles.ewl_gate(theta, phi), "saved extra strategy",
                  1e-12)


# --- Bayesian games ----------------------------------------------------------


def bayes_doc(prior: np.ndarray, payoffs: list[np.ndarray],
              advice: dict, type_labels=None) -> dict:
    """JSON for a Bayesian game with arrays indexed (x..., s...)."""
    n = prior.ndim
    xs = type_labels or [[str(i) for i in range(d)] for d in prior.shape]
    ss = [[str(i) for i in range(d)] for d in payoffs[0].shape[n:]]
    doc = {"kind": "bayes", "players": n, "types": xs, "strategies": ss,
           "prior": {}, "payoffs": [{} for _ in range(n)], "advice": advice}
    for x in np.ndindex(prior.shape):
        jt = ",".join(xs[i][v] for i, v in enumerate(x))
        doc["prior"][jt] = float(prior[x])
        for s in np.ndindex(payoffs[0].shape[n:]):
            js = ",".join(ss[i][v] for i, v in enumerate(s))
            for i, p in enumerate(payoffs):
                doc["payoffs"][i][f"{jt}|{js}"] = float(p[x + s])
    return doc


def phase_bases(phases: np.ndarray) -> np.ndarray:
    """phases[x] -> (X, 2, 2) bases (|0> +- e^{i a}|1>)/sqrt 2."""
    w = np.exp(1j * phases) / math.sqrt(2)
    r = np.full_like(w, 1 / math.sqrt(2))
    return np.stack([np.stack([r, w], -1), np.stack([r, -w], -1)], 1)


def ghz(n: int) -> np.ndarray:
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = psi[(1,) * n] = 1 / math.sqrt(2)
    return psi


def quantum_advice(psi: np.ndarray, bases: list[np.ndarray],
                   type_labels=None) -> dict:
    xs = type_labels or [[str(x) for x in range(len(b))] for b in bases]
    return {"kind": "quantum", "dims": list(psi.shape),
            "state": [_cjson(z) for z in psi.reshape(-1)],
            "measurements": [
                {xs[i][x]: {"basis": [[_cjson(z) for z in vec]
                                      for vec in b[x]]}
                 for x in range(len(b))} for i, b in enumerate(bases)]}


def classical_advice(rho: np.ndarray, responses: list[np.ndarray]) -> dict:
    return {"kind": "classical",
            "lambdas": [str(k) for k in range(len(rho))],
            "rho": {str(k): float(v) for k, v in enumerate(rho)},
            "responses": [
                {f"{x}|{lam}": {str(s): float(resp[lam, x, s])
                                for s in range(resp.shape[2])}
                 for x in range(resp.shape[1]) for lam in range(len(rho))}
                for resp in responses]}


def random_basis(rng: np.random.Generator) -> np.ndarray:
    """A seeded orthonormal qubit basis (rows)."""
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).T


def _normalized(v: np.ndarray) -> np.ndarray:
    return v / v.sum()


def bell_instance(rng: np.random.Generator, parties: int, settings: int,
                  outcomes: int, advice_kind: str) -> tuple[dict, dict]:
    """A seeded Bayesian game and advice, plus the arrays the oracle uses."""
    shape_x, shape_s = (settings,) * parties, (outcomes,) * parties
    prior = _normalized(rng.integers(1, 5, size=shape_x).astype(float))
    payoffs = [rng.integers(-2, 4, size=shape_x + shape_s).astype(float)
               for _ in range(parties)]
    if advice_kind == "quantum":
        if rng.random() < 0.5:
            bases = [phase_bases(rng.uniform(-math.pi, math.pi, settings))
                     for _ in range(parties)]
        else:
            bases = [np.stack([random_basis(rng) for _ in range(settings)])
                     for _ in range(parties)]
        psi = ghz(parties)
        advice = quantum_advice(psi, bases)
        cond = oracles.quantum_conditional(psi, bases)
    else:
        lambdas = int(rng.integers(2, 4))
        rho = _normalized(rng.integers(1, 4, size=lambdas).astype(float))
        responses = [rng.dirichlet(np.ones(outcomes),
                                   size=(lambdas, settings))
                     for _ in range(parties)]
        advice = classical_advice(rho, responses)
        cond = oracles.classical_conditional(rho, responses)
    return bayes_doc(prior, payoffs, advice), {
        "prior": prior, "payoffs": payoffs, "cond": cond}


def chsh_instance() -> tuple[dict, dict]:
    prior = np.full((2, 2), 0.25)
    pay = np.zeros((2, 2, 2, 2))
    for x, y, a, b in np.ndindex(pay.shape):
        pay[x, y, a, b] = float((a + b) % 2 == x * y)
    bases = [phase_bases(np.array([0.0, math.pi / 2])),
             phase_bases(np.array([-math.pi / 4, math.pi / 4]))]
    psi = ghz(2)
    return bayes_doc(prior, [pay, pay], quantum_advice(psi, bases)), {
        "prior": prior, "payoffs": [pay, pay],
        "cond": oracles.quantum_conditional(psi, bases),
        "bound": 0.75, "value": (2 + math.sqrt(2)) / 4, "equilibrium": True}


def mermin_instance() -> tuple[dict, dict]:
    prior = np.zeros((2, 2, 2))
    for setting in ("XXX", "XYY", "YXY", "YYX"):
        prior[tuple("XY".index(c) for c in setting)] = 0.25
    pay = np.zeros((2,) * 6)
    for idx in np.ndindex(pay.shape):
        sign = 1 if idx[:3] == (0, 0, 0) else -1
        pay[idx] = sign * (-1) ** sum(idx[3:])
    bases = [phase_bases(np.array([0.0, math.pi / 2]))] * 3
    psi = ghz(3)
    labels = [["X", "Y"]] * 3
    doc = bayes_doc(prior, [pay] * 3, quantum_advice(psi, bases, labels),
                    type_labels=labels)
    return doc, {"prior": prior, "payoffs": [pay] * 3,
                 "cond": oracles.quantum_conditional(psi, bases),
                 "bound": 0.5, "value": 1.0, "equilibrium": True}


# Collins-Gisin form of I3322 (J. Phys. A 37, 1775, 2004), outcome 0:
# P(A1B1)+P(A1B2)+P(A1B3)+P(A2B1)+P(A2B2)-P(A2B3)+P(A3B1)-P(A3B2)
#   - P(A1) - 2 P(B1) - P(B2) <= 0, marginals read off settings (1,1), (1,2).
I3322_JOINT = {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1,
               (1, 2): -1, (2, 0): 1, (2, 1): -1}


def i3322_instance(rng: np.random.Generator) -> tuple[dict, dict]:
    alpha = np.zeros((3, 3, 2, 2))
    for (x, y), c in I3322_JOINT.items():
        alpha[x, y, 0, 0] += c
    alpha[0, 0, 0, :] -= 1          # P(A1 = 0)
    alpha[0, 0, :, 0] -= 2          # 2 P(B1 = 0)
    alpha[0, 1, :, 0] -= 1          # P(B2 = 0)
    prior = np.full((3, 3), 1 / 9)
    pay = 9 * alpha                 # mu * P reproduces alpha exactly
    psi = ghz(2)
    bases = [phase_bases(rng.uniform(-math.pi, math.pi, 3))
             for _ in range(2)]
    return bayes_doc(prior, [pay, pay], quantum_advice(psi, bases)), {
        "prior": prior, "payoffs": [pay, pay],
        "cond": oracles.quantum_conditional(psi, bases), "bound": 0.0}


class BellScan:
    """Bayesian games with advice: bound, value, payoffs, equilibrium."""

    name = "bell_scan"
    TAG = 2
    # seeded games per round: (kind, parties, settings, outcomes, advice)
    RANDOM = (("r2-m2o2-q", 2, 2, 2, "quantum"),
              ("r2-m3o2-q", 2, 3, 2, "quantum"),
              ("r2-m4o2-q", 2, 4, 2, "quantum"),
              ("r3-m2o2-q", 3, 2, 2, "quantum"),
              ("r2-m3o2-c", 2, 3, 2, "classical"),
              ("r2-m4o2-c", 2, 4, 2, "classical"),
              ("r2-m2o3-c", 2, 2, 3, "classical"),
              ("r3-m2o2-c", 3, 2, 2, "classical"))

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        self.seed = seed
        self.random = self.RANDOM if scale >= 1.0 else self.RANDOM[:2]

    def round(self, r: int) -> list[Query]:
        rng = _rng(self.seed, self.TAG, r)
        built = [("chsh",) + chsh_instance(), ("mermin",) + mermin_instance(),
                 ("i3322",) + i3322_instance(rng)]
        for kind, parties, m, o, advice in self.random:
            built.append((kind,) + bell_instance(rng, parties, m, o, advice))
        # the exhaustive optimum is re-derived for one seeded query a round
        sample = int(rng.integers(len(built)))
        out = []
        for i, (kind, doc, expect) in enumerate(built):
            text = _dump(doc)
            expect["check_optimum"] = i == sample or r == 0
            out.append(Query(kind, text.encode(), {"text": text}, expect))
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def run(self, q: Query):
        kind, (game, advice) = formats.loads(q.args["text"])
        expr = bayes.BellExpression.from_payoff(game, 0)
        bound = bayes.classical_bound(expr)
        value = bayes.bell_value(expr, advice)
        payoffs = bayes.average_payoff(game, advice)
        report = bayes.is_advised_equilibrium(game, advice)
        return kind, game, expr, bound, value, payoffs, report

    def check(self, q: Query, out) -> None:
        kind, game, expr, bound, value, payoffs, report = out
        require(kind == "bayes", f"loaded kind {kind!r}")
        e = q.expect
        alpha = e["prior"].reshape(e["prior"].shape + (1,) * e["prior"].ndim) \
            * e["payoffs"][0]
        check_bound(bound, alpha, e)
        want = oracles.average_payoffs(e["prior"], e["payoffs"], e["cond"])
        close(payoffs, want, "average payoffs")
        close(value, want[0], "bell value")
        if "value" in e:
            close(value, e["value"], "pinned quantum value")
        check_equilibrium(report, e, game)
        if e["check_optimum"]:
            opt = bayes.classical_optimum(expr)
            require(opt.value == bound, "optimum value differs from bound")
            responses = [np.array([per.index(resp[x]) for x in xs])
                         for per, resp, xs in zip(game.strategies,
                                                  opt.responses, game.types)]
            close(oracles.deterministic_value(alpha, responses), bound,
                  "optimum advice value")


def check_bound(bound: float, alpha: np.ndarray, expect: dict) -> None:
    if "bound" in expect:
        # every term of the named games is exact in binary floating point
        require(bound == expect["bound"],
                f"bound {bound!r} != pinned {expect['bound']!r}")
    close(bound, oracles.local_bound(alpha), "classical bound")


def check_equilibrium(report, expect: dict, game) -> None:
    """The verdict and the reported deviation against closed-form gains."""
    gains = oracles.deviation_gains(expect["prior"], expect["payoffs"],
                                    expect["cond"])
    best = max(gains)
    tol = bayes.EQUILIBRIUM_TOL
    if best > tol + 1e-7:
        require(not report.equilibrium,
                f"reported an equilibrium, but a deviation gains {best:.3g}")
    elif best < tol - 1e-7:
        require(report.equilibrium,
                f"reported a gain of {report.best_gain:.3g}, best is "
                f"{best:.3g}")
    if "equilibrium" in expect:
        require(report.equilibrium == expect["equilibrium"],
                "pinned equilibrium verdict differs")
    if report.equilibrium:
        return
    require(abs(report.best_gain - best) <= 1e-6,
            f"best gain {report.best_gain:.6g} vs oracle {best:.6g}")
    i = report.best_player
    types, strategies = game.types[i], game.strategies[i]
    dev = np.zeros((len(types), len(strategies)), dtype=int)
    for (x, r), t in report.best_deviation.items():
        dev[types.index(x), strategies.index(r)] = strategies.index(t)
    base = oracles.average_payoffs(expect["prior"], expect["payoffs"],
                                   expect["cond"])[i]
    got = oracles.deviated_payoff(expect["prior"], expect["payoffs"][i],
                                  expect["cond"], i, dev) - base
    close(got, report.best_gain, "reported deviation's gain")


# --- diagrams ----------------------------------------------------------------


def atom_source(atom: tuple) -> str:
    kind = atom[0]
    if kind == "id":
        return f"id({atom[1]})"
    if kind == "spider":
        _, m, n, phase = atom
        return f"spider({m},{n})" if phase is None \
            else f"spider({m},{n},{phase!r})"
    if kind == "ket":
        return f"ket({atom[1]})"
    return kind


def diagram_source(stages: list[list[tuple]]) -> str:
    return " ;\n".join(" * ".join(atom_source(a) for a in stage)
                       for stage in stages) + "\n"


def _merge_ids(atoms: list[tuple]) -> list[tuple]:
    out: list[tuple] = []
    for atom in atoms:
        if atom[0] == "id" and out and out[-1][0] == "id":
            out[-1] = ("id", out[-1][1] + atom[1])
        elif atom != ("id", 0):
            out.append(atom)
    return out


def _phase(rng, dim: int):
    return round(float(rng.uniform(-math.pi, math.pi)), 6) if dim == 2 \
        else None


def wide_stages(rng: np.random.Generator, wires: int, depth: int,
                dim: int) -> list[list[tuple]]:
    """Seq of Par stages on ``wires`` wires.

    Atoms that add or remove wires (copy and merge spiders, cup, cap, ket)
    balance within a stage, so every stage is a full-width map and a
    query's cost depends on its size class, not on the seed.
    """
    stages = []
    for _ in range(depth):
        while True:
            atoms, used, made = [], 0, 0
            while used < wires:
                pick = rng.random()
                left = wires - used
                if pick < 0.30:
                    atom = ("spider", 1, 1, _phase(rng, dim))
                elif pick < 0.45 and left >= 2:
                    atom = ("swap",)
                elif pick < 0.55:
                    atom = ("spider", 1, 2, _phase(rng, dim))
                elif pick < 0.65 and left >= 2:
                    atom = ("spider", 2, 1, _phase(rng, dim))
                elif pick < 0.70 and left >= 2:
                    atom = ("cap",)
                elif pick < 0.75:
                    atom = ("cup",)
                elif pick < 0.78:
                    atom = ("ket", str(int(rng.integers(dim))))
                else:
                    atom = ("id", 1)
                m, n = oracles.atom_arity(atom)
                atoms.append(atom)
                used, made = used + m, made + n
            if made == wires:
                break
        stages.append(_merge_ids(atoms))
    return stages


def long_stages(rng: np.random.Generator, wires: int, depth: int,
                dim: int) -> tuple[list[list[tuple]], list[int], list[float]]:
    """Hundreds of stages that fuse to per-wire phases and a permutation.

    Returns the stages plus the closed form: output wire p carries input
    wire order[p], which accumulated phase phases[order[p]].
    """
    order = list(range(wires))
    phases = [0.0] * wires
    stages = []
    while len(stages) < depth:
        pick = rng.random()
        j = int(rng.integers(wires))
        before, after = ("id", j), ("id", wires - j - 1)
        if pick < 0.4:
            layer = []
            for p in range(wires):
                if dim == 2 and rng.random() < 0.6:
                    a = _phase(rng, dim)
                    phases[order[p]] += a
                    layer.append(("spider", 1, 1, a))
                else:
                    layer.append(("spider", 1, 1, None))
            stages.append(layer)
        elif pick < 0.6 and wires >= 2:
            j = min(j, wires - 2)
            stages.append(_merge_ids([("id", j), ("swap",),
                                      ("id", wires - j - 2)]))
            order[j], order[j + 1] = order[j + 1], order[j]
        elif pick < 0.8:
            # spider fusion: copy then merge is the identity
            stages.append(_merge_ids([before, ("spider", 1, 2, None),
                                      after]))
            stages.append(_merge_ids([before, ("spider", 2, 1, None),
                                      after]))
        else:
            # snake: (id * cup) ; (cap * id) is the identity
            stages.append(_merge_ids([("id", j + 1), ("cup",), after]))
            stages.append(_merge_ids([before, ("cap",), ("id", 1), after]))
    return stages, order, phases


def par_only(rng: np.random.Generator, wires: int) -> list[list[tuple]]:
    """One Par stage over many wires, almost all identity."""
    atoms = []
    used = 0
    specials = sorted(rng.choice(wires - 1, size=2, replace=False))
    for s in specials:
        s = max(int(s), used)
        if s >= wires - 1:
            break
        atoms.append(("id", s - used))
        if rng.random() < 0.5:
            atoms.append(("swap",))
            used = s + 2
        else:
            atoms.append(("spider", 1, 1, _phase(rng, 2)))
            used = s + 1
    atoms.append(("id", wires - used))
    return [_merge_ids(atoms)]


def diagram_query(kind: str, stages, observable: str, dim: int, wires: int,
                  closed=None) -> Query:
    src = diagram_source(stages)
    data = f"{observable} {dim}\n{src}".encode()
    expect = {"stages": stages, "wires": wires}
    if closed is not None:
        expect["closed"] = closed
    return Query(kind, data, {"src": src, "observable": observable,
                              "dim": dim}, expect)


def check_diagram_map(expect: dict, matrix: np.ndarray, observable: str,
                      dim: int, rng: np.random.Generator) -> None:
    """A diagram's matrix against its closed form or the stage oracle."""
    require(matrix.shape == (dim ** expect["wires"],) * 2,
            f"matrix shape {matrix.shape}")
    if "closed" in expect:
        order, phases = expect["closed"]
        close(matrix, oracles.permuted_phases(order, phases, observable,
                                              dim), "fused closed form")
        return
    vec = rng.normal(size=matrix.shape[1]) \
        + 1j * rng.normal(size=matrix.shape[1])
    want = oracles.apply_stages(expect["stages"], observable, dim, vec)
    close(matrix @ vec, want, "diagram applied to a random vector")


class DiagramEval:
    """Diagram sources from three families: wide, long, and Par-only."""

    name = "diagram_eval"
    TAG = 3
    # (kind, family, observable, dim, wires, depth)
    SHAPES = (("par-12", "par", "computational", 2, 12, 1),
              ("par-11", "par", "fourier", 2, 11, 1),
              ("wide-c2-6", "wide", "computational", 2, 6, 12),
              ("wide-f2-8", "wide", "fourier", 2, 8, 8),
              ("wide-c2-9", "wide", "computational", 2, 9, 6),
              ("wide-f3-5", "wide", "fourier", 3, 5, 6),
              ("long-c2-2", "long", "computational", 2, 2, 300),
              ("long-f2-3", "long", "fourier", 2, 3, 250),
              ("long-c2-4", "long", "computational", 2, 4, 200),
              ("long-f3-2", "long", "fourier", 3, 2, 200),
              ("long-c3-2", "long", "computational", 3, 2, 300))

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def round(self, r: int) -> list[Query]:
        rng = _rng(self.seed, self.TAG, r)
        out = []
        for kind, family, obs, dim, wires, depth in self.SHAPES:
            if self.scale < 1.0:
                wires = {"par": 5, "wide": wires - 2}.get(family, wires)
                depth = max(1, round(depth * self.scale))
            closed = None
            if family == "par":
                stages = par_only(rng, wires)
            elif family == "wide":
                stages = wide_stages(rng, wires, depth, dim)
            else:
                stages, order, phases = long_stages(rng, wires, depth, dim)
                closed = (order, phases)
            out.append(diagram_query(kind, stages, obs, dim, wires, closed))
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def run(self, q: Query):
        term = diagrams.parse(q.args["src"])
        wires = diagrams.typecheck(term)
        obs = (diagrams.ObservableStructure.computational
               if q.args["observable"] == "computational"
               else diagrams.ObservableStructure.fourier)(q.args["dim"])
        return wires, diagrams.evaluate(term, obs)

    def check(self, q: Query, out) -> None:
        wires, result = out
        e = q.expect
        require(wires == (e["wires"],) * 2, f"typecheck gave {wires}")
        d = q.args["dim"]
        require(result.in_dims == result.out_dims == (d,) * e["wires"],
                f"map dims {result.in_dims} -> {result.out_dims}")
        check_diagram_map(e, result.array, q.args["observable"], d,
                          np.random.default_rng(len(q.data)))


# --- CLI ---------------------------------------------------------------------


def _fixture(name: str) -> str:
    return os.path.join(os.path.dirname(qgamelab.__file__), "fixtures", name)


class CliMix:
    """In-process qgamelab.cli.main(argv) over all ten subcommands."""

    name = "cli_mix"
    TAG = 4

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.bad_json = self._write("malformed.json",
                                    '{"kind": "bayes", "players": 2,\n')

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def round(self, r: int) -> list[Query]:
        rng = _rng(self.seed, self.TAG, r)
        k = 9 if self.scale >= 1.0 else 3
        ewl_text, ewl_expect = random_ewl_spec(rng, 2, k, plain_names=True)
        ewl_path = self._write(f"ewl-{r}.json", ewl_text)
        bell_doc, bell_expect = bell_instance(rng, 2, 3, 2, "classical")
        bell_path = self._write(f"bell-{r}.json", _dump(bell_doc))
        pd3, pd4 = _fixture("pd_ewl_3strat.json"), \
            _fixture("pd_ewl_4strat.json")
        chsh, mermin = _fixture("chsh_common_interest.json"), \
            _fixture("mermin_ghz3.json")
        pd3_expect = pd_spec(("I", "X", "H"))[1]
        chsh_expect = chsh_instance()[1]
        labels = ewl_expect["labels"]
        profile = [labels[i][int(rng.integers(len(labels[i])))]
                   for i in range(2)]
        phases = [round(float(v), 6) for v in
                  rng.uniform(-math.pi, math.pi, int(rng.integers(2, 5)))]

        wide = []
        for wires in ((7, 8, 8) if self.scale >= 1.0 else (3,)):
            stages = wide_stages(rng, wires, 3, 2)
            wide.append(({"stages": stages, "wires": wires},
                         diagram_source(stages)))
        small = wide_stages(rng, 3, 3, 3)
        long = long_stages(rng, 3, 120 if self.scale >= 1.0 else 10, 2)[0]
        long_path = self._write(f"long-{r}.txt", diagram_source(long))

        J, T = ["--output", "json"], ["--output", "table"]
        specs = [
            ("ewl-table", ["ewl-table", pd3] + T, {"ewl": pd3_expect}),
            ("ewl-table", ["ewl-table", ewl_path] + J, {"ewl": ewl_expect}),
            ("ewl-nash", ["ewl-nash", pd4, "--pareto"] + T,
             {"contains": "Z,Z"}),
            ("ewl-nash", ["ewl-nash", ewl_path, "--pareto"] + J,
             {"ewl": ewl_expect}),
            ("ewl-state", ["ewl-state", pd3, "--profile", "H,H"] + J,
             {"ewl": pd3_expect, "profile": ["H", "H"]}),
            ("ewl-state", ["ewl-state", ewl_path, "--profile",
                           ",".join(profile)] + J,
             {"ewl": ewl_expect, "profile": profile}),
            ("bayes-payoff", ["bayes-payoff", chsh] + J,
             {"bell": chsh_expect}),
            ("bayes-payoff", ["bayes-payoff", bell_path] + T,
             {"bell": bell_expect}),
            ("bell-bound", ["bell-bound", chsh] + J, {"bound": 0.75}),
            ("bell-bound", ["bell-bound", bell_path, "--player", "1"] + J,
             {"bell": bell_expect, "player": 1}),
            ("bell-value", ["bell-value", mermin] + T, {"value": 1.0}),
            ("bell-value", ["bell-value", bell_path] + J,
             {"bell": bell_expect}),
            ("ghz-dist", ["ghz-dist", "--phases="
                          + ",".join(map(repr, phases))] + J,
             {"phases": phases}),
            ("ghz-dist", ["ghz-dist", "--phases="
                          + ",".join(map(repr, phases))] + T,
             {"lines": 1 + 2 ** len(phases)}),
            ("mermin", ["mermin"] + J, {}),
            ("mermin", ["mermin"] + T, {"contains": "inequivalent"}),
        ]
        for expect, src in wide:
            specs.append(("diagram-eval", ["diagram-eval", src] + J,
                          {"diagram": expect}))
        specs += [
            ("diagram-eval", ["diagram-eval", diagram_source(small),
                              "--dim", "3", "--observable", "fourier"] + T,
             {"lines": 1 + 3 ** 3}),
            ("diagram-check", ["diagram-check", "--file", long_path] + J,
             {"wires": [3, 3]}),
            ("diagram-check", ["diagram-check", diagram_source(long)] + T,
             {"contains": "wires: 3 -> 3"}),
            # documented failures
            ("fail-json", ["bayes-payoff", self.bad_json] + J,
             {"exit": 1, "error": "FormatError"}),
            ("fail-limit", ["bell-bound", chsh, "--limit", "15"] + J,
             {"exit": 2, "error": "EnumerationLimitError"}),
            ("fail-syntax", ["diagram-check", "spider(1,1 * cup"] + J,
             {"exit": 1, "error": "DiagramSyntaxError"}),
        ]
        files = {}
        for path in (ewl_path, bell_path, long_path):
            with open(path, "rb") as handle:
                files[path] = handle.read()
        out = []
        for kind, argv, expect in specs:
            # hash file names and contents, not where the checkout lives
            shown = [os.path.basename(a) if os.path.isabs(a) else a
                     for a in argv]
            data = json.dumps(shown).encode() + b"".join(
                files.get(a, b"") for a in argv)
            out.append(Query(kind, data, {"argv": argv}, expect))
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def run(self, q: Query):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(q.args["argv"])
        return code, stdout.getvalue(), stderr.getvalue()

    @staticmethod
    def counters(out) -> dict[str, int]:
        """CLI counters the tracer cannot see from inside cli.main."""
        code, stdout, _ = out
        return {"cli.stdout_bytes": len(stdout.encode()),
                "cli.exit_nonzero": int(code != 0)}

    def check(self, q: Query, out) -> None:
        code, stdout, stderr = out
        e = q.expect
        if "exit" in e:
            require(code == e["exit"], f"exit {code}, expected {e['exit']}")
            doc = json.loads(stdout)
            require(set(doc) == {"error"}
                    and doc["error"]["type"] == e["error"]
                    and set(doc["error"]) == {"type", "message"},
                    f"error object {doc}")
            require(stderr.startswith("error: "), "no error on stderr")
            return
        require(code == 0, f"exit {code}: {stderr.strip()}")
        require(stderr == "", f"unexpected stderr {stderr!r}")
        argv = q.args["argv"]
        if "contains" in e:
            require(e["contains"] in stdout, f"missing {e['contains']!r}")
        if "lines" in e:
            require(stdout.count("\n") == e["lines"],
                    f"{stdout.count(chr(10))} lines, expected {e['lines']}")
        if argv[-1] == "table":
            check_cli_table(q.kind, e, stdout)
            return
        check_cli_json(q.kind, e, json.loads(stdout))


def _pd_or_spec(e: dict) -> np.ndarray:
    ewl_e = e["ewl"]
    return oracles.ewl_payoff_array(ewl_e["gates"], ewl_e["coeffs"])


def check_cli_json(kind: str, e: dict, doc) -> None:
    if kind == "ewl-table":
        table = {tuple(row["profile"]): row["payoffs"] for row in doc["table"]}
        close(table_array(table, e["ewl"]["labels"]), _pd_or_spec(e),
              "cli payoff table")
    elif kind == "ewl-nash":
        labels = e["ewl"]["labels"]
        want = _pd_or_spec(e)
        for key, check in (("equilibria", oracles.nash_violations),
                           ("pareto", oracles.pareto_violations)):
            bad = check(want, profile_mask(doc[key], labels), ewl.NASH_TOL)
            require(bad == 0, f"cli {key}: {bad} wrong verdicts")
    elif kind == "ewl-state":
        labels = e["ewl"]["labels"]
        idx = tuple(labels[i].index(lab) for i, lab in enumerate(e["profile"]))
        close(doc["payoffs"], _pd_or_spec(e)[idx], "cli profile payoffs")
        close(sum(doc["distribution"].values()), 1.0, "cli distribution")
    elif kind == "bayes-payoff":
        b = e["bell"]
        close(doc["payoffs"], oracles.average_payoffs(
            b["prior"], b["payoffs"], b["cond"]), "cli payoffs")
    elif kind == "bell-bound":
        if "bound" in e:
            require(doc["bound"] == e["bound"], f"cli bound {doc['bound']}")
        else:
            b = e["bell"]
            p = b["payoffs"][e["player"]]
            alpha = b["prior"].reshape(b["prior"].shape + (1, 1)) * p
            close(doc["bound"], oracles.local_bound(alpha), "cli bound")
    elif kind == "bell-value":
        b = e["bell"]
        close(doc["value"], oracles.average_payoffs(
            b["prior"], b["payoffs"], b["cond"])[0], "cli bell value")
    elif kind == "ghz-dist":
        close(list(doc["distribution"].values()),
              oracles.ghz_phase_distribution(e["phases"]), "cli GHZ dist")
    elif kind == "mermin":
        require(doc["quantum_expectations"] == [1.0, -1.0, -1.0, -1.0]
                and doc["satisfying_assignments"] == 0
                and doc["classical_assignments"] == 64
                and doc["quantum_parity_product"] == -1
                and doc["inequivalent"] is True, f"mermin report {doc}")
    elif kind == "diagram-eval":
        d = e["diagram"]
        matrix = np.array([[complex(*z) for z in row]
                           for row in doc["matrix"]])
        check_diagram_map(d, matrix, doc["observable"], doc["dim"],
                          np.random.default_rng(matrix.size))
    elif kind == "diagram-check":
        require([doc["in_wires"], doc["out_wires"]] == e["wires"],
                f"cli wires {doc['in_wires']} -> {doc['out_wires']}")
    else:
        raise CheckFailed(f"no JSON check for {kind}")


def check_cli_table(kind: str, e: dict, stdout: str) -> None:
    lines = stdout.splitlines()
    if kind == "ewl-table":
        labels = e["ewl"]["labels"]
        table = {}
        for line in lines[1:]:
            profile, *cells = line.split()
            table[tuple(profile.split(","))] = [float(c) for c in cells]
        close(table_array(table, labels), _pd_or_spec(e), "cli table")
    elif kind == "bayes-payoff":
        b = e["bell"]
        got = [float(line.split("=")[1]) for line in lines[1:]]
        close(got, oracles.average_payoffs(b["prior"], b["payoffs"],
                                           b["cond"]), "cli table payoffs")
    elif kind == "bell-value":
        close(float(lines[0].rsplit(":", 1)[1]), e["value"],
              "cli table bell value")


WORKLOADS = {cls.name: cls for cls in (EwlSweep, BellScan, DiagramEval,
                                       CliMix)}
