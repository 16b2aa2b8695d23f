"""Seeded inputs, operations and output checks for the three workloads.

An operation is one call of the ``mfa`` command line, made in-process.  A
workload is a pool of rounds; every round holds the same kinds of operation
in the same numbers, so the share of known-fault operations is the same in
every run whatever the seed and the run length.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import oracles as orc

# The four regime-map recipes: time constants (tau_l, tau_p, tau_n) and rate.
RECIPES = (((0.01, 0.1, 1.0), 50.0), ((10.0, 0.1, 1.0), 5.0),
           ((0.01, 0.1, 0.3), 50.0), ((10.0, 0.1, 0.3), 5.0))
MAP_ROWS, MAP_K = 60, (0.1, 1000.0)
MAP_BETAS = np.linspace(0.0, 1.0, 60)

# Random certify points keep |h| >= FOLD_MARGIN at the fold points of the
# equilibrium line; closer points are the fixed near-fold share below.
FOLD_MARGIN = 1e-2
# analyze points at r = +-(r_fold - delta): (taus, k, beta, rate, sign, delta).
NEAR_FOLD = (((0.01, 0.1, 1.0), 5.0, 0.7, 50.0, 1.0, 1e-6),
             ((10.0, 0.1, 1.0), 2.5, 0.9, 5.0, -1.0, 1e-7))
RANDOM_ANALYZE, BANK_SIZES, LOADS_PER_ROUND = 14, (2, 3), 2

# Trajectory recipes: k = 5 tunings and the amplifier-plus-load limit cycle.
SIM_TAUS, SIM_DT, SIM_T_END = (0.01, 0.1, 1.0), 5e-4, 50.0
RK4_PREFIX = 1000  # steps repeated by the oracle's own RK4
PULSE = ((0.0, 0.0), (20.0, -0.5), (30.0, 0.0))
RECIPE_LOAD = {"a": 350.0, "b": 35.0, "kv": 1.0, "kp": 20.0, "ki": 10.0, "ko": 1.0}

POOL_ROUNDS = {"certify_points": 16, "simulate_trajectories": 4}
UNITS = {"map_sweep": "map cell", "certify_points": "certified point",
         "simulate_trajectories": "RK4 step"}


class Mismatch(Exception):
    """An output that disagrees with its oracle."""


@dataclass
class Op:
    """One command-line call, the work it stands for, and how to check it.

    ``check(stdout, trajectory)`` returns True when the output is right,
    False for the known fault the operation is there to show, and raises
    :class:`Mismatch` otherwise.
    """

    argv: list
    units: int
    check: object
    output: str | None = None


def _f(x) -> str:
    return repr(float(x))


def _amp_flags(taus, k, beta):
    return ["--tau-l", _f(taus[0]), "--tau-p", _f(taus[1]), "--tau-n", _f(taus[2]),
            "--k", _f(k), "--beta", _f(beta)]


def _require(cond, msg):
    if not cond:
        raise Mismatch(msg)


def _close(a, b, tol, what):
    _require(abs(a - b) <= tol, f"{what}: {a!r} vs {b!r}")


def _expected_regime(k, k0, k2, inertia, stabilities):
    if inertia != 2:
        return "Unclassified"
    if k < k0:
        return "ZeroDominantStable"
    if k < k2:
        if "stable" in stabilities:
            return "TwoDominantMultistable"
        if stabilities and all(s == "unstable" for s in stabilities):
            return "TwoDominantOscillation"
    return "Unclassified"


def _gain(x):
    return math.inf if x == "unbounded" else (math.nan if x is None else x)


def _check_equilibria(eqs, system, g, r, to_v):
    """Each reported equilibrium is a fixed point with the oracle's Jacobian
    eigenvalues and stability.

    Returns the exact equilibrium count and the reported stabilities.
    """
    for e in eqs:
        _require(system.residual(e["state"], r) < 1e-9,
                 f"equilibrium y={e['y']!r} is not a fixed point")
        eigs, stability = system.linearization(to_v(e["y"]))
        reported = np.array([complex(*z) for z in e["eigenvalues"]])
        _require(len(reported) == len(eigs) and np.allclose(
            np.sort_complex(reported), np.sort_complex(eigs),
            rtol=0, atol=1e-7 * np.abs(eigs).max()), f"eigenvalues at y={e['y']!r}")
        _require(e["stability"] == stability, f"stability of y={e['y']!r}")
    return len(orc.line_roots(g, r)), [e["stability"] for e in eqs]


def _check_critical(k0, k2, g1, lam, corners, inertia):
    """Reported critical gains (inf when unbounded, nan when not defined)
    against the oracle's sweep of the unit-gain loop ``g1``."""
    m0, s0 = orc.min_re(g1, 0.0, corners)
    _require(orc.same_inverse_gain(k0, m0, s0), f"k0_bar {k0!r}")
    if inertia == 2:
        m2, s2 = orc.min_re(g1, lam, corners)
        _require(orc.same_inverse_gain(k2, m2, s2), f"k2_bar {k2!r}")
    else:
        _require(math.isnan(k2), "k2_bar without two shifted poles")


# ---------------------------------------------------------------------------
# map_sweep: one balance column of a recipe map per operation

def _map_op(taus, lam, beta):
    argv = ["map", "--tau-l", _f(taus[0]), "--tau-p", _f(taus[1]), "--tau-n", _f(taus[2]),
            "--k-min", _f(MAP_K[0]), "--k-max", _f(MAP_K[1]), "--rows", str(MAP_ROWS),
            "--cols", "1", "--beta-min", _f(beta), "--beta-max", _f(beta),
            "--lambda", _f(lam), "--jobs", "1"]

    def check(out, _traj):
        lines = out.splitlines()
        _require(lines[1] == "k,beta,regime,k0_bar,k2_bar,n_equilibria,n_unstable",
                 "map header")
        rows = [ln.split(",") for ln in lines[2:]]
        _require(len(rows) == MAP_ROWS, "map row count")
        inertia = sum(1 for t in taus if 1.0 / t < lam)
        g1 = orc.amp_tf(taus, 1.0, beta)
        corners = [1.0 / t for t in taus]
        k0, k2 = float(rows[0][3]), float(rows[0][4])
        _check_critical(k0, k2, g1, lam, corners, inertia)
        for k, row in zip(np.geomspace(*MAP_K, MAP_ROWS), rows):
            _require(float(row[0]) == k and float(row[1]) == beta, "map cell inputs")
            _require(row[3:5] == rows[0][3:5], "critical gains vary down a column")
            g0 = k * (2.0 * beta - 1.0)
            system = orc.amplifier(taus, k, beta)
            stab = [system.linearization(v)[1] for v in orc.line_roots(g0, 0.0)]
            _require(int(row[5]) == len(stab), f"n_equilibria at k={k!r} beta={beta!r}")
            _require(int(row[6]) == stab.count("unstable"), f"n_unstable at k={k!r}")
            _require(row[2] == _expected_regime(k, k0, k2, inertia, stab),
                     f"regime {row[2]} at k={k!r} beta={beta!r}")
        return True

    return Op(argv, MAP_ROWS, check)


def _map_rounds(rng):
    """One round per balance column: the pool covers every column of the four
    recipe maps once, so runs with different seeds do the same cells in
    another order."""
    columns = [rng.sample(range(len(MAP_BETAS)), len(MAP_BETAS)) for _ in RECIPES]
    return [[_map_op(*RECIPES[i], float(MAP_BETAS[columns[i][j]]))
             for i in rng.sample(range(len(RECIPES)), len(RECIPES))]
            for j in range(len(MAP_BETAS))]


# ---------------------------------------------------------------------------
# certify_points: analyze, multichannel and interconnect --certify points

def _analyze_op(taus, k, beta, r, lam, near_fold=False):
    argv = ["analyze", *_amp_flags(taus, k, beta), "--r", _f(r)]
    if lam is not None:
        argv += ["--lambda", _f(lam)]
    else:
        mags = sorted((1.0 / t for t in taus), reverse=True)
        lam = (mags[0] + mags[1]) / 2.0

    def check(out, _traj):
        rep = json.loads(out)
        _close(rep["lambda"], lam, 1e-12 * lam, "rate")
        _require(np.allclose(sorted(p[0] for p in rep["poles"]),
                             sorted(-1.0 / t for t in taus), rtol=1e-9, atol=0), "poles")
        inertia = sum(1 for t in taus if 1.0 / t < lam)
        _require(rep["shifted_unstable_poles"] == inertia, "shifted inertia")
        k0, k2 = _gain(rep["k0_bar"]), _gain(rep["k2_bar"])
        _check_critical(k0, k2, orc.amp_tf(taus, 1.0, beta), lam, [1.0 / t for t in taus],
                        inertia)
        g0 = k * (2.0 * beta - 1.0)
        n_exact, stab = _check_equilibria(rep["equilibria"], orc.amplifier(taus, k, beta),
                                          g0, r, lambda y: y)
        if len(stab) != n_exact:
            _require(near_fold and len(stab) < n_exact,
                     f"{len(stab)} equilibria, exact count {n_exact}")
            return False
        _require(rep["regime"] == _expected_regime(k, k0, k2, inertia, stab),
                 f"regime {rep['regime']}")
        return True

    return Op(argv, 1, check)


def _off_fold_r(rng, g):
    while True:
        r = rng.uniform(-0.5, 0.5)
        if orc.fold_distance(g, r) >= FOLD_MARGIN:
            return r


def _random_analyze(rng, i):
    taus, rate = RECIPES[rng.randrange(len(RECIPES))]
    k, beta = 10.0 ** rng.uniform(-1.0, 3.0), rng.random()
    return _analyze_op(taus, k, beta, _off_fold_r(rng, k * (2.0 * beta - 1.0)),
                       rate if i % 2 == 0 else None)


def _near_fold_ops():
    ops = []
    for taus, k, beta, rate, sign, delta in NEAR_FOLD:
        r = sign * (orc.r_fold(k * (2.0 * beta - 1.0)) - delta)
        ops.append(_analyze_op(taus, k, beta, r, rate, near_fold=True))
    return ops


def _bank_taus(rng, size, lo, hi):
    """Sorted time constants at least 10% apart: nearly equal ones make the
    program's expanded polynomials ill-conditioned (two taus 2e-4 apart gave
    a k2_bar 5e-8 off in relative terms)."""
    while True:
        taus = sorted(rng.uniform(lo, hi) for _ in range(size))
        if all(b >= 1.1 * a for a, b in zip(taus, taus[1:])):
            return taus


def _multichannel_op(rng, size, path):
    tau_l = 0.01
    pos = _bank_taus(rng, size, 0.02, 0.2)
    neg = _bank_taus(rng, size, 0.5, 3.0)
    rho_p = np.random.default_rng(rng.randrange(2**32)).dirichlet(np.ones(size))
    rho_n = np.random.default_rng(rng.randrange(2**32)).dirichlet(np.ones(size))
    k, beta = 10.0 ** rng.uniform(-1.0, 2.0), rng.uniform(0.05, 0.95)
    r = _off_fold_r(rng, k * (2.0 * beta - 1.0))
    bank = {"tau_l": tau_l,
            "positive": [{"rho": float(w), "tau": t} for w, t in zip(rho_p, pos)],
            "negative": [{"rho": float(w), "tau": t} for w, t in zip(rho_n, neg)],
            "k": k, "beta": beta}
    with open(path, "w") as fh:
        json.dump(bank, fh)
    pos_ch = [(c["rho"], c["tau"]) for c in bank["positive"]]
    neg_ch = [(c["rho"], c["tau"]) for c in bank["negative"]]
    mags = sorted(1.0 / t for t in [tau_l, *pos, *neg])
    lam = (mags[1] + mags[2]) / 2.0

    def check(out, _traj):
        rep = json.loads(out)
        _close(rep["lambda"], lam, 1e-6 * lam, "bank rate")
        _require(rep["shifted_unstable_poles"] == 2, "bank shifted inertia")
        k0, k2 = _gain(rep["k0_bar"]), _gain(rep["k2_bar"])
        _check_critical(k0, k2, orc.bank_tf(tau_l, pos_ch, neg_ch, 1.0, beta), lam, mags, 2)
        g0 = k * (2.0 * beta - 1.0)
        n_exact, stab = _check_equilibria(
            rep["equilibria"], orc.bank_system(tau_l, pos_ch, neg_ch, k, beta), g0, r,
            lambda y: y)
        _require(len(stab) == n_exact, f"{len(stab)} bank equilibria, exact {n_exact}")
        _require(rep["regime"] == _expected_regime(k, k0, k2, 2, stab),
                 f"bank regime {rep['regime']}")
        inter = rep["interlacing"]
        _require(inter["satisfied"] and len(inter["zeros"]) == 2 * size - 1,
                 "interlacing of a unit-gain bank difference")
        c = orc.channel_difference(pos_ch, neg_ch, beta)
        for z in inter["zeros"]:
            terms = sum(rho / abs(tau * z + 1) for rho, tau in pos_ch + neg_ch)
            _require(abs(c(z)) <= 1e-8 * terms, f"bank zero {z!r}")
        return True

    return Op(["multichannel", "--bank", path, "--r", _f(r)], 1, check)


def _interconnect_op(rng, path):
    taus, lam = SIM_TAUS, 15.0
    k, beta = 10.0 ** rng.uniform(0.0, 1.3), rng.uniform(0.2, 0.8)
    load = {"a": rng.uniform(250, 450), "b": rng.uniform(32, 40), "kv": rng.uniform(0.5, 1.5),
            "kp": rng.uniform(10, 30), "ki": rng.uniform(5, 15), "ko": rng.uniform(0.5, 1.5)}
    kappa = load["ki"] * load["kp"] * load["ko"] / load["a"]
    g = k * (2.0 * beta - 1.0) * (1.0 + kappa)
    r = _off_fold_r(rng, g)
    with open(path, "w") as fh:
        json.dump(load, fh)
    amp, lt = orc.amp_tf(taus, k, beta), orc.load_tf(load)
    corners = [1.0 / t for t in taus] + [math.sqrt(load["a"]), load["b"]]
    amp_inertia = sum(1 for t in taus if 1.0 / t < lam)
    load_inertia = sum(1 for p in orc.load_poles(load) if p.real > -lam)

    def check_cert(cert, g_tf, p, inertia, what):
        m, scale = orc.min_re(g_tf, lam, corners)
        _close(cert["min_re"], m, 1e-8 * scale, f"{what} min Re")
        conds = [True, inertia == p, cert["min_re"] >= 0.0]
        _require(cert["p"] == p and cert["conditions"] == conds
                 and cert["passed"] == all(conds), f"{what} certificate conditions")
        return cert["passed"]

    def check(out, _traj):
        rep = json.loads(out)
        _close(rep["lambda"], lam, 0.0, "interconnect rate")
        ok_amp = check_cert(rep["amplifier_certificate"], amp, 2, amp_inertia, "amplifier")
        ok_load = check_cert(rep["load_certificate"], lt, 0, load_inertia, "load")
        comp = rep["composition"]
        _require(comp["p_total"] == 2 and comp["valid"] == (ok_amp and ok_load), "composition")
        check_cert(rep["loop_certificate"], lambda s: amp(s) * (1 + load["ki"] * load["ko"] * lt(s)),
                   2, amp_inertia + load_inertia, "loop")
        n_exact, _ = _check_equilibria(rep["equilibria"], orc.interconnection(taus, k, beta, load),
                                       g, r, lambda y: y * (1.0 + kappa))
        _require(len(rep["equilibria"]) == n_exact, "interconnected equilibrium count")
        return True

    argv = ["interconnect", *_amp_flags(taus, k, beta), "--load", path,
            "--lambda", _f(lam), "--r", _f(r), "--certify"]
    return Op(argv, 1, check)


def _certify_rounds(rng, n_rounds, workdir):
    rounds = []
    for i in range(n_rounds):
        ops = [_random_analyze(rng, j) for j in range(RANDOM_ANALYZE)]
        ops += _near_fold_ops()
        ops += [_multichannel_op(rng, size, os.path.join(workdir, f"bank{i}_{size}.json"))
                for size in BANK_SIZES]
        ops += [_interconnect_op(rng, os.path.join(workdir, f"load{i}_{j}.json"))
                for j in range(LOADS_PER_ROUND)]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# simulate_trajectories: recipe trajectories written as CSV

def _schedule_r(schedule, t):
    r = np.full(len(t), schedule[0][1])
    for t_start, value in schedule[1:]:
        r[t >= t_start] = value
    return r


def _check_trajectory(path, traj, system, schedule):
    """The CSV matches the returned arrays and satisfies the model ODE."""
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    cols = [traj.t, *traj.states.T, traj.y, *traj.extra.values()]
    _require(data.shape == (len(traj.t), len(cols)), "trajectory CSV shape")
    for j, col in enumerate(cols):
        _require(np.array_equal(data[:, j], col), f"trajectory CSV column {j}")
    t, states = data[:, 0], traj.states
    _require(np.allclose(t, np.arange(len(t)) * SIM_DT, rtol=0, atol=1e-9), "sample times")
    _require(np.allclose(traj.y, states @ system.c, rtol=1e-12, atol=1e-12), "output y")
    for name, row in system.extra.items():
        _require(np.allclose(traj.extra[name], states @ row, rtol=1e-12, atol=1e-12),
                 f"output {name}")
    r = _schedule_r(schedule, t)
    keep = np.ones(len(t) - 2, dtype=bool)
    for t_start, _ in schedule[1:]:
        keep &= np.abs(t[1:-1] - t_start) > 3 * SIM_DT
    fd = (states[2:] - states[:-2]) / (2 * SIM_DT)
    f = system.field(states[1:-1], r[1:-1])
    scale = np.abs(f).max(axis=0) + 1e-12
    residual = float((np.abs(fd - f)[keep] / scale).max())
    _require(residual < 5e-3, f"ODE residual {residual:.3g}")
    s = states[0]
    for i in range(RK4_PREFIX):
        s = orc.rk4_step(system, s, r[i], SIM_DT)
        _require(np.allclose(s, states[i + 1], rtol=1e-9, atol=1e-12),
                 f"RK4 step {i + 1} differs from the oracle's")
    return states, r


def _simulate_op(beta, ic, schedule, workdir, i):
    taus, k = SIM_TAUS, 5.0
    path = os.path.join(workdir, f"traj{i}.csv")
    argv = ["simulate", *_amp_flags(taus, k, beta), "--dt", _f(SIM_DT),
            "--t-end", _f(SIM_T_END), "--ic", ",".join(_f(v) for v in ic),
            "--detect", "--output", path]
    if len(schedule) > 1:
        sched_path = os.path.join(workdir, f"schedule{i}.json")
        with open(sched_path, "w") as fh:
            json.dump([{"t": t, "r": r} for t, r in schedule], fh)
        argv += ["--schedule", sched_path]
    system = orc.amplifier(taus, k, beta)
    g0 = k * (2.0 * beta - 1.0)

    def check(out, traj):
        rep = json.loads(out)
        states, r = _check_trajectory(path, traj, system, schedule)
        settled = traj.t >= 10.0 * max(taus)
        bound = max(abs(v) for _, v in schedule) + 1.1
        _require(settled.any() and rep["bounded"] == bool(np.all(np.abs(states[settled]) <= bound)),
                 "boundedness report")
        if beta == 0.4:
            _require(rep["oscillating"] and rep["method_agreement"] < 0.02,
                     f"limit cycle report {rep}")
        else:
            final = states[-1]
            eqs = orc.stable_equilibria(system, g0, float(r[-1]))
            _require(any(np.abs(final - e).max() < 1e-6 for e in eqs),
                     f"final state {final} is not a stable equilibrium")
        return True

    return Op(argv, int(round(SIM_T_END / SIM_DT)), check, output=path)


def _interconnect_sim_op(ic, workdir, i):
    taus, k, beta = SIM_TAUS, 10.0, 0.4
    load_path = os.path.join(workdir, f"load{i}.json")
    with open(load_path, "w") as fh:
        json.dump(RECIPE_LOAD, fh)
    path = os.path.join(workdir, f"traj{i}.csv")
    argv = ["interconnect", *_amp_flags(taus, k, beta), "--load", load_path,
            "--dt", _f(SIM_DT), "--t-end", _f(SIM_T_END), "--ic", ",".join(_f(v) for v in ic),
            "--detect", "--transient-fraction", "0.4", "--output", path]
    system = orc.interconnection(taus, k, beta, RECIPE_LOAD)

    def check(out, traj):
        rep = json.loads(out)
        _check_trajectory(path, traj, system, ((0.0, 0.0),))
        _require(rep["y"]["oscillating"] and rep["y"]["method_agreement"] < 0.02,
                 f"interconnected limit cycle report {rep['y']}")
        return True

    return Op(argv, int(round(SIM_T_END / SIM_DT)), check, output=path)


def _simulate_rounds(rng, n_rounds, workdir):
    rounds = []
    for i in range(n_rounds):
        def ic(n):
            return [0.1 + rng.uniform(-0.05, 0.05)] + [rng.uniform(-0.02, 0.02) for _ in range(n - 1)]
        rounds.append([
            _simulate_op(0.2, ic(3), PULSE, workdir, 4 * i),
            _simulate_op(0.4, ic(3), ((0.0, 0.0),), workdir, 4 * i + 1),
            _simulate_op(0.8, ic(3), PULSE, workdir, 4 * i + 2),
            _interconnect_sim_op(ic(5), workdir, 4 * i + 3),
        ])
    return rounds


def build(name, seed, workdir):
    """The workload's pool of rounds, with its input files written to ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "map_sweep":
        return _map_rounds(rng)
    if name == "certify_points":
        return _certify_rounds(rng, POOL_ROUNDS[name], workdir)
    return _simulate_rounds(rng, POOL_ROUNDS[name], workdir)


def warmup(name, pool):
    """Untimed operations that load lazily imported code before timing starts.

    The first round for the analysis workloads; for trajectories the same
    calls with a 1 s horizon, since a full round takes ten seconds.
    """
    if name != "simulate_trajectories":
        return [(op, True) for op in pool[0]]
    out = []
    for op in pool[0]:
        argv = list(op.argv)
        argv[argv.index("--t-end") + 1] = "1.0"
        out.append((Op(argv, 0, None, output=op.output), False))
    return out
