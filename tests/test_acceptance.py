"""Acceptance suite: one test per criterion, printed pass/fail per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import functools
import math
import os
import time
import warnings

import numpy as np
import pytest

from conftest import (
    RECIPES_DIR,
    analyze_report,
    bisect_root,
    brute_min_re,
    fd_jacobian,
    random_proper_tf,
    vector_field,
)

from mfa.cli import _read_schedule
from mfa.equilibria import (
    REGIME_MULTISTABLE,
    REGIME_OSCILLATION,
    REGIME_ZERO_DOMINANT,
    STABLE,
    UNSTABLE,
    LureLoop,
    dominance_map,
)
from mfa.freq_analysis import _gain, check_p_passivity, midpoint_rate, min_real_part
from mfa.interconnect import (
    InterfaceGains,
    LoadParams,
    compose_certificates,
    load_tf,
)
from mfa.multichannel import Channel, ChannelBank, bank_critical_balance, check_interlacing
from mfa.sim import (
    InputSchedule,
    Trajectory,
    boundedness_check,
    detect_oscillation,
    integrate,
)
from mfa.tf_core import _horner, tf_shift

TAUS = (0.01, 0.1, 1.0)
DT = 5e-4
IC = (0.1, 0.0, 0.0)


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {label}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {label}")
        return wrapper
    return deco


def recipe_schedule(name):
    return _read_schedule(os.path.join(RECIPES_DIR, "data", name))


@pytest.fixture(scope="module")
def reference_runs():
    """The three shipped simulation configurations, timed together."""
    pulse = recipe_schedule("pulse_return.json")
    switch = recipe_schedule("pulse_switch.json")
    t0 = time.perf_counter()
    run_a = integrate(LureLoop.amplifier(*TAUS, 5.0, 0.2).ss, IC, pulse,
                      dt=DT, t_end=50.0)
    run_b = integrate(LureLoop.amplifier(*TAUS, 5.0, 0.4).ss, IC,
                      InputSchedule.constant(0.0), dt=DT, t_end=50.0)
    run_c = integrate(LureLoop.amplifier(*TAUS, 5.0, 0.8).ss, IC, switch,
                      dt=DT, t_end=50.0)
    elapsed = time.perf_counter() - t0
    return {"a": run_a, "b": run_b, "c": run_c, "sim_seconds": elapsed}


@criterion(1, "three reference tunings: stable return / oscillation / basin switch")
def test_criterion_1_reference_regimes(reference_runs):
    t0 = time.perf_counter()
    regimes = {beta: LureLoop.amplifier(*TAUS, 5.0, beta).classify(0.0, 50.0)
               for beta in (0.2, 0.4, 0.8)}
    classify_seconds = time.perf_counter() - t0

    assert regimes[0.2].regime == REGIME_ZERO_DOMINANT
    assert regimes[0.4].regime == REGIME_OSCILLATION
    assert regimes[0.8].regime == REGIME_MULTISTABLE

    # (a) returns to the pre-pulse steady state within 1e-4
    run_a = reference_runs["a"]
    i_pre = int(round(20.0 / DT))
    assert np.abs(run_a.states[-1] - run_a.states[i_pre]).max() < 1e-4

    # (b) sustained oscillation
    rep_b = detect_oscillation(reference_runs["b"])
    assert rep_b.oscillating

    # (c) the shipped pulse switches between the two stable equilibria
    run_c = reference_runs["c"]
    stable_ys = sorted(e.y_star for e in regimes[0.8].equilibria
                       if e.stability == STABLE)
    assert len(stable_ys) == 2
    y_pre, y_post = run_c.y[i_pre], run_c.y[-1]
    assert min(abs(y_pre - s) for s in stable_ys) < 1e-3
    assert min(abs(y_post - s) for s in stable_ys) < 1e-3
    assert abs(y_post - y_pre) > 1.0  # landed on the other equilibrium

    total = reference_runs["sim_seconds"] + classify_seconds
    print(f"  [criterion 1 runtime {total:.2f}s]")
    assert total < 10.0


@criterion(2, "critical balance formula and 2-passivity above it (200 random)")
def test_criterion_2_critical_balance():
    def critical(tp, tn):  # of one unit-weight channel per bank
        return bank_critical_balance(ChannelBank((Channel(1.0, tp),)),
                                     ChannelBank((Channel(1.0, tn),)))

    bstar = critical(0.1, 1.0)
    assert abs(bstar - 1.0 / 11.0) < 1e-12
    assert analyze_report(TAUS, 5.0, bstar)["zero"] == "infinite"

    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(200):
        tp = float(rng.uniform(0.01, 0.5))
        tn = tp * float(rng.uniform(1.5, 30.0))
        tl = float(rng.uniform(0.005, 20.0))
        if tl == tp or tl == tn:
            tl *= 1.0001
        bs = critical(tp, tn)
        beta = float(rng.uniform(bs + 1e-9, 1.0))
        k = float(rng.uniform(0.05, 200.0))
        g1 = LureLoop.amplifier(tl, tp, tn, 1.0, beta).g1
        cert = check_p_passivity(g1, midpoint_rate(g1.poles()), 2, k)
        failures += 0 if cert.passed else 1
    assert failures == 0


@criterion(3, "critical gains match a 1e6-point brute-force sweep (50 random)")
def test_criterion_3_critical_gain_oracle():
    rng = np.random.default_rng(777)
    for trial in range(50):
        tp = float(rng.uniform(0.01, 0.5))
        tn = tp * float(rng.uniform(1.5, 30.0))
        tl = float(rng.uniform(0.005, 20.0))
        if tl == tp or tl == tn:
            tl *= 1.0001
        beta = float(rng.uniform(0.0, 1.0))
        p = (tl, tp, tn, beta)
        loop = LureLoop.amplifier(tl, tp, tn, 1.0, beta)
        if trial % 2 == 0:
            lam, deg = 0.0, 0
        else:
            lam, deg = midpoint_rate(loop.poles), 2
        got = _gain(min_real_part(loop.g1, lam)[0])
        corners = [1.0 / t for t in (tl, tp, tn)]
        oracle_min = brute_min_re(loop.g1, lam,
                                  1e-3 * min(corners), 1e3 * max(corners))
        oracle = math.inf if oracle_min >= 0.0 else -1.0 / oracle_min
        if math.isinf(oracle):
            assert math.isinf(got), (p, lam)
        else:
            assert abs(got - oracle) <= 1e-3 * oracle, (p, lam)


@criterion(4, "equilibrium count law on a 40x40 grid and the bistable value")
def test_criterion_4_count_law():
    ks = np.geomspace(0.1, 1000.0, 40)
    betas = np.linspace(0.0, 1.0, 40)
    for k in ks:
        for beta in betas:
            loop = LureLoop.amplifier(*TAUS, float(k), float(beta))
            g0 = loop.g0
            if abs(g0 - 1.0) < 1e-3:
                continue
            n = len(loop.equilibria(0.0))
            assert n == (3 if g0 > 1.0 else 1), (k, beta, g0, n)

    eqs = LureLoop.amplifier(*TAUS, 5.0, 0.8).equilibria(0.0)
    y_top = max(e.y_star for e in eqs)
    oracle = bisect_root(lambda y: math.tanh(y) - y / 3.0, 1.0, 4.0)
    assert abs(y_top - 2.9847) < 1e-3
    assert abs(y_top - oracle) < 1e-9


@criterion(5, "interlacing pattern on 500 random channel banks")
def test_criterion_5_interlacing_suite():
    rng = np.random.default_rng(55)
    t0 = time.perf_counter()
    for _ in range(500):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        taus = np.sort(rng.uniform(0.01, 10.0, m + n))
        while len(set(taus)) != m + n:
            taus = np.sort(rng.uniform(0.01, 10.0, m + n))
        rho_p = rng.uniform(0.1, 1.0, m)
        rho_p /= rho_p.sum()
        rho_n = rng.uniform(0.1, 1.0, n)
        rho_n /= rho_n.sum()
        pos = ChannelBank(tuple(Channel(float(w), float(t))
                                for w, t in zip(rho_p, taus[:m])))
        neg = ChannelBank(tuple(Channel(float(w), float(t))
                                for w, t in zip(rho_n, taus[m:])))
        beta = float(rng.uniform(0.05, 0.95))
        rep = check_interlacing(pos, neg, LureLoop.bank(0.003, pos, neg, 1.0, beta).g1.zeros())
        assert rep.satisfied, (taus, beta)
        assert len(rep.zeros) == m + n - 1
        assert rep.pattern.count("between-positive-poles") == m - 1
        assert rep.pattern.count("between-negative-poles") == n - 1
        assert rep.pattern.count("outer") == 1
    elapsed = time.perf_counter() - t0
    print(f"  [criterion 5 runtime {elapsed:.2f}s]")
    assert elapsed < 5.0


@criterion(6, "passive load interconnection: certificates and limit cycle")
def test_criterion_6_interconnection():
    t0 = time.perf_counter()
    unit = LureLoop.amplifier(*TAUS, 1.0, 0.4)
    load = LoadParams(a=350.0, b=35.0, kv=1.0, kp=20.0)
    iface = InterfaceGains(ki=10.0, ko=1.0)

    c_load = check_p_passivity(load_tf(load), 15.0, 0, 1.0)
    assert c_load.passed
    c_amp = check_p_passivity(unit.g1, 15.0, 2, 10.0)
    comp = compose_certificates(c_amp, c_load)
    assert comp.valid and comp.p_total == 2

    loop = LureLoop.load(unit, 10.0, load, iface)
    traj = integrate(loop.ss, (0.1, 0.0, 0.0, 0.0, 0.0), dt=DT, t_end=50.0)
    rep_y = detect_oscillation(traj, transient_fraction=0.4)
    rep_ye = detect_oscillation(
        Trajectory(traj.t, traj.states, traj.extra["ye"], traj.schedule,
                   traj.labels), transient_fraction=0.4)
    assert rep_y.oscillating and rep_ye.oscillating
    assert abs(rep_y.period - rep_ye.period) <= 0.02 * rep_ye.period

    # soundness context: every closed-loop equilibrium is unstable
    eqs = loop.equilibria(0.0)
    assert all(e.stability == UNSTABLE for e in eqs)

    elapsed = time.perf_counter() - t0
    print(f"  [criterion 6 runtime {elapsed:.2f}s]")
    assert elapsed < 5.0


@criterion(7, "numerical hygiene: integrator order, Jacobians, symmetry, bounds")
def test_criterion_7_numerical_hygiene(reference_runs):
    # RK4 order ratio on the severed-loop linear case
    p_lin = LureLoop.amplifier(0.5, 0.1, 1.0, 0.0, 0.3)

    def endpoint(dt):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return integrate(p_lin.ss, (1.0, 1.0, 1.0), dt=dt,
                             t_end=1.0).states[-1]

    ref = endpoint(0.05 / 16)
    e1 = np.abs(endpoint(0.05) - ref).sum()
    e2 = np.abs(endpoint(0.025) - ref).sum()
    assert 12.0 <= e1 / e2 <= 20.0

    # Jacobian vs central finite differences, 1e-6 relative
    rng = np.random.default_rng(71)
    for _ in range(25):
        k, beta = float(rng.uniform(0, 20)), float(rng.uniform(0, 1))
        r = float(rng.uniform(-1, 1))
        loop = LureLoop.amplifier(*TAUS, k, beta)
        for eq in loop.equilibria(r):
            a = loop.jacobians([eq.y_star])[0]
            fd = fd_jacobian(lambda s: vector_field(TAUS, k, beta, s, r), eq.state)
            assert np.abs(a - fd).max() <= 1e-6 * max(1.0, np.abs(a).max())

    # conjugate symmetry and shift homomorphism on 1000 random TFs
    rng = np.random.default_rng(72)
    for _ in range(1000):
        g = random_proper_tf(rng)
        w = float(rng.uniform(0.01, 100.0))
        up, down = (_horner(g.num, s) / _horner(g.den, s) for s in (1j * w, -1j * w))
        assert abs(down - up.conjugate()) <= 1e-13 * max(1.0, abs(up))
        l1, l2 = rng.uniform(0.0, 2.0, 2)
        once = tf_shift(g, l1 + l2)
        twice = tf_shift(tf_shift(g, l1), l2)
        for pa, pb in ((once.num, twice.num), (once.den, twice.den)):
            scale = max(1.0, max(abs(c) for c in pa))
            assert max(abs(x - y) for x, y in zip(pa, pb)) \
                <= 1e-12 * scale

    # ultimate bound |state| <= |r| + 1 + 0.1 on every shipped simulation recipe
    settle = 10.0 * max(TAUS)
    for key in ("a", "b", "c"):
        traj = reference_runs[key]
        r_max = traj.schedule.max_abs_value
        assert boundedness_check(traj, r_max=r_max,
                                 settle_time=settle), key


@criterion(8, "qualitative regime maps: low-gain stability, oscillation region, separation")
def test_criterion_8_maps():
    t0 = time.perf_counter()
    ks = np.geomspace(0.1, 1000.0, 60)
    betas = np.linspace(0.0, 1.0, 60)
    wide = dominance_map(0.01, 0.1, 1.0, ks, betas, r=0.0, lam=50.0)
    reduced = dominance_map(0.01, 0.1, 0.3, ks, betas, r=0.0, lam=50.0)

    # (i) every cell with k < 1 is in the globally stable regime
    for ik, k in enumerate(ks):
        if k >= 1.0:
            continue
        for ib in range(len(betas)):
            assert wide[ik][ib].regime == REGIME_ZERO_DOMINANT, (k, betas[ib])

    # (ii) the oscillation region exists and contains (k=5, beta=0.4)
    def count_osc(cells):
        return sum(1 for row in cells for c in row
                   if c.regime == REGIME_OSCILLATION)

    assert count_osc(wide) > 0
    assert LureLoop.amplifier(0.01, 0.1, 1.0, 5.0, 0.4).classify(
        0.0, 50.0).regime == REGIME_OSCILLATION

    # (iii) wider time-scale separation gives strictly more oscillation cells
    assert count_osc(wide) > count_osc(reduced)

    elapsed = time.perf_counter() - t0
    print(f"  [criterion 8 runtime {elapsed:.2f}s, "
          f"osc cells wide={count_osc(wide)} reduced={count_osc(reduced)}]")
    assert elapsed < 60.0
