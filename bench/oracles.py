"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports ``mfa``: transfer functions are evaluated from the
channel formulas directly at s = jw - lambda, equilibria come from splitting
the line at the closed-form points where tanh' equals the line slope, and
state-space systems are built from the model equations.  Only the tanh
saturation is covered, which is the only one the workloads use.
"""

from __future__ import annotations

import math

import numpy as np

# Same eigenvalue margin as the model's stable/unstable/marginal labels.
STABILITY_MARGIN = 1e-8


# ---------------------------------------------------------------------------
# transfer functions, as callables of a complex array s

def amp_tf(taus, k, beta):
    """G(s) = -k (beta/(tau_p s + 1) - (1 - beta)/(tau_n s + 1)) / (tau_l s + 1)."""
    tl, tp, tn = taus
    return lambda s: -k * (beta / (tp * s + 1) - (1 - beta) / (tn * s + 1)) / (tl * s + 1)


def bank_tf(tau_l, pos, neg, k, beta):
    """Extended open loop of two channel banks given as (rho, tau) lists."""
    def g(s):
        cp = sum(rho / (tau * s + 1) for rho, tau in pos)
        cn = sum(rho / (tau * s + 1) for rho, tau in neg)
        return -k * (beta * cp - (1 - beta) * cn) / (tau_l * s + 1)
    return g


def channel_difference(pos, neg, beta):
    """C(s) = beta sum rho/(tau s + 1) - (1 - beta) sum rho/(tau s + 1)."""
    return lambda s: (beta * sum(rho / (tau * s + 1) for rho, tau in pos)
                      - (1 - beta) * sum(rho / (tau * s + 1) for rho, tau in neg))


def load_tf(load):
    """Mass-spring-damper load (kv s + kp)/(s^2 + b s + a)."""
    return lambda s: (load["kv"] * s + load["kp"]) / (s * s + load["b"] * s + load["a"])


def load_poles(load):
    disc = complex(load["b"] ** 2 - 4 * load["a"])
    root = disc ** 0.5
    return [(-load["b"] + root) / 2, (-load["b"] - root) / 2]


def min_re(g, lam, corners):
    """Minimum over w >= 0 of Re g(jw - lam), for a strictly proper g, and
    max |g(jw - lam)| on the sweep as the scale for comparing it.

    A log sweep at 200 points per decade, six decades beyond the corner
    frequencies on each side, then two linear zoom passes of 2001 points
    around each of the four lowest local minima.  w = 0 and the w -> inf
    limit (0 for a strictly proper g) are included.
    """
    lo, hi = 1e-6 * min(corners), 1e6 * max(corners)
    n = int(200 * math.log10(hi / lo)) + 1
    w = np.geomspace(lo, hi, n)
    vals = g(1j * w - lam).real
    best = min(0.0, float(g(complex(-lam, 0.0)).real))
    interior = np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    for i in interior[np.argsort(vals[interior])][:4]:
        a, b = w[i - 1], w[i + 1]
        for _ in range(2):
            ws = np.linspace(a, b, 2001)
            vs = g(1j * ws - lam).real
            j = int(np.argmin(vs))
            a, b = ws[max(j - 1, 0)], ws[min(j + 1, len(ws) - 1)]
        best = min(best, float(vs.min()))
    return min(best, float(vals.min())), float(np.abs(g(1j * w - lam)).max())


def same_inverse_gain(reported_gain, oracle_min_re, scale, rtol=1e-8):
    """Whether a reported critical gain matches -1/min Re (inf when min Re >= 0).

    Compared as inverse gains, min(min Re, 0), to an absolute tolerance
    scaled by max |G| so a minimum that sits near zero compares sensibly.
    """
    return abs(-1.0 / reported_gain - min(oracle_min_re, 0.0)) <= rtol * scale


# ---------------------------------------------------------------------------
# equilibria of the saturated loop: tanh(v) = r + v/g

def r_fold(g):
    """Reference at which the line r + v/g is tangent to tanh (g > 1)."""
    yc = math.acosh(math.sqrt(g))
    return math.tanh(yc) - yc / g


def fold_distance(g, r):
    """Smallest |h| at the critical points of h(v) = tanh(v) - r - v/g.

    inf when h is monotone (g <= 1), so no fold can be near.
    """
    if g <= 1.0:
        return math.inf
    yc = math.acosh(math.sqrt(g))
    return min(abs(math.tanh(s * yc) - r - s * yc / g) for s in (-1.0, 1.0))


def _bisect(h, a, b):
    ha = h(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        if m in (a, b):
            break
        hm = h(m)
        if hm == 0.0:
            return m
        if (ha < 0.0) != (hm < 0.0):
            b = m
        else:
            a, ha = m, hm
    return 0.5 * (a + b)


def line_roots(g, r):
    """Every real v with tanh(v) = r + v/g, ascending.

    h(v) = tanh(v) - r - v/g is monotone between the points where
    tanh'(v) = 1/g, which are +-acosh(sqrt(g)) when g > 1 and absent
    otherwise; each monotone piece holds at most one root, found by
    bisection when its end values differ in sign.  g = 0 has the single
    root v = 0.
    """
    if g == 0.0:
        return [0.0]

    def h(v):
        return math.tanh(v) - r - v / g

    bound = (1.0 + abs(r)) * abs(g) + 1.0
    edges = [-bound, bound]
    if g > 1.0:
        yc = math.acosh(math.sqrt(g))
        edges = [-bound, -yc, yc, bound]
    roots = []
    for a, b in zip(edges, edges[1:]):
        ha, hb = h(a), h(b)
        if ha == 0.0 and (not roots or roots[-1] != a):
            roots.append(a)
        if hb == 0.0:
            roots.append(b)
        elif ha != 0.0 and (ha < 0.0) != (hb < 0.0):
            roots.append(_bisect(h, a, b))
    return roots


# ---------------------------------------------------------------------------
# Lur'e systems x' = A x + b (r - tanh(c_loop x)), output y = c x

class Lure:
    """Linear part of a saturated loop, built from the model equations."""

    def __init__(self, a, b, c, c_loop=None, extra=None):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.c_loop = self.c if c_loop is None else np.asarray(c_loop, dtype=float)
        self.extra = extra or {}

    def field(self, states, r):
        """Vector field at each row of ``states`` with reference ``r``."""
        u = r - np.tanh(states @ self.c_loop)
        return states @ self.a.T + np.multiply.outer(u, self.b)

    def linearization(self, v):
        """Jacobian eigenvalues at saturation input v, and the stability label."""
        t = math.tanh(v)
        eigs = np.linalg.eigvals(self.a - (1.0 - t * t) * np.outer(self.b, self.c_loop))
        if np.all(eigs.real < -STABILITY_MARGIN):
            return eigs, "stable"
        if np.any(eigs.real > STABILITY_MARGIN):
            return eigs, "unstable"
        return eigs, "marginal"

    def residual(self, state, r):
        """Relative size of the vector field at ``state``."""
        state = np.asarray(state, dtype=float)
        scale = np.abs(self.a).max() * (1.0 + np.abs(state).max()) + np.abs(self.b).max()
        return float(np.abs(self.field(state[None, :], np.array([r]))).max() / scale)


def rk4_step(system, s, r, dt):
    """One classical RK4 step with the reference held at r."""
    def f(x):
        return system.a @ x + system.b * (r - math.tanh(system.c_loop @ x))
    k1 = f(s)
    k2 = f(s + dt / 2 * k1)
    k3 = f(s + dt / 2 * k2)
    k4 = f(s + dt * k3)
    return s + dt / 6 * (k1 + 2 * (k2 + k3) + k4)


def amplifier(taus, k, beta):
    tl, tp, tn = taus
    return Lure(a=[[-1 / tl, 0, 0], [1 / tp, -1 / tp, 0], [1 / tn, 0, -1 / tn]],
                b=[1 / tl, 0, 0], c=[0, -k * beta, k * (1 - beta)])


def bank_system(tau_l, pos, neg, k, beta):
    taus = [tau for _, tau in pos] + [tau for _, tau in neg]
    n = 1 + len(taus)
    a = np.zeros((n, n))
    a[0, 0] = -1 / tau_l
    for i, tau in enumerate(taus, start=1):
        a[i, 0], a[i, i] = 1 / tau, -1 / tau
    c = [0.0] + [-k * beta * rho for rho, _ in pos] + [k * (1 - beta) * rho for rho, _ in neg]
    b = np.zeros(n)
    b[0] = 1 / tau_l
    return Lure(a, b, c)


def interconnection(taus, k, beta, load):
    """Amplifier driving the load with force ko*y; the load output ye = kp q + kv q'
    joins the saturation input, v = y + ki*ye."""
    tl, tp, tn = taus
    ko, ki = load["ko"], load["ki"]
    a = [[-1 / tl, 0, 0, 0, 0],
         [1 / tp, -1 / tp, 0, 0, 0],
         [1 / tn, 0, -1 / tn, 0, 0],
         [0, 0, 0, 0, 1],
         [0, -ko * k * beta, ko * k * (1 - beta), -load["a"], -load["b"]]]
    c = [0, -k * beta, k * (1 - beta), 0, 0]
    ye = [0, 0, 0, load["kp"], load["kv"]]
    c_loop = np.add(c, np.multiply(ki, ye))
    return Lure(a, [1 / tl, 0, 0, 0, 0], c, c_loop, extra={"ye": np.asarray(ye, float)})


def stable_equilibria(system, g, r):
    """States of the stable equilibria of a loop of unit-DC lags (no load).

    Every lag state equals x = r - tanh(v) at an equilibrium, and v solves
    tanh(v) = r + v/g with g the DC loop gain.
    """
    return [np.full(len(system.b), r - math.tanh(v))
            for v in line_roots(g, r) if system.linearization(v)[1] == "stable"]
