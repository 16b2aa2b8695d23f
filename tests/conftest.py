"""Shared test oracles, independent of the code paths they check."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
from collections import Counter
from fractions import Fraction

import numpy as np

from mfa.cli import _read_load, main
from mfa.equilibria import LureLoop
from mfa.multichannel import Channel, ChannelBank
from mfa.tf_core import Polynomial, RationalTF, get_nonlinearity, tf_shift

RECIPES_DIR = os.path.join(os.path.dirname(__file__), "..", "recipes")


def brute_min_re(g: RationalTF, lam: float, omega_lo: float, omega_hi: float,
                 n: int = 10**6, zoom: int = 0) -> float:
    """Dense uniform-log sweep minimum of Re G(jw - lam), plus the w=0 and
    w->infinity candidates (0, as G is strictly proper).  Plain vectorized evaluation; with ``zoom > 0``
    the sweep is repeated ``zoom`` times on 1001 linear points around each of
    its eight lowest local minima, each time between the neighbours of the
    lowest sample."""
    gs = tf_shift(g, lam)
    num, den = np.asarray(gs.num.coeffs), np.asarray(gs.den.coeffs)

    def re(w):
        s = 1j * w
        return np.real(np.polynomial.polynomial.polyval(s, num)
                       / np.polynomial.polynomial.polyval(s, den))

    w = np.geomspace(omega_lo, omega_hi, n)
    vals = re(w)
    cands = [float(np.min(vals))]
    cands.append((gs.num(0j) / gs.den(0j)).real)
    cands.append(0.0)  # the limit of a strictly proper G
    if zoom:
        inner = np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
        for i in inner[np.argsort(vals[inner])[:8]]:
            lo, hi = w[i - 1], w[i + 1]
            for _ in range(zoom):
                ww = np.linspace(lo, hi, 1001)
                vv = re(ww)
                j = int(np.argmin(vv))
                cands.append(float(vv[j]))
                lo, hi = ww[max(j - 1, 0)], ww[min(j + 1, 1000)]
    return min(cands)


def gain_scaled(g1: RationalTF, k: float) -> RationalTF:
    """k G1, with the numerator scaled coefficient by coefficient and the
    poles of G1."""
    return RationalTF(Polynomial([k * c for c in g1.num.coeffs]), g1.den, g1.poles())


def exact_bank_numerator(pos, neg, beta: float) -> tuple[list[Fraction], list[Fraction]]:
    """-(beta Cp - (1 - beta) Cn) over the product of every channel's
    (tau s + 1), expanded in exact rational arithmetic from the double
    inputs: the ascending coefficients, and for each the sum of the absolute
    values of its terms w_i prod_{j != i} (tau_j s + 1)."""
    b = Fraction(beta)
    chans = [(-b * Fraction(ch.rho), Fraction(ch.tau)) for ch in pos.channels]
    chans += [((1 - b) * Fraction(ch.rho), Fraction(ch.tau)) for ch in neg.channels]
    coeffs = [Fraction(0)] * len(chans)
    scales = [Fraction(0)] * len(chans)
    for i, (w, _) in enumerate(chans):
        term = [w]
        for j, (_, tau) in enumerate(chans):
            if j != i:
                term = [a + tau * c for a, c in zip(term + [0], [0] + term)]
        for d, c in enumerate(term):
            coeffs[d] += c
            scales[d] += abs(c)
    return coeffs, scales


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (flo < 0.0) != (fm < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def fold_point(tag: str, slope: float) -> tuple[float, float]:
    """Analytic fold of phi(y) = r + slope*y for 0 < slope < 1: the y_c > 0
    with phi'(y_c) = slope, and r_fold = phi(y_c) - slope*y_c."""
    if tag == "tanh":
        y_c = math.acosh(1.0 / math.sqrt(slope))
        return y_c, math.tanh(y_c) - slope * y_c
    y_c = (2.0 / math.pi) * math.sqrt(1.0 / slope - 1.0)
    return y_c, (2.0 / math.pi) * math.atan(math.pi * y_c / 2.0) - slope * y_c


def random_proper_tf(rng: np.random.Generator, max_deg: int = 6) -> RationalTF:
    """Random strictly proper transfer function with O(1) coefficients and
    its poles from ``np.roots``.  The numerator degree is drawn from 0 to
    the denominator's and clamped below it; the coefficients are drawn for
    the unclamped degree, so the generator's stream does not depend on the
    clamp."""
    nd = int(rng.integers(1, max_deg + 1))
    nn = int(rng.integers(0, nd + 1))
    den = rng.uniform(-2.0, 2.0, nd + 1)
    den[-1] = rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)
    num = rng.uniform(-2.0, 2.0, nn + 1)[:nd]
    if abs(num[-1]) < 0.1:
        num[-1] = 0.5
    return RationalTF(Polynomial(num), Polynomial(den), np.roots(den[::-1]))


def fd_jacobian(field, state, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a vector field at one state."""
    state = np.asarray(state, dtype=float)
    n = len(state)
    out = np.empty((n, n))
    for j in range(n):
        dp = state.copy()
        dm = state.copy()
        h = eps * max(1.0, abs(state[j]))
        dp[j] += h
        dm[j] -= h
        out[:, j] = (np.asarray(field(dp)) - np.asarray(field(dm))) / (2.0 * h)
    return out


def vector_field(taus, k: float, beta: float, state, r: float, nonlinearity: str = "tanh"):
    """Right-hand side of the amplifier ODEs with lags ``taus`` = (tau_l,
    tau_p, tau_n) at one state, written out by hand from the three lag
    equations."""
    x, xp, xn = state
    tl, tp, tn = taus
    y = k * (-beta * xp + (1.0 - beta) * xn)
    u = r - get_nonlinearity(nonlinearity)[0](y)
    return ((-x + u) / tl, (x - xp) / tp, (x - xn) / tn)


def analyze_report(taus, k: float, beta: float) -> dict:
    """The JSON report of ``mfa analyze`` for the lags ``taus`` = (tau_l,
    tau_p, tau_n), gain k and balance beta, each flag the repr of its float."""
    flags = [w for name, v in zip(("--tau-l", "--tau-p", "--tau-n", "--k", "--beta"),
                                  (*taus, k, beta)) for w in (name, repr(float(v)))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", *flags]) == 0
    return json.loads(out.getvalue())


def reference_shift(coeffs, lam: float) -> tuple[float, ...]:
    """The binomial re-expansion loop that ``Polynomial.shifted`` replaced:
    the coefficients of p(s - lam), ascending, with each power
    (s - lam)**j formed by ``np.convolve`` and the terms added as lists.
    Trailing zeros are stripped as a ``Polynomial`` strips them."""
    def add(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0)
                for i in range(n)]

    out = [0.0]
    power = [1.0]
    for a in coeffs:
        out = add(out, [a * c for c in power])
        power = list(np.convolve(power, [-lam, 1.0]))
    return Polynomial(out).coeffs


def repeated_operations(src: str) -> list[str]:
    """The arithmetic expressions (``ast.dump``) that the straight-line
    code ``src`` writes more than once; a negative constant such as
    ``-1.0`` is no operation.  Each local of such code is assigned once, so
    an expression written twice is computed twice."""
    written = Counter(ast.dump(node) for node in ast.walk(ast.parse(src))
                      if isinstance(node, ast.BinOp) or isinstance(node, ast.UnaryOp)
                      and not isinstance(node.operand, ast.Constant))
    return [dump for dump, n in written.items() if n > 1]


def reference_rk4(ss, ic, r_steps, dt: float) -> np.ndarray:
    """The generic closure-based RK4 loop that ``sim.integrate`` replaced:
    one call of ``f`` per stage, summing the sparse terms in index order.
    Returns the ``(len(r_steps) + 1, n)`` states; a non-finite state raises
    ``ArithmeticError("divergence at t=...")``."""
    n = ss.dim
    n_steps = len(r_steps)
    phi = get_nonlinearity(ss.nonlinearity)[0]

    def nonzero(row):
        return [(j, v) for j, v in enumerate(row) if v != 0.0]

    a_rows = [nonzero(row) for row in ss.a]
    b_terms = nonzero(ss.b)
    c_terms = nonzero(ss.loop_row)

    states = np.empty((n_steps + 1, n))
    s = [float(v) for v in ic]
    if len(s) != n:
        raise ValueError("initial condition dimension mismatch")
    states[0] = s
    half = dt / 2.0
    sixth = dt / 6.0
    rng = range(n)
    isfinite = math.isfinite

    def f(state, r):
        y = 0.0
        for j, cj in c_terms:
            y += cj * state[j]
        u = r - phi(y)
        out = [0.0] * n
        for i in rng:
            v = 0.0
            for j, aij in a_rows[i]:
                v += aij * state[j]
            out[i] = v
        for i, bi in b_terms:
            out[i] += bi * u
        return out

    for step in range(n_steps):
        r = r_steps[step]
        k1 = f(s, r)
        k2 = f([s[i] + half * k1[i] for i in rng], r)
        k3 = f([s[i] + half * k2[i] for i in rng], r)
        k4 = f([s[i] + dt * k3[i] for i in rng], r)
        s = [s[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in rng]
        if not all(isfinite(v) for v in s):
            raise ArithmeticError(f"divergence at t={(step + 1) * dt:.6g}")
        states[step + 1] = s
    return states


#: Loops of 9 and 13 states, where a product of the states with an output
#: row over the whole array can differ in the last bit from the products
#: over blocks of rows: a 4+4 and a 6+6 channel bank, and a 3+3 bank
#: bordered by the recipe load.
WIDE_LOOPS = ["bank-4x4", "bank-6x6", "bank-3x3-load"]


def wide_loop(name: str):
    """The state space and a seeded initial state of the loop ``name`` of
    :data:`WIDE_LOOPS`."""
    taus = {"bank-4x4": ((0.02, 0.05, 0.1, 0.2), (1.0, 1.5, 2.0, 3.0)),
            "bank-6x6": ((0.02, 0.03, 0.05, 0.08, 0.12, 0.2), (1.0, 1.25, 1.5, 2.0, 2.5, 3.0)),
            "bank-3x3-load": ((0.05, 0.1, 0.2), (1.0, 2.0, 3.0))}[name]
    pos, neg = (ChannelBank(tuple(Channel(1.0 / len(ts), tau) for tau in ts)) for ts in taus)
    if name.endswith("load"):
        load, iface = _read_load(os.path.join(RECIPES_DIR, "data", "load_msd.json"))
        ss = LureLoop.load(LureLoop.bank(0.01, pos, neg, 1.0, 0.4), 10.0, load, iface).ss
    else:
        ss = LureLoop.bank(0.01, pos, neg, 5.0, 0.4).ss
    return ss, tuple(np.random.default_rng(ss.dim).uniform(-0.1, 0.1, ss.dim).tolist())


def reference_map_text(ks, betas, cells) -> str:
    """Rows of a map CSV with one ``%`` row format for every cell, as the map
    wrote them before it formatted each value once by its grid position."""
    row = "%.17g,%.17g,%s,%.17g,%.17g,%d,%d\n"
    values = tuple(v for k, cells_k in zip(ks, cells) for beta, c in zip(betas, cells_k)
                   for v in (k, beta, c.regime, c.k0_bar, c.k2_bar, c.n_equilibria,
                             c.n_unstable))
    return (row * (len(ks) * len(betas))) % values


def reference_min_real_part(g: RationalTF, lam: float) -> tuple[float, float]:
    """min Re G(jw - lam) with the stationary points from one ``np.roots``
    call per rate on the coefficients of ``freq_analysis._stationary_poly``:
    the one-rate path of ``freq_analysis.min_real_part`` before its companion
    matrices were stacked, with its frequencies taken by ``np.sqrt``."""
    from mfa.freq_analysis import _check_axis_clear, _re_at, _stationary_poly

    _check_axis_clear(g, lam)
    if g.num.is_zero:
        return 0.0, 0.0
    shifted = tf_shift(g, lam)
    num, den = shifted.num.coeffs, shifted.den.coeffs
    w0, rr = _stationary_poly(num, den)
    z = np.roots(rr) if rr else np.zeros(0)
    omegas = w0 * np.sqrt(z.real[z.real > 0.0])
    best_re, best_w = _re_at(num, den, 0.0), 0.0
    if 0.0 < best_re:  # the limit of a strictly proper G at w -> infinity
        best_re, best_w = 0.0, math.inf
    for w in omegas:
        v = _re_at(num, den, float(w))
        if v < best_re:
            best_re, best_w = v, float(w)
    return best_re, best_w
