"""Lur'e loops: certificates, equilibria, regimes and (gain, balance) regime maps.

Every system here is one Lur'e loop: a linear part x' = A x + b u with
saturation input v = c_loop x, closed through one sector-[0, 1] sigmoid,
u = r - phi(v).  :class:`LureLoop` holds such a loop.  A channel loop is a
load lag driving two banks of first-order channels; the amplifier is the
channel loop of one unit-weight channel per bank, and a load loop borders any
unit-gain channel loop with a mass-spring-damper load.  With a constant
reference r the equilibria solve the scalar equation phi(v) = r + v/g0, where
g0 is the DC loop gain seen by the saturation input; each root lifts to a
state and an output.  Stability is read off the eigenvalues of the Jacobian
A - phi'(v) b c_loop.  A regime map needs only counts: for the amplifier an
equilibrium is unstable exactly when phi'(v) k exceeds the loop's crossing
gain T, so map cells are counted from the signs of phi(v) - v/g0 - r at a few
nodes, with no root and no eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Callable, NamedTuple

import numpy as np

from .freq_analysis import _check_axis_clear, _gain, midpoint_rate, min_real_part
from .interconnect import InterfaceGains, LoadParams, load_tf
from .multichannel import ChannelBank
from .sim import StateSpace
from .tf_core import Polynomial, RationalTF, _eigvals, get_nonlinearity

__all__ = [
    "Equilibrium",
    "LureLoop",
    "MapCell",
    "RegimeClassification",
    "MARGINAL",
    "STABLE",
    "UNSTABLE",
    "REGIME_MULTISTABLE",
    "REGIME_OSCILLATION",
    "REGIME_UNCLASSIFIED",
    "REGIME_ZERO_DOMINANT",
    "classify_stability",
    "dominance_map",
    "solve_phi_line",
]

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

REGIME_ZERO_DOMINANT = "ZeroDominantStable"
REGIME_OSCILLATION = "TwoDominantOscillation"
REGIME_MULTISTABLE = "TwoDominantMultistable"
REGIME_UNCLASSIFIED = "Unclassified"

_BISECT_TOL = 1e-12

#: Eigenvalue real parts within this of zero make an equilibrium marginal.
_STABILITY_MARGIN = 1e-8


@dataclass(frozen=True)
class Equilibrium:
    """A closed-loop fixed point: output value, full state, linearization."""

    y_star: float
    state: tuple[float, ...]
    eigenvalues: tuple[complex, ...]
    stability: str


@dataclass(frozen=True)
class RegimeClassification:
    """Regime label plus the data it was decided from."""

    regime: str
    k0_bar: float
    k2_bar: float
    equilibria: tuple[Equilibrium, ...]
    reason: str = ""


class MapCell(NamedTuple):
    """One (gain, balance) cell of a regime map: the regime, the column's
    critical gains and the equilibrium counts."""

    regime: str
    k0_bar: float
    k2_bar: float
    n_equilibria: int
    n_unstable: int
    reason: str = ""


def _bisect(phi, slope: float, r: float, a, b, fa):
    """Root of h(y) = phi(y) - slope*y - r on [a, b], where h(a) = fa and
    h(b) differ in sign, to 1e-12 or to adjacent floats, whichever is wider;
    h is evaluated inline, in the order :func:`_scan_line` takes it."""
    m = 0.5 * (a + b)
    while b - a > _BISECT_TOL and a < m < b:
        fm = phi(m) - slope * m - r
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm
        m = 0.5 * (a + b)
    return m


def _scan_line(phi, slope: float, r: float, slope_inverse, y_s: float = -1.0,
               brackets: list | None = None) -> tuple[int, int, int]:
    """Count the roots of h(y) = phi(y) - slope*y - r (slope != 0) in one
    pass over the sorted nodes +-bound, +-y_c (when 0 < slope < 1) and +-y_s
    (when y_s >= 0), one each for zero.  No root lies outside (-bound, bound)
    and h is monotone between adjacent nodes, so each root is a node where
    h is exactly zero or lies between adjacent nodes a < b where h is
    nonzero with opposite signs.  Returns the number of roots, of those in
    [-y_s, y_s] but not at +-y_s, and of those at +-y_s; each is appended to
    ``brackets``, when given, as (y, y, _) at a node or as (a, b, h(a)).
    h is evaluated once per node."""
    bound = (1.0 + abs(r)) / abs(slope) + 1.0
    nodes = {bound, -bound}
    if 0.0 < slope < 1.0:
        y_c = slope_inverse(slope)
        nodes.add(y_c)
        nodes.add(-y_c)
    if y_s >= 0.0:
        nodes.add(y_s)
        nodes.add(-y_s)  # y_s = 0.0 stays 0.0: -0.0 is equal, so not added
    n = inner = edge = 0
    a = fa = 0.0
    for b in sorted(nodes):
        # r_fold = phi(y_c) - slope*y_c in this order makes h(y_c) exactly 0
        fb = phi(b) - slope * b - r
        if fb == 0.0:
            a = b
        elif not fa or (fa < 0.0) == (fb < 0.0):
            a, fa = b, fb
            continue
        n += 1
        if a == b and abs(b) == y_s:
            edge += 1
        elif -y_s <= a and b <= y_s:
            inner += 1
        if brackets is not None:
            brackets.append((a, b, fa))
        a, fa = b, fb
    return n, inner, edge


def solve_phi_line(phi, slope: float, r: float, slope_inverse) -> list[float]:
    """All real solutions y of phi(y) = r + slope*y, sorted, for a registered phi.

    ``slope_inverse`` maps s in (0, 1) to the y > 0 with phi'(y) = s.  Since
    phi' is even and strictly decreasing in |y|, h(y) = phi(y) - slope*y - r
    is strictly monotone on the whole line unless 0 < slope < 1, and then on
    each of the three pieces that +-slope_inverse(slope) cut it into.  Every
    solution satisfies |y| <= (1 + |r|)/|slope|, so the pieces are bounded;
    each holds at most one root, bisected to 1e-12.  A zero of h at a cut
    point is a tangency (double root), reported once.  Requires slope != 0:
    every loop here has a finite gain, and a loop with g0 = 0 has the one
    root v = 0 (:meth:`LureLoop.equilibria`).
    """
    brackets = []
    _scan_line(phi, slope, r, slope_inverse, brackets=brackets)
    return [a if a == b else _bisect(phi, slope, r, a, b, fa) for a, b, fa in brackets]


def classify_stability(eigs) -> str:
    """stable / unstable / marginal from eigenvalue real parts."""
    res = [complex(e).real for e in eigs]
    if not res:
        raise ValueError("requires at least one eigenvalue")
    if all(x < -_STABILITY_MARGIN for x in res):
        return STABLE
    if any(x > _STABILITY_MARGIN for x in res):
        return UNSTABLE
    return MARGINAL


def _check_gain(k: float):
    if not k >= 0.0:
        raise ValueError("requires k >= 0")
    if k == math.inf:
        raise ValueError("requires a finite k")


#: The numerical error of a lag too short for its rate or for the product of
#: every lag to be a double.
_TOO_SMALL = "time constants too small: lag product underflow or pole overflow"


def _lags_tf(tau_l: float, pos, neg, beta: float) -> RationalTF:
    """Unit-gain transfer function u -> v of :meth:`LureLoop._lags`,
    -(beta Cp - (1 - beta) Cn)/(tau_l s + 1) with each bank C = sum
    rho_i/(tau_i s + 1), over the product of every lag without cancellation.

    With P = sum_pos rho_i prod_{j != i} (tau_j s + 1) and M the same sum
    over the negative bank, the numerator is -(beta (P + M) - M),
    coefficient by coefficient, and the denominator the product of
    (tau s + 1) over tau_l, the positive and the negative bank in order,
    with the poles -1/tau.  Every product is built one lag at a time by
    out[i] = p[i] + tau p[i - 1].  For one unit-weight channel per bank the
    numerator is -[(2 beta - 1) + (beta (tau_n + tau_p) - tau_p) s].  An
    overflowing coefficient, or a denominator that loses degree as the
    product of every tau underflows, raises ``ArithmeticError``; the poles
    are finite, since :meth:`LureLoop._lags` refuses a tau whose reciprocal
    is not.
    """
    taus = [tau for _, tau in (*pos, *neg)]

    def times_lags(p, skip=-1):
        for j, tau in enumerate(taus):
            if j != skip:
                p = [a + tau * b for a, b in zip(p + [0.0], [0.0] + p)]
        return p

    terms = [times_lags([rho], i) for i, (rho, _) in enumerate((*pos, *neg))]
    # each column summed as a left fold from 0.0, as Python 3.11's sum() does
    # and 3.12's compensated sum() does not
    p, m = ([reduce(add, c, 0.0) for c in zip(*bank)]
            for bank in (terms[:len(pos)], terms[len(pos):]))
    num, den = [-(beta * (a + b) - b) for a, b in zip(p, m)], times_lags([1.0, tau_l])
    if not all(map(math.isfinite, num + den)):
        raise ArithmeticError("time constants too large: lag product overflow")
    if den[-1] == 0.0:
        raise ArithmeticError(_TOO_SMALL)
    return RationalTF(Polynomial(num), Polynomial(den), [-1.0 / tau for tau in (tau_l, *taus)])


@dataclass(frozen=True)
class LureLoop:
    """A linear part closed through one saturation, u = r - phi(c_loop x).

    ``ss`` realizes the loop at gain ``k``.  ``g0`` is the DC loop gain seen
    by the saturation input, so the equilibria solve phi(v) = r + v/g0; a
    root v lifts to the output y = v / v_per_y and the state u x_u + y x_y,
    with u = r - phi(v).  ``unit_tf`` builds the transfer function u -> v at
    unit gain (at gain k it is k times that) on first use, so a loop that is
    only simulated never builds it; its poles are the -1/tau of its lags
    and, for the load loop, the load's poles.  Every channel loop builds it
    with :func:`_lags_tf`.
    """

    ss: StateSpace
    k: float
    g0: float
    v_per_y: float
    x_u: tuple[float, ...]
    x_y: tuple[float, ...]
    unit_tf: Callable[[], RationalTF] = field(repr=False, compare=False)

    @classmethod
    def _lags(cls, tau_l: float, pos, neg, k: float, beta: float,
              nonlinearity: str) -> "LureLoop":
        """Load lag x driving first-order channels, each a (rho, tau) pair.

        Each channel follows tau_i x_i' = x - x_i, and the output mixes the
        channel states, y = k(-beta sum rho_i xp_i + (1 - beta) sum rho_j xn_j).
        Both banks have unit DC gain, so g0 = k(2 beta - 1) and every state
        equals u at equilibrium, for any bank sizes.  A bank of one channel
        names its state xp or xn, a larger one xp1, xp2, ... in its order.
        Every channel loop needs tau_l > 0, a finite k >= 0 and 0 <= beta <= 1;
        a tau whose reciprocal rate is not a finite double, a subnormal one,
        raises ``ArithmeticError``.
        """
        if not tau_l > 0.0:
            raise ValueError("requires tau_l > 0")
        _check_gain(k)
        if not 0.0 <= beta <= 1.0:
            raise ValueError("requires 0 <= beta <= 1")
        chans = [(-k * beta * rho, tau) for rho, tau in pos]
        chans += [(k * (1.0 - beta) * rho, tau) for rho, tau in neg]
        rates = [1.0 / tau for tau in (tau_l, *(tau for _, tau in chans))]
        if not all(map(math.isfinite, rates)):
            raise ArithmeticError(_TOO_SMALL)
        dim = len(rates)
        rows = [(-rates[0],) + (0.0,) * (dim - 1)]
        for i in range(1, dim):
            row = [0.0] * dim
            row[0], row[i] = rates[i], -rates[i]
            rows.append(tuple(row))
        labels = ["x"]
        for name, bank in (("xp", pos), ("xn", neg)):
            labels += [name] if len(bank) == 1 else [f"{name}{i}" for i in range(1, len(bank) + 1)]
        ss = StateSpace(a=tuple(rows), b=(rates[0],) + (0.0,) * (dim - 1),
                        c=(0.0, *(w for w, _ in chans)), labels=tuple(labels),
                        nonlinearity=nonlinearity)
        return cls(ss, k, k * (2.0 * beta - 1.0), 1.0, (1.0,) * dim, (0.0,) * dim,
                   lambda: _lags_tf(tau_l, pos, neg, beta))

    @classmethod
    def amplifier(cls, tau_l: float, tau_p: float, tau_n: float, k: float, beta: float,
                  nonlinearity: str = "tanh") -> "LureLoop":
        """The three-state mixed feedback amplifier: a load lag x driving a
        positive and a negative channel lag, y = k(-beta xp + (1 - beta) xn),
        v = y and x = xp = xn = u at equilibrium (:meth:`_lags` with one
        unit-weight channel per bank).  Time constants are in seconds, with
        tau_p < tau_n and tau_l distinct from both."""
        for name, tau in (("tau_l", tau_l), ("tau_p", tau_p), ("tau_n", tau_n)):
            if not tau > 0.0:
                raise ValueError(f"requires {name} > 0")
        if not tau_p < tau_n:
            raise ValueError("requires tau_p < tau_n")
        if tau_l == tau_p or tau_l == tau_n:
            raise ValueError("requires tau_l distinct from tau_p and tau_n")
        return cls._lags(tau_l, [(1.0, tau_p)], [(1.0, tau_n)], k, beta, nonlinearity)

    @classmethod
    def bank(cls, tau_l: float, pos: ChannelBank, neg: ChannelBank, k: float,
             beta: float, nonlinearity: str = "tanh") -> "LureLoop":
        """Load lag x driving every channel of two banks, one lag state each
        (:meth:`_lags`), channels in ascending tau per bank.  Every
        positive-bank tau must be smaller than every negative-bank tau.

        The transfer function is -k C(s)/(tau_l s + 1) with C the bank
        difference beta Cp - (1 - beta) Cn (:func:`_lags_tf`); its poles are
        -1/tau for tau_l and every channel.
        """
        if tau_l in pos.taus or tau_l in neg.taus:
            raise ValueError("requires tau_l distinct from every channel tau")
        if max(pos.taus) >= min(neg.taus):
            raise ValueError("time-scale ordering: every positive-bank tau must be "
                             "smaller than every negative-bank tau")
        return cls._lags(tau_l, [(ch.rho, ch.tau) for ch in pos.sorted_channels()],
                         [(ch.rho, ch.tau) for ch in neg.sorted_channels()],
                         k, beta, nonlinearity)

    @classmethod
    def load(cls, inner: "LureLoop", k: float, load: LoadParams,
             iface: InterfaceGains) -> "LureLoop":
        """A channel loop at gain k bordered by a mass-spring-damper load.

        ``inner`` is a unit-gain channel loop (:meth:`amplifier` or
        :meth:`bank` at k = 1) with output row c1.  Its states come first,
        then the load's (q, qdot).  The loop output is y = k c1 x; the load
        sees the force k_o y, whose row is (k_o k) c1, and its output
        y_e = kv qdot + kp q joins the saturation junction, v = y + k_i y_e,
        so the transfer function u -> v at unit gain is G1 (1 + k_i k_o L).
        With k_i = 0 the channel loop runs autonomously and drives the load
        open-loop; with k_o = 0 the load decays and the channel loop behaves
        exactly as in isolation.  At equilibrium q = k_o y / a and qdot = 0,
        so v = (1 + kappa) y with kappa = k_i kp k_o / a.
        """
        if inner.k != 1.0:
            raise ValueError("requires a unit-gain inner loop")
        _check_gain(k)
        s, n = inner.ss, inner.ss.dim
        ki, ko = iface.ki, iface.ko
        c = tuple(k * w for w in s.c)
        ss = StateSpace(
            a=(*(row + (0.0, 0.0) for row in s.a),
               (0.0,) * (n + 1) + (1.0,),
               (*(ko * k * w for w in s.c), -load.a, -load.b)),
            b=s.b + (0.0, 0.0),
            c=c + (0.0, 0.0),
            labels=s.labels + ("q", "qdot"),
            nonlinearity=s.nonlinearity,
            extra_outputs=(("ye", (0.0,) * n + (load.kp, load.kv)),),
            c_loop=c + (ki * load.kp, ki * load.kv),
        )
        kappa = ki * load.kp * ko / load.a
        g0 = k * inner.g0 * (1.0 + kappa)
        overflow = "requires finite loop gains (a product of k, ki, ko and the load overflows)"
        if not (math.isfinite(kappa) and math.isfinite(g0)):
            raise ValueError(overflow)

        def unit_tf():
            g, lt = inner.g1, load_tf(load)
            g1 = RationalTF(g.num * (lt.den + Polynomial([ki * ko]) * lt.num),
                            g.den * lt.den, g.poles() + lt.poles())
            if not all(map(math.isfinite, g1.num.coeffs + g1.den.coeffs)):
                raise ValueError(overflow)
            return g1

        return cls(ss, k, g0, 1.0 + kappa, inner.x_u + (0.0, 0.0),
                   inner.x_y + (ko / load.a, 0.0), unit_tf)

    @cached_property
    def g1(self) -> RationalTF:
        """Transfer function u -> v at unit gain."""
        return self.unit_tf()

    @property
    def poles(self) -> list[complex]:
        """Poles of the loop's transfer function, which do not depend on k."""
        return self.g1.poles()

    def rate(self, lam: float | None = None) -> float:
        """``lam``, or when it is None the default rate of every certificate
        and regime, :func:`midpoint_rate` of the loop's poles."""
        return midpoint_rate(self.poles) if lam is None else lam

    def inertia(self, lam: float) -> int:
        """Number of poles right of -lam; a pole on the shifted axis raises
        ``ArithmeticError``."""
        return sum(1 for p in _check_axis_clear(self.g1, lam) if p.real > -lam)

    @cached_property
    def crossing_gain(self) -> float:
        """Smallest gain T >= 0 at which den + T num of the unit-gain transfer
        function stops being Hurwitz, or inf; a closed-loop linearization
        den + K num with 0 <= K < T is stable and with K > T unstable.

        For a third-order den with positive coefficients and
        a1 a2 > a0 a3 (every loop here with three lags), and a numerator of
        degree at most one, only the Routh-Hurwitz terms c0 = a0 + K n0 and
        a2 c1 - a3 c0 = (a1 a2 - a0 a3) + K (a2 n1 - a3 n0) depend on K, both
        linearly, so each gives at most one bound: -a0/n0 is the real-axis
        crossing of G at w = 0 (the fold gain 1/(2 beta - 1) of the
        amplifier), the other the crossing at w > 0.  Other loops raise
        ``ValueError``.
        """
        den, num = self.g1.den.coeffs, self.g1.num.coeffs
        if len(den) != 4 or len(num) > 2:
            raise ValueError("requires a third-order loop with a first-order numerator")
        a0, a1, a2, a3 = den
        n0, n1 = (num + (0.0,))[:2]
        bounds = [math.inf]
        if n0 < 0.0:
            bounds.append(-a0 / n0)
        if a2 * n1 - a3 * n0 < 0.0:
            bounds.append((a1 * a2 - a0 * a3) / (a3 * n0 - a2 * n1))
        return min(bounds)

    def jacobians(self, vs) -> np.ndarray:
        """Closed-loop Jacobians A - phi'(v) b c_loop at the saturation
        inputs ``vs``, stacked."""
        dphi = get_nonlinearity(self.ss.nonlinearity)[1]
        return self.ss.jacobians([dphi(v) for v in vs])

    def equilibria(self, r: float) -> list[Equilibrium]:
        """All equilibria for the constant reference r, sorted by y.

        One :func:`solve_phi_line` call, which finds at least one root (with
        g0 = 0 the saturation input is identically zero at steady state, so
        v = 0 is the one root), and one stacked eigenvalue call for the
        Jacobians of every equilibrium.  A root, output or state beyond float
        range, as from a scan bound that overflows, raises ``ArithmeticError``.
        """
        phi, _, slope_inverse = get_nonlinearity(self.ss.nonlinearity)
        vs = [0.0] if self.g0 == 0.0 else solve_phi_line(phi, 1.0 / self.g0, r,
                                                          slope_inverse)
        points = []
        for v in vs:
            u, y = r - phi(v), v / self.v_per_y
            # adding 0.0 turns the -0.0 of a zero coefficient times a
            # negative value into 0.0
            state = tuple(u * a + y * b + 0.0 for a, b in zip(self.x_u, self.x_y))
            if not all(map(math.isfinite, (v, y, *state))):
                raise ArithmeticError("equilibrium beyond float range")
            points.append((y, state))
        # complex sort orders by real part, then imaginary part
        eigs = _eigvals(self.jacobians(vs))
        return [Equilibrium(y_star=y, state=state, eigenvalues=tuple(e),
                            stability=classify_stability(e))
                for (y, state), e in zip(points, np.sort(eigs, axis=1, kind="stable").tolist())]

    def classify(self, r: float, lam: float) -> RegimeClassification:
        """Regime at reference r and rate lam.

        ZeroDominantStable when k is below k0_bar; otherwise, when k is below
        k2_bar, the equilibria decide between oscillation (all unstable) and
        multistability (some stable).  A rate that does not leave exactly two
        shifted-unstable poles gives Unclassified, and so does a numerical
        error, with its reason.
        """
        try:
            two, k0_bar, k2_bar = _critical_gains(self, lam)
        except (ArithmeticError, ValueError) as exc:
            return RegimeClassification(REGIME_UNCLASSIFIED, math.nan, math.nan,
                                        (), reason=str(exc))
        try:
            equilibria = self.equilibria(r)
        except (ArithmeticError, ValueError) as exc:
            return RegimeClassification(REGIME_UNCLASSIFIED, k0_bar, math.nan,
                                        (), reason=str(exc))
        labels = [e.stability for e in equilibria]
        regime, reason = _regime(self.k, two, k0_bar, k2_bar, len(labels),
                                 labels.count(UNSTABLE), labels.count(MARGINAL))
        return RegimeClassification(regime, k0_bar, k2_bar, tuple(equilibria), reason)


def _critical_gains(loop: LureLoop, lam: float) -> tuple[bool, float, float]:
    """Whether rate lam leaves two shifted-unstable poles, and k0_bar and
    k2_bar (nan without two), from one :func:`min_real_part` call."""
    two = loop.inertia(lam) == 2
    gains = [_gain(m) for m, _ in min_real_part(loop.g1, (0.0, lam) if two else (0.0,))]
    return two, gains[0], gains[1] if two else math.nan


def _regime(k: float, two: bool, k0_bar: float, k2_bar: float, n_equilibria: int,
            n_unstable: int, n_marginal: int) -> tuple[str, str]:
    if not two:
        return REGIME_UNCLASSIFIED, "shifted inertia != 2"
    if k < k0_bar:
        return REGIME_ZERO_DOMINANT, ""
    if k < k2_bar:
        if n_unstable + n_marginal < n_equilibria:
            return REGIME_MULTISTABLE, ""
        if n_equilibria and not n_marginal:
            return REGIME_OSCILLATION, ""
        return REGIME_UNCLASSIFIED, "marginal equilibrium"
    return REGIME_UNCLASSIFIED, "gain at or above both critical gains"


def dominance_map(tau_l: float, tau_p: float, tau_n: float,
                  k_values, beta_values, r: float = 0.0,
                  lam: float | None = None, nonlinearity: str = "tanh"
                  ) -> list[list[MapCell]]:
    """Regime cells over a (gain, balance) grid, indexed [k_index][beta_index].

    Gains must be positive and finite, and balances within [0, 1].  Each
    balance column is one unit-gain amplifier loop.  Its critical gains
    k0_bar and k2_bar, which each of its cells reports, and its crossing gain
    T (:attr:`LureLoop.crossing_gain`), which the counts use, do not depend
    on k, so they are taken once.  At gain k an equilibrium at
    v has the linearization den + phi'(v) k num, unstable exactly when
    phi'(v) > s = T/k: on |v| < y_s = slope_inverse(s) when s < 1, nowhere
    when s >= 1, as phi' is even and decreases in |v| from phi'(0) = 1.  With
    +-y_s among its nodes, one pass of :func:`_scan_line`, the scan
    :func:`solve_phi_line` bisects, counts a cell from the signs of
    phi(v) - v/g0 - r, with no root bisected and no eigenvalue taken.
    "Marginal" is then exact: phi'(v) k = T.  When T is the fold gain
    1/(2 beta - 1), T/k is taken as 1/g0, its value in exact arithmetic, so
    that a tangent (double) equilibrium is marginal.  A certificate error
    marks the column Unclassified with its reason.  The rate ``lam``
    defaults to :func:`midpoint_rate` of the lags' poles.
    """
    k_values = [float(k) for k in k_values]
    beta_values = [float(b) for b in beta_values]
    if not k_values or not beta_values:
        raise ValueError("requires at least one gain and one balance")
    if any(not k > 0.0 for k in k_values):
        raise ValueError("requires positive gains")
    if any(not math.isfinite(k) for k in k_values):
        raise ValueError("requires finite gains")
    if any(not 0.0 <= b <= 1.0 for b in beta_values):
        raise ValueError("requires 0 <= beta <= 1")
    phi, _, slope_inverse = get_nonlinearity(nonlinearity)
    columns = []
    for beta in beta_values:
        loop = LureLoop.amplifier(tau_l, tau_p, tau_n, 1.0, beta, nonlinearity)
        # the lags' poles, and so the rate, do not depend on the balance
        lam = loop.rate(lam)
        try:
            two, k0_bar, k2_bar = _critical_gains(loop, lam)
            t = loop.crossing_gain
        except (ArithmeticError, ValueError) as exc:
            cell = MapCell(REGIME_UNCLASSIFIED, math.nan, math.nan, 0, 0, str(exc))
            columns.append([cell] * len(k_values))
            continue
        fold = loop.g0 > 0.0 and t == 1.0 / loop.g0
        column = []
        for k in k_values:
            g0 = k * loop.g0
            s = 1.0 / g0 if fold else t / k
            y_s = slope_inverse(s) if s < 1.0 else 0.0 if s == 1.0 else -1.0
            # y_s = -1: no v has phi'(v) >= s; g0 = 0: v = 0 is the one equilibrium
            n, unstable, marginal = ((1, int(y_s > 0.0), int(y_s == 0.0)) if g0 == 0.0
                                     else _scan_line(phi, 1.0 / g0, r, slope_inverse, y_s))
            regime, reason = _regime(k, two, k0_bar, k2_bar, n, unstable, marginal)
            column.append(MapCell(regime, k0_bar, k2_bar, n, unstable, reason))
        columns.append(column)
    return [list(row) for row in zip(*columns)]
