"""Lur'e loops: certificates, equilibria, regimes and (gain, balance) regime maps.

Every system here is one Lur'e loop: a linear part x' = A x + b u with
saturation input v = c_loop x, closed through one sector-[0, 1] sigmoid,
u = r - phi(v).  :class:`LureLoop` holds such a loop; the amplifier, a channel
bank and the amplifier-plus-load interconnection are its three constructors.
With a constant reference r the equilibria solve the scalar equation
phi(v) = r + v/g0, where g0 is the DC loop gain seen by the saturation input;
each root lifts to a state and an output.  Stability is read off the
eigenvalues of the Jacobian A - phi'(v) b c_loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .freq_analysis import (
    DominanceCertificate,
    _check_axis_clear,
    check_p_dominance,
    select_rate,
)
from .interconnect import InterfaceGains, LoadParams, load_tf
from .multichannel import ChannelBank, build_channel_tf
from .sim import StateSpace
from .tf_core import (
    AmplifierParams,
    Polynomial,
    RationalTF,
    get_nonlinearity,
    tf_build_mixed,
    tf_multiply,
)

__all__ = [
    "Equilibrium",
    "LureLoop",
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

    @property
    def n_equilibria(self) -> int:
        return len(self.equilibria)

    @property
    def n_unstable(self) -> int:
        return sum(1 for e in self.equilibria if e.stability == UNSTABLE)


def _bisect(f, a, b, fa):
    """Root of f on [a, b], where f(a) = fa and f(b) differ in sign, to 1e-12
    or to adjacent floats, whichever is wider."""
    m = 0.5 * (a + b)
    while b - a > _BISECT_TOL and a < m < b:
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm
        m = 0.5 * (a + b)
    return m


def solve_phi_line(phi, slope: float, r: float, slope_inverse) -> list[float]:
    """All real solutions y of phi(y) = r + slope*y, sorted, for a registered phi.

    ``slope_inverse`` maps s in (0, 1) to the y > 0 with phi'(y) = s.  Since
    phi' is even and strictly decreasing in |y|, h(y) = phi(y) - slope*y - r
    is strictly monotone on the whole line unless 0 < slope < 1, and then on
    each of the three pieces that +-slope_inverse(slope) cut it into.  For
    slope != 0 every solution satisfies |y| <= (1 + |r|)/|slope|, so the
    pieces are bounded; each holds at most one root, bisected to 1e-12.  A
    zero of h at a cut point is a tangency (double root), reported once.
    For slope == 0 the equation phi(y) = r has one solution when |r| < 1 and
    none otherwise.
    """
    if slope == 0.0:
        if abs(r) >= 1.0:
            return []
        lo = -1.0
        while phi(lo) >= r and lo > -1e12:
            lo *= 2.0
        hi = 1.0
        while phi(hi) <= r and hi < 1e12:
            hi *= 2.0
        return [_bisect(lambda y: phi(y) - r, lo, hi, phi(lo) - r)]

    bound = (1.0 + abs(r)) / abs(slope) + 1.0

    def h(y):
        # r_fold = phi(y_c) - slope*y_c in this order makes h(y_c) exactly 0
        return phi(y) - slope * y - r

    nodes = [-bound, bound]
    if 0.0 < slope < 1.0:
        y_c = slope_inverse(slope)
        if y_c > 0.0:
            nodes[1:1] = [-y_c, y_c]
    hv = [h(y) for y in nodes]
    roots: list[float] = []
    for i, (y, fy) in enumerate(zip(nodes, hv)):
        if fy == 0.0:
            roots.append(y)
        elif i + 1 < len(nodes) and hv[i + 1] != 0.0 and (fy < 0.0) != (hv[i + 1] < 0.0):
            roots.append(_bisect(h, y, nodes[i + 1], fy))
    return roots


def classify_stability(eigs, tol_margin: float = 1e-8) -> str:
    """stable / unstable / marginal from eigenvalue real parts."""
    res = [complex(e).real for e in eigs]
    if not res:
        raise ValueError("requires at least one eigenvalue")
    if all(x < -tol_margin for x in res):
        return STABLE
    if any(x > tol_margin for x in res):
        return UNSTABLE
    return MARGINAL


@dataclass(frozen=True)
class LureLoop:
    """A linear part closed through one saturation, u = r - phi(c_loop x).

    ``ss`` realizes the loop at gain ``k``.  ``g0`` is the DC loop gain seen
    by the saturation input, so the equilibria solve phi(v) = r + v/g0; a
    root v lifts to the output y = v / v_per_y and the state u x_u + y x_y,
    with u = r - phi(v).  ``unit_tf`` builds the transfer function u -> v at
    unit gain (at gain k it is k times that) on first use, so a map column
    of loops that differ in gain builds it once; its poles are taken once.
    """

    ss: StateSpace
    k: float
    g0: float
    v_per_y: float
    x_u: tuple[float, ...]
    x_y: tuple[float, ...]
    unit_tf: Callable[[], RationalTF] = field(repr=False, compare=False)

    @classmethod
    def amplifier(cls, params: AmplifierParams) -> "LureLoop":
        """The three-state mixed feedback amplifier: a load lag x driving a
        positive and a negative channel lag, y = k(-beta xp + (1 - beta) xn),
        v = y and x = xp = xn = u at equilibrium."""
        tl, tp, tn = params.taus
        k, beta = params.k, params.beta
        ss = StateSpace(
            a=((-1.0 / tl, 0.0, 0.0),
               (1.0 / tp, -1.0 / tp, 0.0),
               (1.0 / tn, 0.0, -1.0 / tn)),
            b=(1.0 / tl, 0.0, 0.0),
            c=(0.0, -k * beta, k * (1.0 - beta)),
            labels=("x", "xp", "xn"),
            nonlinearity=params.nonlinearity,
        )
        return cls(ss, k, k * (2.0 * beta - 1.0), 1.0, (1.0, 1.0, 1.0),
                   (0.0, 0.0, 0.0), lambda: tf_build_mixed(params.with_gain(1.0)))

    @classmethod
    def bank(cls, tau_l: float, pos: ChannelBank, neg: ChannelBank, k: float,
             beta: float, nonlinearity: str = "tanh") -> "LureLoop":
        """Load lag x driving every channel of two banks, one lag state each.

        Each channel follows tau_i x_i' = x - x_i, and the output mixes the
        channel states, y = k(-beta sum rho_i xp_i + (1 - beta) sum rho_j xn_j).
        Both banks have unit DC gain, so g0 = k(2 beta - 1) and every state
        equals u at equilibrium, for any bank sizes.  The transfer function is
        -k C(s)/(tau_l s + 1) with C from :func:`build_channel_tf`, assembled
        without cancellation.
        """
        if not tau_l > 0.0:
            raise ValueError("requires tau_l > 0")
        if tau_l in pos.taus or tau_l in neg.taus:
            raise ValueError("requires tau_l distinct from every channel tau")
        if not k >= 0.0:
            raise ValueError("requires k >= 0")
        c = build_channel_tf(pos, neg, beta)
        pos_ch, neg_ch = pos.sorted_channels(), neg.sorted_channels()
        dim = 1 + len(pos_ch) + len(neg_ch)
        rows = [tuple([-1.0 / tau_l] + [0.0] * (dim - 1))]
        for offset, ch in enumerate(pos_ch + neg_ch):
            row = [0.0] * dim
            row[0] = 1.0 / ch.tau
            row[1 + offset] = -1.0 / ch.tau
            rows.append(tuple(row))
        c_y = [0.0]
        c_y += [-k * beta * ch.rho for ch in pos_ch]
        c_y += [k * (1.0 - beta) * ch.rho for ch in neg_ch]
        labels = ["x"]
        labels += [f"xp{i + 1}" for i in range(len(pos_ch))]
        labels += [f"xn{i + 1}" for i in range(len(neg_ch))]
        ss = StateSpace(
            a=tuple(rows),
            b=tuple([1.0 / tau_l] + [0.0] * (dim - 1)),
            c=tuple(c_y),
            labels=tuple(labels),
            nonlinearity=nonlinearity,
        )
        return cls(ss, k, k * (2.0 * beta - 1.0), 1.0, (1.0,) * dim, (0.0,) * dim,
                   lambda: RationalTF(-1.0 * c.num, Polynomial([1.0, tau_l]) * c.den))

    @classmethod
    def load(cls, amp: AmplifierParams, load: LoadParams,
             iface: InterfaceGains) -> "LureLoop":
        """Five-state loop of the amplifier and a mass-spring-damper load.

        States (x, xp, xn, q, qdot): the load sees the force k_o y and its
        output y_e = kv qdot + kp q joins the saturation junction,
        v = y + k_i y_e, so the transfer function u -> v is
        G (1 + k_i k_o L).  With k_i = 0 the amplifier runs autonomously and
        drives the load open-loop; with k_o = 0 the load decays and the
        amplifier behaves exactly as in isolation.  At equilibrium
        q = k_o y / a and qdot = 0, so v = (1 + kappa) y with
        kappa = k_i kp k_o / a.
        """
        tl, tp, tn = amp.taus
        k, beta = amp.k, amp.beta
        ki, ko = iface.ki, iface.ko
        ss = StateSpace(
            a=((-1.0 / tl, 0.0, 0.0, 0.0, 0.0),
               (1.0 / tp, -1.0 / tp, 0.0, 0.0, 0.0),
               (1.0 / tn, 0.0, -1.0 / tn, 0.0, 0.0),
               (0.0, 0.0, 0.0, 0.0, 1.0),
               (0.0, -ko * k * beta, ko * k * (1.0 - beta), -load.a, -load.b)),
            b=(1.0 / tl, 0.0, 0.0, 0.0, 0.0),
            c=(0.0, -k * beta, k * (1.0 - beta), 0.0, 0.0),
            labels=("x", "xp", "xn", "q", "qdot"),
            nonlinearity=amp.nonlinearity,
            extra_outputs=(("ye", (0.0, 0.0, 0.0, load.kp, load.kv)),),
            c_loop=(0.0, -k * beta, k * (1.0 - beta), ki * load.kp, ki * load.kv),
        )

        def unit_tf():
            lt = load_tf(load)
            branch = RationalTF(lt.den + Polynomial([ki * ko]) * lt.num, lt.den)
            return tf_multiply(tf_build_mixed(amp.with_gain(1.0)), branch)

        kappa = ki * load.kp * ko / load.a
        g0 = k * (2.0 * beta - 1.0)
        return cls(ss, k, g0 * (1.0 + kappa), 1.0 + kappa, (1.0, 1.0, 1.0, 0.0, 0.0),
                   (0.0, 0.0, 0.0, ko / load.a, 0.0), unit_tf)

    @cached_property
    def g1(self) -> RationalTF:
        """Transfer function u -> v at unit gain."""
        return self.unit_tf()

    @property
    def g(self) -> RationalTF:
        """Transfer function u -> v at the loop's gain."""
        return RationalTF(self.g1.num * self.k, self.g1.den)

    @property
    def poles(self) -> list[complex]:
        """Poles of the loop's transfer function, which do not depend on k."""
        return self.g1.poles()

    def inertia(self, lam: float) -> int:
        """Number of poles right of -lam; a pole on the shifted axis raises
        ``ArithmeticError``."""
        return sum(1 for p in _check_axis_clear(self.g1, lam) if p.real > -lam)

    def certify(self, lam: float, p: int) -> DominanceCertificate:
        """Circle-criterion p-dominance certificate of the loop at rate lam.

        The unit-gain transfer function is checked against the sector
        [0, k], so the certificate's ``critical_gain``, -1/min_re or inf, is
        the gain below which the loop is p-dominant: k0_bar for p = 0, which
        requires lam = 0, and k2_bar for p = 2, which requires exactly two
        shifted-unstable poles.
        """
        if p == 0:
            if lam != 0.0:
                raise ValueError("requires lambda = 0 for the 0-dominance gain")
        elif p != 2:
            raise ValueError("requires p in {0, 2}")
        elif self.inertia(lam) != 2:
            raise ValueError("wrong shifted inertia")
        return check_p_dominance(self.g1, lam, self.k, p)

    def jacobians(self, vs) -> np.ndarray:
        """Closed-loop Jacobians at the saturation inputs ``vs``, stacked."""
        return _jacobians((self,), (vs,))

    def equilibria(self, r: float) -> list[Equilibrium]:
        """All equilibria for the constant reference r, sorted by y."""
        return _equilibria((self,), r)[0]

    def classify(self, r: float, lam: float) -> RegimeClassification:
        """Regime at reference r and rate lam.

        ZeroDominantStable when k is below k0_bar; otherwise, when k is below
        k2_bar, the equilibria decide between oscillation (all unstable) and
        multistability (some stable).  A rate that does not leave exactly two
        shifted-unstable poles gives Unclassified, and so does a numerical
        error, with its reason.
        """
        return _classify((self,), r, lam)[0]


def _jacobians(loops, roots) -> np.ndarray:
    """A - phi'(v) b c_loop for every root v of every loop (loops of one
    dimension), in order, as one broadcast over the stacked realizations."""
    owner, slopes = [], []
    for i, (loop, vs) in enumerate(zip(loops, roots)):
        dphi = get_nonlinearity(loop.ss.nonlinearity)[1]
        owner += [i] * len(vs)
        slopes += [dphi(v) for v in vs]
    a = np.array([loop.ss.a for loop in loops])[owner]
    b = np.array([loop.ss.b for loop in loops])[owner]
    c = np.array([loop.ss.loop_row for loop in loops])[owner]
    return a - np.array(slopes)[:, None, None] * (b[:, :, None] * c[:, None, :])


def _equilibria(loops, r: float) -> list[list[Equilibrium]]:
    """Equilibria of each loop for the constant reference r.

    One solve_phi_line call per loop (with g0 = 0 the saturation input is
    identically zero at steady state, so v = 0 is the one root), and one
    stacked eigenvalue call for the Jacobians of every equilibrium.
    """
    roots = []
    for loop in loops:
        phi, _, slope_inverse = get_nonlinearity(loop.ss.nonlinearity)
        roots.append([0.0] if loop.g0 == 0.0
                     else solve_phi_line(phi, 1.0 / loop.g0, r, slope_inverse))
    eigs_all = iter(())
    if any(roots):
        # complex sort orders by real part, then imaginary part
        eigs = np.linalg.eigvals(_jacobians(loops, roots)).astype(complex)
        eigs_all = iter(np.sort(eigs, axis=1, kind="stable").tolist())
    out = []
    for loop, vs in zip(loops, roots):
        phi = get_nonlinearity(loop.ss.nonlinearity)[0]
        cell = []
        for v in vs:
            u, y = r - phi(v), v / loop.v_per_y
            eigs = tuple(next(eigs_all))
            # adding 0.0 turns the -0.0 of a zero coefficient times a
            # negative value into 0.0
            state = tuple(u * a + y * b + 0.0 for a, b in zip(loop.x_u, loop.x_y))
            cell.append(Equilibrium(y_star=y, state=state, eigenvalues=eigs,
                                    stability=classify_stability(eigs)))
        out.append(cell)
    return out


def _regime(k: float, k0_bar: float, k2_bar: float, equilibria) -> tuple[str, str]:
    if k < k0_bar:
        return REGIME_ZERO_DOMINANT, ""
    if k < k2_bar:
        labels = [e.stability for e in equilibria]
        if any(s == STABLE for s in labels):
            return REGIME_MULTISTABLE, ""
        if labels and all(s == UNSTABLE for s in labels):
            return REGIME_OSCILLATION, ""
        return REGIME_UNCLASSIFIED, "marginal equilibrium"
    return REGIME_UNCLASSIFIED, "gain at or above both critical gains"


def _classify(loops, r: float, lam: float) -> list[RegimeClassification]:
    """Regimes of loops that differ in gain only, such as a map column.

    The critical gains do not depend on the gain, so the first loop's
    certificates serve all of them; the equilibria go through one
    :func:`_equilibria` call.  An error in either step marks every loop
    Unclassified with its reason.
    """
    head = loops[0]
    try:
        two = head.inertia(lam) == 2
        k0_bar = head.certify(0.0, 0).critical_gain
        k2_bar = head.certify(lam, 2).critical_gain if two else math.nan
    except (ArithmeticError, ValueError) as exc:
        return [RegimeClassification(REGIME_UNCLASSIFIED, math.nan, math.nan,
                                     (), reason=str(exc)) for _ in loops]
    try:
        columns = _equilibria(loops, r)
    except (ArithmeticError, ValueError) as exc:
        return [RegimeClassification(REGIME_UNCLASSIFIED, k0_bar, math.nan,
                                     (), reason=str(exc)) for _ in loops]
    cells = []
    for loop, equilibria in zip(loops, columns):
        if two:
            regime, reason = _regime(loop.k, k0_bar, k2_bar, equilibria)
        else:
            regime, reason = REGIME_UNCLASSIFIED, "shifted inertia != 2"
        cells.append(RegimeClassification(regime, k0_bar, k2_bar,
                                          tuple(equilibria), reason))
    return cells


def dominance_map(tau_l: float, tau_p: float, tau_n: float,
                  k_values, beta_values, r: float = 0.0,
                  lam: float | None = None, nonlinearity: str = "tanh"
                  ) -> list[list[RegimeClassification]]:
    """Regime classification over a (gain, balance) grid.

    Returns a matrix indexed [k_index][beta_index].  The critical gains only
    depend on the balance column, so they are computed once per column.
    Errors are recorded as Unclassified with a reason.
    """
    k_values = [float(k) for k in k_values]
    beta_values = [float(b) for b in beta_values]
    if any(k <= 0.0 for k in k_values):
        raise ValueError("requires positive gains")
    if any(not 0.0 <= b <= 1.0 for b in beta_values):
        raise ValueError("requires 0 <= beta <= 1")
    if lam is None:
        lam = select_rate(AmplifierParams(tau_l, tau_p, tau_n, 1.0, 0.0,
                                          nonlinearity=nonlinearity))
    columns = []
    for beta in beta_values:
        proto = AmplifierParams(tau_l, tau_p, tau_n, k=1.0, beta=beta,
                                nonlinearity=nonlinearity)
        columns.append(_classify([LureLoop.amplifier(proto.with_gain(k))
                                  for k in k_values], r, lam))
    return [[columns[ib][ik] for ib in range(len(beta_values))]
            for ik in range(len(k_values))]
