"""Closed-loop equilibria, stability classification, and (gain, balance) regime maps.

With a constant reference r, the closed-loop equilibria are the solutions of
the scalar equation phi(y) = r + y/g0, where g0 = k(2 beta - 1) is the
effective DC loop gain; each solution lifts to the state (x, x, x) with
x = r - phi(y).  Stability is read off the eigenvalues of the closed-loop
Jacobian at the equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freq_analysis import (
    count_unstable_shifted_poles,
    critical_gain,
    select_rate,
)
from .tf_core import AmplifierParams, get_nonlinearity, tf_build_mixed

__all__ = [
    "Equilibrium",
    "RegimeClassification",
    "MARGINAL",
    "STABLE",
    "UNSTABLE",
    "REGIME_MULTISTABLE",
    "REGIME_OSCILLATION",
    "REGIME_UNCLASSIFIED",
    "REGIME_ZERO_DOMINANT",
    "classify_regime",
    "classify_stability",
    "dc_loop_gain",
    "dominance_map",
    "find_equilibria",
    "regime_from_parts",
    "jacobian_at",
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


def dc_loop_gain(params: AmplifierParams) -> float:
    """Effective DC loop gain g0 = k(2 beta - 1)."""
    return params.k * (2.0 * params.beta - 1.0)


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


def jacobian_at(params: AmplifierParams, y_star: float) -> np.ndarray:
    """Closed-loop Jacobian at an equilibrium with output value y_star."""
    tl, tp, tn = params.taus
    k, beta = params.k, params.beta
    slope = params.dphi(y_star)
    return np.array([
        [-1.0 / tl, slope * k * beta / tl, -slope * k * (1.0 - beta) / tl],
        [1.0 / tp, -1.0 / tp, 0.0],
        [1.0 / tn, 0.0, -1.0 / tn],
    ])


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


def _equilibria(proto: AmplifierParams, ks, r: float) -> list[list[Equilibrium]]:
    """Equilibria for each gain in ``ks`` at the other parameters of ``proto``.

    The Jacobians of every equilibrium of every gain go through one stacked
    eigenvalue call.  When g0 = 0 the output is identically zero at steady
    state and the single equilibrium has x = r - phi(0).
    """
    phi, _, slope_inverse = get_nonlinearity(proto.nonlinearity)
    points = []
    for k in ks:
        params = proto.with_gain(float(k))
        g0 = dc_loop_gain(params)
        ys = [0.0] if g0 == 0.0 else solve_phi_line(phi, 1.0 / g0, r, slope_inverse)
        points.append((params, ys))
    jacobians = [jacobian_at(params, y) for params, ys in points for y in ys]
    eigs_all = iter(np.linalg.eigvals(np.stack(jacobians)) if jacobians else ())
    out = []
    for _, ys in points:
        cell = []
        for y in ys:
            x = r - phi(y)
            eigs = tuple(sorted((complex(e) for e in next(eigs_all)),
                                key=lambda z: (z.real, z.imag)))
            cell.append(Equilibrium(
                y_star=float(y), state=(x, x, x), eigenvalues=eigs,
                stability=classify_stability(eigs),
            ))
        out.append(cell)
    return out


def find_equilibria(params: AmplifierParams, r: float) -> list[Equilibrium]:
    """All closed-loop equilibria for the constant reference r, sorted by y."""
    return _equilibria(params, [params.k], r)[0]


def regime_from_parts(k: float, k0_bar: float, k2_bar: float,
                       equilibria) -> tuple[str, str]:
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


def classify_regime(params: AmplifierParams, r: float, lam: float) -> RegimeClassification:
    """Regime of one (gain, balance) point at the given rate.

    ZeroDominantStable when k is below the 0-dominance critical gain;
    otherwise, when k is below the 2-dominance critical gain, the equilibria
    decide between oscillation (all unstable) and multistability (some
    stable).  A rate that does not yield exactly two shifted-unstable poles
    gives Unclassified.
    """
    equilibria = tuple(find_equilibria(params, r))
    g1 = tf_build_mixed(params.with_gain(1.0))
    try:
        inertia = count_unstable_shifted_poles(g1, lam)
    except ArithmeticError as exc:
        return RegimeClassification(REGIME_UNCLASSIFIED, math.nan, math.nan,
                                    equilibria, reason=str(exc))
    k0_bar = critical_gain(params, 0.0, 0)
    if inertia != 2:
        return RegimeClassification(REGIME_UNCLASSIFIED, k0_bar, math.nan,
                                    equilibria, reason="shifted inertia != 2")
    k2_bar = critical_gain(params, lam, 2)
    regime, reason = regime_from_parts(params.k, k0_bar, k2_bar, equilibria)
    return RegimeClassification(regime, k0_bar, k2_bar, equilibria, reason)


def _column_cells(proto: AmplifierParams, k_values, r: float,
                  lam: float) -> list[RegimeClassification]:
    g1 = tf_build_mixed(proto)
    try:
        inertia = count_unstable_shifted_poles(g1, lam)
        k0_bar = critical_gain(proto, 0.0, 0)
        k2_bar = critical_gain(proto, lam, 2) if inertia == 2 else math.nan
    except (ArithmeticError, ValueError) as exc:
        err = str(exc)
        return [RegimeClassification(REGIME_UNCLASSIFIED, math.nan, math.nan,
                                     (), reason=err) for _ in k_values]
    try:
        columns = _equilibria(proto, k_values, r)
    except (ArithmeticError, ValueError) as exc:
        return [RegimeClassification(REGIME_UNCLASSIFIED, k0_bar, math.nan,
                                     (), reason=str(exc)) for _ in k_values]
    cells = []
    for k, equilibria in zip(k_values, columns):
        equilibria = tuple(equilibria)
        if inertia != 2:
            cells.append(RegimeClassification(
                REGIME_UNCLASSIFIED, k0_bar, math.nan, equilibria,
                reason="shifted inertia != 2"))
            continue
        regime, reason = regime_from_parts(float(k), k0_bar, k2_bar, equilibria)
        cells.append(RegimeClassification(regime, k0_bar, k2_bar,
                                          equilibria, reason))
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
    columns = [_column_cells(AmplifierParams(tau_l, tau_p, tau_n, k=1.0, beta=beta,
                                             nonlinearity=nonlinearity),
                             k_values, r, lam)
               for beta in beta_values]
    return [[columns[ib][ik] for ib in range(len(beta_values))]
            for ik in range(len(k_values))]
