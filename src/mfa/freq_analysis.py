"""Frequency-domain dominance and passivity certification.

The central object is the minimum over frequency of Re G(jw - lambda): its
sign decides passivity, and its reciprocal gives the critical gain below
which the circle criterion certifies p-dominance for the saturated loop
(sector slope in [0, 1], so K = 1 in the amplifier checks; the operations
stay generic in K for load reuse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tf_core import RationalTF, tf_shift

__all__ = [
    "INFINITE_SECTOR",
    "DominanceCertificate",
    "FrequencyGrid",
    "LocusPoint",
    "check_p_dominance",
    "check_p_passivity",
    "critical_balance",
    "default_grid",
    "midpoint_rate",
    "min_real_part",
    "nyquist_locus",
]

#: Sector tag that turns the circle criterion into a positive-realness check.
INFINITE_SECTOR = "infinite"

#: Absolute slack on |Re(pole) + lambda| below which a pole is considered to
#: sit on the shifted imaginary axis.
_AXIS_TOL = 1e-9

#: Strictness margin for the finite-sector Nyquist condition.
_STRICT_MARGIN = 1e-12

@dataclass(frozen=True)
class FrequencyGrid:
    """Logarithmic frequency samples for Nyquist loci.

    ``n_points`` log-spaced samples on [omega_min, omega_max].
    """

    omega_min: float
    omega_max: float
    n_points: int = 2000

    def __post_init__(self):
        if not 0.0 < self.omega_min < self.omega_max:
            raise ValueError("requires 0 < omega_min < omega_max")
        if self.n_points < 2:
            raise ValueError("requires n_points >= 2")

    def omegas(self) -> np.ndarray:
        return np.geomspace(self.omega_min, self.omega_max, self.n_points)


def default_grid(g: RationalTF, lam: float = 0.0, n_points: int = 2000) -> FrequencyGrid:
    """Grid bracketing by three decades the pole/zero corner magnitudes of g,
    before and after shifting."""
    corners = []
    for root in g.poles() + g.zeros():
        corners.append(abs(root))
        corners.append(abs(root + lam))
    corners = [c for c in corners if c > 1e-12] or [1.0]
    return FrequencyGrid(1e-3 * min(corners), 1e3 * max(corners), n_points=n_points)


@dataclass(frozen=True)
class DominanceCertificate:
    """Outcome of the three-condition circle-criterion check.

    conditions = (no pole on the shifted axis,
                  shifted unstable pole count equals p,
                  Nyquist locus right of the -1/K line).
    ``critical_gain`` is the extra gain the checked transfer function could
    absorb before losing positive realness (inf when min_re >= 0);
    ``margin`` is the distance between min_re and the sector line.
    """

    p: int
    rate: float
    min_re: float
    omega_at_min: float
    critical_gain: float
    conditions: tuple[bool, bool, bool]
    passed: bool
    sector: object
    margin: float

    def to_json_dict(self) -> dict:
        def _num(x):
            if isinstance(x, float) and math.isinf(x):
                return "unbounded"
            if isinstance(x, float) and math.isnan(x):
                return None
            return x

        return {
            "p": self.p,
            "lambda": self.rate,
            "min_re": _num(self.min_re),
            "omega_at_min": "infinite" if math.isinf(self.omega_at_min) else _num(self.omega_at_min),
            "critical_gain": _num(self.critical_gain),
            "conditions": list(self.conditions),
            "passed": self.passed,
            "sector": self.sector if isinstance(self.sector, str) else float(self.sector),
            "margin": _num(self.margin),
        }


class LocusPoint(NamedTuple):
    omega: float
    re: float
    im: float
    near_pole: bool


def _check_axis_clear(g: RationalTF, lam: float) -> list[complex]:
    poles = g.poles()
    if any(abs(p.real + lam) < _AXIS_TOL for p in poles):
        raise ArithmeticError("pole on shifted imaginary axis")
    return poles


def _re_at(shifted: RationalTF, omega: float) -> float:
    s = 1j * omega
    return (shifted.num(s) / shifted.den(s)).real


def _asymptotic_re(g: RationalTF) -> float:
    """Real-part limit for omega -> infinity (0 unless bi-proper)."""
    if g.is_biproper:
        return g.num.leading / g.den.leading
    return 0.0


def _axis_parts(coeffs, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts of p(j*scale*x) as polynomials in v = x**2.

    p(j*scale*x) = E(v) + j*x*O(v), because j**k = (-1)**(k//2) for even k
    and j*(-1)**(k//2) for odd k.  Coefficients ascend.
    """
    k = np.arange(len(coeffs))
    c = np.asarray(coeffs) * scale ** k * (-1.0) ** (k // 2)
    return c[0::2], (c[1::2] if len(c) > 1 else np.zeros(1))


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[:len(b)] += b
    return out


def _der(c: np.ndarray) -> np.ndarray:
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)


def _stationary_omegas(shifted: RationalTF) -> np.ndarray:
    """Frequencies sqrt(Re z) for every root z, Re z > 0, of P'Q - PQ' in u = w**2.

    Frequencies are scaled by w0 = |d_0/d_n|**(1/n) of the denominator, so
    that its lowest and highest coefficients match in size before the roots
    are taken.
    """
    den = shifted.den.coeffs
    n = len(den) - 1
    if n == 0:
        return np.zeros(0)
    w0 = abs(den[0] / den[-1]) ** (1.0 / n)
    ne, no = _axis_parts(shifted.num.coeffs, w0)
    de, do = _axis_parts(den, w0)
    conv = np.convolve
    pp = _add(conv(ne, de), np.append(0.0, conv(no, do)))
    qq = _add(conv(de, de), np.append(0.0, conv(do, do)))
    nonzero = np.flatnonzero(pp)
    if len(nonzero) == 0:
        return np.zeros(0)
    pp = pp[:nonzero[-1] + 1]
    rr = _add(conv(_der(pp), qq), -conv(pp, _der(qq)))
    # deg P = p, deg Q = q = n; the u**(p+q-1) coefficient of P'Q - PQ' is
    # (p - q) P_p Q_q, exactly 0 when p = q, so its rounding is dropped
    p, q = len(pp) - 1, n
    z = np.roots(rr[:p + q - (p == q)][::-1])
    return w0 * np.sqrt(z.real[z.real > 0.0])


def min_real_part(g: RationalTF, lam: float) -> tuple[float, float]:
    """Global minimum of Re G(jw - lambda) over w >= 0, exact up to rounding.

    With u = w**2 the shifted numerator splits as N(jw) = Ne(u) + jw No(u),
    and likewise the denominator, so Re G = P(u)/Q(u) with
    P = Ne De + u No Do and Q = De**2 + u Do**2 > 0.  The minimum therefore
    lies at w = 0, at w -> infinity, or at a stationary point, a root of
    P'Q - PQ'.  Every root z with Re z > 0 gives the candidate w = sqrt(Re z):
    rounding can split a double root into a complex pair, and an extra
    candidate is still a real frequency, so it cannot undercut the minimum.
    Candidates are evaluated by Horner's rule on the shifted transfer
    function.  Returns (min_re, omega_at_min); omega_at_min is inf when the
    asymptotic limit is the minimum.  A zero numerator gives (0.0, 0.0).
    """
    _check_axis_clear(g, lam)
    if g.num.is_zero:
        return 0.0, 0.0
    shifted = tf_shift(g, lam)
    best_re = _re_at(shifted, 0.0)
    best_w = 0.0
    re_inf = _asymptotic_re(g)
    if re_inf < best_re:
        best_re, best_w = re_inf, math.inf
    for w in _stationary_omegas(shifted):
        v = _re_at(shifted, float(w))
        if v < best_re:
            best_re, best_w = v, float(w)
    return best_re, best_w


def critical_balance(tau_p: float, tau_n: float) -> float:
    """Balance threshold tau_p/(tau_p + tau_n), always in (0, 0.5).

    Above it the open-loop zero is unstable for every admissible rate, and
    2-passivity becomes attainable for any gain; it vanishes as the positive
    channel becomes infinitely fast.
    """
    if not 0.0 < tau_p < tau_n:
        raise ValueError("requires 0 < tau_p < tau_n")
    return tau_p / (tau_p + tau_n)


def midpoint_rate(poles) -> float:
    """Rate splitting off the two slowest poles as the dominant pair: the
    default rate of every command.

    Midpoint between the real parts of the second and third slowest poles,
    so shifting leaves exactly two unstable poles; a stable and an unstable
    shifted pole of equal magnitude then cancel in phase.  For the
    amplifier's three lags this is (1/tau_1 + 1/tau_2)/2 over its two
    fastest lags.  Any rate strictly between those two pole magnitudes
    works, and callers may pass their own.
    """
    res = sorted((p.real if isinstance(p, complex) else float(p) for p in poles),
                 reverse=True)
    if len(res) < 3:
        raise ValueError("requires at least three poles")
    return -(res[1] + res[2]) / 2.0


def check_p_dominance(g: RationalTF, lam: float, K, p: int) -> DominanceCertificate:
    """Three-condition circle-criterion check; failures are encoded, not raised.

    K is a sector bound K >= 0 or :data:`INFINITE_SECTOR`.  With a finite
    sector the Nyquist condition is strict (min_re > -1/K plus a 1e-12
    margin; K = 0 puts the line at -inf, so it always holds); with the
    infinite sector it relaxes to min_re >= 0.
    """
    if K != INFINITE_SECTOR and not float(K) >= 0.0:
        raise ValueError("requires K >= 0 or the infinite-sector tag")
    poles = g.poles()
    cond1 = all(abs(pl.real + lam) >= _AXIS_TOL for pl in poles)
    n_unstable = sum(1 for pl in poles if pl.real > -lam)
    cond2 = n_unstable == p
    if cond1:
        min_re, w_at = min_real_part(g, lam)
    else:
        min_re, w_at = math.nan, math.nan
    if K == INFINITE_SECTOR:
        line = 0.0
        cond3 = min_re >= 0.0
    else:
        line = -1.0 / float(K) if K else -math.inf
        cond3 = min_re > line + _STRICT_MARGIN
    margin = min_re - line
    if math.isnan(min_re):
        crit = math.nan
    elif min_re >= 0.0:
        crit = math.inf
    else:
        crit = -1.0 / min_re
    return DominanceCertificate(
        p=p, rate=lam, min_re=min_re, omega_at_min=w_at, critical_gain=crit,
        conditions=(cond1, cond2, bool(cond3)), passed=bool(cond1 and cond2 and cond3),
        sector=K, margin=margin,
    )


def check_p_passivity(g: RationalTF, lam: float, p: int) -> DominanceCertificate:
    """Positive-realness check of the shifted transfer function (K infinite)."""
    return check_p_dominance(g, lam, INFINITE_SECTOR, p)


def nyquist_locus(g: RationalTF, lam: float, grid: FrequencyGrid
                  ) -> list[LocusPoint]:
    """Samples of G(jw - lambda) over the grid, omega ascending.

    Only w >= 0 is emitted (the locus at -w is the mirror image).  Samples
    whose denominator magnitude falls below evaluation tolerance are flagged
    ``near_pole`` and carry NaN values instead of raising.
    """
    _check_axis_clear(g, lam)
    shifted = tf_shift(g, lam)
    w = grid.omegas()
    s = 1j * w
    num_v = np.polynomial.polynomial.polyval(s, np.asarray(shifted.num.coeffs))
    den_v = np.polynomial.polynomial.polyval(s, np.asarray(shifted.den.coeffs))
    scale = np.polynomial.polynomial.polyval(
        np.abs(s), np.abs(np.asarray(shifted.den.coeffs)))
    near = np.abs(den_v) <= 1e-12 * np.maximum(scale, 1e-300)
    vals = np.where(near, np.nan + 0j, num_v / np.where(near, 1.0, den_v))
    return [
        LocusPoint(float(wi), float(v.real), float(v.imag), bool(fl))
        for wi, v, fl in zip(w, vals, near)
    ]
