"""Frequency-domain critical gains and passivity certification.

The central object is the minimum over frequency of Re G(jw - lambda): its
sign decides passivity, and its reciprocal gives the critical gain
-1/min_re below which the circle criterion certifies p-dominance for the
loop closed through a sector-[0, k] slope.  Every minimum is taken on a
loop's unit-gain transfer function G1: for k > 0,
min Re kG1(jw - lambda) = k min Re G1(jw - lambda) at the same frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .tf_core import RationalTF, _companion_roots, tf_shift

__all__ = [
    "DominanceCertificate",
    "check_p_passivity",
    "midpoint_rate",
    "min_real_part",
    "nyquist_locus",
]

#: Absolute slack on |Re(pole) + lambda| below which a pole is considered to
#: sit on the shifted imaginary axis.
_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class DominanceCertificate:
    """Outcome of the p-passivity check of G(s - lambda).

    conditions = (no pole on the shifted axis,
                  shifted unstable pole count equals p,
                  min_re >= 0).
    ``critical_gain`` is the gain the checked transfer function could absorb
    before losing positive realness, -1/min_re (inf when min_re is not
    negative).  Failures are encoded, not raised: a pole on the shifted axis
    gives nan for min_re, omega_at_min and critical_gain.
    """

    p: int
    rate: float
    min_re: float
    omega_at_min: float
    critical_gain: float
    conditions: tuple[bool, bool, bool]

    @property
    def passed(self) -> bool:
        return all(self.conditions)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "lambda": self.rate,
            "min_re": _tag_json(self.min_re),
            "omega_at_min": "infinite" if math.isinf(self.omega_at_min)
            else _tag_json(self.omega_at_min),
            "critical_gain": _tag_json(self.critical_gain),
            "conditions": list(self.conditions),
            "passed": self.passed,
            # passivity is the circle criterion for the infinite sector, whose
            # line -1/K sits at 0, so the margin to it is min_re
            "sector": "infinite",
            "margin": _tag_json(self.min_re),
        }


def _tag_json(x: float):
    """A float as JSON writes it here: inf as "unbounded", nan as null."""
    if math.isinf(x):
        return "unbounded"
    if math.isnan(x):
        return None
    return x


def _on_axis(poles, lam: float) -> bool:
    """Whether a pole lies within _AXIS_TOL of the shifted imaginary axis."""
    return any(abs(p.real + lam) < _AXIS_TOL for p in poles)


def _check_axis_clear(g: RationalTF, lam: float) -> list[complex]:
    poles = g.poles()
    if _on_axis(poles, lam):
        raise ArithmeticError("pole on shifted imaginary axis")
    return poles


def _gain(min_re: float) -> float:
    """Critical gain of a minimum real part: inf when it is not negative,
    nan for nan."""
    return math.inf if min_re >= 0.0 else -1.0 / min_re


def _re_at(shifted: RationalTF, omega: float) -> float:
    s = 1j * omega
    return (shifted.num(s) / shifted.den(s)).real


def _asymptotic_re(g: RationalTF) -> float:
    """Real-part limit for omega -> infinity (0 unless bi-proper)."""
    if g.is_biproper:
        return g.num.leading / g.den.leading
    return 0.0


@cache
def _powers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents k = 0..n-1 and signs (-1)**(k//2), built once per length n."""
    k = np.arange(n)
    return k, (-1.0) ** (k // 2)


def _axis_parts(coeffs, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts of p(j*scale*x) as polynomials in v = x**2.

    p(j*scale*x) = E(v) + j*x*O(v), because j**k = (-1)**(k//2) for even k
    and j*(-1)**(k//2) for odd k.  Coefficients ascend.
    """
    k, sign = _powers(len(coeffs))
    c = np.asarray(coeffs) * scale ** k * sign
    return c[0::2], (c[1::2] if len(c) > 1 else np.zeros(1))


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[:len(b)] += b
    return out


def _der(c: np.ndarray) -> np.ndarray:
    return c[1:] * _powers(len(c))[0][1:] if len(c) > 1 else np.zeros(1)


def _stationary_poly(shifted: RationalTF) -> tuple[float, np.ndarray]:
    """Scale w0 and the descending coefficients of P'Q - PQ' in u = (w/w0)**2,
    whose roots z with Re z > 0 give the stationary frequencies w0 sqrt(Re z).

    w0 = |d_0/d_n|**(1/n) of the denominator makes its lowest and highest
    coefficients match in size before the roots are taken.
    """
    den = shifted.den.coeffs
    n = len(den) - 1
    if n == 0:
        return 1.0, np.zeros(0)
    w0 = abs(den[0] / den[-1]) ** (1.0 / n)
    ne, no = _axis_parts(shifted.num.coeffs, w0)
    de, do = _axis_parts(den, w0)
    conv = np.convolve
    pp = _add(conv(ne, de), np.concatenate(([0.0], conv(no, do))))
    qq = _add(conv(de, de), np.concatenate(([0.0], conv(do, do))))
    nonzero = np.flatnonzero(pp)
    if len(nonzero) == 0:
        return w0, np.zeros(0)
    pp = pp[:nonzero[-1] + 1]
    rr = _add(conv(_der(pp), qq), -conv(pp, _der(qq)))
    # deg P = p, deg Q = q = n; the u**(p+q-1) coefficient of P'Q - PQ' is
    # (p - q) P_p Q_q, exactly 0 when p = q, so its rounding is dropped
    p, q = len(pp) - 1, n
    return w0, rr[:p + q - (p == q)][::-1]


def min_real_part(g: RationalTF, lam):
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
    For a tuple of rates ``lam``, a tuple of such pairs, one per rate, from
    one root call (:func:`mfa.tf_core._companion_roots`) for all rates.
    """
    rates = lam if isinstance(lam, tuple) else (lam,)
    for rate in rates:
        _check_axis_clear(g, rate)
    if g.num.is_zero:
        return ((0.0, 0.0),) * len(rates) if isinstance(lam, tuple) else (0.0, 0.0)
    shifted = [tf_shift(g, rate) for rate in rates]
    polys = [_stationary_poly(s) for s in shifted]
    mins = []
    for s, (w0, _), z in zip(shifted, polys, _companion_roots([c for _, c in polys])):
        # min keeps the first of equal values: w = 0, then infinity, then roots
        cands = [(_re_at(s, 0.0), 0.0), (_asymptotic_re(g), math.inf)]
        cands += [(_re_at(s, w), w) for w in map(float, w0 * np.sqrt(z.real[z.real > 0.0]))]
        mins.append(min(cands, key=lambda c: c[0]))
    return tuple(mins) if isinstance(lam, tuple) else mins[0]


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


def check_p_passivity(g1: RationalTF, lam: float, p: int, k: float) -> DominanceCertificate:
    """Positive-realness check of k G1(s - lam) with p shifted-unstable poles.

    ``g1`` is the unit-gain transfer function and ``k >= 0`` the loop gain:
    the minimum is k times that of G1, at the same frequency, and the poles
    do not depend on k.  At k = 0 the certificate is the zero transfer
    function's, min_re 0 at w = 0.
    """
    poles = g1.poles()
    clear = not _on_axis(poles, lam)
    n_unstable = sum(1 for pl in poles if pl.real > -lam)
    if not clear:
        min_re, w_at = math.nan, math.nan
    elif k == 0.0:
        min_re, w_at = 0.0, 0.0
    else:
        m1, w_at = min_real_part(g1, lam)
        min_re = k * m1
    return DominanceCertificate(
        p=p, rate=lam, min_re=min_re, omega_at_min=w_at, critical_gain=_gain(min_re),
        conditions=(clear, n_unstable == p, min_re >= 0.0))


def nyquist_locus(g: RationalTF, lam: float, omegas) -> np.ndarray:
    """Rows (omega, Re, Im) of G(jw - lambda) at the frequencies ``omegas``.

    Only w >= 0 is meaningful (the locus at -w is the mirror image).  A
    sample whose denominator magnitude falls below evaluation tolerance
    carries NaN values instead of raising.
    """
    _check_axis_clear(g, lam)
    shifted = tf_shift(g, lam)
    w = np.asarray(omegas, dtype=float)
    s = 1j * w
    num_v = np.polynomial.polynomial.polyval(s, np.asarray(shifted.num.coeffs))
    den_v = np.polynomial.polynomial.polyval(s, np.asarray(shifted.den.coeffs))
    scale = np.polynomial.polynomial.polyval(
        np.abs(s), np.abs(np.asarray(shifted.den.coeffs)))
    near = np.abs(den_v) <= 1e-12 * np.maximum(scale, 1e-300)
    vals = np.where(near, np.nan + 0j, num_v / np.where(near, 1.0, den_v))
    return np.column_stack([w, vals.real, vals.imag])
