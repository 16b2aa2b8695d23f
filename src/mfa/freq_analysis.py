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

import numpy as np

from .tf_core import (RationalTF, _companion_roots, _compiled, _conv, _horner, _poly_add, _shift,
                      tf_shift)

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


def _re_at(num, den, omega: float) -> float:
    """Re N(jw)/D(jw) of the ascending coefficients ``num`` and ``den``."""
    s = 1j * omega
    return (_horner(num, s) / _horner(den, s)).real


def _axis_parts(coeffs, scale: float) -> tuple[list[float], list[float]]:
    """Even and odd parts of p(j*scale*x) as polynomials in v = x**2.

    p(j*scale*x) = E(v) + j*x*O(v), because j**k = (-1)**(k//2) for even k
    and j*(-1)**(k//2) for odd k.  Coefficients ascend; scale**k is a running product.
    """
    c, power = [], 1.0
    for k, a in enumerate(coeffs):
        c.append(-(a * power) if k & 2 else a * power)
        power *= scale
    return c[0::2], (c[1::2] if len(c) > 1 else [0.0])


def _der(c: list[float]) -> list[float]:
    return [k * a for k, a in enumerate(c[1:], 1)] if len(c) > 1 else [0.0]


def _axis_products(num, den):
    """Scale w0 and the ascending coefficients of P and Q in u = (w/w0)**2,
    Re N(jw)/D(jw) = P(u)/Q(u), of num/den given as ascending coefficients.

    w0 = |d_0/d_n|**(1/n) of the denominator, of degree n >= 1 under a
    nonzero strictly proper numerator, makes its lowest and highest
    coefficients match in size before the roots are taken.  Products are
    :func:`mfa.tf_core._conv` and sums are of lists, in Python floats, so the
    coefficients do not depend on the host.
    """
    w0 = abs(den[0] / den[-1]) ** (1.0 / (len(den) - 1))
    ne, no = _axis_parts(num, w0)
    de, do = _axis_parts(den, w0)
    return (w0, _poly_add(_conv(ne, de), [0.0, *_conv(no, do)]),
            _poly_add(_conv(de, de), [0.0, *_conv(do, do)]))


def _stationary_coeffs(pp, qq) -> list[float]:
    """Ascending coefficients of P'Q - PQ' of the ascending ``pp`` and ``qq``."""
    # deg P < deg Q = n; at deg P = 0, _der's one zero gives a zero highest
    # coefficient, and the root call strips it
    return _poly_add(_conv(_der(pp), qq), [-x for x in _conv(pp, _der(qq))])


def _stationary_poly(num, den) -> tuple[float, list[float]]:
    """Scale w0 and the ascending coefficients of P'Q - PQ' in u = (w/w0)**2
    of num/den, given as ascending coefficients, whose roots z with Re z > 0
    give the stationary frequencies w0 sqrt(Re z).

    :func:`_axis_products` and :func:`_stationary_coeffs` run as
    themselves or as their kernels for the shapes at hand
    (:func:`mfa.tf_core._compiled`), with the same bits.  P's trailing zeros
    are stripped between the two, and P = 0 gives no coefficients.
    """
    w0, pp, qq = _compiled(_axis_products, len(num), len(den))(num, den)
    while pp and pp[-1] == 0.0:
        pp.pop()
    if not pp:
        return w0, []
    return w0, _compiled(_stationary_coeffs, len(pp), len(qq))(pp, qq)


def min_real_part(g: RationalTF, lam):
    """Global minimum of Re G(jw - lambda) over w >= 0, exact up to rounding.

    With u = w**2 the shifted numerator splits as N(jw) = Ne(u) + jw No(u),
    and likewise the denominator, so Re G = P(u)/Q(u) with
    P = Ne De + u No Do and Q = De**2 + u Do**2 > 0.  The minimum lies at
    w = 0, at w -> infinity, where the strictly proper G tends to 0, or at a
    root of P'Q - PQ' (:func:`_stationary_poly`).  Every root z with Re z > 0
    gives the candidate w = w0 math.sqrt(Re z): rounding can split a double
    root into a complex pair, and an extra real frequency cannot undercut the
    minimum.  A running minimum of :func:`_re_at` on the shifted ascending
    coefficient lists (:func:`mfa.tf_core._shift`) keeps the first of equal
    values: w = 0, infinity, the roots.  Returns (min_re, omega_at_min),
    omega_at_min inf when the limit 0 is the minimum; a zero numerator gives
    (0.0, 0.0).  For a tuple of rates ``lam``, a tuple of such pairs, with
    the poles checked against every rate first and the roots of every rate
    from one :func:`mfa.tf_core._companion_roots` call, which makes one
    eigenvalue call per matrix size.
    """
    rates = lam if isinstance(lam, tuple) else (lam,)
    if any(_on_axis(g.den_roots, rate) for rate in rates):
        raise ArithmeticError("pole on shifted imaginary axis")
    if g.num == (0.0,):
        return ((0.0, 0.0),) * len(rates) if isinstance(lam, tuple) else (0.0, 0.0)
    shifted = [(_shift(g.num, rate), _shift(g.den, rate)) for rate in rates]
    polys = [_stationary_poly(*s) for s in shifted]
    mins = []
    for (num, den), (w0, _), z in zip(shifted, polys, _companion_roots([c for _, c in polys])):
        # w = 0 wins a tie with infinity, as 0.0 < inf
        best, w_at = min((_re_at(num, den, 0.0), 0.0), (0.0, math.inf))
        for w in [w0 * math.sqrt(x.real) for x in z if x.real > 0.0]:
            v = _re_at(num, den, w)
            if v < best:
                best, w_at = v, w
        mins.append((best, w_at))
    return tuple(mins) if isinstance(lam, tuple) else mins[0]


def midpoint_rate(poles) -> float:
    """Rate splitting off the two slowest poles as the dominant pair: the
    default rate of every certificate and regime (``nyquist`` defaults to
    rate 0).

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
    num_v = np.polynomial.polynomial.polyval(s, np.asarray(shifted.num))
    den_v = np.polynomial.polynomial.polyval(s, np.asarray(shifted.den))
    scale = np.polynomial.polynomial.polyval(np.abs(s), np.abs(np.asarray(shifted.den)))
    near = np.abs(den_v) <= 1e-12 * np.maximum(scale, 1e-300)
    vals = np.where(near, np.nan + 0j, num_v / np.where(near, 1.0, den_v))
    return np.column_stack([w, vals.real, vals.imag])
