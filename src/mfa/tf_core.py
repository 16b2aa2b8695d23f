"""Real-coefficient polynomials, strictly proper transfer functions, saturation nonlinearities.

Coefficients are stored in ascending degree and trailing zeros are stripped,
so the degree is always implied by the length.  All types are immutable
values and all operations are pure functions; no pole/zero cancellation is
ever performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_ROOT_DEGREE",
    "Polynomial",
    "RationalTF",
    "get_nonlinearity",
    "poly_roots",
    "tf_shift",
]

#: Companion-matrix root finding is only trusted up to this degree.
MAX_ROOT_DEGREE = 32


def _poly_add(a, b):
    """Coefficient-wise sum as a list, the shorter padded by adding 0.0 (-0.0 + 0.0 is 0.0)."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + [x + 0.0 for x in a[len(b):]]


def _conv(a, b):
    """Product of two coefficient sequences as a list, a[i] * b[j] added into out[i + j] for
    ascending i: IEEE arithmetic in a fixed order, no BLAS or SIMD.  No entry is -0.0."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _horner(coeffs, s):
    """Ascending ``coeffs`` evaluated at ``s`` by Horner's rule."""
    acc = 0.0 + 0.0j if isinstance(s, complex) else 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


@dataclass(frozen=True, init=False)
class Polynomial:
    """Real polynomial with ascending-degree coefficients.

    The zero polynomial is canonically ``(0.0,)``; any other polynomial has a
    nonzero leading (last) coefficient after construction.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        cs = [float(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            cs = [0.0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, s):
        """Evaluate by Horner's rule (:func:`_horner`)."""
        return _horner(self.coeffs, s)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(_poly_add(self.coeffs, other.coeffs))

    def __mul__(self, other):
        """Product with a polynomial by :func:`_conv`, or with a scalar per coefficient."""
        if isinstance(other, Polynomial):
            return Polynomial(_conv(self.coeffs, other.coeffs))
        return Polynomial([float(other) * c for c in self.coeffs])

    __rmul__ = __mul__

    def shifted(self, lam: float) -> "Polynomial":
        """Coefficients of p(s - lam), by binomial re-expansion.

        out = sum_j a_j (s - lam)**j, with each power taken from the last by
        the recurrence power[i] <- power[i] (-lam) + power[i - 1], and the
        terms added in ascending j.  At lam = 0 the coefficients come back
        unchanged, except that -0.0 becomes 0.0 as in the sum.
        """
        if lam == 0.0:
            return Polynomial([c + 0.0 for c in self.coeffs])
        neg = -lam
        out = [0.0] * len(self.coeffs)
        power = [1.0]  # (s - lam)**j, ascending
        for j, a in enumerate(self.coeffs):
            if j:
                power.append(power[-1])
                for i in range(j - 1, 0, -1):
                    power[i] = power[i] * neg + power[i - 1]
                power[0] *= neg
            for i, c in enumerate(power):
                out[i] += a * c
        return Polynomial(out)


def _root_order(z: complex):
    return (z.real, z.imag)


def _companion_roots(polys) -> list[np.ndarray]:
    """Roots of each polynomial in ``polys`` (coefficient sequences,
    descending), bit for bit as ``np.roots``: zeros stripped from both ends,
    companion first row -c[1:]/c[0] formed in Python floats and ones below the
    diagonal, the roots at 0 of the trailing zeros last, but one stacked
    eigenvalue call per matrix size."""
    out, by_size = [], {}
    for c in polys:
        nz = [i for i, x in enumerate(c) if x != 0.0]
        out.append(np.zeros(len(c) - nz[-1] - 1 if nz else 0))
        if nz and nz[-1] > nz[0]:
            row = [-x / c[nz[0]] for x in c[nz[0] + 1:nz[-1] + 1]]
            by_size.setdefault(nz[-1] - nz[0], []).append((len(out) - 1, row))
    for n, group in by_size.items():
        a = np.zeros((len(group), n, n))
        a.reshape(len(group), n * n)[:, n::n + 1] = 1.0  # the sub-diagonal
        a[:, 0] = [row for _, row in group]
        for (i, _), z in zip(group, np.linalg.eigvals(a)):
            out[i] = np.concatenate((z, out[i]))
    return out


def poly_roots(p: Polynomial) -> list[complex]:
    """All roots of ``p`` (with multiplicity) via companion-matrix eigenvalues.

    A degree-1 polynomial gives -a0/a1, the eigenvalue of its 1x1 companion
    matrix, without the eigenvalue call.  Roots are ordered by ascending real
    part, then ascending imaginary part, which places each conjugate pair
    adjacently.  The scaled residual
    ``|p(root)| / sum_k |a_k| |root|^k`` is checked against 1e-8.
    """
    if p.is_zero:
        raise ValueError("degenerate polynomial")
    if p.degree == 0:
        return []
    if p.degree > MAX_ROOT_DEGREE:
        raise ValueError(f"polynomial degree {p.degree} above supported cap {MAX_ROOT_DEGREE}")
    if p.degree == 1:
        # adding 0.0 gives the 0.0 that np.roots returns for a root at 0
        raw = [-p.coeffs[0] / p.coeffs[1] + 0.0]
    else:
        raw = _companion_roots([p.coeffs[::-1]])[0]
    roots = []
    for z in raw:
        z = complex(z)
        if z.imag != 0.0 and abs(z.imag) <= 1e-12 * (1.0 + abs(z)):
            z = complex(z.real, 0.0)
        roots.append(z)
    roots.sort(key=_root_order)
    for z in roots:
        scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs))
        if abs(p(z)) > 1e-8 * max(scale, 1e-300):
            raise ArithmeticError("root residual above tolerance")
    return roots


@dataclass(frozen=True)
class RationalTF:
    """Strictly proper rational transfer function num(s)/den(s), real
    coefficients: a nonzero numerator has a lower degree than ``den``.

    ``den_roots`` are the roots of ``den``, known from the factors it is
    built from (-1/tau for a lag tau s + 1), stored in the order of
    :func:`poly_roots`.
    """

    num: Polynomial
    den: Polynomial
    den_roots: tuple[complex, ...] = field(repr=False, compare=False)

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("zero denominator")
        if not self.num.is_zero and self.num.degree >= self.den.degree:
            raise ValueError("requires a strictly proper transfer function")
        roots = sorted((complex(z) for z in self.den_roots), key=_root_order)
        if len(roots) != self.den.degree:
            raise ValueError("requires one root per denominator degree")
        object.__setattr__(self, "den_roots", tuple(roots))

    def poles(self) -> list[complex]:
        """Roots of the denominator, ``den_roots``."""
        return list(self.den_roots)

    def zeros(self) -> list[complex]:
        return [] if self.num.is_zero else poly_roots(self.num)


def _tanh_slope(y: float) -> float:
    t = math.tanh(y)
    return 1.0 - t * t


def _tanh_slope_inverse(s: float) -> float:
    return math.acosh(1.0 / math.sqrt(s))


def _atan_phi(y: float) -> float:
    return (2.0 / math.pi) * math.atan(math.pi * y / 2.0)


def _atan_slope(y: float) -> float:
    return 1.0 / (1.0 + (math.pi * y / 2.0) ** 2)


def _atan_slope_inverse(s: float) -> float:
    return (2.0 / math.pi) * math.sqrt(1.0 / s - 1.0)


#: Saturation nonlinearities: tag -> (phi, phi', inverse of phi').  Every
#: entry is a strictly increasing odd sigmoid with |phi| <= 1 and an even
#: slope phi' that strictly decreases in |y| from phi'(0) = 1 towards 0.  The
#: inverse maps a slope s in (0, 1) to the unique y > 0 with phi'(y) = s.
_NONLINEARITIES = {
    "tanh": (math.tanh, _tanh_slope, _tanh_slope_inverse),
    "atan": (_atan_phi, _atan_slope, _atan_slope_inverse),
}


def get_nonlinearity(tag: str):
    """Return the (phi, dphi, slope_inverse) triple registered under ``tag``."""
    try:
        return _NONLINEARITIES[tag]
    except KeyError:
        raise ValueError(f"unknown nonlinearity {tag!r}") from None


def tf_shift(g: RationalTF, lam: float) -> RationalTF:
    """Substitute s <- s - lam; every pole and zero translates by +lam."""
    return RationalTF(g.num.shifted(lam), g.den.shifted(lam), [z + lam for z in g.den_roots])
