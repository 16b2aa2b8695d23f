"""Real-coefficient polynomials, strictly proper transfer functions, saturation nonlinearities.

A polynomial is a sequence of float coefficients in ascending degree, the
constant first.  :class:`RationalTF` stores its numerator and denominator as
tuples with trailing zeros stripped, so the degree is always implied by the
length.  All types are immutable values and all operations are pure
functions; no pole/zero cancellation is ever performed.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "MAX_ROOT_DEGREE",
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


#: The operations a traced value records: (precedence, least precedence of
#: the left and of the right operand that need no parentheses, template).
#: Sums and products associate to the left, so a left operand of the same
#: precedence needs none.
_ADD = (1, 1, 2, "{} + {}")
_SUB = (1, 1, 2, "{} - {}")
_MUL = (2, 2, 3, "{} * {}")
_DIV = (2, 2, 3, "{} / {}")
_NEG = (3, 3, None, "-{}")
_POW = (4, 5, 3, "{} ** {}")
_ABS = (5, 0, None, "abs({})")


def _operator(op):
    """The methods that record ``op`` with the traced value as its left and
    as its right operand."""
    return (lambda self, other: self._record(op, self, other),
            lambda self, other: self._record(op, other, self))


class _Traced:
    """A float argument or intermediate of a traced function.

    Each arithmetic operation on it, and each call of a traced function
    argument, records a node, holding the operation and its one or two
    operands, in the shared ``tape`` dict and returns that node, so running
    a function of floats on traced arguments records its operations in
    their order and counts the uses of each value.  An arithmetic operation
    on operands already recorded with it returns the node made then; each
    call is a new node.  A traced value has no truth value and no equality,
    so a branch on one fails instead of being frozen into the record.
    """

    __slots__ = ("tape", "text", "prec", "uses", "op", "a", "b")

    def __init__(self, tape: dict, text: str):
        self.tape, self.text, self.prec, self.uses = tape, text, 5, 0

    def _record(self, op, a, b=None):
        # a call's op is a new tuple, never shared; a constant's repr tells -0.0 from 0.0
        key = (id(op), *[id(v) if type(v) is _Traced else repr(v) for v in (a, b)])
        node = self.tape.get(key)
        if node is None:
            node = self.tape[key] = _Traced(self.tape, "")
            node.op, node.a, node.b = op, a, b
            if type(a) is _Traced:
                a.uses += 1
            if type(b) is _Traced:
                b.uses += 1
        return node

    __add__, __radd__ = _operator(_ADD)
    __sub__, __rsub__ = _operator(_SUB)
    __mul__, __rmul__ = _operator(_MUL)
    __truediv__ = _operator(_DIV)[0]
    __pow__ = _operator(_POW)[0]

    def __neg__(self):
        return self._record(_NEG, self)

    def __abs__(self):
        return self._record(_ABS, self)

    def __call__(self, x):
        return self._record((5, 0, None, self.text + "({})"), x)

    def __bool__(self):
        raise TypeError("a traced value has no truth value")

    def __eq__(self, other):
        raise TypeError("a traced value has no truth value")


def _source(value, prec: int = 0) -> str:
    """Python source of a traced value, a finite constant, or a list or tuple
    of them, in parentheses when it binds less tightly than ``prec``."""
    if type(value) is _Traced:
        text, own = value.text, value.prec
    elif type(value) is list:
        return "[" + ", ".join(map(_source, value)) + "]"
    elif type(value) is tuple:
        return "(" + "".join(_source(v) + ", " for v in value) + ")"
    else:
        text = repr(value)
        own = 3 if text[0] == "-" else 5
    return text if own >= prec else "(" + text + ")"


def _count_uses(value):
    """Count one more use of every traced value in a (nested) result."""
    if type(value) is _Traced:
        value.uses += 1
    elif type(value) in (list, tuple):
        for v in value:
            _count_uses(v)


def _trace(fn, shape, loop: bool):
    """``fn`` as straight-line code for arguments of ``shape``: per argument
    a length for a sequence of floats, None for one float, or a function,
    which the code calls as a local, bound as a keyword default.

    ``fn`` runs once on :class:`_Traced` arguments, and the code is the
    record of that run: every call that ``fn`` made, and each distinct float
    operation once, since a repeat on the same operands gives the same bits,
    with constants as their ``repr``, which reads back to the same float.  A
    value used once is written into the expression that uses it, in
    parentheses where precedence needs them, and any other value is first
    assigned to a local, so the code computes the bits that ``fn`` computes.
    Only the moment at which a value is computed can move; of the
    operations that can raise, a division and a power, the traced functions
    here have at most one chain.  ``fn`` may branch and loop on lengths
    only.  The code takes the arguments that are not functions and returns
    the result, which may hold lists and tuples; with ``loop`` they are a
    float ``r`` and a sequence ``s``, and the code ``kernel(rs, s, out)``
    runs the record for each ``r`` in ``rs``, its result the next ``s``,
    whose components it appends to ``out``.
    """
    tape = {}
    args = [_Traced(tape, f"x{i}") if n is None or callable(n)
            else [_Traced(tape, f"x{i}_{j}") for j in range(n)]
            for i, n in enumerate(shape)]
    result = fn(*args)
    _count_uses(result)
    lines = [f"{_source(tuple(a))} = x{i}" for i, a in enumerate(args) if type(a) is list]
    for node in tape.values():
        prec, left, right, template = node.op
        expr = (template.format(_source(node.a, left)) if right is None
                else template.format(_source(node.a, left), _source(node.b, right)))
        if node.uses == 1:
            node.text, node.prec = expr, prec
        else:
            node.text = f"t{len(lines)}"
            lines.append(node.text + " = " + expr)
    tape.clear()  # each node holds the tape: free them now, not in a collection
    namespace = {f"x{i}": n for i, n in enumerate(shape) if callable(n)}
    if loop:
        r, s = f"x{len(shape) - 2}", f"x{len(shape) - 1}"
        step = [*lines, f"{s} = {_source(tuple(result))}", f"store({s})"]
        params = ["rs", s, "out"]
        lines = ["store = out.extend", f"for {r} in rs:", *("    " + line for line in step)]
    else:
        params = [f"x{i}" for i, n in enumerate(shape) if not callable(n)]
        lines.append(f"return {_source(result)}")
    params += ["*", *(f"{x}={x}" for x in namespace)] if namespace else []
    exec("\n    ".join([f"def kernel({', '.join(params)}):", *lines]), namespace)
    return namespace["kernel"]


@functools.cache
def _kernel(fn, *shape):
    """``fn`` as straight-line code (:func:`_trace`), cached by ``(fn,
    *shape)``; shapes are bounded by the degrees of the loops' polynomials."""
    return _trace(fn, shape, False)


def _loop_kernel(fn, *shape):
    """The step ``fn(*functions, r, s)`` as ``kernel(rs, s, out)``
    (:func:`_trace` with ``loop``).  Not cached: a caller's step is
    typically a fresh closure, with its coefficients as constants."""
    return _trace(fn, shape, True)


#: Calls of a traced function on one shape that run the function itself
#: before :func:`_compiled` hands out its kernel.  A kernel costs as much to
#: build as some 50 to 100 calls of the function it replaces, so a one-point
#: command, which makes a few calls per shape, builds none.
_CALLS_BEFORE_KERNEL = 8

_calls = Counter()


def _compiled(fn, *shape):
    """``fn`` for its first :data:`_CALLS_BEFORE_KERNEL` calls on arguments of
    ``shape``, and its kernel (:func:`_kernel`) from then on.  Both give the
    same bits."""
    key = (fn, *shape)
    n = _calls[key]
    if n < _CALLS_BEFORE_KERNEL:
        _calls[key] = n + 1
        return fn
    return _kernel(fn, *shape)


def _horner(coeffs, s):
    """Ascending ``coeffs`` evaluated at ``s`` by Horner's rule."""
    acc = 0.0 + 0.0j if isinstance(s, complex) else 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _trim(coeffs) -> tuple[float, ...]:
    """Ascending ``coeffs`` as a tuple of floats with trailing zeros stripped,
    so the degree is the length less one; the zero polynomial is ``(0.0,)``."""
    cs = [float(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    return tuple(cs) or (0.0,)


def _shift_terms(coeffs, neg):
    """Ascending coefficients of p(s + neg), by binomial re-expansion.

    out = sum_j a_j (s + neg)**j, with each power taken from the last by
    the recurrence power[i] <- power[i] neg + power[i - 1], and the terms
    added in ascending j.
    """
    out = [0.0] * len(coeffs)
    power = [1.0]  # (s + neg)**j, ascending
    for j, a in enumerate(coeffs):
        if j:
            power.append(power[-1])
            for i in range(j - 1, 0, -1):
                power[i] = power[i] * neg + power[i - 1]
            power[0] *= neg
        for i, c in enumerate(power):
            out[i] += a * c
    return out


def _shift(coeffs, lam: float) -> list[float]:
    """Ascending coefficients of p(s - lam) as a list: :func:`_shift_terms`
    at neg = -lam, or its kernel for ``len(coeffs)`` (:func:`_compiled`).
    At lam = 0 the coefficients come back unchanged, except that -0.0
    becomes 0.0 as in the sum.  The leading coefficient is the leading
    ``a_n`` times 1.0, so a trimmed ``coeffs`` gives a trimmed result."""
    if lam == 0.0:
        return [c + 0.0 for c in coeffs]
    return _compiled(_shift_terms, len(coeffs), None)(coeffs, -lam)


def _root_order(z: complex):
    return (z.real, z.imag)


def _not_converged(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_not_converged, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _eigvals(stack) -> np.ndarray:
    """Complex eigenvalues of each real matrix in ``stack`` (..., n, n): the
    LAPACK ufunc that ``np.linalg.eigvals`` calls, with its checks and its
    bits, without its wrapper.  A non-finite entry, and a matrix whose
    eigenvalues do not converge, raise ``LinAlgError`` with numpy's message.
    Unlike ``np.linalg.eigvals`` the result stays complex when every
    eigenvalue is real.  The one eigenvalue call of the program."""
    if not np.isfinite(stack).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    return _umath_linalg.eigvals(stack, signature="d->D")


def _companion_roots(polys) -> list[list[complex]]:
    """Roots of each polynomial in ``polys`` (coefficient sequences,
    ascending) as a list of complex, bit for bit as ``np.roots`` of the
    descending coefficients after complex conversion: zeros stripped from
    both ends, companion first row -c[k]/c[hi] for k from hi - 1 down to lo,
    the highest and lowest nonzero degrees, formed in Python floats, and
    ones below the diagonal, the lo roots at 0 last.  One stacked
    :func:`_eigvals` call per matrix size."""
    out, by_size = [], {}
    for c in polys:
        nz = [i for i, x in enumerate(c) if x != 0.0]
        lo, hi = (nz[0], nz[-1]) if nz else (0, 0)
        out.append([0j] * lo)
        if hi > lo:
            row = [-c[k] / c[hi] for k in range(hi - 1, lo - 1, -1)]
            by_size.setdefault(hi - lo, []).append((len(out) - 1, row))
    for n, group in by_size.items():
        a = np.zeros((len(group), n, n))
        a.reshape(len(group), n * n)[:, n::n + 1] = 1.0  # the sub-diagonal
        a[:, 0] = [row for _, row in group]
        for (i, _), z in zip(group, _eigvals(a).tolist()):
            out[i] = z + out[i]
    return out


def poly_roots(coeffs) -> list[complex]:
    """All roots (with multiplicity) of the polynomial with ascending
    ``coeffs``, trailing zeros stripped, via companion-matrix eigenvalues.

    A degree-1 polynomial gives -a0/a1, the eigenvalue of its 1x1 companion
    matrix, without the eigenvalue call.  Roots are ordered by ascending real
    part, then ascending imaginary part, which places each conjugate pair
    adjacently.  The scaled residual
    ``|p(root)| / sum_k |a_k| |root|^k`` is checked against 1e-8.  An
    imaginary part within 1e-12 (1 + |root|) is snapped to 0 only where the
    real root passes that check, so a pair of tiny complex roots is kept.
    """
    p = _trim(coeffs)
    degree = len(p) - 1
    if p == (0.0,):
        raise ValueError("degenerate polynomial")
    if degree == 0:
        return []
    if degree > MAX_ROOT_DEGREE:
        raise ValueError(f"polynomial degree {degree} above supported cap {MAX_ROOT_DEGREE}")
    if degree == 1:
        # adding 0.0 gives the 0.0 that np.roots returns for a root at 0
        raw = [complex(-p[0] / p[1] + 0.0)]
    else:
        raw = _companion_roots([p])[0]

    # ROADMAP item 12's backward-error test |p(z)| <= 4n eps sum |a_k||z|^k
    # replaces the residual bound, its floor and the real-root snap
    def fails(z):
        scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(p))
        return abs(_horner(p, z)) > 1e-8 * max(scale, 1e-300)
    roots = []
    for z in raw:
        if (z.imag != 0.0 and abs(z.imag) <= 1e-12 * (1.0 + abs(z))
                and not fails(complex(z.real, 0.0))):
            z = complex(z.real, 0.0)
        roots.append(z)
    roots.sort(key=_root_order)
    if any(map(fails, roots)):
        raise ArithmeticError("root residual above tolerance")
    return roots


@dataclass(frozen=True)
class RationalTF:
    """Strictly proper rational transfer function num(s)/den(s), real
    coefficients: a nonzero numerator has a lower degree than ``den``.

    ``num`` and ``den`` may be given as any sequences of floats in ascending
    degree and are stored as tuples with trailing zeros stripped, the zero
    numerator as ``(0.0,)``.  ``den_roots`` are the roots of ``den``, known
    from the factors it is built from (-1/tau for a lag tau s + 1), stored in
    the order of :func:`poly_roots`.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]
    den_roots: tuple[complex, ...] = field(repr=False, compare=False)

    def __post_init__(self):
        num, den = _trim(self.num), _trim(self.den)
        if den == (0.0,):
            raise ValueError("zero denominator")
        if num != (0.0,) and len(num) >= len(den):
            raise ValueError("requires a strictly proper transfer function")
        roots = sorted((complex(z) for z in self.den_roots), key=_root_order)
        if len(roots) != len(den) - 1:
            raise ValueError("requires one root per denominator degree")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "den_roots", tuple(roots))

    def poles(self) -> list[complex]:
        """Roots of the denominator, ``den_roots``."""
        return list(self.den_roots)

    def zeros(self) -> list[complex]:
        return [] if self.num == (0.0,) else poly_roots(self.num)


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
    return RationalTF(_shift(g.num, lam), _shift(g.den, lam), [z + lam for z in g.den_roots])
