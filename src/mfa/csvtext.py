"""Exact ``%.17g`` CSV text for blocks of doubles, with numpy only.

:func:`format_block` gives, byte for byte, the rows that ``'%.17g' % v``
gives for every value of a 2-D float block.

For ``1e-250 <= |x| <= 1e250`` the 17 significant digits are the integer
``N = round(|x| 10^(16 - e))``, with ``e`` the decimal exponent from the floor
of ``log10 |x|``.  ``10^(16 - e)`` is held as a double-double ``hi + lo``
built from Python integers, and Dekker's error-free product splits
``|x| hi`` into ``fl(|x| hi) + err``.  ``fl(|x| hi)`` is at least 1e16, above
2^53, so it is an integer, and ``N`` is that integer plus ``round(err)``, with
``err`` good to about 1e-14.  Printing from a table of powers of ten this way
is the fixed-precision method of Adams, "Ryu revisited: printf floating point
conversion", OOPSLA 2019.  A zero is ``0`` or ``-0``.  The values this does
not settle are formatted by ``%``: inf and nan, ``|x|`` outside that range,
an ``err`` within 1e-6 of a half-integer (a possible tie), and an ``N``
outside ``(1e16, 1e17)``.
That last test catches an exponent guess one off, and a rounding up to
``1e16`` or ``1e17`` from the decade below, which moves the exponent and can
switch the notation.

The text follows ``%g``: fixed notation for a decimal exponent ``-4 <= X <
17``, otherwise scientific with at least two exponent digits; trailing zeros
are stripped, and the point with them when no fraction is left.  Each value
gets a fixed-width byte row from tables indexed by its digit groups and its
exponent, and one mask, taken by its layout, count of significant digits
and sign, compresses the block into its text.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_block"]

#: Largest magnitude, and smallest reciprocal, that the kernel formats.
_LIMIT = 1e250
#: Decimal exponents of the tables: those of [1e-250, 1e250], one off included.
_E_MIN, _E_MAX = -252, 252
#: Smallest scale exponent s = 16 - e in the table.
_S_MIN = 16 - _E_MAX
#: Dekker's splitter for doubles, 2^27 + 1.
_SPLIT = 134217729.0


def _pow10_table():
    """``10^s = hi + lo`` for s = 16 - e over the table's exponents, each part
    the correctly rounded double (Python's int-to-float conversion and int
    true division both round correctly), with ``hi`` split in halves."""
    hi, lo = [], []
    for s in range(_S_MIN, 16 - _E_MIN + 1):
        if s >= 0:
            n = 10 ** s
            h = float(n)
            rest = float(n - int(h))
        else:
            d = 10 ** -s
            h = 1 / d
            num, den = h.as_integer_ratio()
            rest = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(rest)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, hi_h, hi - hi_h, np.array(lo)


#: One value's row: the sign (byte 0), a "0.000" prefix (1-5), the 17
#: digits each followed by a point slot (6-39: the lead digit, then four
#: groups of four), the exponent suffix (40-44) and the separator (45).
_ROW, _SUFFIX, _SEP = 48, 40, 45
#: Longest ``%.17g`` text of a double, "-4.9406564584124654e-324".
_TEXT = 24


def _layouts():
    """The layout of each decimal exponent, the suffix and separator word of
    each exponent, and the keep mask of each (layout, significant digits,
    sign).

    Layouts 0-20 are fixed notation for X = -4 .. 16, layouts 21 and 22
    scientific notation with a two- and a three-digit exponent.  A layout
    keeps a prefix, the digits up to the last significant one but at least
    its whole part, a point after ``point`` digits when a digit follows it,
    and its suffix.  Zero significant digits stand for a zero, the "0" of
    the prefix.
    """
    layout, tail = [], []
    for x in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= x < 17
        layout.append(x + 4 if fixed else 21 if abs(x) < 100 else 22)
        tail.append((b"" if fixed else b"e%+03d" % x).ljust(_SEP - _SUFFIX, b"\0")
                    + b",".ljust(_ROW - _SEP, b"\0"))
    keep = np.zeros((23, 18, 2, _ROW), bool)
    keep[:, :, 1, 0] = True
    keep[:, 0, :, 1] = True
    keep[..., _SEP] = True
    for i in range(23):
        if i < 21:
            x = i - 4
            prefix, whole, point, suffix = 1 - x if x < 0 else 0, max(x + 1, 1), max(x + 1, 0), 0
        else:
            prefix, whole, point, suffix = 0, 1, 1, 4 + (i - 21)
        keep[i, :, :, 1:1 + prefix] = True
        keep[i, :, :, _SUFFIX:_SUFFIX + suffix] = True
        for nz in range(1, 18):
            keep[i, nz, :, 6:6 + 2 * max(nz, whole):2] = True
            if 0 < point < nz:
                keep[i, nz, :, 5 + 2 * point] = True
    return (np.array(layout), np.frombuffer(b"".join(tail), np.uint64),
            keep.reshape(-1, _ROW))


_HI, _HI_H, _HI_L, _LO = _pow10_table()
_LAYOUT, _TAIL, _KEEP = _layouts()
_g = np.arange(10_000, dtype=np.int16)
#: ASCII "d." of a lead digit 0 .. 9, and "d.d.d.d." of a group 0000 .. 9999:
#: each digit followed by its point slot.
_LEAD = np.frombuffer(b"".join(b"%d." % d for d in range(10)), np.uint16)
_PAIRS4 = np.full((10_000, 4, 2), ord("."), np.uint8)
_PAIRS4[:, :, 0] = np.stack([_g // 1000, _g // 100 % 10, _g // 10 % 10, _g % 10],
                            axis=1) + ord("0")
_PAIRS4 = _PAIRS4.reshape(-1, 8).view(np.uint64).ravel()
#: Significant digits of N up to the last nonzero one of its group j, 1 when
#: the group is 0000: the maximum over the four groups is N's count.
_NZ4 = 4 - (_g % 10 == 0) - (_g % 100 == 0) - (_g % 1000 == 0)
_NZ4 = np.array([np.where(_g == 0, 1, _NZ4 + 1 + 4 * j) for j in range(4)], np.uint8)
#: The sign and the "0.000" prefix.
_HEAD = np.frombuffer(b"-0.000\0\0", np.uint64)[0]
del _g


def format_block(block: np.ndarray) -> bytes:
    """CSV rows of a 2-D float block: every value as ``'%.17g' % v``, ``,``
    between columns and ``\\n`` after each row."""
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).ravel()
    a = np.abs(x)
    inside = (a >= 1.0 / _LIMIT) & (a <= _LIMIT)
    a[~inside] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = 16 - e - _S_MIN
    hi, hi_h, hi_l = _HI[s], _HI_H[s], _HI_L[s]
    p = a * hi
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * _LO[s]
    r = np.rint(err)
    n = p.astype(np.int64) + r.astype(np.int64)
    ok = inside & (np.abs(err - r) < 0.5 - 1e-6) & (n > 10 ** 16) & (n < 10 ** 17)
    n[~ok] = 10 ** 16
    zero = x == 0.0

    # the row as six words: sign and prefix with the lead digit, four digit
    # groups, then suffix and separator
    words = np.empty((len(x), _ROW // 8), np.uint64)
    words[:, 0] = _HEAD
    upper, lower = np.divmod(n, 10 ** 8)
    lead, upper = np.divmod(upper, 10 ** 8)
    words.view(np.uint16)[:, 3] = _LEAD[lead]
    nz = np.ones(len(x), np.uint8)
    for j, group in enumerate((*np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4))):
        words[:, 1 + j] = _PAIRS4[group]
        np.maximum(nz, _NZ4[j][group], out=nz)
    nz[zero] = 0
    cls = e - _E_MIN
    words[:, 5] = _TAIL[cls]
    out = words.view(np.uint8)
    out.reshape(rows, cols, _ROW)[:, -1, _SEP] = ord("\n")
    keep = _KEEP.take((_LAYOUT[cls] * 18 + nz) * 2 + np.signbit(x), axis=0)
    rest = np.flatnonzero(~(ok | zero))
    if len(rest):
        texts = [b"%.17g" % v for v in x[rest].tolist()]
        out[rest, :_TEXT] = np.frombuffer(b"".join(s.ljust(_TEXT, b"\0") for s in texts),
                                          np.uint8).reshape(-1, _TEXT)
        keep[rest, :_SEP] = np.arange(_SEP) < np.array([len(s) for s in texts])[:, None]
    # np.compress is about three times faster here than boolean indexing
    return np.compress(keep.ravel(), out.ravel()).tobytes()
