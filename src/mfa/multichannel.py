"""Parallel banks of first-order feedback channels and their interlacing structure.

The weighted difference of a fast positive bank and a slow negative bank
(unit DC gain each) has all-real zeros: one in each gap between same-bank
poles, plus a single outer zero that escapes to infinity at a critical
balance.  These facts generalize the three-state amplifier analysis to any
bank sizes; the bank loop itself is :meth:`mfa.equilibria.LureLoop.bank`, so
it shares the amplifier's certificates, equilibria and regimes; the amplifier
is the loop of one unit-weight channel per bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

__all__ = [
    "BETWEEN_NEGATIVE",
    "BETWEEN_POSITIVE",
    "COMPLEX_ZERO",
    "OUTER",
    "UNPLACED",
    "Channel",
    "ChannelBank",
    "InterlacingReport",
    "bank_critical_balance",
    "check_interlacing",
]

BETWEEN_POSITIVE = "between-positive-poles"
BETWEEN_NEGATIVE = "between-negative-poles"
OUTER = "outer"
UNPLACED = "unplaced"
COMPLEX_ZERO = "complex"


@dataclass(frozen=True)
class Channel:
    """One first-order channel: weight rho and time constant tau (seconds)."""

    rho: float
    tau: float


@dataclass(frozen=True)
class ChannelBank:
    """A parallel of first-order channels with unit collective DC gain."""

    channels: tuple[Channel, ...]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("requires at least one channel")
        taus = [ch.tau for ch in self.channels]
        if not all(0.0 < t < math.inf for t in taus):
            raise ValueError("requires finite tau > 0")
        if len(set(taus)) != len(taus):
            raise ValueError("requires distinct time constants within a bank")
        if not all(0.0 < ch.rho < math.inf for ch in self.channels):
            raise ValueError("requires finite rho > 0")
        # a sum of n weights rounds by at most (n - 1) eps, far inside 1e-9
        if abs(sum(ch.rho for ch in self.channels) - 1.0) > 1e-9:
            raise ValueError("requires unit bank gain (sum rho = 1)")

    @property
    def taus(self) -> tuple[float, ...]:
        return tuple(ch.tau for ch in self.channels)

    def sorted_channels(self) -> tuple[Channel, ...]:
        return tuple(sorted(self.channels, key=lambda ch: ch.tau))

    def poles(self) -> list[float]:
        """Pole locations -1/tau, ascending (most negative first)."""
        return sorted(-1.0 / ch.tau for ch in self.channels)


def bank_critical_balance(pos: ChannelBank, neg: ChannelBank) -> float:
    """Balance M/(P + M) at which the outer zero escapes to infinity.

    P = sum_pos rho_i prod_{j != i} tau_j, the product over every other
    channel of both banks, and M is the same sum over the negative bank, so
    the top coefficient of the bank loop's numerator -(beta (P + M) - M)
    (:func:`mfa.equilibria._lags_tf`) vanishes here.  Products and sums run
    in that numerator's order: rho_i first, then the taus ascending per bank,
    positive bank first.  For single-channel banks this is
    tau_p/(tau_n + tau_p).
    """
    chans = pos.sorted_channels() + neg.sorted_channels()
    taus = [ch.tau for ch in chans]
    tops = [math.prod([ch.rho, *taus[:i], *taus[i + 1:]]) for i, ch in enumerate(chans)]
    # left folds from 0.0, as Python 3.11's sum() adds and 3.12's
    # compensated sum() does not
    p, m = (reduce(add, part, 0.0)
            for part in (tops[:len(pos.channels)], tops[len(pos.channels):]))
    return m / (p + m)


@dataclass(frozen=True)
class InterlacingReport:
    """Zero pattern of a bank difference against the interlacing prediction.

    ``zeros`` are the sorted real parts of the numerator roots; ``pattern``
    classifies each into a same-bank pole gap, the outer region, or a
    diagnostic bucket.  ``satisfied`` requires exactly one zero per same-bank
    gap plus exactly one outer zero, all real.
    """

    zeros: tuple[float, ...]
    pattern: tuple[str, ...]
    satisfied: bool


def check_interlacing(pos: ChannelBank, neg: ChannelBank, zeros) -> InterlacingReport:
    """Verify the zero-interlacing pattern of the bank difference.

    For banks of sizes m and n the difference must have m + n - 1 real
    zeros: m - 1 interlaced with the positive-bank poles, n - 1 with the
    negative-bank poles, and one outer zero beyond the pole span.  Any
    violation (complex zero, missing or doubled gap occupancy, wrong count)
    yields satisfied = False with the diagnostic pattern.  ``zeros`` are the
    roots of the difference's numerator, which the bank loop's unit-gain
    transfer function has up to sign (:meth:`mfa.equilibria.LureLoop.bank`).
    A zero is real when its imaginary part is exactly 0, as
    :func:`mfa.tf_core.poly_roots` leaves a root it has checked to be real.
    """
    gaps = [(label, left, right)
            for label, poles in ((BETWEEN_POSITIVE, pos.poles()), (BETWEEN_NEGATIVE, neg.poles()))
            for left, right in zip(poles, poles[1:])]
    hits = [0] * len(gaps)
    span = pos.poles() + neg.poles()
    lo, hi = min(span), max(span)
    reals, pattern = [], []
    for z in sorted(zeros, key=lambda z: (z.real, z.imag)):
        x = z.real
        reals.append(x)
        if z.imag != 0.0:
            pattern.append(COMPLEX_ZERO)
            continue
        i = next((i for i, (_, left, right) in enumerate(gaps) if left < x < right), None)
        if i is not None:
            hits[i] += 1
            pattern.append(gaps[i][0])
        else:
            pattern.append(OUTER if x < lo or x > hi else UNPLACED)

    # one zero in every gap and one outer zero already make m + n - 1, so a
    # complex or unplaced zero fails the count
    satisfied = (len(reals) == len(span) - 1 and all(h == 1 for h in hits)
                 and pattern.count(OUTER) == 1)
    return InterlacingReport(tuple(reals), tuple(pattern), satisfied)

