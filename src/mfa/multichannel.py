"""Parallel banks of first-order feedback channels and their interlacing structure.

The weighted difference of a fast positive bank and a slow negative bank
(unit DC gain each) has all-real zeros: one in each gap between same-bank
poles, plus a single outer zero that escapes to infinity at a critical
balance.  These facts generalize the three-state amplifier analysis to any
bank sizes; the bank loop itself is :meth:`mfa.equilibria.LureLoop.bank`, so
it shares the amplifier's certificates, equilibria and regimes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .tf_core import Polynomial, RationalTF

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
    "bank_from_json",
    "build_channel_tf",
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
        if any(t <= 0.0 for t in taus):
            raise ValueError("requires tau > 0")
        if len(set(taus)) != len(taus):
            raise ValueError("requires distinct time constants within a bank")
        if any(ch.rho <= 0.0 for ch in self.channels):
            raise ValueError("requires rho > 0")
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


def _check_separation(pos: ChannelBank, neg: ChannelBank):
    if max(pos.taus) >= min(neg.taus):
        raise ValueError("time-scale ordering: every positive-bank tau must be "
                         "smaller than every negative-bank tau")


def build_channel_tf(pos: ChannelBank, neg: ChannelBank, beta: float) -> RationalTF:
    """Weighted bank difference beta*Cp - (1-beta)*Cn over the common denominator.

    The denominator is the product of all (tau s + 1) factors, positive bank
    first (ascending tau), with the poles -1/tau; no cancellation is
    performed, so deg(den) = m + n and deg(num) <= m + n - 1.
    """
    _check_separation(pos, neg)
    if not 0.0 <= beta <= 1.0:
        raise ValueError("requires 0 <= beta <= 1")
    chans = [(beta * ch.rho, ch.tau) for ch in pos.sorted_channels()]
    chans += [(-(1.0 - beta) * ch.rho, ch.tau) for ch in neg.sorted_channels()]
    den = Polynomial([1.0])
    for _, tau in chans:
        den = den * Polynomial([1.0, tau])
    num = Polynomial([0.0])
    for i, (w, _) in enumerate(chans):
        term = Polynomial([w])
        for j, (_, tau) in enumerate(chans):
            if j != i:
                term = term * Polynomial([1.0, tau])
        num = num + term
    return RationalTF(num, den, [-1.0 / tau for _, tau in chans])


def bank_critical_balance(pos: ChannelBank, neg: ChannelBank) -> float:
    """Balance at which the outer zero escapes to infinity.

    Equals Sn/(Sp + Sn) with S = sum rho_i/tau_i per bank; reduces to
    tau_p/(tau_p + tau_n) for single-channel banks.
    """
    sp = sum(ch.rho / ch.tau for ch in pos.channels)
    sn = sum(ch.rho / ch.tau for ch in neg.channels)
    return sn / (sp + sn)


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

    def to_json_dict(self) -> dict:
        return {
            "zeros": list(self.zeros),
            "pattern": list(self.pattern),
            "satisfied": self.satisfied,
        }


def check_interlacing(pos: ChannelBank, neg: ChannelBank, beta: float,
                      zeros=None) -> InterlacingReport:
    """Verify the zero-interlacing pattern of the bank difference.

    For banks of sizes m and n the difference must have m + n - 1 real
    zeros: m - 1 interlaced with the positive-bank poles, n - 1 with the
    negative-bank poles, and one outer zero beyond the pole span.  Any
    violation (complex zero, missing or doubled gap occupancy, wrong count)
    yields satisfied = False with the diagnostic pattern.  ``zeros`` are the
    roots of the difference's numerator when the caller has them, as the
    bank loop does: its unit-gain transfer function has the same numerator
    up to sign.  Otherwise they are found from :func:`build_channel_tf`.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("requires 0 < beta < 1")
    roots = build_channel_tf(pos, neg, beta).zeros() if zeros is None else zeros
    m, n = len(pos.channels), len(neg.channels)
    pos_poles = pos.poles()
    neg_poles = neg.poles()
    lo = min(pos_poles + neg_poles)
    hi = max(pos_poles + neg_poles)

    zeros = []
    pattern = []
    pos_gap_hits = [0] * (m - 1)
    neg_gap_hits = [0] * (n - 1)
    all_real = True
    for z in sorted(roots, key=lambda z: (z.real, z.imag)):
        if abs(z.imag) > 1e-8 * max(1.0, abs(z)):
            all_real = False
            zeros.append(z.real)
            pattern.append(COMPLEX_ZERO)
            continue
        x = z.real
        zeros.append(x)
        label = UNPLACED
        for i in range(m - 1):
            if pos_poles[i] < x < pos_poles[i + 1]:
                label = BETWEEN_POSITIVE
                pos_gap_hits[i] += 1
                break
        if label == UNPLACED:
            for i in range(n - 1):
                if neg_poles[i] < x < neg_poles[i + 1]:
                    label = BETWEEN_NEGATIVE
                    neg_gap_hits[i] += 1
                    break
        if label == UNPLACED and (x < lo or x > hi):
            label = OUTER
        pattern.append(label)

    satisfied = (
        all_real
        and len(zeros) == m + n - 1
        and all(h == 1 for h in pos_gap_hits)
        and all(h == 1 for h in neg_gap_hits)
        and pattern.count(OUTER) == 1
        and UNPLACED not in pattern
    )
    return InterlacingReport(tuple(zeros), tuple(pattern), satisfied)


def bank_from_json(data) -> tuple[float, ChannelBank, ChannelBank, float, float]:
    """Parse {"tau_l", "positive", "negative", "k", "beta"} into bank pieces."""
    if isinstance(data, str):
        data = json.loads(data)
    pos = ChannelBank(tuple(Channel(float(ch["rho"]), float(ch["tau"]))
                            for ch in data["positive"]))
    neg = ChannelBank(tuple(Channel(float(ch["rho"]), float(ch["tau"]))
                            for ch in data["negative"]))
    return float(data["tau_l"]), pos, neg, float(data["k"]), float(data["beta"])
