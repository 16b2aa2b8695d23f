"""Feedback interconnection of a channel loop with a passive mass-spring-damper load.

The load is driven by the output of a channel loop, the amplifier or a
channel bank (u_e = k_o y), and its output feeds back negatively into the
loop's saturation junction, so the load state equations see
u = r_ext - phi(y + k_i y_e).  Routing the load feedback through the
saturation keeps every trajectory bounded (the saturated dynamics are
open-loop stable) and gives the loop the Lure form with linear part
G (1 + k_i k_o L_ex): a 2-passive channel loop plus a 0-passive load at a
common rate compose into a 2-passive closed loop, and when additionally
every closed-loop equilibrium is unstable, the loop oscillates.  The loop
itself is :meth:`mfa.equilibria.LureLoop.load`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .freq_analysis import DominanceCertificate
from .tf_core import Polynomial, RationalTF, poly_roots

__all__ = [
    "CompositionCertificate",
    "InterfaceGains",
    "LoadParams",
    "compose_certificates",
    "load_from_json",
    "load_tf",
]


@dataclass(frozen=True)
class LoadParams:
    """Normalized mass-spring-damper load with mixed velocity/position output.

    Transfer function (kv s + kp)/(s^2 + b s + a) from force input to output;
    position feedback (kp) is required on top of velocity feedback for
    positive realness under a shifted axis, so all four gains are positive.
    """

    a: float
    b: float
    kv: float
    kp: float

    def __post_init__(self):
        for name in ("a", "b", "kv", "kp"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"requires finite {name} > 0")

    @cached_property
    def poles(self) -> tuple[complex, ...]:
        """Roots of s^2 + b s + a, taken once per load."""
        return tuple(poly_roots(Polynomial([self.a, self.b, 1.0])))


@dataclass(frozen=True)
class InterfaceGains:
    """Coupling gains: k_i scales the load output into the amplifier reference,
    k_o scales the amplifier output into the load force.  Zero is allowed to
    sever one side of the loop for cascade analysis."""

    ki: float
    ko: float

    def __post_init__(self):
        if not (0.0 <= self.ki < math.inf and 0.0 <= self.ko < math.inf):
            raise ValueError("requires finite ki >= 0 and ko >= 0")


@dataclass(frozen=True)
class CompositionCertificate:
    """Passivity degrees adding across a negative feedback interconnection."""

    p_amplifier: int
    p_load: int
    rate: float
    p_total: int
    valid: bool
    reason: str = ""

    def to_json_dict(self) -> dict:
        return {
            "p_amplifier": self.p_amplifier,
            "p_load": self.p_load,
            "lambda": self.rate,
            "p_total": self.p_total,
            "valid": self.valid,
            "reason": self.reason,
        }


def load_tf(load: LoadParams) -> RationalTF:
    """(kv s + kp)/(s^2 + b s + a), with the load's poles."""
    return RationalTF(Polynomial([load.kp, load.kv]),
                      Polynomial([load.a, load.b, 1.0]), load.poles)


def compose_certificates(c_amp: DominanceCertificate,
                         c_load: DominanceCertificate) -> CompositionCertificate:
    """Add passivity degrees of two certificates sharing the same rate.

    A rate mismatch beyond 1e-12 or a failed component is encoded as invalid.
    """
    p_total = c_amp.p + c_load.p
    rate = c_amp.rate
    if abs(c_amp.rate - c_load.rate) > 1e-12:
        return CompositionCertificate(c_amp.p, c_load.p, rate, p_total,
                                      valid=False, reason="rate mismatch")
    if not (c_amp.passed and c_load.passed):
        return CompositionCertificate(c_amp.p, c_load.p, rate, p_total,
                                      valid=False, reason="component certificate failed")
    return CompositionCertificate(c_amp.p, c_load.p, rate, p_total, valid=True)


def load_from_json(data) -> tuple[LoadParams, InterfaceGains]:
    """Parse {"a", "b", "kv", "kp", "ki", "ko"} into load and interface gains."""
    if isinstance(data, str):
        data = json.loads(data)
    load = LoadParams(float(data["a"]), float(data["b"]),
                      float(data["kv"]), float(data["kp"]))
    iface = InterfaceGains(float(data["ki"]), float(data["ko"]))
    return load, iface
