"""Feedback interconnection of the amplifier with a passive mass-spring-damper load.

The load is driven by the amplifier output (u_e = k_o y) and its output
feeds back negatively into the amplifier's saturation junction, so the load
state equations see u = r_ext - phi(y + k_i y_e).  Routing the load feedback
through the saturation keeps every trajectory bounded (the saturated
dynamics are open-loop stable) and gives the loop the Lure form with linear
part G (1 + k_i k_o L_ex): a 2-passive amplifier plus a 0-passive load at a
common rate compose into a 2-passive closed loop, and when additionally
every closed-loop equilibrium is unstable, the loop oscillates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .equilibria import Equilibrium, classify_stability, dc_loop_gain, solve_phi_line
from .freq_analysis import DominanceCertificate, INFINITE_SECTOR, check_p_passivity
from .sim import StateSpace, linearize
from .tf_core import AmplifierParams, Polynomial, RationalTF, get_nonlinearity

__all__ = [
    "CompositionCertificate",
    "InterfaceGains",
    "LoadParams",
    "assemble_closed_loop",
    "check_load_passivity",
    "compose_certificates",
    "find_equilibria_interconnected",
    "interconnection_openloop",
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
            if not getattr(self, name) > 0.0:
                raise ValueError(f"requires {name} > 0")


@dataclass(frozen=True)
class InterfaceGains:
    """Coupling gains: k_i scales the load output into the amplifier reference,
    k_o scales the amplifier output into the load force.  Zero is allowed to
    sever one side of the loop for cascade analysis."""

    ki: float
    ko: float

    def __post_init__(self):
        if self.ki < 0.0 or self.ko < 0.0:
            raise ValueError("requires ki >= 0 and ko >= 0")


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
    """(kv s + kp)/(s^2 + b s + a)."""
    return RationalTF(Polynomial([load.kp, load.kv]),
                      Polynomial([load.a, load.b, 1.0]))


def check_load_passivity(load: LoadParams, lam: float) -> DominanceCertificate:
    """0-passivity of the shifted load: stable shifted poles and min Re >= 0."""
    return check_p_passivity(load_tf(load), lam, 0)


def compose_certificates(c_amp: DominanceCertificate,
                         c_load: DominanceCertificate) -> CompositionCertificate:
    """Add passivity degrees of two certificates sharing the same rate.

    Both inputs must be passivity certificates (infinite sector); a rate
    mismatch beyond 1e-12 or a failed component is encoded as invalid.
    """
    p_total = c_amp.p + c_load.p
    rate = c_amp.rate
    if c_amp.sector != INFINITE_SECTOR or c_load.sector != INFINITE_SECTOR:
        return CompositionCertificate(c_amp.p, c_load.p, rate, p_total,
                                      valid=False, reason="not passivity certificates")
    if abs(c_amp.rate - c_load.rate) > 1e-12:
        return CompositionCertificate(c_amp.p, c_load.p, rate, p_total,
                                      valid=False, reason="rate mismatch")
    if not (c_amp.passed and c_load.passed):
        return CompositionCertificate(c_amp.p, c_load.p, rate, p_total,
                                      valid=False, reason="component certificate failed")
    return CompositionCertificate(c_amp.p, c_load.p, rate, p_total, valid=True)


def assemble_closed_loop(amp: AmplifierParams, load: LoadParams,
                         iface: InterfaceGains) -> StateSpace:
    """Five-state realization of amplifier plus load under negative feedback.

    States (x, xp, xn, q, qdot): the load sees the force k_o y and its
    output y_e = kv qdot + kp q joins the amplifier's saturation junction,
    u = r_ext - phi(y + k_i y_e).  With k_i = 0 the amplifier runs
    autonomously and drives the load open-loop; with k_o = 0 the load decays
    and the amplifier behaves exactly as in isolation.
    """
    tl, tp, tn = amp.taus
    k, beta = amp.k, amp.beta
    ki, ko = iface.ki, iface.ko
    a = (
        (-1.0 / tl, 0.0, 0.0, 0.0, 0.0),
        (1.0 / tp, -1.0 / tp, 0.0, 0.0, 0.0),
        (1.0 / tn, 0.0, -1.0 / tn, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0, 1.0),
        (0.0, -ko * k * beta, ko * k * (1.0 - beta), -load.a, -load.b),
    )
    c_y = (0.0, -k * beta, k * (1.0 - beta), 0.0, 0.0)
    c_loop = (0.0, -k * beta, k * (1.0 - beta), ki * load.kp, ki * load.kv)
    return StateSpace(
        a=a,
        b=(1.0 / tl, 0.0, 0.0, 0.0, 0.0),
        c=c_y,
        labels=("x", "xp", "xn", "q", "qdot"),
        nonlinearity=amp.nonlinearity,
        extra_outputs=(("ye", (0.0, 0.0, 0.0, load.kp, load.kv)),),
        c_loop=c_loop,
    )


def interconnection_openloop(amp: AmplifierParams, load: LoadParams,
                             iface: InterfaceGains) -> RationalTF:
    """Lure linear part of the interconnected loop, G (1 + k_i k_o L_ex).

    This is the transfer function the saturation closes around; checking
    2-passivity on it directly certifies the assembled loop.
    """
    from .tf_core import tf_build_mixed, tf_multiply

    g = tf_build_mixed(amp)
    lt = load_tf(load)
    branch = RationalTF(lt.den + Polynomial([iface.ki * iface.ko]) * lt.num,
                        lt.den)
    return tf_multiply(g, branch)


def find_equilibria_interconnected(amp: AmplifierParams, load: LoadParams,
                                   iface: InterfaceGains, r_ext: float
                                   ) -> list[Equilibrium]:
    """Equilibria of the interconnected loop via a scalar output equation.

    At steady state the load statics give q = k_o y / a, qdot = 0 and
    y_e = kp k_o y / a, so the saturation input is v = (1 + kappa) y with
    kappa = k_i kp k_o / a and the amplifier condition reduces to
    phi(v) = r_ext + v / (g0 (1 + kappa)), a one-dimensional root find.
    Stability comes from the five-state Jacobian eigenvalues.
    """
    phi, _, slope_inverse = get_nonlinearity(amp.nonlinearity)
    g0 = dc_loop_gain(amp)
    kappa = iface.ki * load.kp * iface.ko / load.a
    if g0 == 0.0:
        ys = [0.0]
    else:
        vs = solve_phi_line(phi, 1.0 / (g0 * (1.0 + kappa)), r_ext, slope_inverse)
        ys = [v / (1.0 + kappa) for v in vs]
    ss = assemble_closed_loop(amp, load, iface)
    out = []
    for y in ys:
        q = iface.ko * y / load.a
        ye = load.kp * q
        v = y + iface.ki * ye
        x = r_ext - phi(v)
        state = (x, x, x, q, 0.0)
        eigs = [complex(e) for e in np.linalg.eigvals(linearize(ss, v))]
        eigs.sort(key=lambda z: (z.real, z.imag))
        out.append(Equilibrium(
            y_star=float(y), state=state, eigenvalues=tuple(eigs),
            stability=classify_stability(eigs),
        ))
    return out


def load_from_json(data) -> tuple[LoadParams, InterfaceGains]:
    """Parse {"a", "b", "kv", "kp", "ki", "ko"} into load and interface gains."""
    if isinstance(data, str):
        data = json.loads(data)
    load = LoadParams(float(data["a"]), float(data["b"]),
                      float(data["kv"]), float(data["kp"]))
    iface = InterfaceGains(float(data["ki"]), float(data["ko"]))
    return load, iface
