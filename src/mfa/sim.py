"""Fixed-step time-domain integration of the saturated feedback loops.

Every simulated system here is linear except for one scalar saturation in the
loop: state' = A state + b (r - phi(c state)).  The integrator is classical
RK4 with a fixed step, so identical inputs give bit-identical trajectories;
the reference r is piecewise constant and changes are snapped onto the
sample grid.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tf_core import AmplifierParams, get_nonlinearity

__all__ = [
    "InputSchedule",
    "OscillationReport",
    "StateSpace",
    "Trajectory",
    "amplifier_statespace",
    "boundedness_check",
    "detect_oscillation",
    "integrate",
    "linearize",
    "vector_field",
]

#: Classical RK4 is stable for dt * |eigenvalue| up to about 2.785 on the
#: negative real axis.
_RK4_REAL_LIMIT = 2.78


@dataclass(frozen=True)
class StateSpace:
    """Lure-loop realization: state' = a state + b u, u = r - phi(c_loop state).

    ``a`` is stored as row tuples, ``b`` the input column, ``c`` the output
    row defining the reported output y.  ``c_loop`` is the row feeding the
    saturation; it defaults to ``c`` (the plain amplifier loop) but differs
    when an external feedback joins the saturation junction.
    ``extra_outputs`` holds additional named linear output rows (e.g. a load
    output).  First-order channel banks are diagonal in the lag states.
    """

    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    labels: tuple[str, ...]
    nonlinearity: str = "tanh"
    extra_outputs: tuple[tuple[str, tuple[float, ...]], ...] = ()
    c_loop: tuple[float, ...] | None = None

    def __post_init__(self):
        n = len(self.b)
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise ValueError("inconsistent state dimensions")
        if len(self.c) != n or len(self.labels) != n:
            raise ValueError("inconsistent output/label dimensions")
        if self.c_loop is not None and len(self.c_loop) != n:
            raise ValueError("inconsistent loop row dimension")
        for _, row in self.extra_outputs:
            if len(row) != n:
                raise ValueError("inconsistent extra output row")
        get_nonlinearity(self.nonlinearity)

    @property
    def dim(self) -> int:
        return len(self.b)

    @property
    def loop_row(self) -> tuple[float, ...]:
        return self.c if self.c_loop is None else self.c_loop

    def a_matrix(self) -> np.ndarray:
        return np.array(self.a)


@dataclass(frozen=True)
class InputSchedule:
    """Piecewise-constant reference: ordered (t_start, value) pairs from t = 0."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("requires at least one entry")
        if self.entries[0][0] != 0.0:
            raise ValueError("requires first t_start = 0")
        ts = [t for t, _ in self.entries]
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("requires strictly increasing t_start")

    @classmethod
    def constant(cls, r: float) -> "InputSchedule":
        return cls(((0.0, float(r)),))

    @classmethod
    def from_json(cls, text: str) -> "InputSchedule":
        data = json.loads(text)
        return cls(tuple((float(e["t"]), float(e["r"])) for e in data))

    def to_json(self) -> str:
        return json.dumps([{"t": t, "r": r} for t, r in self.entries])

    def values_for_steps(self, dt: float, n_steps: int) -> np.ndarray:
        """Reference value for each step; a change applies at the first
        sample >= its t_start."""
        out = np.empty(n_steps)
        out.fill(self.entries[0][1])
        for t_start, value in self.entries[1:]:
            idx = int(math.ceil(t_start / dt - 1e-9))
            if idx < n_steps:
                out[idx:] = value
        return out

    @property
    def max_abs_value(self) -> float:
        return max(abs(r) for _, r in self.entries)


@dataclass
class Trajectory:
    """Uniformly sampled simulation output with its input-schedule provenance."""

    t: np.ndarray
    states: np.ndarray
    y: np.ndarray
    schedule: InputSchedule
    labels: tuple[str, ...]
    extra: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass(frozen=True)
class OscillationReport:
    """Outcome of limit-cycle detection on a trajectory output."""

    oscillating: bool
    amplitude: float
    period: float | None
    method_agreement: float | None
    n_crossings: int

    def to_json_dict(self) -> dict:
        return {
            "oscillating": self.oscillating,
            "amplitude": self.amplitude,
            "period": self.period,
            "method_agreement": self.method_agreement,
            "n_crossings": self.n_crossings,
        }


def amplifier_statespace(params: AmplifierParams) -> StateSpace:
    """Three-state realization of the mixed feedback amplifier."""
    tl, tp, tn = params.taus
    k, beta = params.k, params.beta
    return StateSpace(
        a=((-1.0 / tl, 0.0, 0.0),
           (1.0 / tp, -1.0 / tp, 0.0),
           (1.0 / tn, 0.0, -1.0 / tn)),
        b=(1.0 / tl, 0.0, 0.0),
        c=(0.0, -k * beta, k * (1.0 - beta)),
        labels=("x", "xp", "xn"),
        nonlinearity=params.nonlinearity,
    )


def vector_field(params: AmplifierParams, state, r: float):
    """Right-hand side of the amplifier ODEs at one state."""
    x, xp, xn = state
    tl, tp, tn = params.taus
    y = params.k * (-params.beta * xp + (1.0 - params.beta) * xn)
    u = r - params.phi(y)
    return ((-x + u) / tl, (x - xp) / tp, (x - xn) / tn)


def linearize(ss: StateSpace, loop_value: float) -> np.ndarray:
    """Closed-loop Jacobian A - phi'(v*) b c_loop of a Lure realization.

    ``loop_value`` is the equilibrium value of the saturation input
    (equal to y* when no external feedback joins the junction).
    """
    dphi = get_nonlinearity(ss.nonlinearity)[1]
    a = ss.a_matrix()
    return a - dphi(loop_value) * np.outer(ss.b, ss.loop_row)


def _sparse(vec_or_rows):
    if isinstance(vec_or_rows[0], tuple):
        return tuple(
            tuple((j, v) for j, v in enumerate(row) if v != 0.0)
            for row in vec_or_rows
        )
    return tuple((j, v) for j, v in enumerate(vec_or_rows) if v != 0.0)


def integrate(system, ic, schedule: InputSchedule | None = None,
              dt: float | None = None, t_end: float = 50.0) -> Trajectory:
    """Classical fixed-step RK4 integration of a Lure loop.

    ``system`` is an :class:`AmplifierParams` (dt defaults to the smallest
    time constant over 20) or a :class:`StateSpace` (dt required; a warning
    when dt times the larger spectral radius of the loop's Jacobians at
    saturation slope 0 and 1, A and A - b c_loop, exceeds the RK4 limit).  The
    reference is held constant over each step at the value in effect at the
    step's left endpoint.  A non-finite state aborts with the offending time.
    """
    if isinstance(system, AmplifierParams):
        ss = amplifier_statespace(system)
        tau_min = min(system.taus)
        if dt is None:
            dt = tau_min / 20.0
        if dt > tau_min / 5.0:
            warnings.warn("dt above min time constant / 5; accuracy degraded",
                          stacklevel=2)
    else:
        ss = system
        if dt is None:
            raise ValueError("requires dt for StateSpace systems")
        a = ss.a_matrix()
        rho = max(np.max(np.abs(np.linalg.eigvals(m)))
                  for m in (a, a - np.outer(ss.b, ss.loop_row)))
        if dt * rho > _RK4_REAL_LIMIT:
            warnings.warn(f"dt * spectral radius = {dt * rho:.3g} above the RK4 "
                          f"stability limit {_RK4_REAL_LIMIT}", stacklevel=2)
    if not dt > 0.0:
        raise ValueError("requires dt > 0")
    if not t_end > 0.0:
        raise ValueError("requires t_end > 0")
    if schedule is None:
        schedule = InputSchedule.constant(0.0)

    n = ss.dim
    n_steps = int(round(t_end / dt))
    r_steps = schedule.values_for_steps(dt, n_steps)
    phi = get_nonlinearity(ss.nonlinearity)[0]

    a_rows = _sparse(ss.a)
    b_terms = _sparse(ss.b)
    c_terms = _sparse(ss.loop_row)

    states = np.empty((n_steps + 1, n))
    s = [float(v) for v in ic]
    if len(s) != n:
        raise ValueError("initial condition dimension mismatch")
    states[0] = s
    half = dt / 2.0
    sixth = dt / 6.0
    rng = range(n)
    isfinite = math.isfinite

    def f(state, r):
        y = 0.0
        for j, cj in c_terms:
            y += cj * state[j]
        u = r - phi(y)
        out = [0.0] * n
        for i in rng:
            v = 0.0
            for j, aij in a_rows[i]:
                v += aij * state[j]
            out[i] = v
        for i, bi in b_terms:
            out[i] += bi * u
        return out

    for step in range(n_steps):
        r = r_steps[step]
        k1 = f(s, r)
        k2 = f([s[i] + half * k1[i] for i in rng], r)
        k3 = f([s[i] + half * k2[i] for i in rng], r)
        k4 = f([s[i] + dt * k3[i] for i in rng], r)
        s = [s[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in rng]
        if not all(isfinite(v) for v in s):
            raise ArithmeticError(f"divergence at t={(step + 1) * dt:.6g}")
        states[step + 1] = s

    t = np.arange(n_steps + 1) * dt
    y = states @ np.asarray(ss.c)
    extra = {name: states @ np.asarray(row) for name, row in ss.extra_outputs}
    return Trajectory(t=t, states=states, y=y, schedule=schedule,
                      labels=ss.labels, extra=extra)


def _autocorr_period(d: np.ndarray, dt: float) -> float | None:
    """Lag of the first major autocorrelation peak, parabolic-refined."""
    nfft = 1
    while nfft < 2 * len(d):
        nfft *= 2
    spectrum = np.fft.rfft(d, nfft)
    ac = np.fft.irfft(spectrum * np.conj(spectrum), nfft)[: len(d)]
    if ac[0] <= 0.0:
        return None
    ac = ac / ac[0]
    neg = np.nonzero(ac < 0.0)[0]
    if len(neg) == 0:
        return None
    i0 = int(neg[0])
    k = i0 + int(np.argmax(ac[i0:]))
    if k <= 0 or k >= len(ac) - 1:
        return None
    ym, y0, yp = ac[k - 1], ac[k], ac[k + 1]
    denom = ym - 2.0 * y0 + yp
    delta = 0.0 if denom == 0.0 else 0.5 * (ym - yp) / denom
    return (k + float(delta)) * dt


def detect_oscillation(traj: Trajectory, transient_fraction: float = 0.5,
                       amp_threshold: float = 1e-3) -> OscillationReport:
    """Decide whether the trajectory output sustains an oscillation.

    The leading ``transient_fraction`` of the horizon is discarded; the rest
    must show a peak-to-peak swing above ``amp_threshold`` and at least five
    mean crossings.  The period is twice the mean inter-crossing interval,
    cross-validated against the first autocorrelation peak; the relative
    discrepancy between the two estimates is reported.  A window shorter
    than ten estimated periods is an error.
    """
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError("requires 0 <= transient_fraction < 1")
    i0 = int(len(traj.y) * transient_fraction)
    yw = np.asarray(traj.y[i0:], dtype=float)
    tw = np.asarray(traj.t[i0:], dtype=float)
    if len(yw) < 8:
        raise ArithmeticError("insufficient horizon")
    amplitude = float(yw.max() - yw.min())
    d = yw - yw.mean()
    # a crossing is a sign change between consecutive nonzero samples, so
    # exact zeros of a constant output are no crossings
    nonzero = np.nonzero(d)[0]
    change = np.nonzero(d[nonzero[:-1]] * d[nonzero[1:]] < 0.0)[0]
    i, j = nonzero[change], nonzero[change + 1]
    cross_times = tw[i] + d[i] / (d[i] - d[j]) * (tw[j] - tw[i])
    n_crossings = len(cross_times)
    oscillating = amplitude > amp_threshold and n_crossings >= 5
    if not oscillating:
        return OscillationReport(False, amplitude, None, None, n_crossings)
    gaps = np.diff(cross_times)
    period_zc = 2.0 * float(gaps.mean())
    window = float(tw[-1] - tw[0])
    if window < 10.0 * period_zc:
        raise ArithmeticError("insufficient horizon")
    period_ac = _autocorr_period(d, traj.dt)
    agreement = None
    if period_ac is not None and period_ac > 0.0:
        agreement = abs(period_zc - period_ac) / period_ac
    return OscillationReport(True, amplitude, period_zc, agreement, n_crossings)


def boundedness_check(traj: Trajectory, r_max: float, margin: float = 0.1,
                      settle_time: float = 0.0, columns=None) -> bool | None:
    """Ultimate-bound check sup|state| <= r_max + 1 + margin after settling.

    The bound follows from |phi| <= 1 and the unit-DC lag chain; callers
    should pass a ``settle_time`` of about ten times the slowest time
    constant so the transient is excluded.  Returns None when no sample lies
    at or after ``settle_time``, since an empty window shows nothing.
    """
    mask = traj.t >= settle_time
    if not mask.any():
        return None
    states = traj.states[mask]
    if columns is not None:
        states = states[:, list(columns)]
    bound = r_max + 1.0 + margin
    return bool(np.all(np.abs(states) <= bound))
