"""Fixed-step time-domain integration of the saturated feedback loops.

Every simulated system here is linear except for one scalar saturation in the
loop: state' = A state + b (r - phi(c state)).  The integrator is classical
RK4 with a fixed step, so identical inputs give bit-identical trajectories;
the reference r is piecewise constant and changes are snapped onto the
sample grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .tf_core import _eigvals, _loop_kernel, get_nonlinearity

__all__ = [
    "InputSchedule",
    "OscillationReport",
    "StateSpace",
    "Trajectory",
    "boundedness_check",
    "detect_oscillation",
    "integrate",
]

#: Classical RK4 is stable for dt * |eigenvalue| up to about 2.785 on the
#: negative real axis.
_RK4_REAL_LIMIT = 2.78

#: Accuracy holds while dt stays within a fifth of the fastest open-loop time
#: constant, i.e. dt times the spectral radius of A within 0.2.
_ACCURACY_LIMIT = 0.2


@dataclass(frozen=True)
class StateSpace:
    """Lure-loop realization: state' = a state + b u, u = r - phi(c_loop state).

    ``a`` is stored as row tuples, ``b`` the input column, ``c`` the output
    row defining the reported output y.  ``c_loop`` is the row feeding the
    saturation; it defaults to ``c`` (the plain amplifier loop) but differs
    when an external feedback joins the saturation junction.
    ``extra_outputs`` holds additional named linear output rows (e.g. a load
    output).  First-order channel banks are diagonal in the lag states.  An
    entry that is not finite, or a product b_i c_loop_j that overflows, is a
    ``ValueError``: every Jacobian factor and RK4 coefficient is finite.
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
        rows = [*self.a, self.b, self.c, self.loop_row]
        for _, row in self.extra_outputs:
            if len(row) != n:
                raise ValueError("inconsistent extra output row")
            rows.append(row)
        # every product b_i c_j is finite when the largest is
        bc = max(map(abs, self.b)) * max(map(abs, self.loop_row))
        if not (math.isfinite(bc) and all(map(math.isfinite, chain.from_iterable(rows)))):
            raise ValueError("requires finite loop gains (an entry of the realization "
                             "or a product b_i c_loop_j overflows)")
        get_nonlinearity(self.nonlinearity)

    @property
    def dim(self) -> int:
        return len(self.b)

    @property
    def loop_row(self) -> tuple[float, ...]:
        return self.c if self.c_loop is None else self.c_loop

    def jacobians(self, slopes) -> np.ndarray:
        """Jacobians A - s b c_loop of the loop at the saturation slopes s in
        ``slopes``, stacked."""
        slopes = np.asarray(slopes, dtype=float)
        return np.array(self.a) - slopes[:, None, None] * np.outer(self.b, self.loop_row)


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
        if not all(map(math.isfinite, ts)):
            raise ValueError("requires finite t_start")
        if not all(math.isfinite(r) for _, r in self.entries):
            raise ValueError("requires finite reference values")
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("requires strictly increasing t_start")

    @classmethod
    def constant(cls, r: float) -> "InputSchedule":
        return cls(((0.0, float(r)),))

    def values_for_steps(self, dt: float, n_steps: int) -> np.ndarray:
        """Reference value for each step; a change applies at the first
        sample >= its t_start, and one beyond the last step, its sample
        index overflowing included, is ignored."""
        out = np.empty(n_steps)
        out.fill(self.entries[0][1])
        for t_start, value in self.entries[1:]:
            first = t_start / dt - 1e-9
            if first < n_steps:
                out[math.ceil(first):] = value
        return out

    @property
    def max_abs_value(self) -> float:
        return max(abs(r) for _, r in self.entries)


@dataclass
class Trajectory:
    """Uniformly sampled simulation output with its input-schedule provenance.

    From :func:`integrate`, ``t``, ``states``, ``y`` and each array of
    ``extra`` are columns of one table of rows ``[t, states, y, extra...]``:
    views, not C-contiguous, any one of which keeps the whole table alive.
    """

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


#: Steps per call of the RK4 block; each block is flushed into the table
#: of rows before the next one starts.
_BLOCK = 4096


def _rk4_step(ss: StateSpace, phi, dt: float, r, s):
    """One classical RK4 step of the loop ``ss`` from the state ``s`` at the
    reference ``r``, on Python floats: the next state, as a list.

    Each sum runs over the nonzero coefficients in index order, without a
    ``0.0`` seed: ``y = c_j p_j + ...`` over ``c_loop``, ``u = r - phi(y)``
    and each derivative row ``a_ij p_j + ... + b_i u``, at ``p = s``, then
    ``s + dt/2 k1``, ``s + dt/2 k2`` and ``s + dt k3``; a term ``1.0 p_j``
    or ``-1.0 p_j`` is added or subtracted, the same bits.  The update is
    ``s + dt/6 (k1 + 2 (k2 + k3) + k4 + 0.0)``: a seed only turned a sum of
    ``-0.0`` into ``0.0``, and ``+``, ``-``, ``*``, ``tanh`` and ``atan``
    map values equal up to the sign of zero to such values, so the one
    ``+ 0.0`` makes every state bit-identical to a loop that seeds each sum.
    Nothing here raises on a non-finite state, which only makes the later
    ones inf or nan, so :func:`integrate` checks each block of steps once.
    """
    def nonzero(row):
        return [(j, float(v)) for j, v in enumerate(row) if v != 0.0]

    def total(terms, p):
        acc = None if terms else 0.0
        for j, v in terms:
            x = p[j] if abs(v) == 1.0 else v * p[j]
            if v == -1.0:
                acc = -x if acc is None else acc - x
            else:
                acc = x if acc is None else acc + x
        return acc

    c, rows = nonzero(ss.loop_row), [nonzero((*row, bi)) for row, bi in zip(ss.a, ss.b)]

    def derivative(p):
        q = [*p, r - phi(total(c, p))]  # the states, then u
        return [total(row, q) for row in rows]

    half, sixth = dt / 2.0, dt / 6.0
    k1 = derivative(s)
    k2 = derivative([x + half * k for x, k in zip(s, k1)])
    k3 = derivative([x + half * k for x, k in zip(s, k2)])
    k4 = derivative([x + dt * k for x, k in zip(s, k3)])
    return [x + sixth * (d1 + 2.0 * (d2 + d3) + d4 + 0.0)
            for x, d1, d2, d3, d4 in zip(s, k1, k2, k3, k4)]


def integrate(ss: StateSpace, ic, schedule: InputSchedule | None = None,
              dt: float | None = None, t_end: float = 50.0, sink=None) -> Trajectory:
    """Classical fixed-step RK4 integration of the Lure loop realized by ``ss``.

    A non-finite ``dt`` or ``t_end``, and then an initial state that is not
    finite or of the wrong length, is a ``ValueError`` before anything else,
    so neither warns about the step.  Two step checks warn, from the
    spectral radii of the loop's
    Jacobians at saturation slope 0 and 1, A and A - b c_loop: an accuracy
    warning when dt times the radius of A exceeds 0.2 (dt above a fifth of
    the fastest open-loop time constant), and a stability warning when dt
    times the larger radius exceeds the RK4 limit.  ``dt`` defaults to 0.05
    over the radius of A, or to one over the larger radius when that is
    smaller, and so trips neither check; a radius of 0 bounds no step, and
    with both radii 0 ``dt`` is required.  The run takes
    ``round(t_end / dt)`` steps, so it ends at that many times ``dt``, not
    necessarily at ``t_end``.  The reference is held constant over each step
    at the value in effect at the step's left endpoint.  The steps run in
    blocks of the straight-line code that
    :func:`mfa.tf_core._loop_kernel` records from one :func:`_rk4_step`,
    traced once per call with ``dt`` and the coefficients as constants.  A
    ``t_end`` that rounds to zero steps, whose ratio to ``dt`` overflows or
    whose table of rows is too large for an array to hold, is a ``ValueError``;
    a non-finite state along the way aborts with the first one's time; each
    block tests its last state, and scans its rows only to find that time.
    The output ``y`` and the extra outputs are products of each finished
    block's states with their rows, the initial row taken with the first
    block.  The run allocates one table of ``round(t_end / dt) + 1`` rows
    ``[t, states, y, extra...]``, and each block's times, states and
    outputs are written into it in place.  A ``sink``, when given, is
    called once per finished block with that block's rows of the table, a
    view, which it must not write into.  The returned
    :class:`Trajectory`'s arrays are columns of the same table, so they
    hold the rows a sink gets, with or without a sink, for a loop of any
    size.
    """
    if dt is not None and not 0.0 < dt < math.inf:
        raise ValueError("requires finite dt > 0")
    if not 0.0 < t_end < math.inf:
        raise ValueError("requires finite t_end > 0")
    n = ss.dim
    s = [float(v) for v in ic]
    if len(s) != n:
        raise ValueError(f"requires {n} initial-condition components")
    if not all(math.isfinite(v) for v in s):
        raise ValueError("requires a finite initial condition")
    rho_open, rho_closed = np.max(np.abs(_eigvals(ss.jacobians([0.0, 1.0]))),
                                  axis=1)
    rho = max(rho_open, rho_closed)
    if dt is None:
        steps = [lim / r for lim, r in ((_ACCURACY_LIMIT / 4.0, rho_open), (1.0, rho)) if r > 0.0]
        if not steps:
            raise ValueError("requires dt: both spectral radii are 0")
        dt = float(min(steps))
    if dt * rho_open > _ACCURACY_LIMIT:
        warnings.warn("dt above min time constant / 5; accuracy degraded", stacklevel=2)
    if dt * rho > _RK4_REAL_LIMIT:
        warnings.warn(f"dt * spectral radius = {dt * rho:.3g} above the RK4 "
                      f"stability limit {_RK4_REAL_LIMIT}", stacklevel=2)
    if schedule is None:
        schedule = InputSchedule.constant(0.0)

    if t_end / dt == math.inf:
        raise ValueError(f"t_end = {t_end:g} over dt = {dt:g} overflows the step count")
    n_steps = int(round(t_end / dt))
    if n_steps == 0:
        raise ValueError(f"t_end = {t_end:g} rounds to zero steps of dt = {dt:g}")
    c_rows = [np.asarray(ss.c), *(np.asarray(row) for _, row in ss.extra_outputs)]
    # one row [t, states, y, extra...] per sample
    if (n_steps + 1) * (n + 1 + len(c_rows)) * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"t_end = {t_end:g} over dt = {dt:g} is {n_steps:.3g} steps, "
                         "too many to store")
    r_steps = schedule.values_for_steps(dt, n_steps)
    block = _loop_kernel(lambda phi, r, state: _rk4_step(ss, phi, dt, r, state),
                         get_nonlinearity(ss.nonlinearity)[0], None, n)

    table = np.empty((n_steps + 1, n + 1 + len(c_rows)))
    states = table[:, 1:n + 1]
    states[0] = s
    # a one-row product takes numpy's vector path, whose last bit can differ
    # from the matrix product's over the same row: so the initial row goes
    # with the first block, a lone last step joins the block before it, and
    # every block's outputs are taken over at least two rows
    starts = list(range(0, n_steps, _BLOCK))
    if len(starts) > 1 and n_steps - starts[-1] == 1:
        starts.pop()
    for i0, i1 in zip(starts, [*starts[1:], n_steps]):
        rs = r_steps[i0:i1].tolist()
        out = []
        block(rs, s, out)
        chunk = states[i0 + 1:i1 + 1]
        chunk[:] = np.fromiter(out, float, len(out)).reshape(len(rs), n)
        s = out[-n:]
        # each update is x + increment, so a non-finite component stays so
        if not all(map(math.isfinite, s)):
            bad = np.flatnonzero(~np.isfinite(chunk).all(axis=1))
            raise ArithmeticError(f"divergence at t={(i0 + bad[0] + 1) * dt:.6g}")
        rows = slice(i0 + 1 if i0 else 0, i1 + 1)
        table[rows, 0] = np.arange(rows.start, rows.stop) * dt
        for j, c in enumerate(c_rows, n + 1):
            np.matmul(states[rows], c, out=table[rows, j])
        if sink is not None:
            sink(table[rows])

    return Trajectory(table[:, 0], states, table[:, n + 1], schedule, ss.labels,
                      dict(zip([name for name, _ in ss.extra_outputs], table[:, n + 2:].T)))


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


def boundedness_check(traj: Trajectory, r_max: float,
                      settle_time: float = 0.0) -> bool | None:
    """Ultimate-bound check sup|state| <= r_max + 1 + 0.1 after settling.

    The bound follows from |phi| <= 1 and the unit-DC lag chain; callers
    should pass a ``settle_time`` of about ten times the slowest time
    constant so the transient is excluded.  With ``t`` ascending, as
    :func:`integrate` makes it, the window is a slice.  Returns None when no
    sample lies at or after ``settle_time``, since an empty window shows nothing.
    """
    i = int(np.searchsorted(traj.t, settle_time))
    if i == len(traj.t):
        return None
    bound = r_max + 1.0 + 0.1
    return bool(np.all(np.abs(traj.states[i:]) <= bound))
