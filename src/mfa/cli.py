"""Command-line surface: analyses as subcommands emitting CSV or JSON.

The CLI reads and writes every file format: the bank, load and schedule
files through one reader, :func:`_read_json`, which refuses a number that is
not a finite float, and the JSON reports and CSVs; the library takes and
returns its own types.  Output is deterministic: identical flags give byte-identical output.  CSV
files carry a ``#`` version comment, full-precision (17 significant digit)
values, and ``.`` decimals.  JSON uses the tags "unbounded" for an infinite
critical gain and "infinite" for a zero or frequency at infinity.  Exit
codes: 0 success, 2 invalid parameters (a run too large to allocate or to
store included), 3 file/parse errors, 4 numerical errors.  CSV output is
streamed in blocks of rows, never built as one string, by
:func:`_write_text`.  The all-float CSVs of ``simulate``, ``interconnect``
and ``nyquist`` take their text from one generator, :func:`_csv_blocks`:
one :func:`mfa.csvtext.format_block` numpy kernel per block, with the same
bytes as ``%.17g``.  Where a second CPU is free, the first block of
trajectory rows the integrator finishes makes a temporary file and forks a
formatter process, and each block goes down a pipe to it as plain float64
values; it writes their text into that file, which is copied out once the
run has returned and the formatter has exited 0.  A ``--detect`` report is
computed while the formatter drains the pipe.  For the run the two are
pinned to different CPUs, and the CPU mask is restored afterwards.
Otherwise the blocks, views of the integrator's one table of rows, are kept
and formatted after the run (:func:`_write_trajectory`).  Either way the
CSV header is built once, before the run.  A step warning of the integrator
is one ``warning: <message>`` line on stderr.  The map formats each gain
and each column's balance and critical gains once, by position in the
grid, and joins its rows from those strings.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import math
import os
import re
import sys
import warnings
from contextlib import ExitStack, suppress

import numpy as np

from . import __version__
from .equilibria import LureLoop, dominance_map
from .freq_analysis import DominanceCertificate, check_p_passivity, nyquist_locus
from .interconnect import InterfaceGains, LoadParams, compose_certificates, load_tf
from .multichannel import Channel, ChannelBank, bank_critical_balance, check_interlacing
from .sim import (
    InputSchedule,
    boundedness_check,
    detect_oscillation,
    integrate,
)
from .tf_core import RationalTF

__all__ = ["main", "entrypoint"]


def _complex_pairs(values) -> list[list[float]]:
    return [[complex(z).real, complex(z).imag] for z in values]


def _tag_json(x: float):
    """A float as JSON writes it here: inf as "unbounded", nan as null."""
    if math.isinf(x):
        return "unbounded"
    if math.isnan(x):
        return None
    return x


def _certificate_dict(c: DominanceCertificate) -> dict:
    return {
        "p": c.p,
        "lambda": c.rate,
        "min_re": _tag_json(c.min_re),
        "omega_at_min": "infinite" if math.isinf(c.omega_at_min) else _tag_json(c.omega_at_min),
        "critical_gain": _tag_json(c.critical_gain),
        "conditions": list(c.conditions),
        "passed": c.passed,
        # passivity is the circle criterion for the infinite sector, whose
        # line -1/K sits at 0, so the margin to it is min_re
        "sector": "infinite",
        "margin": _tag_json(c.min_re),
    }


def _equilibrium_dicts(equilibria) -> list[dict]:
    return [
        {
            "y": e.y_star,
            "state": list(e.state),
            "eigenvalues": _complex_pairs(e.eigenvalues),
            "stability": e.stability,
        }
        for e in equilibria
    ]


#: Rows per block of CSV output.
_CSV_ROWS = 1024


def _csv_blocks(rows):
    """The CSV text of the 2-D float array ``rows``, one
    :func:`mfa.csvtext.format_block` call per :data:`_CSV_ROWS` rows, which
    gives the bytes of ``format(x, ".17g")`` for every value, ``-0``,
    ``inf`` and ``nan`` included."""
    # imported here: its tables take about a megabyte and a few
    # milliseconds to build, which the JSON commands and maps do not use
    from .csvtext import format_block

    for i in range(0, len(rows), _CSV_ROWS):
        yield format_block(rows[i:i + _CSV_ROWS])


def _write_text(path: str | None, header: str, chunks):
    """Write the version comment, ``header`` and the text or bytes
    ``chunks`` to ``path``, or to stdout when ``path`` is None; text goes to
    stdout as text, and to a file as bytes."""
    out = None if path is None else open(path, "wb")
    try:
        def write(data):
            if out is None:
                sys.stdout.write(data if isinstance(data, str) else data.decode())
            else:
                out.write(data.encode() if isinstance(data, str) else data)
        write(f"# mfa {__version__}\n{header}\n")
        for data in chunks:
            write(data)
    finally:
        if out is not None:
            out.close()


_ascii = json.encoder.encode_basestring_ascii
_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
          None: "null", True: "true", False: "false"}


def _json_text(o, nl: str) -> str:
    """``json.dumps(o, indent=2)``, whose encoder runs in Python and appends
    token by token when ``indent`` is set, with one join per container; ``nl``
    is a newline and the indent of ``o``'s own line.  Empty containers and
    subclasses take json's own text, whose newlines all indent.  A dict key
    that is not a str raises ``TypeError``."""
    t = type(o)
    if t is float:
        text = float.__repr__(o)
        return _WORDS.get(text, text)
    inner = nl + "  "
    if (t is list or t is tuple) and o:
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in o]) + nl + "]"
    if t is dict and o:
        return "{" + inner + ("," + inner).join(
            [_ascii(k) + ": " + _json_text(v, inner) for k, v in o.items()]) + nl + "}"
    if t is str:
        return _ascii(o)
    if t is int:
        return int.__repr__(o)
    if o is None or t is bool:
        return _WORDS[o]
    return json.dumps(o, indent=2).replace("\n", nl)


def _print_json(obj):
    """Write ``obj`` to stdout as ``json.dumps(obj, indent=2)`` and a newline."""
    sys.stdout.write(_json_text(obj, "\n") + "\n")


class _MalformedInput(Exception):
    """An input file that parses but lacks a field or has one of the wrong
    type (exit 3, like a file that does not parse)."""


def _finite(path: str, token: str, kind=float):
    """``kind(token)`` for a number of the input file ``path``; a number that
    is not a finite float (NaN, Infinity, 1e999, an integer of 400 digits)
    raises a ``ValueError`` naming the file."""
    if not math.isfinite(float(token)):
        raise ValueError(f"{path}: requires finite numbers, got {token}")
    return kind(token)


def _read_json(path: str, build):
    """``build(data)`` of the JSON file ``path``, a bank, load or schedule
    file, with every number checked by :func:`_finite`; a ``KeyError`` or
    ``TypeError`` that ``build`` raises, a missing field or one of the wrong
    type, is :class:`_MalformedInput`."""
    number = functools.partial(_finite, path)
    with open(path) as fh:
        data = json.load(fh, parse_float=number, parse_constant=number,
                         parse_int=lambda token: number(token, int))
    try:
        return build(data)
    except KeyError as exc:
        raise _MalformedInput(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise _MalformedInput(f"{path}: malformed input: {exc}") from None


def _read_load(path: str) -> tuple[LoadParams, InterfaceGains]:
    """Load and interface gains of the load file ``path``,
    ``{"a", "b", "kv", "kp", "ki", "ko"}``."""
    return _read_json(path, lambda data: (
        LoadParams(*(float(data[name]) for name in ("a", "b", "kv", "kp"))),
        InterfaceGains(float(data["ki"]), float(data["ko"]))))


def _read_bank(path: str) -> tuple[dict, float, ChannelBank, ChannelBank, float, float]:
    """The bank file ``path``, ``{"tau_l", "positive", "negative", "k",
    "beta"}`` with each bank a list of ``{"rho", "tau"}``: as parsed, then
    its lag, positive and negative banks, gain and balance."""
    def build(data):
        pos, neg = (ChannelBank(tuple(Channel(float(ch["rho"]), float(ch["tau"]))
                                      for ch in data[side]))
                    for side in ("positive", "negative"))
        return data, float(data["tau_l"]), pos, neg, float(data["k"]), float(data["beta"])
    return _read_json(path, build)


def _read_schedule(path: str) -> InputSchedule:
    """The schedule file ``path``, ``[{"t": t_start, "r": value}, ...]``."""
    return _read_json(path, lambda data: InputSchedule(
        tuple((float(e["t"]), float(e["r"])) for e in data)))


# ---------------------------------------------------------------------------
# analyze

def _loop_report(loop: LureLoop, args, lam: float, zeros, head: dict, between: dict,
                 tail: dict) -> dict:
    """Report of one loop with its ``zeros`` at the reference ``args.r`` and
    rate ``lam``, with the fields ``analyze`` and ``multichannel`` share in
    their order: poles, zeros, ``between``, the rate, the shifted inertia,
    g0, the critical gains, the equilibria and the regime, then ``tail``.  A
    pole on the shifted axis raises ``ArithmeticError``."""
    inertia = loop.inertia(lam)
    cell = loop.classify(args.r, lam)
    return {
        "tool": "mfa",
        "version": __version__,
        **head,
        "poles": _complex_pairs(loop.poles),
        "zeros": _complex_pairs(zeros),
        **between,
        "lambda": lam,
        "lambda_policy": "midpoint" if args.lam is None else "user",
        "shifted_unstable_poles": inertia,
        "g0": loop.g0,
        "k0_bar": _tag_json(cell.k0_bar),
        "k2_bar": _tag_json(cell.k2_bar),
        "equilibria": _equilibrium_dicts(cell.equilibria),
        "regime": cell.regime,
        "reason": cell.reason,
        **tail,
    }


def cmd_analyze(args) -> int:
    loop = LureLoop.amplifier(args.tau_l, args.tau_p, args.tau_n, args.k, args.beta,
                              args.nonlinearity)
    lam = loop.rate(args.lam)
    tp, tn = args.tau_p, args.tau_n
    head = {"params": {name: getattr(args, name) for name in
                       ("tau_l", "tau_p", "tau_n", "k", "beta", "r", "nonlinearity")}}
    # "zero" is n0/n1 of the unit-gain numerator n0 + n1 s, the negated root.
    # n1 = -(beta (tau_n + tau_p) - tau_p) vanishes at the critical balance;
    # within a few ulps of 0 (or at 0, a constant numerator) the zero is infinite
    n0, n1 = (*loop.g1.num, 0.0)[:2]
    zero = "infinite" if abs(n1) <= 1e-14 * (args.beta * (tp + tn) + tp) else n0 / n1
    between = {
        "zero": zero if args.k > 0 else None,
        "beta_star": bank_critical_balance(ChannelBank((Channel(1.0, tp),)),
                                           ChannelBank((Channel(1.0, tn),))),
    }
    # the zeros do not depend on k > 0; at k = 0 the numerator vanishes
    zeros = loop.g1.zeros() if args.k > 0 else []
    _print_json(_loop_report(loop, args, lam, zeros, head, between,
                             {"min_re_method": "stationary_points"}))
    return 0


# ---------------------------------------------------------------------------
# map

def cmd_map(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise ValueError("requires at least one gain and one balance")
    if args.k_min <= 0.0 or args.k_max <= 0.0:
        raise ValueError("requires positive gains")
    # Python floats: the map formats and indexes them, and does no array work
    ks = np.geomspace(args.k_min, args.k_max, args.rows).tolist()
    betas = np.linspace(args.beta_min, args.beta_max, args.cols).tolist()
    cells = dominance_map(args.tau_l, args.tau_p, args.tau_n, ks, betas,
                          r=args.r, lam=args.lam, nonlinearity=args.nonlinearity)
    # a column's balance and critical gains repeat in every row: format once
    k_text = ["%.17g," % k for k in ks]
    col_text = [("%.17g," % beta, ",%.17g,%.17g," % (cell.k0_bar, cell.k2_bar))
                for beta, cell in zip(betas, cells[0])]
    lines = [f"{kt}{bt}{cell.regime}{gt}{cell.n_equilibria},{cell.n_unstable}\n"
             for kt, row in zip(k_text, cells) for (bt, gt), cell in zip(col_text, row)]
    _write_text(args.output, "k,beta,regime,k0_bar,k2_bar,n_equilibria,n_unstable",
                ("".join(lines[i:i + _CSV_ROWS]) for i in range(0, len(lines), _CSV_ROWS)))
    return 0


# ---------------------------------------------------------------------------
# simulate

def _parse_ic(text: str | None, dim: int) -> tuple[float, ...]:
    """The ``--ic`` components, or the zero state when ``text`` is None;
    :func:`mfa.sim.integrate` checks their number."""
    return (0.0,) * dim if text is None else tuple(float(v) for v in text.split(","))


def _current_cpu() -> int | None:
    """The CPU this thread runs on, field 39 of ``/proc/thread-self/stat``,
    or None where that cannot be read."""
    with suppress(OSError, ValueError, IndexError):
        with open("/proc/thread-self/stat", "rb") as stat:
            # field 2, the thread's name, may hold spaces and ")"
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    return None


def _fork_formatter(cols: int, text, cpu: int | None, mask: set[int] | None):
    """Fork a formatter that reads rows of ``cols`` float64 values from a
    pipe until the pipe ends, and appends the text of each
    :data:`_CSV_ROWS` of them to the file ``text``; a stream that is not
    whole rows of ``cols`` values makes it fail.  Its process id and the
    pipe's write end, or two Nones when no process can be forked.

    With a ``cpu``, once the fork returns the formatter is pinned by its pid
    to the other CPUs of ``mask``, and then this thread to ``cpu``, so that
    the pipe's wake-ups do not draw the two onto one CPU; where the first
    pin fails, neither is pinned.  The caller restores this thread's mask."""
    import fcntl

    # imported before the fork, so that each formatter finds its tables built
    from . import csvtext  # noqa: F401

    read_end, write_end = os.pipe()
    # a pipe of a megabyte holds a few blocks, so a send need not wait for
    # the formatter to read the one before (Linux only, within the user's
    # pipe quota; the default size works too)
    with suppress(AttributeError, OSError):
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 1 << 20)
    try:
        with warnings.catch_warnings():
            # newer Pythons warn of a fork in a process with threads, here
            # the BLAS pool's; the formatter calls no BLAS, so it never
            # waits on a lock one of those threads held at the fork
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None, None
    if pid == 0:
        status = 1
        try:
            # a collection would write to every object's page of the
            # parent's heap and so copy it
            gc.disable()
            os.close(write_end)
            with open(read_end, "rb") as pipe:
                for data in iter(functools.partial(pipe.read, 8 * cols * _CSV_ROWS), b""):
                    text.writelines(_csv_blocks(np.frombuffer(data).reshape(-1, cols)))
            text.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(read_end)
    if cpu is not None:
        with suppress(OSError):
            os.sched_setaffinity(pid, mask - {cpu})
            os.sched_setaffinity(0, {cpu})
    return pid, open(write_end, "wb")


def _write_trajectory(path: str | None, header: str, run, analyse=None):
    """Call ``run(sink)``, which integrates a trajectory and hands ``sink``
    its rows block by block; write the CSV ``header`` and the rows to
    ``path``, or to stdout when ``path`` is None, and return the trajectory,
    or ``analyse(trajectory)``, which runs while the formatter drains the
    rows; an error of it is raised once the CSV is written, as if it ran after.

    Where ``os.fork`` exists and the process may use two CPUs, the first
    block makes an unnamed temporary file and forks a formatter
    (:func:`_fork_formatter`), and the sink writes each block down a pipe to
    it, so that it makes the rows' text while ``run`` integrates the next
    block, into that file, which is copied to the destination only once
    ``run`` has returned and the formatter has exited 0; the temporary
    directory needs room for the whole CSV.  Otherwise, or when the fork
    fails, the sink keeps the blocks, which :func:`mfa.sim.integrate` hands
    over as views of its one table of rows, so keeping them copies nothing,
    and their text goes straight to the destination after the run.  A run
    refused before its first block makes no temporary file and forks
    nothing.  Both ways make the text with :func:`_csv_blocks`, whose rows
    do not depend on the blocks they come in, so the bytes are the same
    either way, for a loop of any size.  The formatter is reaped and the
    temporary file closed on every path, and the destination is opened
    only after ``run`` returns, so a run that fails writes nothing.

    Once the formatter is forked, it is pinned to the CPUs of this thread's
    mask but the one the thread is on (:func:`_current_cpu`), and the thread
    to that one: unpinned, a pipe write wakes the formatter on the writer's
    CPU, and the two take turns there.  The thread's mask is restored on
    every path.  Where the mask or the CPU cannot be read, or the
    formatter's pin cannot be set, the two run unpinned; the inline way
    pins nothing.
    """
    import tempfile

    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    # on one CPU the formatter would only take turns with the integrator,
    # and the pipe and the copy would come on top
    fork = hasattr(os, "fork") and (len(mask) if mask else os.cpu_count() or 1) > 1

    def restore():
        with suppress(OSError):
            os.sched_setaffinity(0, mask)

    # the blocks kept without a formatter; its pid, pipe and temporary file
    blocks, pid, pipe, text = [], None, None, None
    with ExitStack() as files:
        def sink(block):
            nonlocal pid, pipe, text
            if fork and text is None:
                text = files.enter_context(tempfile.TemporaryFile())
                # the pin calls exist where the mask can be read
                cpu = _current_cpu() if mask else None
                if cpu is not None:
                    files.callback(restore)
                pid, pipe = _fork_formatter(header.count(",") + 1, text, cpu, mask)
            if pipe is None:
                blocks.append(block)
            else:
                pipe.write(np.ascontiguousarray(block, float))
                pipe.flush()
        result, held = None, None
        try:
            traj = run(sink)
            if pipe is not None:
                pipe.close()  # the formatter drains the pipe while traj is analysed
            try:
                result = traj if analyse is None else analyse(traj)
            except Exception as exc:  # raised once the CSV is written
                held = exc
        except BrokenPipeError:
            if pipe is None:
                raise
            # the formatter stopped early: its exit code says so below
        finally:
            if pipe is not None:
                with suppress(BrokenPipeError):  # the descriptor is closed even so
                    pipe.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if pipe is None:
            chunks = (chunk for block in blocks for chunk in _csv_blocks(block))
        elif code != 0:
            raise OSError(f"trajectory CSV formatter failed with exit code {code}")
        else:
            text.seek(0)
            chunks = iter(functools.partial(text.read, 1 << 20), b"")
        _write_text(path, header, chunks)
    if held is not None:
        raise held
    return result


def _print_warning(message, *_):
    """``warnings.showwarning`` for the integrator's step warnings: one
    ``warning: <message>`` line on stderr, dropped, as Python's own are,
    when stderr cannot be written."""
    with suppress(OSError):
        print("warning:", message, file=sys.stderr)


def _simulate(loop: LureLoop, args, report) -> None:
    """Integrate ``loop`` from the schedule, initial condition and step
    flags; write the trajectory as CSV unless only ``--detect`` is asked
    for, and with ``--detect`` print ``report(trajectory)`` as JSON
    (:func:`_write_trajectory`).  Without ``--dt`` the integrator picks the
    step from the loop.  Its step warnings are printed as ``warning:
    <message>`` lines on stderr, which name no file or line of the package."""
    if args.detect and not 0.0 <= args.transient_fraction < 1.0:
        raise ValueError("requires 0 <= transient_fraction < 1")
    schedule = (InputSchedule.constant(args.r) if args.schedule is None
                else _read_schedule(args.schedule))
    ic = _parse_ic(args.ic, loop.ss.dim)

    def run(sink=None):
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return integrate(loop.ss, ic, schedule, dt=args.dt, t_end=args.t_end, sink=sink)
    header = ",".join(["t", *loop.ss.labels, "y", *(name for name, _ in loop.ss.extra_outputs)])
    if args.detect:
        _print_json(report(run()) if args.output is None
                    else _write_trajectory(args.output, header, run, report))
    else:
        _write_trajectory(args.output, header, run)


def cmd_simulate(args) -> int:
    def report(traj):
        osc = detect_oscillation(traj, transient_fraction=args.transient_fraction,
                                 amp_threshold=args.amp_threshold)
        bounded = boundedness_check(
            traj, r_max=traj.schedule.max_abs_value,
            settle_time=10.0 * max(args.tau_l, args.tau_p, args.tau_n))
        return {**dataclasses.asdict(osc), "bounded": bounded}
    _simulate(LureLoop.amplifier(args.tau_l, args.tau_p, args.tau_n, args.k, args.beta,
                                 args.nonlinearity), args, report)
    return 0


# ---------------------------------------------------------------------------
# nyquist

def cmd_nyquist(args) -> int:
    if args.load is not None:
        load, _ = _read_load(args.load)
        g = load_tf(load)
    else:
        for name in ("tau_l", "tau_p", "tau_n", "k", "beta"):
            if getattr(args, name) is None:
                raise ValueError("requires --load or the full amplifier parameter set")
        g1 = LureLoop.amplifier(args.tau_l, args.tau_p, args.tau_n, args.k, args.beta,
                                args.nonlinearity).g1
        g = RationalTF([args.k * c for c in g1.num], g1.den, g1.den_roots)
    lam = args.lam if args.lam is not None else 0.0
    lo, hi = args.omega_min, args.omega_max
    if lo is None or hi is None:
        # each missing bound lies three decades beyond the pole and zero
        # corner magnitudes of g, before and after the shift
        corners = [c for z in g.poles() + g.zeros() for c in (abs(z), abs(z + lam))
                   if c > 1e-12] or [1.0]
        lo = 1e-3 * min(corners) if lo is None else lo
        hi = 1e3 * max(corners) if hi is None else hi
    if not 0.0 < lo < hi:
        raise ValueError("requires 0 < omega_min < omega_max")
    if args.grid_points < 2:
        raise ValueError("requires n_points >= 2")
    _write_text(args.output, "omega,re,im",
                _csv_blocks(nyquist_locus(g, lam, np.geomspace(lo, hi, args.grid_points))))
    return 0


# ---------------------------------------------------------------------------
# multichannel

def cmd_multichannel(args) -> int:
    bank_data, tau_l, pos, neg, k, beta = _read_bank(args.bank)
    loop = LureLoop.bank(tau_l, pos, neg, k, beta, args.nonlinearity)
    # the loop's unit-gain numerator is the bank difference's up to sign, so
    # one root call serves the report and the interlacing check
    zeros = loop.g1.zeros()
    interlacing = check_interlacing(pos, neg, zeros) if 0.0 < beta < 1.0 else None
    lam = loop.rate(args.lam)
    _print_json(_loop_report(
        loop, args, lam, zeros if k > 0.0 else [], {"bank": bank_data},
        {"beta_star": bank_critical_balance(pos, neg)},
        {"interlacing": dataclasses.asdict(interlacing) if interlacing else None}))
    return 0


# ---------------------------------------------------------------------------
# interconnect

def cmd_interconnect(args) -> int:
    load, iface = _read_load(args.load)
    inner = LureLoop.amplifier(args.tau_l, args.tau_p, args.tau_n, 1.0, args.beta,
                               args.nonlinearity)
    loop = LureLoop.load(inner, args.k, load, iface)
    if args.certify:
        # every certificate is taken at unit gain and scaled by its gain
        lam = loop.rate(args.lam)
        c_amp = check_p_passivity(inner.g1, lam, 2, args.k)
        c_load = check_p_passivity(load_tf(load), lam, 0, 1.0)
        comp = compose_certificates(c_amp, c_load)
        c_tot = check_p_passivity(loop.g1, lam, comp.p_total, args.k)
        equilibria = loop.equilibria(args.r)
        _print_json({
            "tool": "mfa",
            "version": __version__,
            "lambda": lam,
            "amplifier_certificate": _certificate_dict(c_amp),
            "load_certificate": _certificate_dict(c_load),
            "composition": {"p_amplifier": comp.p_amplifier, "p_load": comp.p_load,
                            "lambda": comp.rate, "p_total": comp.p_total,
                            "valid": comp.valid, "reason": comp.reason},
            "loop_certificate": _certificate_dict(c_tot),
            "equilibria": _equilibrium_dicts(equilibria),
        })
        return 0

    def report(traj):
        return {name: dataclasses.asdict(detect_oscillation(
                    dataclasses.replace(traj, y=y), transient_fraction=args.transient_fraction,
                    amp_threshold=args.amp_threshold))
                for name, y in (("y", traj.y), ("ye", traj.extra["ye"]))}
    _simulate(loop, args, report)
    return 0


# ---------------------------------------------------------------------------
# parser

def _finite_float(text: str) -> float:
    """argparse type of a float option: text that is not a number, nan and
    inf are refused (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"requires a finite number, got {text!r}")
    return value


def _add_amp_flags(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--tau-l", dest="tau_l", type=_finite_float, required=required)
    p.add_argument("--tau-p", dest="tau_p", type=_finite_float, required=required)
    p.add_argument("--tau-n", dest="tau_n", type=_finite_float, required=required)
    p.add_argument("--k", type=_finite_float, required=required)
    p.add_argument("--beta", type=_finite_float, required=required)
    p.add_argument("--nonlinearity", default="tanh")


def _add_sim_flags(p: argparse.ArgumentParser):
    p.add_argument("--schedule", help="input schedule JSON file")
    p.add_argument("--r", type=_finite_float, default=0.0,
                   help="constant reference when no schedule file is given")
    # integrate checks dt and t_end itself and names them in its error
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=50.0,
                   help="end time, rounded to a whole number of steps of dt")
    p.add_argument("--ic")
    p.add_argument("--detect", action="store_true",
                   help="print an oscillation report JSON instead of CSV")
    p.add_argument("--transient-fraction", dest="transient_fraction",
                   type=_finite_float, default=0.5)
    p.add_argument("--amp-threshold", dest="amp_threshold",
                   type=_finite_float, default=1e-3)
    p.add_argument("--output", help="write CSV here instead of stdout")


_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads a negative number in exponent form, such
    as ``--r -6e-05``, and a comma list of numbers that starts with a negative
    one, such as ``--ic -0.5,0,0``, as a value: argparse's own pattern for
    negative numbers has neither, so it took them for unknown options.  An
    argv that starts with a subcommand is first read in one pass over that
    subcommand's option table (:meth:`one_pass`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(rf"^-{_NUMBER}(,-?{_NUMBER})*$")
        self.commands: dict[str, argparse.ArgumentParser] = {}  # name -> parser

    def parse_args(self, args=None, namespace=None):
        """Parse ``args`` by :meth:`one_pass`; an argv it does not take goes
        through the full parser, which keeps its usage, help and error text."""
        argv = sys.argv[1:] if args is None else list(args)
        parsed = self.one_pass(argv) if namespace is None else None
        return parsed if parsed is not None else super().parse_args(argv, namespace)

    def one_pass(self, argv: list[str]) -> argparse.Namespace | None:
        """The full parser's namespace for ``argv``, read in one pass over the
        option table of the subcommand its first word names, or None.

        The pass starts from the actions' defaults, then the subcommand's
        ``set_defaults``, as argparse does.  It takes only an exact option
        string of a plain store action followed by one value that its type
        accepts and that does not start with ``-`` unless it is a negative
        number, and ``store_true`` flags; every required option must be
        seen.  Anything else (an abbreviation, ``--x=v``, ``-h``, ``--``, an
        unknown word, a value its type refuses, a missing option) gives None.
        """
        sub = self.commands.get(argv[0]) if argv else None
        if sub is None:
            return None
        values = {}
        for action in sub._actions:
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                values.setdefault(action.dest, action.default)
        for dest, default in sub._defaults.items():
            values.setdefault(dest, default)
        seen = set()
        words = iter(argv[1:])
        for word in words:
            action = sub._option_string_actions.get(word)
            if type(action) is argparse._StoreTrueAction:
                values[action.dest] = True
            elif (type(action) is argparse._StoreAction and action.nargs is None
                  and action.choices is None):
                value = next(words, None)
                if value is None or (value.startswith("-")
                                     and not sub._negative_number_matcher.match(value)):
                    return None
                try:
                    values[action.dest] = value if action.type is None else action.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            else:
                return None
            seen.add(action)
        if any(action.required and action not in seen for action in sub._actions):
            return None
        return argparse.Namespace(command=argv[0], **values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mfa",
        description="Mixed feedback amplifier analysis and simulation")
    parser.add_argument("--version", action="version",
                        version=f"mfa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("analyze", help="full analysis report (JSON)")
    _add_amp_flags(p)
    p.add_argument("--r", type=_finite_float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("map", help="(gain, balance) regime map (CSV)")
    p.add_argument("--tau-l", dest="tau_l", type=_finite_float, required=True)
    p.add_argument("--tau-p", dest="tau_p", type=_finite_float, required=True)
    p.add_argument("--tau-n", dest="tau_n", type=_finite_float, required=True)
    p.add_argument("--nonlinearity", default="tanh")
    p.add_argument("--k-min", dest="k_min", type=_finite_float, required=True)
    p.add_argument("--k-max", dest="k_max", type=_finite_float, required=True)
    p.add_argument("--beta-min", dest="beta_min", type=_finite_float, default=0.0)
    p.add_argument("--beta-max", dest="beta_max", type=_finite_float, default=1.0)
    p.add_argument("--rows", type=int, required=True, help="number of gain values")
    p.add_argument("--cols", type=int, required=True, help="number of balance values")
    p.add_argument("--r", type=_finite_float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted and ignored: maps run serially")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("simulate", help="integrate the amplifier (CSV)")
    _add_amp_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("nyquist", help="shifted Nyquist locus (CSV)")
    _add_amp_flags(p, required=False)
    p.add_argument("--load", help="load JSON file (use the load transfer function)")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=2000)
    p.add_argument("--omega-min", dest="omega_min", type=_finite_float, default=None)
    p.add_argument("--omega-max", dest="omega_max", type=_finite_float, default=None)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_nyquist)

    p = sub.add_parser("multichannel", help="channel-bank analysis report (JSON)")
    p.add_argument("--bank", required=True, help="bank JSON file")
    p.add_argument("--r", type=_finite_float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.add_argument("--nonlinearity", default="tanh")
    p.set_defaults(func=cmd_multichannel)

    p = sub.add_parser("interconnect",
                       help="amplifier + load loop: simulate or certify")
    _add_amp_flags(p)
    p.add_argument("--load", required=True,
                   help="load JSON file with a, b, kv, kp, ki, ko")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.add_argument("--certify", action="store_true",
                   help="print passivity/composition certificates (JSON)")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_interconnect)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # The parser is built on the first call, not at import, and reused: each
    # parse_args call returns a fresh namespace.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, _MalformedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    # the imports' objects go to the permanent generation, which no
    # collection walks; not in main, which a caller may run many times
    gc.freeze()
    sys.exit(main())
