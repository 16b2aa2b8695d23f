"""Command-line surface: analyses as subcommands emitting CSV or JSON.

Output is deterministic: identical flags give byte-identical output.  CSV
files carry a ``#`` version comment, full-precision (17 significant digit)
values, and ``.`` decimals.  JSON uses the tags "unbounded" for an infinite
critical gain and "infinite" for a zero or frequency at infinity.  Exit
codes: 0 success, 2 invalid parameters (a run too large to allocate or to
store included), 3 file/parse errors, 4 numerical errors.  CSV output is
streamed in blocks of rows, never built as one string.  The all-float CSVs
of ``simulate``, ``interconnect`` and ``nyquist`` are formatted by
:func:`mfa.csvtext.format_block`, one numpy kernel per block, with the same
bytes as ``%.17g``.  Where a second CPU is free, a trajectory's blocks are
formatted as the integrator finishes them, by a forked formatter process,
into a temporary file that is copied out once the run has ended; otherwise
the finished trajectory is formatted (:func:`_write_trajectory`).  The map
formats each gain and each column's balance and critical gains once, by
position in the grid, and joins its rows from those strings; it, the
Nyquist locus and an inline trajectory go through :func:`_write_csv`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from contextlib import contextmanager, suppress

import numpy as np

from . import __version__
from .equilibria import LureLoop, dominance_map
from .freq_analysis import _tag_json, check_p_passivity, nyquist_locus
from .interconnect import compose_certificates, load_from_json, load_tf
from .multichannel import (Channel, ChannelBank, bank_critical_balance, bank_from_json,
                           check_interlacing)
from .sim import (
    InputSchedule,
    Trajectory,
    boundedness_check,
    detect_oscillation,
    integrate,
)
from .tf_core import RationalTF

__all__ = ["main", "entrypoint"]


def _complex_pairs(values) -> list[list[float]]:
    return [[complex(z).real, complex(z).imag] for z in values]


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


def _write_csv(path: str | None, header: str, rows):
    """Write a CSV to ``path``, or to stdout when ``path`` is None.

    The version comment and ``header`` come first, then ``rows`` in blocks of
    :data:`_CSV_ROWS`, so the whole text is never held at once.  ``rows`` is
    either a 2-D float array, each block one call of
    :func:`mfa.csvtext.format_block`, which gives the bytes of
    ``format(x, ".17g")`` for every value, ``-0``, ``inf`` and ``nan``
    included, or a list of ready text lines.
    """
    if isinstance(rows, np.ndarray):
        # imported here: its tables take about a megabyte and a few
        # milliseconds to build, which the JSON commands and maps do not use
        from .csvtext import format_block as block_data
    else:
        block_data = "".join
    _write_text(path, header, (block_data(rows[i:i + _CSV_ROWS])
                               for i in range(0, len(rows), _CSV_ROWS)))


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


@contextmanager
def _input_file(path: str):
    """Open ``path`` for reading; a ``KeyError`` or ``TypeError`` raised while
    the block reads its fields becomes :class:`_MalformedInput`."""
    with open(path) as fh:
        try:
            yield fh
        except KeyError as exc:
            raise _MalformedInput(f"{path}: missing field {exc}") from None
        except TypeError as exc:
            raise _MalformedInput(f"{path}: malformed input: {exc}") from None


def _finite(path: str, token: str, kind=float):
    """``kind(token)`` for a number of the input file ``path``; a number that
    is not a finite float (NaN, Infinity, 1e999, an integer of 400 digits)
    raises a ``ValueError`` naming the file."""
    if not math.isfinite(float(token)):
        raise ValueError(f"{path}: requires finite numbers, got {token}")
    return kind(token)


def _finite_json(path: str, text: str):
    """JSON ``text`` of the input file ``path``, every number checked by
    :func:`_finite`."""
    number = functools.partial(_finite, path)
    return json.loads(text, parse_float=number, parse_constant=number,
                      parse_int=lambda token: number(token, int))


def _read_load(path: str):
    """Load and interface gains of the load file ``path``.  An integer too
    large for a float is refused by :func:`_finite`; NaN, Infinity and 1e999
    reach the load's own checks, whose messages name the field."""
    with _input_file(path) as fh:
        return load_from_json(json.loads(fh.read(),
                                         parse_int=lambda token: _finite(path, token, int)))


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
    n0, n1 = (*loop.g1.num.coeffs, 0.0)[:2]
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
    _write_csv(args.output, "k,beta,regime,k0_bar,k2_bar,n_equilibria,n_unstable", lines)
    return 0


# ---------------------------------------------------------------------------
# simulate

def _read_schedule(args) -> InputSchedule:
    if args.schedule is not None:
        with _input_file(args.schedule) as fh:
            return InputSchedule.from_json(_finite_json(args.schedule, fh.read()))
    return InputSchedule.constant(args.r)


def _parse_ic(text: str | None, dim: int) -> tuple[float, ...]:
    """The ``--ic`` components, or the zero state when ``text`` is None."""
    if text is None:
        return (0.0,) * dim
    parts = [float(v) for v in text.split(",")]
    if len(parts) != dim:
        raise ValueError(f"requires {dim} initial-condition components")
    return tuple(parts)


def _format_from(pipe, out) -> bool:
    """Append to ``out`` the text of each row block read from ``pipe``, sent
    as its int64 shape and then its float64 values, up to the end-of-data
    shape (0, 0), in :func:`mfa.csvtext.format_block` calls of
    :data:`_CSV_ROWS` rows; False when the pipe ends before it."""
    from .csvtext import format_block

    while True:
        head = pipe.read(16)
        if len(head) < 16:
            return False
        rows, cols = np.frombuffer(head, np.int64).tolist()
        if rows == 0:
            return True
        data = pipe.read(8 * rows * cols)
        if len(data) < 8 * rows * cols:
            return False
        block = np.frombuffer(data).reshape(rows, cols)
        for i in range(0, rows, _CSV_ROWS):
            out.write(format_block(block[i:i + _CSV_ROWS]))


def _run_forked(run, text):
    """``run(sink)`` with a sink that sends each block down a pipe to a
    forked formatter, which appends its text to the file ``text``
    (:func:`_format_from`) while ``run`` goes on; the formatter is reaped on
    every path.  None, and ``run`` not called, when no process can be
    forked."""
    import fcntl
    import os
    import warnings

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
        return None
    if pid == 0:
        status = 1
        try:
            import gc
            # a collection would write to every object's page of the
            # parent's heap and so copy it
            gc.disable()
            os.close(write_end)
            with open(read_end, "rb") as pipe:
                if _format_from(pipe, text):
                    text.flush()
                    status = 0
        finally:
            os._exit(status)
    os.close(read_end)
    pipe = open(write_end, "wb")

    def send(block):
        pipe.write(np.array(block.shape, np.int64).tobytes())
        pipe.write(np.ascontiguousarray(block, float))
        pipe.flush()
    try:
        traj = run(send)
        pipe.write(bytes(16))
        pipe.flush()
    except BrokenPipeError:
        pass  # the formatter stopped early: its exit code says so below
    finally:
        with suppress(BrokenPipeError):  # the descriptor is closed even so
            pipe.close()
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise OSError("trajectory CSV formatter failed with exit code "
                      f"{os.waitstatus_to_exitcode(status)}")
    return traj


def _write_trajectory(path: str | None, run) -> Trajectory:
    """Call ``run(sink)``, which integrates a trajectory and, unless ``sink``
    is None, hands it the trajectory's rows block by block; write the
    trajectory's CSV to ``path``, or to stdout when ``path`` is None, and
    return it.

    Where ``os.fork`` exists and the process may use two CPUs, a forked
    formatter makes each block's text while ``run`` integrates the next
    (:func:`_run_forked`), into an unnamed temporary file that is copied to
    the destination once the run has ended, so the temporary directory
    needs room for the whole CSV.  Otherwise, or when the fork fails, the
    finished trajectory's arrays are formatted straight to the destination
    (:func:`_write_csv`).  The bytes are the same either way, and the
    destination is opened only after ``run`` returns, so a run that fails
    writes nothing; a formatter that fails is an ``OSError`` naming it.
    """
    import os
    import tempfile

    # on one CPU the formatter would only take turns with the integrator,
    # and the pipe and the copy would come on top
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if hasattr(os, "fork") and (cpus or 1) > 1:
        with tempfile.TemporaryFile() as text:
            traj = _run_forked(run, text)
            if traj is not None:
                text.seek(0)
                _write_text(path, ",".join(["t", *traj.labels, "y", *traj.extra]),
                            iter(functools.partial(text.read, 1 << 20), b""))
                return traj
    traj = run(None)
    _write_csv(path, ",".join(["t", *traj.labels, "y", *traj.extra]),
               np.column_stack([traj.t, traj.states, traj.y, *traj.extra.values()]))
    return traj


def _simulate(loop: LureLoop, args) -> Trajectory:
    """Trajectory of ``loop`` from the schedule, initial condition and step
    flags, written as CSV unless only ``--detect`` is asked for; without
    ``--dt`` the integrator picks the step from the loop."""
    if args.detect and not 0.0 <= args.transient_fraction < 1.0:
        raise ValueError("requires 0 <= transient_fraction < 1")
    schedule = _read_schedule(args)
    ic = _parse_ic(args.ic, loop.ss.dim)

    def run(sink=None):
        return integrate(loop.ss, ic, schedule, dt=args.dt, t_end=args.t_end, sink=sink)
    if args.output is None and args.detect:
        return run()
    return _write_trajectory(args.output, run)


def cmd_simulate(args) -> int:
    traj = _simulate(LureLoop.amplifier(args.tau_l, args.tau_p, args.tau_n, args.k, args.beta,
                                        args.nonlinearity), args)
    if args.detect:
        report = detect_oscillation(traj, transient_fraction=args.transient_fraction,
                                    amp_threshold=args.amp_threshold)
        bounded = boundedness_check(
            traj, r_max=traj.schedule.max_abs_value,
            settle_time=10.0 * max(args.tau_l, args.tau_p, args.tau_n))
        _print_json({**dataclasses.asdict(report), "bounded": bounded})
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
        g = RationalTF(args.k * g1.num, g1.den, g1.den_roots)
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
    _write_csv(args.output, "omega,re,im",
               nyquist_locus(g, lam, np.geomspace(lo, hi, args.grid_points)))
    return 0


# ---------------------------------------------------------------------------
# multichannel

def cmd_multichannel(args) -> int:
    with _input_file(args.bank) as fh:
        bank_data = _finite_json(args.bank, fh.read())
        tau_l, pos, neg, k, beta = bank_from_json(bank_data)
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
            "amplifier_certificate": c_amp.to_json_dict(),
            "load_certificate": c_load.to_json_dict(),
            "composition": comp.to_json_dict(),
            "loop_certificate": c_tot.to_json_dict(),
            "equilibria": _equilibrium_dicts(equilibria),
        })
        return 0
    traj = _simulate(loop, args)
    if args.detect:
        rep_y = detect_oscillation(traj, transient_fraction=args.transient_fraction,
                                   amp_threshold=args.amp_threshold)
        rep_ye = detect_oscillation(dataclasses.replace(traj, y=traj.extra["ye"]),
                                    transient_fraction=args.transient_fraction,
                                    amp_threshold=args.amp_threshold)
        _print_json({"y": dataclasses.asdict(rep_y), "ye": dataclasses.asdict(rep_ye)})
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
    sys.exit(main())
