"""Command-line surface: analyses as subcommands emitting CSV or JSON.

Output is deterministic: identical flags give byte-identical output.  CSV
files carry a ``#`` version comment, full-precision (17 significant digit)
values, and ``.`` decimals.  JSON uses the tags "unbounded" for an infinite
critical gain and "infinite" for a zero or frequency at infinity.  Exit
codes: 0 success, 2 invalid parameters (a run too large to allocate
included), 3 file/parse errors, 4 numerical errors.  CSV output is streamed
in chunks of rows, never built as one string.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .equilibria import (
    REGIME_UNCLASSIFIED,
    Equilibrium,
    classify_stability,
    dc_loop_gain,
    dominance_map,
    find_equilibria,
    regime_from_parts,
    solve_phi_line,
)
from .freq_analysis import (
    FrequencyGrid,
    check_p_passivity,
    count_unstable_shifted_poles,
    critical_balance,
    critical_gain,
    default_grid,
    midpoint_rate,
    min_real_part,
    nyquist_locus,
    select_rate,
)
from .interconnect import (
    assemble_closed_loop,
    check_load_passivity,
    compose_certificates,
    find_equilibria_interconnected,
    interconnection_openloop,
    load_from_json,
    load_tf,
)
from .multichannel import (
    bank_critical_balance,
    bank_from_json,
    build_extended_openloop,
    check_interlacing,
    realize_diagonal,
)
from .sim import (
    InputSchedule,
    Trajectory,
    boundedness_check,
    detect_oscillation,
    integrate,
    linearize,
)
from .tf_core import (
    AmplifierParams,
    get_nonlinearity,
    tf_build_mixed,
    tf_zero_mixed,
)

__all__ = ["main", "entrypoint", "build_analysis_report"]


def _tag_gain(x: float):
    if math.isinf(x):
        return "unbounded"
    if math.isnan(x):
        return None
    return x


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


#: Rows per formatted chunk of CSV output.
_CSV_ROWS = 4096


def _write_csv(path: str | None, header: str, row_format: str, rows):
    """Write a CSV to ``path``, or to stdout when ``path`` is None.

    The version comment and ``header`` come first, then ``rows`` (a 2-D float
    array or a list of row tuples) in chunks of :data:`_CSV_ROWS`, each chunk
    formatted by one ``%`` operation with ``row_format`` repeated per row, so
    the whole text is never held at once.  ``%.17g`` gives the same text as
    ``format(x, ".17g")``, ``-0``, ``inf`` and ``nan`` included.
    """
    out = sys.stdout if path is None else open(path, "w")
    try:
        out.write(f"# mfa {__version__}\n{header}\n")
        for i in range(0, len(rows), _CSV_ROWS):
            chunk = rows[i:i + _CSV_ROWS]
            if isinstance(chunk, np.ndarray):
                values = chunk.ravel().tolist()
            else:
                values = [v for row in chunk for v in row]
            out.write((row_format * len(chunk)) % tuple(values))
    finally:
        if path is not None:
            out.close()


def _print_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# analyze

def build_analysis_report(params: AmplifierParams, r: float,
                          lam: float | None) -> dict:
    """Aggregate poles/zero/critical quantities/equilibria/regime for one point."""
    policy = "midpoint" if lam is None else "user"
    if lam is None:
        lam = select_rate(params)
    g = tf_build_mixed(params)
    g1 = tf_build_mixed(params.with_gain(1.0))
    poles = g1.poles()
    zero = tf_zero_mixed(params) if params.k > 0 else None
    equilibria = tuple(find_equilibria(params, r))
    k0_bar = critical_gain(params, 0.0, 0)
    inertia = count_unstable_shifted_poles(g1, lam)
    if inertia == 2:
        k2_bar = critical_gain(params, lam, 2)
    else:
        k2_bar = math.nan
    if inertia == 2:
        regime, reason = regime_from_parts(params.k, k0_bar, k2_bar, equilibria)
    else:
        regime, reason = REGIME_UNCLASSIFIED, "shifted inertia != 2"
    return {
        "tool": "mfa",
        "version": __version__,
        "params": {
            "tau_l": params.tau_l, "tau_p": params.tau_p, "tau_n": params.tau_n,
            "k": params.k, "beta": params.beta, "r": r,
            "nonlinearity": params.nonlinearity,
        },
        "poles": _complex_pairs(poles),
        "zeros": _complex_pairs(g.zeros()) if params.k > 0 else [],
        "zero": zero,
        "beta_star": critical_balance(params.tau_p, params.tau_n),
        "lambda": lam,
        "lambda_policy": policy,
        "shifted_unstable_poles": inertia,
        "g0": dc_loop_gain(params),
        "k0_bar": _tag_gain(k0_bar),
        "k2_bar": _tag_gain(k2_bar),
        "equilibria": _equilibrium_dicts(equilibria),
        "regime": regime,
        "reason": reason,
        "min_re_method": "stationary_points",
    }


def _amp_from_args(args) -> AmplifierParams:
    return AmplifierParams(args.tau_l, args.tau_p, args.tau_n, args.k,
                           args.beta, nonlinearity=args.nonlinearity)


def cmd_analyze(args) -> int:
    params = _amp_from_args(args)
    _print_json(build_analysis_report(params, args.r, args.lam))
    return 0


# ---------------------------------------------------------------------------
# map

def cmd_map(args) -> int:
    ks = np.geomspace(args.k_min, args.k_max, args.rows)
    betas = np.linspace(args.beta_min, args.beta_max, args.cols)
    cells = dominance_map(args.tau_l, args.tau_p, args.tau_n, ks, betas,
                          r=args.r, lam=args.lam, nonlinearity=args.nonlinearity)
    rows = [(k, beta, cell.regime, cell.k0_bar, cell.k2_bar,
             cell.n_equilibria, cell.n_unstable)
            for k, row in zip(ks, cells) for beta, cell in zip(betas, row)]
    _write_csv(args.output, "k,beta,regime,k0_bar,k2_bar,n_equilibria,n_unstable",
               "%.17g,%.17g,%s,%.17g,%.17g,%d,%d\n", rows)
    return 0


# ---------------------------------------------------------------------------
# simulate

def _read_schedule(args) -> InputSchedule:
    if args.schedule is not None:
        with open(args.schedule) as fh:
            return InputSchedule.from_json(fh.read())
    return InputSchedule.constant(args.r)


def _parse_ic(text: str, dim: int) -> tuple[float, ...]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != dim:
        raise ValueError(f"requires {dim} initial-condition components")
    return tuple(parts)


def _write_trajectory(traj: Trajectory, path: str | None):
    cols = ["t", *traj.labels, "y", *traj.extra.keys()]
    data = np.column_stack([traj.t, traj.states, traj.y, *traj.extra.values()])
    _write_csv(path, ",".join(cols), ",".join(["%.17g"] * len(cols)) + "\n", data)


def cmd_simulate(args) -> int:
    params = _amp_from_args(args)
    schedule = _read_schedule(args)
    ic = _parse_ic(args.ic, 3)
    traj = integrate(params, ic, schedule, dt=args.dt, t_end=args.t_end)
    if args.output is not None or not args.detect:
        _write_trajectory(traj, args.output)
    if args.detect:
        report = detect_oscillation(traj, transient_fraction=args.transient_fraction,
                                    amp_threshold=args.amp_threshold)
        bounded = boundedness_check(
            traj, r_max=schedule.max_abs_value,
            settle_time=10.0 * max(params.taus))
        out = report.to_json_dict()
        out["bounded"] = bounded
        _print_json(out)
    return 0


# ---------------------------------------------------------------------------
# nyquist

def cmd_nyquist(args) -> int:
    if args.load is not None:
        with open(args.load) as fh:
            load, _ = load_from_json(fh.read())
        g = load_tf(load)
    else:
        for name in ("tau_l", "tau_p", "tau_n", "k", "beta"):
            if getattr(args, name) is None:
                raise ValueError("requires --load or the full amplifier parameter set")
        g = tf_build_mixed(_amp_from_args(args))
    lam = args.lam if args.lam is not None else 0.0
    if args.omega_min is not None and args.omega_max is not None:
        grid = FrequencyGrid(args.omega_min, args.omega_max, args.grid_points)
    else:
        grid = default_grid(g, lam, n_points=args.grid_points)
    locus = nyquist_locus(g, lam, grid)
    rows = [(p.omega, p.re, p.im) for p in locus]
    _write_csv(args.output, "omega,re,im", "%.17g,%.17g,%.17g\n", rows)
    return 0


# ---------------------------------------------------------------------------
# multichannel

def cmd_multichannel(args) -> int:
    with open(args.bank) as fh:
        bank_data = json.loads(fh.read())
    tau_l, pos, neg, k, beta = bank_from_json(bank_data)
    gbar = build_extended_openloop(tau_l, pos, neg, k, beta)
    g1 = build_extended_openloop(tau_l, pos, neg, 1.0, beta)
    poles = g1.poles()
    lam = args.lam if args.lam is not None else midpoint_rate(poles)
    inertia = count_unstable_shifted_poles(g1, lam)
    min_re0, _ = min_real_part(g1, 0.0)
    k0_bar = math.inf if min_re0 >= 0.0 else -1.0 / min_re0
    if inertia == 2:
        min_re2, _ = min_real_part(g1, lam)
        k2_bar = math.inf if min_re2 >= 0.0 else -1.0 / min_re2
    else:
        k2_bar = math.nan
    g0 = k * (2.0 * beta - 1.0)
    phi, _, slope_inverse = get_nonlinearity(args.nonlinearity)
    ss = realize_diagonal(tau_l, pos, neg, k, beta)
    ys = [0.0] if g0 == 0.0 else solve_phi_line(phi, 1.0 / g0, args.r, slope_inverse)
    equilibria = []
    for y in ys:
        x = args.r - phi(y)
        state = tuple([x] * ss.dim)
        eigs = [complex(e) for e in np.linalg.eigvals(linearize(ss, y))]
        eigs.sort(key=lambda z: (z.real, z.imag))
        equilibria.append(Equilibrium(float(y), state, tuple(eigs),
                                      classify_stability(eigs)))
    if inertia == 2:
        regime, reason = regime_from_parts(k, k0_bar, k2_bar, equilibria)
    else:
        regime, reason = REGIME_UNCLASSIFIED, "shifted inertia != 2"
    interlacing = check_interlacing(pos, neg, beta) if 0.0 < beta < 1.0 else None
    report = {
        "tool": "mfa",
        "version": __version__,
        "bank": bank_data,
        "poles": _complex_pairs(poles),
        "zeros": _complex_pairs(gbar.zeros()) if k > 0 else [],
        "beta_star": bank_critical_balance(pos, neg),
        "lambda": lam,
        "lambda_policy": "midpoint" if args.lam is None else "user",
        "shifted_unstable_poles": inertia,
        "g0": g0,
        "k0_bar": _tag_gain(k0_bar),
        "k2_bar": _tag_gain(k2_bar),
        "equilibria": _equilibrium_dicts(equilibria),
        "regime": regime,
        "reason": reason,
        "interlacing": interlacing.to_json_dict() if interlacing else None,
    }
    _print_json(report)
    return 0


# ---------------------------------------------------------------------------
# interconnect

def cmd_interconnect(args) -> int:
    with open(args.load) as fh:
        load, iface = load_from_json(fh.read())
    amp = _amp_from_args(args)
    lam = args.lam if args.lam is not None else select_rate(amp)
    if args.certify:
        c_amp = check_p_passivity(tf_build_mixed(amp), lam, 2)
        c_load = check_load_passivity(load, lam)
        comp = compose_certificates(c_amp, c_load)
        gtot = interconnection_openloop(amp, load, iface)
        c_tot = check_p_passivity(gtot, lam, comp.p_total)
        equilibria = find_equilibria_interconnected(amp, load, iface, args.r)
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
    schedule = _read_schedule(args)
    ic = _parse_ic(args.ic, 5)
    dt = args.dt if args.dt is not None else min(amp.taus) / 20.0
    ss = assemble_closed_loop(amp, load, iface)
    traj = integrate(ss, ic, schedule, dt=dt, t_end=args.t_end)
    if args.output is not None or not args.detect:
        _write_trajectory(traj, args.output)
    if args.detect:
        rep_y = detect_oscillation(traj, transient_fraction=args.transient_fraction,
                                   amp_threshold=args.amp_threshold)
        traj_ye = Trajectory(traj.t, traj.states, traj.extra["ye"],
                             traj.schedule, traj.labels)
        rep_ye = detect_oscillation(traj_ye, transient_fraction=args.transient_fraction,
                                    amp_threshold=args.amp_threshold)
        _print_json({"y": rep_y.to_json_dict(), "ye": rep_ye.to_json_dict()})
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_amp_flags(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--tau-l", dest="tau_l", type=float, required=required)
    p.add_argument("--tau-p", dest="tau_p", type=float, required=required)
    p.add_argument("--tau-n", dest="tau_n", type=float, required=required)
    p.add_argument("--k", type=float, required=required)
    p.add_argument("--beta", type=float, required=required)
    p.add_argument("--nonlinearity", default="tanh")


def _add_sim_flags(p: argparse.ArgumentParser, dim: int):
    p.add_argument("--schedule", help="input schedule JSON file")
    p.add_argument("--r", type=float, default=0.0,
                   help="constant reference when no schedule file is given")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=50.0)
    p.add_argument("--ic", default=",".join(["0"] * dim))
    p.add_argument("--detect", action="store_true",
                   help="print an oscillation report JSON instead of CSV")
    p.add_argument("--transient-fraction", dest="transient_fraction",
                   type=float, default=0.5)
    p.add_argument("--amp-threshold", dest="amp_threshold",
                   type=float, default=1e-3)
    p.add_argument("--output", help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfa",
        description="Mixed feedback amplifier analysis and simulation")
    parser.add_argument("--version", action="version",
                        version=f"mfa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report (JSON)")
    _add_amp_flags(p)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("map", help="(gain, balance) regime map (CSV)")
    p.add_argument("--tau-l", dest="tau_l", type=float, required=True)
    p.add_argument("--tau-p", dest="tau_p", type=float, required=True)
    p.add_argument("--tau-n", dest="tau_n", type=float, required=True)
    p.add_argument("--nonlinearity", default="tanh")
    p.add_argument("--k-min", dest="k_min", type=float, required=True)
    p.add_argument("--k-max", dest="k_max", type=float, required=True)
    p.add_argument("--beta-min", dest="beta_min", type=float, default=0.0)
    p.add_argument("--beta-max", dest="beta_max", type=float, default=1.0)
    p.add_argument("--rows", type=int, required=True, help="number of gain values")
    p.add_argument("--cols", type=int, required=True, help="number of balance values")
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted and ignored: maps run serially")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("simulate", help="integrate the amplifier (CSV)")
    _add_amp_flags(p)
    _add_sim_flags(p, dim=3)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("nyquist", help="shifted Nyquist locus (CSV)")
    _add_amp_flags(p, required=False)
    p.add_argument("--load", help="load JSON file (use the load transfer function)")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=2000)
    p.add_argument("--omega-min", dest="omega_min", type=float, default=None)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=None)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_nyquist)

    p = sub.add_parser("multichannel", help="channel-bank analysis report (JSON)")
    p.add_argument("--bank", required=True, help="bank JSON file")
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--nonlinearity", default="tanh")
    p.set_defaults(func=cmd_multichannel)

    p = sub.add_parser("interconnect",
                       help="amplifier + load loop: simulate or certify")
    _add_amp_flags(p)
    p.add_argument("--load", required=True,
                   help="load JSON file with a, b, kv, kp, ki, ko")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--certify", action="store_true",
                   help="print passivity/composition certificates (JSON)")
    _add_sim_flags(p, dim=5)
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
    except (OSError, json.JSONDecodeError) as exc:
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
