"""Command-line surface: exit codes, formats, determinism, round trips."""

import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import RECIPES_DIR, WIDE_LOOPS, fold_point, reference_map_text, wide_loop

import mfa.cli as cli
import mfa.csvtext as csvtext
import mfa.sim as sim
from mfa import __version__
from mfa.cli import main
from mfa.equilibria import LureLoop, dominance_map
from mfa.freq_analysis import midpoint_rate
from mfa.multichannel import Channel, ChannelBank
from mfa.sim import InputSchedule, Trajectory

AMP_FLAGS = ["--tau-l", "0.01", "--tau-p", "0.1", "--tau-n", "1"]
LOAD_JSON = os.path.join(RECIPES_DIR, "data", "load_msd.json")
BANK_SINGLE = os.path.join(RECIPES_DIR, "data", "bank_single.json")
PULSE_JSON = os.path.join(RECIPES_DIR, "data", "pulse_return.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _strict_json(text: str):
    """``text`` parsed as strict JSON: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestAnalyze:
    def test_zero_dominant_case(self, capsys):
        code, out = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5",
                                 "--beta", "0.2", "--lambda", "50"])
        assert code == 0
        rep = json.loads(out)
        assert rep["regime"] == "ZeroDominantStable"
        assert rep["k2_bar"] == "unbounded"

    def test_oscillation_case(self, capsys):
        code, out = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5",
                                 "--beta", "0.4", "--lambda", "50"])
        assert json.loads(out)["regime"] == "TwoDominantOscillation"

    def test_invalid_parameters_exit_2(self, capsys):
        code = main(["analyze", "--tau-l", "0.01", "--tau-p", "1",
                     "--tau-n", "0.5", "--k", "5", "--beta", "0.2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "requires tau_p < tau_n" in err

    def test_numerical_error_exit_4(self, capsys):
        code = main(["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.2",
                     "--lambda", "10"])  # rate exactly on a pole
        assert code == 4

    def test_pole_on_axis_at_rate_zero_unclassified(self, capsys):
        # a 1e10 s lag puts a pole at -1e-10, within 1e-9 of the axis at
        # rate 0, where k0_bar is taken
        code, out = run(capsys, ["analyze", "--tau-l", "0.01", "--tau-p", "0.1",
                                 "--tau-n", "1e10", "--k", "5", "--beta", "0.4"])
        rep = json.loads(out)
        assert code == 0
        assert rep["regime"] == "Unclassified"
        assert rep["reason"] == "pole on shifted imaginary axis"
        assert rep["k0_bar"] is None and rep["k2_bar"] is None

    def test_negative_value_in_exponent_form(self, capsys):
        args = ["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--r"]
        code, exponent = run(capsys, [*args, "-1e-05"])
        assert code == 0
        assert exponent == run(capsys, [*args, "-0.00001"])[1]

    def test_json_round_trip_bit_identical(self, capsys):
        _, out = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5",
                              "--beta", "0.8", "--lambda", "50"])
        rep = json.loads(out)
        assert json.dumps(rep, indent=2) + "\n" == out

    def test_determinism(self, capsys):
        args = ["analyze", *AMP_FLAGS, "--k", "3", "--beta", "0.6"]
        _, out1 = run(capsys, args)
        _, out2 = run(capsys, args)
        assert out1 == out2

    def test_min_re_method_reported(self, capsys):
        _, out = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5",
                              "--beta", "0.4", "--lambda", "50"])
        rep = json.loads(out)
        assert rep["min_re_method"] == "stationary_points"
        assert "grid" not in rep

    def test_grid_points_only_on_nyquist(self, capsys):
        for argv in (["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4"],
                     ["multichannel", "--bank", BANK_SINGLE]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--grid-points", "64"])
            assert exc.value.code == 2

    def test_regime_recomputable_from_report(self, capsys):
        _, out = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5",
                              "--beta", "0.8", "--lambda", "50"])
        rep = json.loads(out)
        k = rep["params"]["k"]
        k0 = rep["k0_bar"]
        k2 = math.inf if rep["k2_bar"] == "unbounded" else rep["k2_bar"]
        stabs = [e["stability"] for e in rep["equilibria"]]
        if k < k0:
            expected = "ZeroDominantStable"
        elif k < k2:
            expected = ("TwoDominantMultistable" if "stable" in stabs
                        else "TwoDominantOscillation")
        else:
            expected = "Unclassified"
        assert rep["regime"] == expected


class TestMap:
    def test_single_cell_matches_analyze(self, capsys):
        _, out_map = run(capsys, ["map", *AMP_FLAGS, "--k-min", "5", "--k-max", "5",
                                  "--rows", "1", "--beta-min", "0.4",
                                  "--beta-max", "0.4", "--cols", "1",
                                  "--lambda", "50"])
        lines = [l for l in out_map.splitlines() if not l.startswith("#")]
        row = lines[1].split(",")
        _, out_an = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5",
                                 "--beta", "0.4", "--lambda", "50"])
        rep = json.loads(out_an)
        assert row[2] == rep["regime"]
        assert float(row[3]) == pytest.approx(rep["k0_bar"])
        assert row[4] == "inf" and rep["k2_bar"] == "unbounded"
        assert int(row[5]) == len(rep["equilibria"])

    def test_header_and_determinism(self, capsys):
        args = ["map", *AMP_FLAGS, "--k-min", "0.5", "--k-max", "50",
                "--rows", "3", "--cols", "4", "--lambda", "50"]
        _, out1 = run(capsys, args)
        _, out2 = run(capsys, args)
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0].startswith("# mfa ")
        assert lines[1] == "k,beta,regime,k0_bar,k2_bar,n_equilibria,n_unstable"
        assert len(lines) == 2 + 3 * 4

    def test_pole_on_axis_at_rate_zero_unclassified(self, capsys):
        code, out = run(capsys, ["map", "--tau-l", "0.01", "--tau-p", "0.1",
                                 "--tau-n", "1e10", "--k-min", "0.5", "--k-max", "50",
                                 "--rows", "3", "--cols", "2"])
        rows = [l.split(",") for l in out.splitlines()[2:]]
        assert code == 0 and len(rows) == 6
        for row in rows:
            assert row[2:] == ["Unclassified", "nan", "nan", "0", "0"]

    def test_jobs_accepted_and_ignored(self, capsys):
        args = ["map", *AMP_FLAGS, "--k-min", "0.5", "--k-max", "50",
                "--rows", "3", "--cols", "4", "--lambda", "50"]
        _, serial = run(capsys, args)
        code, with_jobs = run(capsys, [*args, "--jobs", "2"])
        assert code == 0 and with_jobs == serial


MAP_FLAGS = ["map", *AMP_FLAGS, "--k-min", "0.5", "--k-max", "50", "--lambda", "50"]


def _map_case(i, rng):
    """Seeded map flags: random lags (a 1e10 s lag, whose columns are
    Unclassified with nan gains, every fourth case), gains, balances and
    grid sizes, with a reference r != 0 and a user rate in some."""
    tp = float(10.0 ** rng.uniform(-2.0, 0.0))
    taus = (float(10.0 ** rng.uniform(-3.0, 1.0)), tp,
            1e10 if i % 4 == 0 else tp * float(10.0 ** rng.uniform(0.1, 1.5)))
    rows, cols = [(1, 1), (3, 4), (60, 1), (5, 7)][i % 4]
    argv = ["map", "--tau-l", repr(taus[0]), "--tau-p", repr(taus[1]), "--tau-n",
            repr(taus[2]), "--k-min", repr(float(10.0 ** rng.uniform(-2.0, 0.0))),
            "--k-max", repr(float(10.0 ** rng.uniform(1.0, 3.0))),
            "--rows", str(rows), "--cols", str(cols)]
    if i % 3 == 1:
        argv += ["--r", repr(float(rng.uniform(-1.0, 1.0)))]
    if i % 5 == 2:
        argv += ["--lambda", repr(float(10.0 ** rng.uniform(0.0, 2.0))), "--nonlinearity", "atan"]
    return argv


class TestMapText:
    """The map's rows, formatted once per gain and per column, have the bytes
    of the one-format-per-cell reference."""

    @staticmethod
    def expected(argv):
        args = cli.build_parser().parse_args(argv)
        ks = np.geomspace(args.k_min, args.k_max, args.rows)
        betas = np.linspace(args.beta_min, args.beta_max, args.cols)
        cells = dominance_map(args.tau_l, args.tau_p, args.tau_n, ks, betas, r=args.r,
                              lam=args.lam, nonlinearity=args.nonlinearity)
        text = reference_map_text(ks, betas, cells)
        return (f"# mfa {__version__}\nk,beta,regime,k0_bar,k2_bar,n_equilibria,"
                f"n_unstable\n{text}"), cells

    def check(self, capsys, tmp_path, argv):
        want, cells = self.expected(argv)
        code, out = run(capsys, argv)
        assert code == 0 and out == want
        dest = tmp_path / "map.csv"
        assert run(capsys, [*argv, "--output", str(dest)]) == (0, "")
        assert dest.read_bytes() == want.encode()
        return cells

    def test_seeded_grids(self, capsys, tmp_path):
        rng = np.random.default_rng(1503)
        regimes = set()
        for i in range(40):
            cells = self.check(capsys, tmp_path, _map_case(i, rng))
            regimes |= {(c.regime, c.reason) for row in cells for c in row}
        assert ("Unclassified", "pole on shifted imaginary axis") in regimes
        assert {"ZeroDominantStable", "TwoDominantOscillation"} <= {r for r, _ in regimes}

    @pytest.mark.parametrize("extra", [
        ["--rows", "1", "--cols", "1", "--beta-min", "0.2", "--beta-max", "0.2"],
        ["--rows", "3", "--cols", "4"],
        ["--rows", "60", "--cols", "1", "--beta-min", "0.4", "--beta-max", "0.4"],
        ["--rows", "4", "--cols", "3", "--r", "-0.3"],
    ], ids=["1x1", "3x4", "60x1", "r"])
    def test_fixed_grids(self, capsys, tmp_path, extra):
        cells = self.check(capsys, tmp_path, [*MAP_FLAGS, *extra])
        if "0.2" in extra:
            # an unbounded k2_bar prints as inf
            assert math.isinf(cells[0][0].k2_bar)


class TestInputChecks:
    """Bad map and point inputs exit 2 with an error line."""

    @pytest.mark.parametrize("size", [["--rows", "0", "--cols", "3"],
                                      ["--rows", "3", "--cols", "0"],
                                      ["--rows", "-3", "--cols", "3"],
                                      ["--rows", "3", "--cols", "-2"]])
    def test_empty_map_exit_2(self, capsys, size):
        code = main([*MAP_FLAGS, *size])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "at least one gain" in captured.err

    @pytest.mark.parametrize("gains", [["--k-min", "-1", "--k-max", "10"],
                                       ["--k-min", "1", "--k-max", "-5"],
                                       ["--k-min", "1", "--k-max", "0"]])
    @pytest.mark.filterwarnings("error")
    def test_non_positive_gain_exit_2(self, capsys, gains):
        # refused before the grid is built, so numpy neither warns nor words
        # the error
        code = main(["map", *AMP_FLAGS, *gains, "--rows", "3", "--cols", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: requires positive gains\n")

    @pytest.mark.parametrize("argv", [
        [*MAP_FLAGS, "--rows", "3", "--cols", "3", "--r", "nan"],
        ["map", *AMP_FLAGS, "--k-min", "0.5", "--k-max", "inf", "--rows", "3", "--cols", "3"],
        [*MAP_FLAGS, "--rows", "3", "--cols", "3", "--beta-min", "nan"],
        ["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--r", "nan"],
        ["analyze", *AMP_FLAGS, "--k", "inf", "--beta", "0.4"],
        ["multichannel", "--bank", BANK_SINGLE, "--r", "inf"],
        ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--load", LOAD_JSON,
         "--certify", "--r", "inf"],
    ])
    def test_non_finite_value_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "error: argument --" in captured.err
        assert "requires a finite number" in captured.err

    def test_map_negative_value_in_exponent_form(self, capsys):
        args = [*MAP_FLAGS, "--rows", "3", "--cols", "3", "--r"]
        code, exponent = run(capsys, [*args, "-6e-05"])
        assert code == 0
        assert exponent == run(capsys, [*args, "-0.00006"])[1]


class TestInputFiles:
    """An input file that parses but lacks a field, or has one of the wrong
    type, exits 3 with one error line, like a file that does not parse."""

    @pytest.mark.parametrize("command, content, expected", [
        (["multichannel", "--bank"],
         {"tau_l": 0.01, "positive": [{"rho": 1, "tau": 0.1}], "k": 5, "beta": 0.4},
         "missing field 'negative'"),
        (["multichannel", "--bank"], [], "malformed input"),
        (["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--certify", "--load"],
         {"a": 350, "b": 35, "kp": 20, "ki": 10, "ko": 1}, "missing field 'kv'"),
        (["nyquist", "--load"], {"a": 350, "b": 35, "kp": 20, "ki": 10, "ko": 1},
         "missing field 'kv'"),
        (["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--schedule"],
         {"t": 0, "r": 1}, "malformed input"),
        (["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--schedule"],
         [{"t": 0}], "missing field 'r'"),
    ], ids=["bank-without-negative", "bank-list", "interconnect-load-without-kv",
            "nyquist-load-without-kv", "schedule-object", "schedule-without-r"])
    def test_malformed_input_file_exit_3(self, capsys, tmp_path, command, content,
                                         expected):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code = main([*command, str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith(f"error: {path}: {expected}")
        assert captured.err.count("\n") == 1


class TestParserReuse:
    def test_one_parser_fresh_namespace_per_call(self, capsys, monkeypatch, tmp_path):
        built = []
        real_build = cli.build_parser

        def counting_build():
            built.append(1)
            return real_build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        monkeypatch.setattr(cli, "_parser", None)

        def fresh(argv):
            monkeypatch.setattr(cli, "_parser", None)
            return run(capsys, argv)

        map_args = ["map", *AMP_FLAGS, "--k-min", "0.5", "--k-max", "50",
                    "--rows", "3", "--cols", "4", "--lambda", "50"]
        dest = tmp_path / "map.csv"
        sched = tmp_path / "step.json"
        sched.write_text('[{"t": 0, "r": 0}, {"t": 0.5, "r": 0.3}]')
        sim_args = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                    "--dt", "0.001", "--t-end", "1"]

        assert run(capsys, [*map_args, "--output", str(dest)]) == (0, "")
        _, map_out = run(capsys, map_args)
        _, sim_sched = run(capsys, [*sim_args, "--schedule", str(sched)])
        _, sim_plain = run(capsys, sim_args)
        assert len(built) == 1

        assert map_out == dest.read_text() == fresh(map_args)[1]
        assert sim_plain == fresh(sim_args)[1]
        assert sim_sched != sim_plain
        assert len(built) == 3


class TestSimulate:
    def test_csv_columns(self, capsys):
        code, out = run(capsys, ["simulate", *AMP_FLAGS, "--k", "0",
                                 "--beta", "0.3", "--dt", "0.001",
                                 "--t-end", "0.01", "--ic", "1,0,0"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "t,x,xp,xn,y"
        assert len(lines) == 2 + 11

    def test_minus_zero_reference(self, capsys):
        # from a zero state, --r -0.0 runs as --r 0: only step 0 keeps a -0
        argv = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "1e-3",
                "--t-end", "0.05", "--ic", "-0.0,0,-0.0"]
        minus, plus = (run(capsys, [*argv, "--r", r]) for r in ("-0.0", "0"))
        assert minus == plus and minus[0] == 0
        rows = minus[1].splitlines()[2:]
        assert rows[0] == "0,-0,0,-0,0" and not any("-" in row for row in rows[1:])

    def test_schedule_file_and_detect(self, capsys, tmp_path):
        code, out = run(capsys, ["simulate", *AMP_FLAGS, "--k", "5",
                                 "--beta", "0.4", "--dt", "0.001",
                                 "--t-end", "40", "--ic", "0.1,0,0",
                                 "--detect"])
        rep = json.loads(out)
        assert rep["oscillating"] is True
        assert rep["bounded"] is True

    @pytest.mark.parametrize("detect", [[], ["--detect"]], ids=["csv", "detect"])
    def test_schedule_change_past_float_range_ignored(self, capsys, tmp_path, detect):
        # 1e308 / dt overflows to inf: the change lies beyond the horizon
        sched = tmp_path / "late.json"
        sched.write_text('[{"t": 0, "r": 0}, {"t": 1e308, "r": 1}]')
        argv = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "1e-3",
                "--t-end", "1", *detect]
        late = run(capsys, [*argv, "--schedule", str(sched)])
        assert late == run(capsys, argv) and late[0] == 0

    def test_detect_with_nothing_after_settling(self, capsys):
        # the settle time 10 * max(taus) = 100 s lies past t_end, and the
        # output stays exactly 0 from the zero state
        code, out = run(capsys, ["simulate", "--tau-l", "10", "--tau-p", "0.1",
                                 "--tau-n", "1", "--k", "5", "--beta", "0.4",
                                 "--t-end", "50", "--detect"])
        rep = json.loads(out)
        assert code == 0
        assert rep["bounded"] is None
        assert rep["n_crossings"] == 0 and rep["oscillating"] is False

    def test_missing_schedule_file_exit_3(self, capsys):
        code = main(["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                     "--schedule", "/nonexistent/sched.json"])
        assert code == 3

    def test_bad_schedule_json_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                     "--schedule", str(bad)])
        assert code == 3

    @pytest.mark.parametrize("flags, reason", [
        (["simulate", "--ic", "nan,0,0"], "finite initial condition"),
        (["simulate", "--t-end", "inf"], "finite t_end"),
        (["simulate", "--dt", "inf"], "finite dt"),
        (["interconnect", "--load", LOAD_JSON, "--dt", "inf"], "finite dt"),
        (["simulate", "--t-end", "1", "--dt", "0.1", "--ic", "1,nan,0"],
         "finite initial condition"),
        (["interconnect", "--load", LOAD_JSON, "--t-end", "1", "--dt", "0.1",
          "--ic", "1,inf,0,0,0"], "finite initial condition"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_inputs_exit_2(self, capsys, flags, reason):
        # dt, t_end and the initial condition are refused before the step
        # checks, so no warning precedes the one error line, even for a dt
        # the checks would warn about
        code = main([flags[0], *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                     "--t-end", "0.01", *flags[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4"],
        ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--detect"],
        ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--load", LOAD_JSON],
        ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--load", LOAD_JSON,
         "--detect"],
    ])
    def test_zero_steps_exit_2(self, capsys, argv):
        code = main([*argv, "--dt", "1e-3", "--t-end", "1e-9"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "zero steps" in captured.err

    def test_memory_error_exit_2(self, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "integrate", too_large)
        code = main(["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                     "--dt", "1e-9", "--t-end", "1e3"])
        assert code == 2
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"

    @pytest.mark.filterwarnings("error")
    def test_too_many_steps_exit_2(self, capsys):
        # the default step of lags near 1e-160 s gives 1e163 steps
        argv = ["simulate", "--tau-l", "1e-160", "--tau-p", "2e-160", "--tau-n", "3e-160",
                "--k", "5", "--beta", "0.4"]
        assert _outcome(capsys, argv) == (
            2, "", "error: t_end = 50 over dt = 5e-162 is 1e+163 steps, too many to store\n")

    @pytest.mark.parametrize("argv, expected", [
        # by default dt is one over the closed-loop radius at k = 1e5, which
        # trips neither check
        (["simulate", *AMP_FLAGS, "--k", "1e5", "--beta", "0.4", "--t-end", "0.05"],
         None),
        # dt = 5e-4 is within a fifth of tau_l, but the closed-loop radius at
        # k = 1e5 puts dt * rho at 2.94
        (["simulate", *AMP_FLAGS, "--k", "1e5", "--beta", "0.4", "--dt", "5e-4",
          "--t-end", "0.05"], "RK4 stability limit"),
        # dt * rho(A) = 0.005 * 100 = 0.5, while the closed loop stays within
        # the RK4 limit
        (["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--load", LOAD_JSON,
          "--dt", "0.005", "--t-end", "0.05"], "accuracy degraded"),
    ], ids=["simulate-default", "simulate-rk4", "interconnect-accuracy"])
    def test_step_checks_for_every_loop(self, capsys, argv, expected):
        # a step warning is a "warning:" line on stderr, not a Python warning
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code = main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert code == 0 and record == [] and len(lines) == (expected is not None)
        assert all(line.startswith("warning: ") and expected in line for line in lines)

    @pytest.mark.parametrize("steps, code, err", [
        (["--dt", "0.003", "--t-end", "1"], 0,
         "warning: dt above min time constant / 5; accuracy degraded\n"),
        (["--dt", "0.05", "--t-end", "100"], 4,
         "warning: dt above min time constant / 5; accuracy degraded\n"
         "warning: dt * spectral radius = 5.81 above the RK4 stability limit 2.78\n"
         "error: divergence at t=13.5\n"),
    ], ids=["accuracy", "divergence"])
    def test_step_warning_lines(self, capsys, steps, code, err):
        # the stderr names no file or line of the package, wherever it is
        # installed
        argv = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", *steps, "--ic", "0.1,0,0"]
        got = _outcome(capsys, argv)
        assert (got[0], got[2]) == (code, err)
        assert got[1].startswith(f"# mfa {__version__}\n") == (code == 0)

    def test_negative_initial_condition(self, capsys):
        # a comma list that starts with a negative number is a value, as
        # after "="; an unknown option is still refused
        args = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "0.001",
                "--t-end", "0.01"]
        code, spaced = run(capsys, [*args, "--ic", "-0.5,0,-2e-3"])
        assert code == 0
        assert spaced == run(capsys, [*args, "--ic=-0.5,0,-2e-3"])[1]
        assert spaced.splitlines()[2].startswith("0,-0.5,0,-0.002,")
        for extra in (["-x"], ["--ic", "-x"]):
            with pytest.raises(SystemExit) as exc:
                main([*args, *extra])
            assert exc.value.code == 2

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "traj.csv"
        code, out = run(capsys, ["simulate", *AMP_FLAGS, "--k", "0",
                                 "--beta", "0.3", "--dt", "0.001",
                                 "--t-end", "0.01", "--output", str(dest)])
        assert code == 0 and out == ""
        assert dest.read_text().splitlines()[1] == "t,x,xp,xn,y"


class TestCsvWriter:
    @pytest.mark.parametrize("argv", [
        ["map", *AMP_FLAGS, "--k-min", "0.5", "--k-max", "50", "--rows", "3",
         "--cols", "4", "--lambda", "50"],
        ["nyquist", "--load", LOAD_JSON, "--lambda", "15"],
        ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.8", "--dt", "1e-3",
         "--t-end", "5", "--ic", "0.1,0,0", "--schedule", PULSE_JSON],
        ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--load",
         LOAD_JSON, "--dt", "1e-3", "--t-end", "5", "--ic", "0.1,0,0,0,0"],
    ], ids=["map", "nyquist", "simulate", "interconnect"])
    def test_stdout_equals_output_file(self, capsys, tmp_path, argv):
        dest = tmp_path / "out.csv"
        assert run(capsys, [*argv, "--output", str(dest)]) == (0, "")
        code, out = run(capsys, argv)
        assert code == 0 and out == dest.read_text()
        assert out.startswith(f"# mfa {__version__}\n")

    @pytest.mark.parametrize("chunk_rows", [3, cli._CSV_ROWS])
    def test_trajectory_matches_fmt_reference(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(cli, "_CSV_ROWS", chunk_rows)
        special = [-0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
                   math.nan, 0.1, 1.0 / 3.0, 0.0]
        n = len(special)
        states = np.column_stack([special, special[::-1], np.linspace(-1.0, 1.0, n)])
        traj = Trajectory(np.arange(n) * 5e-4, states, np.array(special[3:] + special[:3]),
                          InputSchedule.constant(0.0), ("x", "xp", "xn"),
                          extra={"ye": -np.array(special)})
        data = np.column_stack([traj.t, traj.states, traj.y, traj.extra["ye"]])

        def run(sink):
            if sink is not None:
                sink(data[:4])
                sink(data[4:])
            return traj

        def _fmt(x):
            return format(float(x), ".17g")

        expected = "".join([f"# mfa {__version__}\n", "t,x,xp,xn,y,ye\n",
                            *(",".join(_fmt(v) for v in row) + "\n" for row in data)])
        assert "-0," in expected and "4.9406564584124654e-324" in expected
        assert "1e+308" in expected
        for transport in TRANSPORTS:
            _use_transport(monkeypatch, transport)
            dest = tmp_path / f"{transport}.csv"
            assert cli._write_trajectory(str(dest), "t,x,xp,xn,y,ye", run) is traj
            assert dest.read_text() == expected


#: The trajectory writer's two ways to make the text, where both exist, and
#: the inline one after a fork that fails.
TRANSPORTS = ["forked", "fork_fails", "inline"] if hasattr(os, "fork") else ["inline"]


#: Where the trajectory writer reads the CPU its thread runs on.
THREAD_STAT = "/proc/thread-self/stat"


def _use_transport(monkeypatch, transport):
    """Make the trajectory writer fork its formatter, as with two usable
    CPUs, or format inline, as with one or where the fork fails.  The CPU
    mask it reads is faked, so its pins are only recorded, never made: a
    list of the ``(pid, cpus)`` of each ``os.sched_setaffinity`` call."""
    def fork():
        raise BlockingIOError("Resource temporarily unavailable")

    pins = []
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0} if transport == "inline" else {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: pins.append((pid, set(cpus))), raising=False)
    if transport == "fork_fails":
        monkeypatch.setattr(os, "fork", fork)
    return pins


def _forks(monkeypatch):
    """A list that gets an entry at each ``os.fork`` call from now on."""
    calls = []
    if hasattr(os, "fork"):
        fork = os.fork

        def counted():
            calls.append(1)
            return fork()
        monkeypatch.setattr(os, "fork", counted)
    return calls


def _temporary_files(monkeypatch):
    """A list that gets an entry at each ``tempfile.TemporaryFile`` call from
    now on."""
    calls = []
    make = tempfile.TemporaryFile

    def counted(*args, **kwargs):
        calls.append(1)
        return make(*args, **kwargs)
    monkeypatch.setattr(tempfile, "TemporaryFile", counted)
    return calls


def _open_descriptors():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestTrajectoryFormatter:
    """The trajectory CSV, made by a forked formatter or inline: the same
    bytes either way, the ``%.17g`` text of the returned arrays, no process
    or descriptor left behind and nothing written by a failing run."""

    @staticmethod
    def loop(name):
        if name == "amplifier":
            return LureLoop.amplifier(0.01, 0.1, 1.0, 5.0, 0.4).ss, (0.1, 0.02, -0.01)
        if name == "bank":
            pos = ChannelBank((Channel(0.5, 0.05), Channel(0.5, 0.1)))
            neg = ChannelBank((Channel(0.5, 1.0), Channel(0.5, 2.0)))
            return LureLoop.bank(0.01, pos, neg, 10.0, 0.4).ss, (0.1, 0.02, -0.01, 0.01, 0.0)
        load, iface = cli._read_load(LOAD_JSON)
        inner = LureLoop.amplifier(0.01, 0.1, 1.0, 1.0, 0.4)
        # an initial row whose one-row product with c differs in its last
        # bit from the product over the whole array
        return LureLoop.load(inner, 10.0, load, iface).ss, (
            0.0926914103312329, 0.01658820298601379, 0.012949529043162208,
            0.007494297915507483, 0.018215989686785578)

    @pytest.mark.parametrize("name", ["amplifier", "bank", "load"])
    def test_transports_write_same_bytes(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(cli, "_CSV_ROWS", 3)
        monkeypatch.setattr(sim, "_BLOCK", 5)
        ss, ic = self.loop(name)
        header = ",".join(["t", *ss.labels, "y", *(n for n, _ in ss.extra_outputs)])
        texts, trajs = [], []
        for transport in TRANSPORTS:
            _use_transport(monkeypatch, transport)
            dest = tmp_path / f"{transport}.csv"
            # 21 steps in blocks of 5: rows 6, 5, 5 and 6, the lone last step
            # joining the fourth block
            trajs.append(cli._write_trajectory(
                str(dest), header,
                lambda sink: sim.integrate(ss, ic, dt=1e-3, t_end=0.021, sink=sink)))
            texts.append(dest.read_bytes())
        traj = trajs[0]
        rows = np.column_stack([traj.t, traj.states, traj.y, *traj.extra.values()])
        expected = "".join([f"# mfa {__version__}\n{header}\n",
                            *(",".join(format(v, ".17g") for v in row) + "\n"
                              for row in rows.tolist())]).encode()
        assert set(texts) == {expected} and len(rows) == 22
        parsed = [[float(v) for v in line.split(b",")] for line in expected.splitlines()[2:]]
        assert np.array(parsed).tobytes() == rows.tobytes()
        assert all(t.states.tobytes() == traj.states.tobytes() for t in trajs)
        # the outputs are products over each block's rows, as integrate takes
        # them: over the whole array the last bit can differ on some BLAS
        # kernels
        blocks = [slice(0, 6), slice(6, 11), slice(11, 16), slice(16, 22)]
        for col, row in [(traj.y, ss.c), *((traj.extra[n], r) for n, r in ss.extra_outputs)]:
            products = [traj.states[b] @ np.asarray(row) for b in blocks]
            assert col.tobytes() == np.concatenate(products).tobytes()

    @pytest.mark.parametrize("name", WIDE_LOOPS)
    def test_transports_agree_on_wide_loops(self, tmp_path, monkeypatch, name):
        # from 9 states up the product over every row differs in the last
        # bit from the blocked ones that the forked formatter gets
        monkeypatch.setattr(sim, "_BLOCK", 7)
        ss, ic = wide_loop(name)
        texts = set()
        header = ",".join(["t", *ss.labels, "y", *(n for n, _ in ss.extra_outputs)])
        for transport in TRANSPORTS:
            _use_transport(monkeypatch, transport)
            dest = tmp_path / f"{transport}.csv"
            cli._write_trajectory(
                str(dest), header, lambda sink: sim.integrate(ss, ic, dt=1e-3, t_end=0.1, sink=sink))
            texts.add(dest.read_bytes())
        assert len(texts) == 1

    # a formatter's failure needs a formatter, and a BrokenPipeError with one
    # is its pipe's
    @pytest.mark.parametrize("transport, case", [
        (transport, case) for transport in TRANSPORTS
        for case in ["success", "divergence", "memory_error", "formatter_failure", "interrupt",
                     "wrong_width", "broken_pipe"]
        if case not in (("broken_pipe",) if transport == "forked"
                        else ("formatter_failure", "wrong_width"))])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_nothing_left_behind(self, capsys, tmp_path, monkeypatch, transport, case, existing):
        monkeypatch.setattr(sim, "_BLOCK", 50)
        pins = _use_transport(monkeypatch, transport)
        dest = tmp_path / "traj.csv"
        if existing:
            dest.write_bytes(b"kept\n")
        # dt * |eigenvalue| = 5 is past the RK4 limit: the run overflows in
        # its sixth block
        steps = ["0.05", "100"] if case == "divergence" else ["1e-3", "1"]
        argv = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", steps[0],
                "--t-end", steps[1], "--ic", "0.1,0,0", "--output", str(dest)]

        def after_all_blocks(error):
            def run(*args, **kwargs):
                sim.integrate(*args, **kwargs)
                raise error
            return run

        def stop_in_third_block(*args, sink, **kwargs):
            def stop(block):
                stop.calls += 1
                if stop.calls == 3:
                    raise KeyboardInterrupt
                if sink is not None:
                    sink(block)
            stop.calls = 0
            return sim.integrate(*args, sink=stop, **kwargs)

        def fail(block):
            raise RuntimeError("formatter fault")

        def narrow_rows(*args, sink, **kwargs):
            # 1,001 rows of 4 values: not whole rows of the header's 5
            return sim.integrate(*args, sink=lambda block: sink(block[:, :-1]), **kwargs)

        if case == "memory_error":
            monkeypatch.setattr(cli, "integrate", after_all_blocks(MemoryError("no room")))
        elif case == "broken_pipe":
            monkeypatch.setattr(cli, "integrate",
                                after_all_blocks(BrokenPipeError(32, "Broken pipe")))
        elif case == "formatter_failure":
            monkeypatch.setattr(csvtext, "format_block", fail)
        elif case == "interrupt":
            monkeypatch.setattr(cli, "integrate", stop_in_third_block)
        elif case == "wrong_width":
            monkeypatch.setattr(cli, "integrate", narrow_rows)
        descriptors = _open_descriptors()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if case == "interrupt":
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
                code = None
            else:
                code = main(argv)
        err = capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert _open_descriptors() == descriptors
        # a forked formatter is pinned by its pid, then this thread, to
        # CPUs apart; every path that read the CPU ends with the thread's
        # mask restored, and an inline run pins nothing
        if transport == "inline" or not os.path.exists(THREAD_STAT):
            assert pins == []
        elif transport == "fork_fails":
            assert pins == [(0, {0, 1})]
        else:
            (child, apart), (thread, own), restored = pins
            assert child > 0 and thread == 0 and apart.isdisjoint(own)
            assert restored == (0, {0, 1})
        expected = {"success": (0, ""),
                    "divergence": (4, "error: divergence at t="),
                    "memory_error": (2, "error: no room\n"),
                    "broken_pipe": (3, "error: [Errno 32] Broken pipe\n"),
                    "formatter_failure": (3, "error: trajectory CSV formatter failed with "
                                             "exit code 1\n"),
                    "interrupt": (None, ""),
                    "wrong_width": (3, "error: trajectory CSV formatter failed with "
                                       "exit code 1\n")}[case]
        assert code == expected[0] and err.startswith(expected[1])
        if case == "success":
            assert dest.read_bytes().startswith(f"# mfa {__version__}\nt,x,xp,xn,y\n".encode())
        elif existing:
            assert dest.read_bytes() == b"kept\n"
        else:
            assert not dest.exists()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_warning_to_closed_stderr(self, tmp_path, monkeypatch, transport):
        # a step warning that stderr cannot take is dropped, as Python's own
        # are, and the run and its CSV go on
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        _use_transport(monkeypatch, transport)
        monkeypatch.setattr(sys, "stderr", Closed())
        dest = tmp_path / "traj.csv"
        argv = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "0.003",
                "--t-end", "1", "--ic", "0.1,0,0", "--output", str(dest)]
        assert main(argv) == 0
        assert dest.read_bytes().startswith(f"# mfa {__version__}\nt,x,xp,xn,y\n".encode())

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2
                        or not os.path.exists(THREAD_STAT), reason="needs two CPUs to pin")
    def test_formatter_on_other_cpus(self, tmp_path, monkeypatch):
        # on the real mask: while the run lasts, the formatter and this
        # thread share no CPU, and afterwards the thread has its mask back
        fork, masks = cli._fork_formatter, []

        def placed(*args):
            pid, pipe = fork(*args)
            masks.append((os.sched_getaffinity(pid), os.sched_getaffinity(0)))
            return pid, pipe
        monkeypatch.setattr(cli, "_fork_formatter", placed)
        before = os.sched_getaffinity(0)
        argv = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "1e-3",
                "--t-end", "1", "--output", str(tmp_path / "traj.csv")]
        assert main(argv) == 0
        (formatter, writer), = masks
        assert formatter.isdisjoint(writer) and formatter | writer == before
        assert os.sched_getaffinity(0) == before

    def test_inline_keeps_no_second_copy(self, tmp_path, monkeypatch):
        # the kept blocks are views of the integrator's one table, so the
        # heap peaks below twice the bytes of the rows; small blocks keep
        # the RK4 lists and a block's text small beside them, and 10,000
        # steps keep the traced run short
        monkeypatch.setattr(sim, "_BLOCK", 256)
        monkeypatch.setattr(cli, "_CSV_ROWS", 64)
        _use_transport(monkeypatch, "inline")
        ss, ic = self.loop("amplifier")
        tracemalloc.start()
        try:
            traj = cli._write_trajectory(
                str(tmp_path / "traj.csv"), "t,x,xp,xn,y",
                lambda sink: sim.integrate(ss, ic, dt=1e-3, t_end=10.0, sink=sink))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.t) == 10_001 and peak < 2 * len(traj.t) * 5 * 8

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_invalid_step_before_output(self, capsys, tmp_path, monkeypatch, transport):
        # the step is refused before the destination is opened, a temporary
        # file made or a formatter forked
        pins = _use_transport(monkeypatch, transport)
        forks, made = _forks(monkeypatch), _temporary_files(monkeypatch)
        argv = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "-1",
                "--output", str(tmp_path / "missing" / "traj.csv")]
        assert _outcome(capsys, argv) == (2, "", "error: requires finite dt > 0\n")
        assert forks == [] and made == [] and pins == []

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("command, ic, dim", [("simulate", "0.1,0", 3),
                                                  ("interconnect", "0.1,0,0", 5)])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_short_initial_condition_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                    transport, command, ic, dim, existing):
        pins = _use_transport(monkeypatch, transport)
        forks, made = _forks(monkeypatch), _temporary_files(monkeypatch)
        dest = tmp_path / "traj.csv"
        if existing:
            dest.write_bytes(b"kept\n")
        extra = ["--load", LOAD_JSON] if command == "interconnect" else []
        argv = [command, *AMP_FLAGS, "--k", "5", "--beta", "0.4", *extra, "--dt", "1e-3",
                "--t-end", "1", "--ic", ic, "--output", str(dest)]
        assert _outcome(capsys, argv) == (
            2, "", f"error: requires {dim} initial-condition components\n")
        # refused before the first block, so no temporary file was made, no
        # formatter forked and no CPU pinned
        assert forks == [] and made == [] and pins == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if existing:
            assert dest.read_bytes() == b"kept\n"
        else:
            assert not dest.exists()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("command", ["simulate", "interconnect"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_invalid_transient_fraction_before_run(self, capsys, tmp_path, monkeypatch,
                                                   transport, command, existing):
        # the detection flags are refused before the trajectory is integrated
        # or its destination opened
        _use_transport(monkeypatch, transport)

        def integrate(*args, **kwargs):
            raise AssertionError("integrated before the flags were checked")
        monkeypatch.setattr(cli, "integrate", integrate)
        dest = tmp_path / "traj.csv"
        if existing:
            dest.write_bytes(b"kept\n")
        extra = ["--load", LOAD_JSON] if command == "interconnect" else []
        argv = [command, *AMP_FLAGS, "--k", "5", "--beta", "0.4", *extra, "--dt", "1e-3",
                "--t-end", "1", "--detect", "--transient-fraction", "1",
                "--output", str(dest)]
        assert _outcome(capsys, argv) == (
            2, "", "error: requires 0 <= transient_fraction < 1\n")
        if existing:
            assert dest.read_bytes() == b"kept\n"
        else:
            assert not dest.exists()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("command", ["simulate", "interconnect"])
    def test_detection_error_after_csv(self, capsys, tmp_path, monkeypatch, transport, command):
        # the detection runs once the pipe is closed, before the formatter
        # is reaped; its error is raised once the CSV is written, as if it
        # ran after the writer, and a destination that cannot be opened is
        # the error reported
        _use_transport(monkeypatch, transport)
        events = []
        detect, waitpid, fork = cli.detect_oscillation, os.waitpid, cli._fork_formatter

        class Pipe:
            def __init__(self, pipe):
                self.pipe = pipe

            def write(self, data):
                return self.pipe.write(data)

            def flush(self):
                self.pipe.flush()

            def close(self):
                if not self.pipe.closed:
                    events.append("close")
                self.pipe.close()

        def fork_logged(*args):
            pid, pipe = fork(*args)
            return pid, pipe if pipe is None else Pipe(pipe)

        def detect_logged(*args, **kwargs):
            events.append("detect")
            return detect(*args, **kwargs)

        def waitpid_logged(*args):
            events.append("reap")
            return waitpid(*args)

        monkeypatch.setattr(cli, "detect_oscillation", detect_logged)
        monkeypatch.setattr(os, "waitpid", waitpid_logged)
        monkeypatch.setattr(cli, "_fork_formatter", fork_logged)
        extra = (["--load", LOAD_JSON, "--ic", "0.1,0,0,0,0"] if command == "interconnect"
                 else ["--ic", "0.1,0,0"])
        # 11 rows leave 6 samples after the transient, too few to detect on
        argv = [command, *AMP_FLAGS, "--k", "5", "--beta", "0.4", *extra, "--dt", "1e-3",
                "--t-end", "0.01"]
        plain, detected = tmp_path / "plain.csv", tmp_path / "detected.csv"
        assert _outcome(capsys, [*argv, "--output", str(plain)]) == (0, "", "")
        events.clear()
        assert _outcome(capsys, [*argv, "--detect", "--output", str(detected)]) == (
            4, "", "error: insufficient horizon\n")
        assert detected.read_bytes() == plain.read_bytes()
        # the first detection raises
        assert events == (["close", "detect", "reap"] if transport == "forked" else ["detect"])
        missing = tmp_path / "missing" / "traj.csv"
        code, out, err = _outcome(capsys, [*argv, "--detect", "--output", str(missing)])
        assert (code, out) == (3, "") and err.startswith("error: [Errno 2]")
        assert not missing.exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs a forked formatter")
    @pytest.mark.parametrize("t_end", ["0.01", "1"], ids=["detection-fails", "detection-ok"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_formatter_failure_with_detect(self, capsys, tmp_path, monkeypatch, t_end,
                                           existing):
        # the formatter's failure is the error, whatever the detection did,
        # and no report is printed
        def fail(block):
            raise RuntimeError("formatter fault")

        _use_transport(monkeypatch, "forked")
        monkeypatch.setattr(csvtext, "format_block", fail)
        dest = tmp_path / "traj.csv"
        if existing:
            dest.write_bytes(b"kept\n")
        argv = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "2e-3",
                "--t-end", t_end, "--ic", "0.1,0,0", "--detect", "--output", str(dest)]
        assert _outcome(capsys, argv) == (
            3, "", "error: trajectory CSV formatter failed with exit code 1\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if existing:
            assert dest.read_bytes() == b"kept\n"
        else:
            assert not dest.exists()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_divergence_inside_a_block(self, capsys, tmp_path, monkeypatch, transport, block):
        # the first row that is not finite, step 270, lies inside a block;
        # its time is reported and nothing is written
        monkeypatch.setattr(sim, "_BLOCK", block)
        _use_transport(monkeypatch, transport)
        dest = tmp_path / "traj.csv"
        argv = ["simulate", *AMP_FLAGS, "--k", "50", "--beta", "0.4", "--dt", "0.05",
                "--t-end", "100", "--ic", "0.1,0,0", "--output", str(dest)]
        code, out, err = _outcome(capsys, argv)
        assert (code, out) == (4, "") and err.endswith("error: divergence at t=13.5\n")
        assert not dest.exists()


class TestNyquist:
    def test_shifted_load_right_half_plane(self, capsys):
        code, out = run(capsys, ["nyquist", "--load", LOAD_JSON,
                                 "--lambda", "15"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "omega,re,im"
        res = [float(l.split(",")[1]) for l in lines[2:]]
        assert min(res) >= -1e-9

    def test_amplifier_locus(self, capsys):
        code, out = run(capsys, ["nyquist", *AMP_FLAGS, "--k", "1",
                                 "--beta", "0.4", "--lambda", "0",
                                 "--grid-points", "64"])
        assert code == 0
        assert len(out.splitlines()) == 2 + 64

    def test_requires_some_system(self, capsys):
        assert main(["nyquist", "--lambda", "0"]) == 2

    @pytest.mark.parametrize("flags, reason", [
        (["--omega-min", "10", "--omega-max", "10"], "requires 0 < omega_min < omega_max"),
        (["--omega-min", "10", "--omega-max", "1"], "requires 0 < omega_min < omega_max"),
        (["--omega-min", "0", "--omega-max", "1"], "requires 0 < omega_min < omega_max"),
        (["--grid-points", "1"], "requires n_points >= 2"),
        (["--omega-min", "1e9"], "requires 0 < omega_min < omega_max"),
        (["--omega-max", "1e-9"], "requires 0 < omega_min < omega_max"),
    ], ids=["equal-bounds", "reversed-bounds", "zero-min", "one-point",
            "lone-min-above-default-max", "lone-max-below-default-min"])
    def test_invalid_grid_exit_2(self, capsys, flags, reason):
        code = main(["nyquist", "--load", LOAD_JSON, *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {reason}\n"

    @pytest.mark.parametrize("flag, value, end", [("--omega-min", "0.5", 0),
                                                   ("--omega-max", "200", -1)])
    def test_lone_bound_replaces_its_end(self, capsys, flag, value, end):
        def omegas(argv):
            code, out = run(capsys, ["nyquist", "--load", LOAD_JSON, "--lambda", "15",
                                     "--grid-points", "16", *argv])
            assert code == 0
            return [float(l.split(",")[0]) for l in out.splitlines()[2:]]

        default, lone = omegas([]), omegas([flag, value])
        assert lone[end] == float(value)
        assert lone[-1 - end] == default[-1 - end]
        assert lone != default


#: Report fields that ``analyze`` and ``multichannel`` share.
SHARED_FIELDS = ("poles", "zeros", "beta_star", "lambda", "lambda_policy",
                 "shifted_unstable_poles", "g0", "k0_bar", "k2_bar", "equilibria", "regime",
                 "reason")


class TestMultichannel:
    def test_single_channel_matches_analyze(self, capsys):
        # the amplifier is the loop of one unit-weight channel per bank: one
        # realization, one transfer-function builder and one balance formula
        # give every shared field the same bits
        _, out_mc = run(capsys, ["multichannel", "--bank", BANK_SINGLE])
        mc = json.loads(out_mc)
        _, out_an = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5",
                                 "--beta", "0.4"])
        an = json.loads(out_an)
        for field in SHARED_FIELDS:
            assert mc[field] == an[field], field
        assert mc["k2_bar"] == "unbounded"
        assert len(mc["equilibria"]) == 1

    def test_seeded_single_channel_banks_match_analyze(self, capsys, tmp_path):
        rng = np.random.default_rng(2204)
        path = tmp_path / "bank.json"
        regimes = set()
        for i in range(50):
            tp = float(10.0 ** rng.uniform(-2.0, 0.0))
            tn = tp * float(10.0 ** rng.uniform(0.05, 1.5))
            tl = float(10.0 ** rng.uniform(-3.0, 1.0))
            k, beta = float(10.0 ** rng.uniform(-1.0, 2.0)), float(rng.uniform())
            k, beta = ((0.0, beta), (k, tp / (tn + tp)), (k, 0.5), (k, beta), (k, beta))[i % 5]
            r = float(rng.uniform(-1.0, 1.0)) if i % 2 else 0.0
            path.write_text(json.dumps({"tau_l": tl, "positive": [{"rho": 1.0, "tau": tp}],
                                        "negative": [{"rho": 1.0, "tau": tn}], "k": k,
                                        "beta": beta}))
            extra = ["--r", repr(r)] + (["--nonlinearity", "atan"] if i % 3 == 1 else [])
            code_mc, mc = run(capsys, ["multichannel", "--bank", str(path), *extra])
            code_an, an = run(capsys, ["analyze", "--tau-l", repr(tl), "--tau-p", repr(tp),
                                       "--tau-n", repr(tn), "--k", repr(k), "--beta",
                                       repr(beta), *extra])
            assert code_mc == code_an == 0
            mc, an = json.loads(mc), json.loads(an)
            for field in SHARED_FIELDS:
                assert mc[field] == an[field], (i, field)
            regimes.add(an["regime"])
        assert len(regimes) >= 3

    def test_nonlinearity_reaches_eigenvalues(self, capsys):
        # off the origin the atan slope differs from tanh's
        _, out_mc = run(capsys, ["multichannel", "--bank", BANK_SINGLE,
                                 "--nonlinearity", "atan", "--r", "0.5"])
        _, out_an = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                                 "--nonlinearity", "atan", "--r", "0.5"])
        (mc,), (an,) = json.loads(out_mc)["equilibria"], json.loads(out_an)["equilibria"]
        assert mc["y"] == pytest.approx(an["y"], rel=1e-12)
        assert np.array(mc["eigenvalues"]) == pytest.approx(np.array(an["eigenvalues"]),
                                                           rel=1e-9)

    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    @pytest.mark.parametrize("delta", [1e-6, 1e-7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_close_pair_next_to_fold(self, capsys, tmp_path, tag, delta, sign):
        bank = json.loads(open(BANK_SINGLE).read())
        bank.update(k=2.0, beta=1.0)
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(bank))
        _, r_fold = fold_point(tag, 0.5)
        _, out = run(capsys, ["multichannel", "--bank", str(path), "--nonlinearity", tag,
                              "--r", repr(sign * (r_fold - delta))])
        assert len(json.loads(out)["equilibria"]) == 3

    def test_interlacing_reported(self, capsys):
        bank = os.path.join(RECIPES_DIR, "data", "bank_two_by_two.json")
        _, out = run(capsys, ["multichannel", "--bank", bank])
        rep = json.loads(out)
        assert rep["interlacing"]["satisfied"] is True
        assert len(rep["interlacing"]["zeros"]) == 3


class TestInterconnect:
    def test_certify(self, capsys):
        code, out = run(capsys, ["interconnect", *AMP_FLAGS, "--k", "10",
                                 "--beta", "0.4", "--load", LOAD_JSON,
                                 "--lambda", "15", "--certify"])
        assert code == 0
        rep = json.loads(out)
        assert rep["composition"]["p_total"] == 2
        assert rep["composition"]["valid"] is True
        assert rep["loop_certificate"]["passed"] is True
        assert [e["stability"] for e in rep["equilibria"]] == ["unstable"]

    @pytest.mark.filterwarnings("error")
    def test_certify_huge_gain(self, capsys):
        # the certificates are taken on the unit-gain loops and scaled by k,
        # so a gain near the top of the float range does not overflow them
        code = main(["interconnect", *AMP_FLAGS, "--k", "1e300", "--beta", "0.4",
                     "--load", LOAD_JSON, "--certify"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rep = _strict_json(captured.out)
        loop_poles = LureLoop.load(LureLoop.amplifier(0.01, 0.1, 1.0, 1.0, 0.4), 1e300,
                                   *cli._read_load(LOAD_JSON)).poles
        for name in ("amplifier_certificate", "load_certificate", "loop_certificate"):
            cert = rep[name]
            assert cert["lambda"] == rep["lambda"] == midpoint_rate(loop_poles)
            assert cert["passed"] == all(cert["conditions"])
            assert isinstance(cert["min_re"], float) and cert["min_re"] == cert["margin"]
        assert rep["amplifier_certificate"]["passed"] is True

    def test_certify_default_rate_is_the_loops(self, capsys):
        # without --lambda the rate splits the loop's poles, the load's
        # included, as in analyze and multichannel: right of the load poles
        # (real part -17.5) the load certificate would fail
        code, out = run(capsys, ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4",
                                 "--load", LOAD_JSON, "--certify"])
        assert code == 0
        rep = json.loads(out)
        assert rep["lambda"] == pytest.approx(13.75, rel=1e-12)
        for name in ("amplifier_certificate", "load_certificate", "loop_certificate"):
            assert rep[name]["passed"] is True
        assert rep["composition"]["valid"] is True

    def test_certify_zero_gain(self, capsys):
        # at k = 0 the amplifier and the loop certify the zero transfer
        # function: min Re 0 at w = 0; the load certificate does not use k
        def certify(k):
            code, out = run(capsys, ["interconnect", *AMP_FLAGS, "--k", k, "--beta", "0.4",
                                     "--load", LOAD_JSON, "--certify"])
            assert code == 0
            return json.loads(out)

        rep = certify("0")
        for name in ("amplifier_certificate", "loop_certificate"):
            cert = rep[name]
            assert (cert["min_re"], cert["omega_at_min"], cert["critical_gain"]) \
                == (0.0, 0.0, "unbounded")
            assert cert["conditions"][2] is True
        assert rep["load_certificate"] == certify("10")["load_certificate"]

    def test_trajectory_columns(self, capsys):
        code, out = run(capsys, ["interconnect", *AMP_FLAGS, "--k", "10",
                                 "--beta", "0.4", "--load", LOAD_JSON,
                                 "--dt", "0.001", "--t-end", "0.01",
                                 "--ic", "0.1,0,0,0,0"])
        assert code == 0
        assert out.splitlines()[1] == "t,x,xp,xn,q,qdot,y,ye"


LOAD = {"a": 350.0, "b": 35.0, "kv": 1.0, "kp": 20.0, "ki": 10.0, "ko": 1.0}
LOAD_COMMANDS = {
    "certify": ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--certify"],
    "simulate": ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4",
                 "--dt", "1e-3", "--t-end", "0.01"],
    "nyquist": ["nyquist", "--grid-points", "5"],
}


class TestNonFiniteLoad:
    """A load file with a value that is not finite, or with gains whose
    product overflows, exits 2 with a ``requires finite`` line."""

    @staticmethod
    def run_load(capsys, tmp_path, command, text):
        path = tmp_path / "load.json"
        path.write_text(text)
        code = main([*LOAD_COMMANDS[command], "--load", str(path)])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(LOAD_COMMANDS))
    @pytest.mark.parametrize("field, value", [
        ("ki", "NaN"), ("ko", "Infinity"), ("a", "Infinity"), ("kv", "NaN"),
    ])
    def test_non_finite_value_exit_2(self, capsys, tmp_path, command, field, value):
        # refused as the file is read, as in schedule and bank files, before
        # the load's own checks would name the field
        text = json.dumps(LOAD).replace(f'"{field}": {LOAD[field]}', f'"{field}": {value}')
        code, captured = self.run_load(capsys, tmp_path, command, text)
        assert code == 2 and captured.out == ""
        path = tmp_path / "load.json"
        assert captured.err == f"error: {path}: requires finite numbers, got {value}\n"

    @pytest.mark.parametrize("command", sorted(LOAD_COMMANDS))
    def test_integer_beyond_float_exit_2(self, capsys, tmp_path, command):
        # an integer that float() cannot hold is an input error naming the
        # file, as in schedule and bank files, not a numerical one (exit 4)
        token = "1" + "0" * 400
        text = json.dumps({**LOAD, "a": 1}).replace('"a": 1', f'"a": {token}')
        code, captured = self.run_load(capsys, tmp_path, command, text)
        assert code == 2 and captured.out == ""
        path = tmp_path / "load.json"
        assert captured.err == f"error: {path}: requires finite numbers, got {token}\n"

    @pytest.mark.parametrize("command", ["certify", "simulate"])
    def test_overflowing_loop_gain_exit_2(self, capsys, tmp_path, command):
        text = json.dumps({**LOAD, "ki": 1e300, "ko": 1e300})
        code, captured = self.run_load(capsys, tmp_path, command, text)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: requires finite loop gains")

    def test_overflow_in_transfer_function_exit_2(self, capsys, tmp_path):
        # ki ko overflows, but ki kp ko / a and the realization stay finite
        text = json.dumps({**LOAD, "kp": 1e-300, "ki": 1e200, "ko": 1e200})
        code, captured = self.run_load(capsys, tmp_path, "certify", text)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: requires finite loop gains")

    def test_nyquist_uses_the_load_alone(self, capsys, tmp_path):
        # nyquist --load draws the load's own transfer function, which the
        # interface gains do not enter, so their product cannot overflow it
        big = self.run_load(capsys, tmp_path, "nyquist",
                            json.dumps({**LOAD, "ki": 1e300, "ko": 1e300}))
        assert big == self.run_load(capsys, tmp_path, "nyquist", json.dumps(LOAD))
        assert big[0] == 0


SCHEDULE = '[{"t": 0, "r": 0.0}, {"t": 0.5, "r": 0.3}]'
BANK = {"tau_l": 0.01, "positive": [{"rho": 1.0, "tau": 0.1}],
        "negative": [{"rho": 1.0, "tau": 1.0}], "k": 5, "beta": 0.4}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["analyze", "multichannel", "simulate", "certify",
                                     "interconnect", "nyquist"])
def test_gain_near_float_max_exit_2(capsys, tmp_path, command):
    # k = 1e308 is finite, but b c_loop overflows: the realization refuses
    # it before any numpy product can warn or an eigenvalue call can fail
    amp = [*AMP_FLAGS, "--k", "1e308", "--beta", "0.4"]
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({**BANK, "k": 1e308}))
    argv = {"analyze": ["analyze", *amp],
            "multichannel": ["multichannel", "--bank", str(bank)],
            "simulate": ["simulate", *amp, "--dt", "1e-3", "--t-end", "0.01"],
            "certify": ["interconnect", *amp, "--load", LOAD_JSON, "--certify"],
            "interconnect": ["interconnect", *amp, "--load", LOAD_JSON, "--dt", "1e-3",
                             "--t-end", "0.01"],
            "nyquist": ["nyquist", *amp, "--grid-points", "5"]}[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: requires finite loop gains (an entry of the realization "
                            "or a product b_i c_loop_j overflows)\n")


class TestNonFiniteFiles:
    """A schedule, bank or load file with a number that is not a finite
    float exits 2 with one error line naming the file, before any analysis."""

    @pytest.mark.parametrize("text, token", [
        (SCHEDULE.replace('"t": 0.5', '"t": NaN'), "NaN"),
        (SCHEDULE.replace('"t": 0.5', '"t": Infinity'), "Infinity"),
        (SCHEDULE.replace('"r": 0.0', '"r": Infinity'), "Infinity"),
        (SCHEDULE.replace('"r": 0.0', '"r": NaN'), "NaN"),
        (SCHEDULE.replace('"r": 0.3', '"r": -1e999'), "-1e999"),
    ], ids=["t-nan", "t-inf", "r-inf", "r-nan", "r-overflow"])
    def test_schedule(self, capsys, tmp_path, text, token):
        assert token in text
        path = tmp_path / "schedule.json"
        path.write_text(text)
        code = main(["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "0.001",
                     "--t-end", "1", "--schedule", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: requires finite numbers, got {token}\n"

    @pytest.mark.parametrize("text, token", [
        (json.dumps(BANK).replace('"tau": 1.0', '"tau": Infinity'), "Infinity"),
        (json.dumps(BANK).replace('"negative": [{"rho": 1.0', '"negative": [{"rho": NaN'), "NaN"),
        (json.dumps(BANK).replace('"tau_l": 0.01', '"tau_l": 1e999'), "1e999"),
        (json.dumps(BANK).replace('"k": 5', '"k": 1' + "0" * 400), "1" + "0" * 400),
    ], ids=["tau-inf", "rho-nan", "tau_l-overflow", "k-overflow"])
    def test_bank(self, capsys, tmp_path, text, token):
        assert token in text
        path = tmp_path / "bank.json"
        path.write_text(text)
        code = main(["multichannel", "--bank", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: requires finite numbers, got {token}\n"

    @pytest.mark.parametrize("text, token", [
        (json.dumps(LOAD).replace('"kp": 20.0', '"kp": NaN'), "NaN"),
        (json.dumps(LOAD).replace('"b": 35.0', '"b": Infinity'), "Infinity"),
        (json.dumps(LOAD).replace('"ko": 1.0', '"ko": 1e999'), "1e999"),
        (json.dumps(LOAD).replace('"a": 350.0', '"a": 1' + "0" * 400), "1" + "0" * 400),
    ], ids=["kp-nan", "b-inf", "ko-overflow", "a-overflow"])
    def test_load(self, capsys, tmp_path, text, token):
        assert token in text
        path = tmp_path / "load.json"
        path.write_text(text)
        code = main(["nyquist", "--load", str(path), "--grid-points", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: requires finite numbers, got {token}\n"

    def test_finite_files_parse_as_before(self, capsys, tmp_path):
        # integers stay integers in the report's copy of the bank
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(BANK))
        code, out = run(capsys, ["multichannel", "--bank", str(path)])
        assert code == 0 and json.loads(out)["bank"] == BANK
        assert '"k": 5,' in out


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, argparse's exits
    included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserDispatch:
    """An argv that starts with a subcommand is read in one pass over that
    subcommand's option table, with no argparse pass; the output, usage,
    help and error text are those of the full parser."""

    ARGVS = {
        "analyze": ["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--lambda", "50"],
        "map": ["map", *AMP_FLAGS, "--k-min", "0.1", "--k-max", "1000", "--rows", "4",
                "--cols", "3", "--lambda", "50", "--jobs", "1"],
        "simulate": ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "0.001",
                     "--t-end", "0.01"],
        "nyquist": ["nyquist", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--grid-points", "5"],
        "multichannel": ["multichannel", "--bank", BANK_SINGLE, "--lambda", "50"],
        "interconnect": ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4",
                         "--load", LOAD_JSON, "--certify"],
        "map-help": ["map", "-h"],
        "version": ["--version"],
        "no-arguments": [],
        "unknown-option": ["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--bogus", "1"],
        "missing-option": ["map", *AMP_FLAGS, "--k-min", "0.1", "--rows", "3", "--cols", "3"],
        "r-nan": ["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--r", "nan"],
        "ambiguous-abbreviation": ["map", *AMP_FLAGS, "--k-m", "0.1", "--rows", "3",
                                   "--cols", "3"],
        "resolving-abbreviation": ["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                                   "--lam", "50"],
        "negative-ic": ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "0.001",
                        "--t-end", "0.01", "--ic", "-0.5,0,0"],
    }

    @pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS.keys())
    def test_same_as_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        got = _outcome(capsys, argv)
        full = cli.build_parser()
        full.commands = {}  # no subcommand is parsed directly
        monkeypatch.setattr(cli, "_parser", full)
        assert got == _outcome(capsys, argv)
        assert got[1] or got[2]

    @pytest.mark.parametrize("name", ["analyze", "map", "unknown-option", "missing-option"])
    def test_parse_passes(self, capsys, monkeypatch, name):
        # no argparse pass for a subcommand call the one pass takes; any
        # other argv goes through the full parser, whose pass hands the
        # subcommand's words to the subcommand's parser
        passes = []
        real = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            passes.append(self.prog)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        code = _outcome(capsys, self.ARGVS[name])[0]
        if name in ("analyze", "map"):
            assert (code, passes) == (0, [])
        else:
            assert (code, passes) == (2, ["mfa", f"mfa {self.ARGVS[name][0]}"])


def _bench_argvs(monkeypatch, tmp_path, name):
    """The argv of every operation of the bench workload ``name``, seeds 1
    and 2, with its input files written under ``tmp_path``."""
    monkeypatch.syspath_prepend(os.path.join(RECIPES_DIR, "..", "bench"))
    import workloads

    argvs = []
    for seed in (1, 2):
        workdir = tmp_path / f"{name}-{seed}"
        workdir.mkdir()
        argvs += [op.argv for ops in workloads.build(name, seed, str(workdir)) for op in ops]
    return argvs


class TestOnePass:
    """``_Parser.one_pass`` gives None or the namespace of the full parser,
    and ``main`` gives the same exit code, stdout and stderr with and without
    it.  Every recipe and bench command takes the one pass, so that the
    benchmarked commands are read by it."""

    _PRE = ["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4"]
    _SIM = ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4", "--dt", "0.001",
            "--t-end", "0.01"]
    # edge words: name -> (argv, whether the one pass takes it)
    EDGES = {
        "explicit-value": ([*_PRE, "--r=1"], False),
        "abbreviation": ([*_PRE, "--lam", "50"], False),
        "ambiguous-abbreviation": (["map", *AMP_FLAGS, "--k-m", "0.1", "--k-max", "10",
                                    "--rows", "3", "--cols", "3"], False),
        "help": (["analyze", "-h"], False),
        "double-dash": ([*_PRE, "--", "--r", "1"], False),
        "r-minus-inf": ([*_PRE, "--r", "-inf"], False),
        "r-dash": ([*_PRE, "--r", "-"], False),
        "r-no-value": ([*_PRE, "--r"], False),
        "option-like-value": ([*_SIM, "--ic", "-x"], False),
        "r-exponent": ([*_PRE, "--r", "-6e-05"], True),
        "negative-ic": ([*_SIM, "--ic", "-0.5,0,0"], True),
        "empty-output": ([*_SIM, "--output", ""], True),
        "repeated-flag": ([*_PRE, "--k", "7"], True),
        "repeated-store-true": ([*_SIM, "--detect", "--detect"], True),
        "missing-option": (["map", *AMP_FLAGS, "--k-min", "0.1", "--rows", "3",
                            "--cols", "3"], False),
        "rows-exponent": (["map", *AMP_FLAGS, "--k-min", "0.1", "--k-max", "10",
                           "--rows", "1e3", "--cols", "3"], False),
        "nonlinearity": ([*_PRE, "--nonlinearity", "atan"], True),
    }

    @staticmethod
    def _run_argv(argv, tmp_path):
        """``argv`` as ``main`` runs it here: a trajectory cut to 0.01 s and a
        nonempty ``--output`` under ``tmp_path``."""
        argv = list(argv)
        if "--t-end" in argv:
            argv[argv.index("--t-end") + 1] = "0.01"
        if "--output" in argv and argv[argv.index("--output") + 1]:
            argv[argv.index("--output") + 1] = str(tmp_path / "out.csv")
        return argv

    @pytest.mark.parametrize("source", ["recipes", "map_sweep", "certify_points",
                                        "simulate_trajectories", "edges"])
    def test_same_as_full_parser(self, capsys, monkeypatch, tmp_path, source):
        if source == "recipes":
            # the recipes name their data files relative to their directory
            monkeypatch.chdir(RECIPES_DIR)
            names = sorted(n[:-3] for n in os.listdir(RECIPES_DIR) if n.endswith(".sh"))
            cases = [(argv, True) for n in names for argv in recipe_commands(n)]
        elif source == "edges":
            cases = list(self.EDGES.values())
        else:
            cases = [(argv, True) for argv in _bench_argvs(monkeypatch, tmp_path, source)]
        assert cases
        one = cli.build_parser()
        full = cli.build_parser()
        full.commands = {}  # no argv takes the one pass
        for argv, takes in cases:
            parsed = one.one_pass(argv)
            assert (parsed is not None) == takes, argv
            if parsed is not None:
                assert vars(parsed) == vars(full.parse_args(argv)), argv
            run_argv = self._run_argv(argv, tmp_path)
            monkeypatch.setattr(cli, "_parser", one)
            got = _outcome(capsys, run_argv)
            monkeypatch.setattr(cli, "_parser", full)
            assert got == _outcome(capsys, run_argv), argv


@pytest.mark.parametrize("argv", [
    ["map", *AMP_FLAGS, "--k-min", "0.1", "--k-max", "1000", "--rows", "60", "--cols", "1",
     "--beta-min", "0.4", "--beta-max", "0.4", "--lambda", "50"],
    ["map", *AMP_FLAGS, "--k-min", "0.1", "--rows", "60", "--bogus"],
], ids=["map-column", "usage-error"])
def test_module_entry_matches_main(capsys, argv):
    """``python -m mfa`` reads its argv from sys.argv and prints what
    ``main(argv)`` prints in-process."""
    path = [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "mfa", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == _outcome(capsys, argv)


class TestRootCalls:
    """Poles come from the lags and loads a transfer function is built from,
    so ``poly_roots`` runs only on what has no known factors: the amplifier's
    degree-1 numerator (``analyze``), the bank difference's numerator, once
    for both the report's zeros and the interlacing check (``multichannel``),
    and the load quadratic, once per command (``interconnect --certify``).  A
    map column takes none."""

    @pytest.mark.parametrize("argv, calls", [
        (["analyze", *AMP_FLAGS, "--k", "5", "--beta", "0.4"], 1),
        (["map", *AMP_FLAGS, "--k-min", "0.1", "--k-max", "1000", "--rows", "60",
          "--cols", "1", "--beta-min", "0.4", "--beta-max", "0.4", "--lambda", "50"], 0),
        (["multichannel", "--bank", os.path.join(RECIPES_DIR, "data", "bank_two_by_two.json")],
         1),
        (["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--load", LOAD_JSON,
          "--lambda", "15", "--certify"], 1),
    ], ids=["analyze", "map", "multichannel", "interconnect"])
    def test_poly_roots_calls(self, capsys, monkeypatch, argv, calls):
        from mfa import interconnect, tf_core

        counted = []

        def counting(*args, **kwargs):
            counted.append(args[0])
            return poly_roots(*args, **kwargs)

        poly_roots = tf_core.poly_roots
        for module in (tf_core, interconnect):
            monkeypatch.setattr(module, "poly_roots", counting)
        code, _ = run(capsys, argv)
        assert code == 0 and len(counted) == calls


def recipe_commands(name: str) -> list[list[str]]:
    """The ``mfa`` arguments of each command of a recipe script, in order."""
    with open(os.path.join(RECIPES_DIR, f"{name}.sh")) as fh:
        text = fh.read().replace("\\\n", " ")
    return [shlex.split(line)[3:] for line in text.splitlines()
            if line.startswith("python3 -m mfa ")]


def recipe_argv(name: str, output: str) -> list[str]:
    """The ``mfa`` arguments of the command of a recipe script that writes
    its ``--output`` file, with that file replaced by ``output``."""
    (argv,) = [argv for argv in recipe_commands(name) if "--output" in argv]
    argv[argv.index("--output") + 1] = output
    return argv


class TestRecipeMaps:
    """The four recipe maps, byte for byte: a change to the certificates or
    the cell counts that moves any digit or label fails here."""

    SHA256 = {
        "map_fast_load": "ea866839c30004700bd0b3b55a4268668a22edba3a74c53be6cdb2c11340667c",
        "map_fast_load_reduced_separation":
            "570dc5106bc0c7d7051d1f064ea68a6fd6158267e47c97952cd7f00e16e6c34a",
        "map_slow_load": "cd42da14c8be445c80c4cec62c8df593c34b778d9de04a9bbb11c814e6cd06fe",
        "map_slow_load_reduced_separation":
            "076ce11a3b025a4a9adf80402377decdbae8c77e66449c534b421ba5567790ad",
    }

    @pytest.mark.parametrize("name", SHA256)
    def test_csv_digest(self, tmp_path, name):
        path = str(tmp_path / f"{name}.csv")
        assert main(recipe_argv(name, path)) == 0
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.SHA256[name]


def _openblas_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _numpy_has_x86_v4() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V4"))


class TestRecipeMapsOnAnyHost:
    """The four recipe maps and the two Nyquist loci do not depend on the
    kernels the host selects.  Under another OpenBLAS kernel all six hold
    byte for byte, and so do the recipe trajectories of :data:`TRAJECTORIES`
    under it: under ``Prescott`` the output products of ``sim_oscillation``
    and ``sim_bistable_switch`` round otherwise (ROADMAP item 13), so those
    two are left out there.  With numpy's AVX-512 loops off, as on an AVX2-only
    processor, the maps hold in every column but ``k``, and the loci are
    not compared: the gain grid and the loci's frequencies come from
    ``np.geomspace``, whose ``power`` loop is SIMD, so they may move in the
    last bit there."""

    SETTINGS = {
        "blas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "blas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        "numpy-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    }

    NYQUIST = ["nyquist_openloop", "nyquist_shifted_load"]

    TRAJECTORIES = {
        "blas-haswell": ["sim_oscillation", "sim_bistable_switch", "sim_stable_return",
                         "interconnect_limit_cycle"],
        "blas-prescott": ["sim_stable_return", "interconnect_limit_cycle"],
    }

    @classmethod
    def outputs(cls, tmp_path, setting, names):
        """The CSV bytes of the recipes ``names`` by name, all from one
        interpreter in the recipe directory, where their input files are."""
        out = tmp_path / (setting or "default")
        out.mkdir()
        argvs = [recipe_argv(name, str(out / f"{name}.csv")) for name in names]
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env.update(cls.SETTINGS.get(setting, {}))
        path = [os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")),
                env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
        script = ("import json, sys\nfrom mfa.cli import main\n"
                  "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))")
        subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env, check=True,
                       timeout=120, cwd=RECIPES_DIR)
        return {name: (out / f"{name}.csv").read_bytes() for name in names}

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_maps_match_default(self, tmp_path, setting):
        if setting.startswith("blas") and not _openblas_dynamic_arch():
            pytest.skip("numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
        if setting.startswith("numpy") and not _numpy_has_x86_v4():
            pytest.skip("numpy does not run X86_V4 loops here")
        names = [*TestRecipeMaps.SHA256, *(self.NYQUIST if setting.startswith("blas") else ()),
                 *self.TRAJECTORIES.get(setting, ())]
        want, got = (self.outputs(tmp_path, s, names) for s in (None, setting))
        if setting.startswith("blas"):
            assert got == want
            return
        for name in want:
            rows = [[line.split(b",", 1)[-1] for line in text.splitlines()]
                    for text in (want[name], got[name])]
            assert rows[0] == rows[1], name


@pytest.mark.filterwarnings("error")
class TestRecipeOutputs:
    """The recipe trajectories and Nyquist loci, byte for byte, generated from
    the scripts' own flags in the recipe directory, where their input files
    are: a change to the integrator, the loci or the CSV text that moves any
    byte fails here.  A warning is an error, so every recipe step passes the
    integrator's step checks."""

    SHA256 = {
        "sim_oscillation": "a5cc6353771e92d1a05d69fa1a20ab005272528d931a47050528998f266b723f",
        "sim_stable_return": "a58349c564dc875612d89a6d242d64b972c26f353a6dc999c5777c47625cf4ce",
        "sim_bistable_switch": "bbde74dc7bc0b5bfa1fc1f55da55d91b249bfcc60d5f21902d785a4020fe570f",
        "interconnect_limit_cycle":
            "a8dfaae01eedb1e0dd7ad1ba48558cc953073dd23dcb954a487a526aad9f3d4d",
        "nyquist_openloop": "b9318c41878bbccf6e088439bdd48aebee41af9de25888c89508ed74ed030e0a",
        "nyquist_shifted_load":
            "c75ae555ebaeeefe509f2ea6fb44297ecc401d54cc7fc0ed4bcb0e6147964a87",
    }

    @pytest.mark.parametrize("name", SHA256)
    def test_csv_digest(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(RECIPES_DIR)
        path = str(tmp_path / f"{name}.csv")
        assert main(recipe_argv(name, path)) == 0
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.SHA256[name]


@pytest.mark.filterwarnings("error")
class TestRecipeReports:
    """The JSON the recipe scripts print, byte for byte, by script and
    command index: the certificates and the oscillation report of
    ``interconnect_limit_cycle.sh`` and the channel-bank report of
    ``multichannel_interlaced_bank.sh``.  A warning is an error, as in
    :class:`TestRecipeOutputs`."""

    SHA256 = {
        ("interconnect_limit_cycle", 0):
            "405fc5317a06863293f3485f5187268ac41b8d1529b974df17d2af2d80768d28",
        ("interconnect_limit_cycle", 1):
            "f9ebc26859e709c69b9e9196aae86024031157d943e65ac0b43754c13833efd2",
        ("multichannel_interlaced_bank", 0):
            "3f61b916e28323df87c0b351b396e80e2123113e9262e76308919e502433cb75",
        ("sim_oscillation", 0):
            "8ae164e14ea9cca9e94d5ccb6625daeba2da1f88b965a5ad386ccc0f360a7bde",
    }

    @pytest.mark.parametrize("name, index", SHA256)
    def test_stdout_digest(self, tmp_path, monkeypatch, capsys, name, index):
        monkeypatch.chdir(RECIPES_DIR)
        argv = recipe_commands(name)[index]
        if "--output" in argv:
            argv[argv.index("--output") + 1] = str(tmp_path / "out.csv")
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[name, index]
        _assert_json_dumps_bytes(out)


class TestRecipeData:
    def test_shipped_files_parse(self):
        cli._read_load(LOAD_JSON)
        cli._read_bank(BANK_SINGLE)
        cli._read_schedule(PULSE_JSON)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_json_dumps_bytes(out: str):
    """A JSON report is printed in the bytes of ``json.dumps(..., indent=2)``."""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestJsonText:
    """The report writer against ``json.dumps(obj, indent=2)`` on seeded
    nested values.  Only str keys are drawn: no report has another kind, and
    the writer raises ``TypeError`` for one where json would convert it."""

    SCALARS = [0.0, -0.0, 1.0, -2.5, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1,
               math.nan, math.inf, -math.inf, np.float64(0.3), np.float64(math.nan),
               np.float64(-math.inf), True, False, None, 0, -7, 10**30, -(10**40),
               "", "plain", "caf\u00e9 \u03bb \U0001f600", "tab\tnew\nline\x00\x1f",
               'quote " and \\ backslash', "\u2028\u2029\x7f"]

    def value(self, rng, depth):
        kind = rng.integers(5) if depth < 4 else 0
        if kind <= 1:
            return self.SCALARS[rng.integers(len(self.SCALARS))]
        items = [self.value(rng, depth + 1) for _ in range(rng.integers(4))]
        if kind == 2:
            return items
        if kind == 3:
            return tuple(items)
        keys = [str(self.SCALARS[rng.integers(len(self.SCALARS))]) + str(i)
                for i in range(len(items))]
        return dict(zip(keys, items))

    def test_matches_json_dumps(self):
        rng = np.random.default_rng(27)
        for _ in range(2000):
            obj = self.value(rng, 0)
            assert cli._json_text(obj, "\n") == json.dumps(obj, indent=2), obj

    @pytest.mark.parametrize("obj", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]],
                                     {"\u00e9\n": [math.nan, -0.0]},
                                     {"a": [type("L", (list,), {})([1.0, {"b": [2]}])]}])
    def test_empty_and_edge_containers(self, obj):
        assert cli._json_text(obj, "\n") == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [{1: 2.0}, {"a": {None: 1}}, [{(1, 2): 0}], object()])
    def test_non_str_key_or_unknown_type_raises(self, obj):
        with pytest.raises(TypeError):
            cli._json_text(obj, "\n")


def test_every_recipe_command_is_pinned():
    """Each ``python3 -m mfa`` command of each recipe script has its CSV
    pinned when it writes one to ``--output`` and its stdout pinned when it
    prints one (no ``--output``, or a ``--detect`` or ``--certify`` report)."""
    names = sorted(f[:-3] for f in os.listdir(RECIPES_DIR) if f.endswith(".sh"))
    assert len(names) == 11
    csv_pins = {**TestRecipeMaps.SHA256, **TestRecipeOutputs.SHA256}
    for name in names:
        commands = recipe_commands(name)
        assert commands, name
        for i, argv in enumerate(commands):
            if "--output" in argv:
                assert name in csv_pins, name
            if "--output" not in argv or "--detect" in argv or "--certify" in argv:
                assert (name, i) in TestRecipeReports.SHA256, (name, i)


@pytest.mark.filterwarnings("error")
class TestAnalyzePins:
    """``analyze`` stdout, byte for byte, at points that reach each branch of
    the report: the recipe point, a zero gain (no zeros, no zero location),
    the critical balance 1/11, where the numerator's top coefficient is
    exactly 0 and the zero is infinite, and the float after it, where that
    coefficient is -1.4e-17 and the zero finite, the atan sigmoid off the
    origin, a user rate with three shifted-unstable poles, and a pole within
    1e-9 of the axis."""

    CASES = {
        "recipe-point": ([*AMP_FLAGS, "--k", "5", "--beta", "0.4"],
                         "290d49901c554658db9e9363585315982a3719d3ff244848e47e7ac39a60231e"),
        "k-zero": ([*AMP_FLAGS, "--k", "0", "--beta", "0.4"],
                   "9e674124304cf44af4bbb016f248f03d96d76766570e1ef5d25abfd5c0cac51f"),
        "beta-star": ([*AMP_FLAGS, "--k", "5", "--beta", "0.09090909090909091"],
                      "a51b04ecce59d05555b5186795ac9f0c7b020a9afbaafe5034d08cae37c88a12"),
        "beta-star-next": ([*AMP_FLAGS, "--k", "5", "--beta", "0.09090909090909093"],
                           "1c34ce0d5b6076427dd48b0b320f58054c73c8439a6cc8679efa2074dc09322f"),
        "atan": ([*AMP_FLAGS, "--k", "5", "--beta", "0.4", "--nonlinearity", "atan",
                  "--r", "0.5"],
                 "73b787e4d60bf98dfcec43562d0918664403c8a26e331b5857981f00e58e18f2"),
        "user-rate": ([*AMP_FLAGS, "--k", "5", "--beta", "0.4", "--lambda", "200"],
                      "5d48fa0a9899f96b3a03fed3a1970b8c622437b061be60ad238b50378a9154ef"),
        "pole-on-axis": (["--tau-l", "0.01", "--tau-p", "0.1", "--tau-n", "1e10", "--k", "5",
                          "--beta", "0.4"],
                         "8c6b794e0e582aef18b58e98172d80431361cd5ca6386371416e3bddd7197659"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_stdout_digest(self, capsys, name):
        flags, sha = self.CASES[name]
        code, out = run(capsys, ["analyze", *flags])
        assert code == 0 and _digest(out) == sha
        _assert_json_dumps_bytes(out)
        rep = json.loads(out)
        if name == "beta-star":
            assert rep["zero"] == "infinite" and rep["zeros"] == []
        elif name == "beta-star-next":
            assert rep["zero"] == -5.895621330375922e+16
        elif name == "user-rate":
            assert rep["shifted_unstable_poles"] == 3
        elif name == "pole-on-axis":
            assert rep["reason"] == "pole on shifted imaginary axis"


@pytest.mark.filterwarnings("error")
class TestInterconnectPins:
    """``interconnect`` stdout and trajectory, byte for byte, with a load file
    whose interface gains are not 1, so that the order of the products in the
    load's force row and in the loop's rows shows in the bits."""

    LOAD = {"a": 350.0, "b": 35.0, "kv": 1.0, "kp": 20.0, "ki": 0.3, "ko": 2.5}
    # at k = 12, beta = 0.38, (k_o k) beta differs from k_o (k beta) in the
    # last bit, and (k_o k)(1 - beta) from k_o (k (1 - beta))
    FLAGS = [*AMP_FLAGS, "--k", "12", "--beta", "0.38"]
    SHA256 = {
        "certify": "cc11d7ae7aab5e5b911a9bb5b9ec0539f3abb73e09ea0d1cd277e1feafa1261c",
        "detect": "e0d871db82c1e1b42038260ccc6a554f7546500e10803a09da4fa373810b1c22",
        "detect-csv": "ee3d41667b7604fd08b8bea99a4f92f22d210d90e180e3a4780913bcaa2dd390",
    }

    def load_file(self, tmp_path):
        path = tmp_path / "load.json"
        path.write_text(json.dumps(self.LOAD))
        return str(path)

    def test_certify(self, capsys, tmp_path):
        code, out = run(capsys, ["interconnect", *self.FLAGS, "--load",
                                 self.load_file(tmp_path), "--certify"])
        assert code == 0 and _digest(out) == self.SHA256["certify"]
        _assert_json_dumps_bytes(out)

    def test_detect(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        code, out = run(capsys, ["interconnect", *self.FLAGS, "--load",
                                 self.load_file(tmp_path), "--dt", "1e-3", "--t-end", "30",
                                 "--transient-fraction", "0.2", "--ic", "0.1,0,0,0,0",
                                 "--detect", "--output", str(csv)])
        assert code == 0 and _digest(out) == self.SHA256["detect"]
        _assert_json_dumps_bytes(out)
        assert json.loads(out)["y"]["oscillating"] is True
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == self.SHA256["detect-csv"]


AMP_DEFAULTS = {"--tau-l": "0.01", "--tau-p": "0.1", "--tau-n": "1", "--k": "5",
                "--beta": "0.4", "--nonlinearity": "tanh"}
AMP_COMMANDS = {
    "analyze": ["analyze"],
    "simulate": ["simulate", "--dt", "0.001", "--t-end", "0.01"],
    "nyquist": ["nyquist", "--grid-points", "5"],
    "interconnect": ["interconnect", "--load", LOAD_JSON, "--certify"],
    "map": ["map", "--k-min", "0.5", "--k-max", "50", "--rows", "2", "--cols", "2"],
}
AMP_VIOLATIONS = {
    "tau_l-zero": ("--tau-l", "0", "requires tau_l > 0"),
    "tau_p-negative": ("--tau-p", "-0.1", "requires tau_p > 0"),
    "tau_n-zero": ("--tau-n", "0", "requires tau_n > 0"),
    "tau_p-equals-tau_n": ("--tau-p", "1", "requires tau_p < tau_n"),
    "tau_p-above-tau_n": ("--tau-p", "2", "requires tau_p < tau_n"),
    "tau_l-equals-tau_p": ("--tau-l", "0.1", "requires tau_l distinct from tau_p and tau_n"),
    "tau_l-equals-tau_n": ("--tau-l", "1", "requires tau_l distinct from tau_p and tau_n"),
    "k-negative": ("--k", "-1", "requires k >= 0"),
    "beta-above-1": ("--beta", "1.5", "requires 0 <= beta <= 1"),
    "beta-negative": ("--beta", "-0.1", "requires 0 <= beta <= 1"),
    "nonlinearity": ("--nonlinearity", "relu", "unknown nonlinearity 'relu'"),
}


class TestParameterErrors:
    """Each single violation of the amplifier flags, and of a bank file,
    exits 2 with exactly its error line and nothing on stdout."""

    @pytest.mark.parametrize("command, violation", [
        (command, violation) for command in AMP_COMMANDS for violation in AMP_VIOLATIONS
        if command != "map" or AMP_VIOLATIONS[violation][0] not in ("--k", "--beta")])
    def test_amplifier_flags(self, capsys, command, violation):
        flag, value, message = AMP_VIOLATIONS[violation]
        flags = {**AMP_DEFAULTS, flag: value}
        if command == "map":  # a map takes gain and balance ranges instead
            del flags["--k"], flags["--beta"]
        argv = [*AMP_COMMANDS[command], *(w for item in flags.items() for w in item)]
        assert _outcome(capsys, argv) == (2, "", f"error: {message}\n")

    BANK_VIOLATIONS = {
        "ordering": ({"negative": [{"rho": 1.0, "tau": 0.05}]},
                     "time-scale ordering: every positive-bank tau must be smaller than "
                     "every negative-bank tau"),
        "tau_l-equals-channel": ({"tau_l": 1.0}, "requires tau_l distinct from every channel tau"),
        "rho-sum": ({"positive": [{"rho": 0.5, "tau": 0.1}]},
                    "requires unit bank gain (sum rho = 1)"),
        "tau_l-zero": ({"tau_l": 0.0}, "requires tau_l > 0"),
        "k-negative": ({"k": -1.0}, "requires k >= 0"),
        "beta-above-1": ({"beta": 1.5}, "requires 0 <= beta <= 1"),
    }

    @pytest.mark.parametrize("violation", BANK_VIOLATIONS)
    def test_bank_file(self, capsys, tmp_path, violation):
        change, message = self.BANK_VIOLATIONS[violation]
        path = tmp_path / "bank.json"
        path.write_text(json.dumps({**BANK, **change}))
        assert _outcome(capsys, ["multichannel", "--bank", str(path)]) \
            == (2, "", f"error: {message}\n")


HUGE = ["--k", "1e300", "--beta", "1", "--r", "1e10"]


class TestEquilibriumBeyondFloatRange:
    """At k = 1e300, beta = 1 and r = 1e10 the equilibrium scan bound
    (1 + |r|)/|slope| + 1 overflows, so the root would be bisected at -inf:
    the reports say so instead of printing it."""

    def check_unclassified(self, capsys, argv):
        code, out = run(capsys, argv)
        rep = _strict_json(out)
        assert code == 0
        assert (rep["regime"], rep["reason"], rep["equilibria"]) \
            == ("Unclassified", "equilibrium beyond float range", [])

    def test_analyze(self, capsys):
        self.check_unclassified(capsys, ["analyze", *AMP_FLAGS, *HUGE])

    def test_multichannel(self, capsys, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text(json.dumps({**BANK, "k": 1e300, "beta": 1}))
        self.check_unclassified(capsys, ["multichannel", "--bank", str(path), "--r", "1e10"])

    def test_interconnect_certify_exit_4(self, capsys):
        argv = ["interconnect", *AMP_FLAGS, *HUGE, "--load", LOAD_JSON, "--certify"]
        assert _outcome(capsys, argv) == (4, "", "error: equilibrium beyond float range\n")

    def test_map_counts_the_one_equilibrium(self):
        # the map counts signs at the scan's nodes and bisects nothing
        (cell,), = dominance_map(0.01, 0.1, 1.0, [1e300], [1.0], r=1e10)
        assert cell.n_equilibria == 1


class TestStepCountOverflow:
    """A t_end/dt beyond float range is an invalid parameter (exit 2) naming
    both, as a run too large to allocate is."""

    @pytest.mark.parametrize("argv", [
        ["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4"],
        ["interconnect", *AMP_FLAGS, "--k", "10", "--beta", "0.4", "--load", LOAD_JSON],
    ], ids=["simulate", "interconnect"])
    def test_exit_2(self, capsys, argv):
        code, out, err = _outcome(capsys, [*argv, "--t-end", "1e300", "--dt", "1e-300"])
        assert (code, out) == (2, "")
        assert err == "error: t_end = 1e+300 over dt = 1e-300 overflows the step count\n"


TINY_LAGS = ["--tau-l", "7e-160", "--tau-p", "1e-160", "--tau-n", "3e-160"]
UNDERFLOW = "time constants too small: lag product underflow or pole overflow"
OVERFLOW = "time constants too large: lag product overflow"


def _scaled_bank(scale: float) -> dict:
    """A 3+3 bank with every tau scaled by ``scale``."""
    return {"tau_l": 7.0 * scale,
            "positive": [{"rho": 0.25, "tau": scale}, {"rho": 0.25, "tau": 2.0 * scale},
                         {"rho": 0.5, "tau": 4.0 * scale}],
            "negative": [{"rho": 0.5, "tau": 10.0 * scale}, {"rho": 0.25, "tau": 20.0 * scale},
                         {"rho": 0.25, "tau": 30.0 * scale}],
            "k": 5, "beta": 0.4}


class TestLagsFarFromOneSecond:
    """A product of lags that underflows or overflows is a numerical error
    (exit 4) naming the cause; a map column with a given rate is Unclassified
    with that reason; a simulation never builds the product."""

    def test_analyze_exit_4(self, capsys):
        argv = ["analyze", *TINY_LAGS, "--k", "5", "--beta", "0.4"]
        assert _outcome(capsys, argv) == (4, "", f"error: {UNDERFLOW}\n")

    def test_subnormal_lag_exit_4(self, capsys):
        # 1e-320 s is a subnormal time constant: its pole -1/tau is -inf
        argv = ["analyze", "--tau-l", "1e-320", "--tau-p", "0.1", "--tau-n", "1",
                "--k", "5", "--beta", "0.4"]
        assert _outcome(capsys, argv) == (4, "", f"error: {UNDERFLOW}\n")

    def test_map_exit_4(self, capsys):
        argv = ["map", *TINY_LAGS, "--k-min", "1", "--k-max", "10", "--rows", "2", "--cols", "2"]
        assert _outcome(capsys, argv) == (4, "", f"error: {UNDERFLOW}\n")

    def test_map_with_rate_unclassified(self, capsys):
        argv = ["map", *TINY_LAGS, "--k-min", "1", "--k-max", "10", "--rows", "2", "--cols", "2",
                "--lambda", "1e159"]
        code, out, err = _outcome(capsys, argv)
        assert (code, err) == (0, "")
        assert [line.split(",")[2] for line in out.splitlines()[2:]] == ["Unclassified"] * 4
        cells = dominance_map(7e-160, 1e-160, 3e-160, [1.0, 10.0], [0.0, 1.0], lam=1e159)
        assert {cell.reason for row in cells for cell in row} == {UNDERFLOW}

    @pytest.mark.parametrize("scale, message", [(1e-60, UNDERFLOW), (1e150, OVERFLOW)],
                             ids=["1e-60", "1e150"])
    def test_multichannel_exit_4(self, capsys, tmp_path, scale, message):
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(_scaled_bank(scale)))
        assert _outcome(capsys, ["multichannel", "--bank", str(path)]) \
            == (4, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t-end", "1", "--dt", "0.1"],
        ["interconnect", "--t-end", "1", "--dt", "0.1", "--load", LOAD_JSON],
        ["map", "--k-min", "1", "--k-max", "10", "--rows", "2", "--cols", "2", "--lambda", "2"],
    ], ids=["simulate", "interconnect", "map-with-rate"])
    @pytest.mark.filterwarnings("error")
    def test_subnormal_lag_no_loop(self, capsys, argv):
        # the rate 1/tau of a subnormal lag is inf, so no loop is realized
        lags = ["--tau-l", "1e-320", "--tau-p", "0.1", "--tau-n", "1"]
        gains = [] if argv[0] == "map" else ["--k", "5", "--beta", "0.4"]
        assert _outcome(capsys, [argv[0], *lags, *gains, *argv[1:]]) \
            == (4, "", f"error: {UNDERFLOW}\n")

    def test_simulate_unaffected(self, capsys):
        code, out, err = _outcome(capsys, ["simulate", *TINY_LAGS, "--k", "5", "--beta", "0.4",
                                           "--dt", "1e-162", "--t-end", "1e-161"])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2 + 11


class TestStrictJsonSweep:
    """Every JSON report of a seeded pool of analyze, multichannel and
    interconnect --certify commands, with gains up to 1e300, references up to
    +-1e10 and balances 0 and 1 among them, is strict JSON, and every exit
    code is 0, 2 or 4."""

    def test_seeded_pool(self, capsys, tmp_path):
        rng = np.random.default_rng(2302)

        def lags(n):
            return [float(t) for t in np.sort(10.0 ** rng.uniform(-3.0, 1.0, n))]

        bank, load = tmp_path / "bank.json", tmp_path / "load.json"
        codes = []
        for i in range(150):
            k = float(rng.choice([0.0, 1.0, 5.0, 1e3, 1e10, 1e100, 1e300]))
            beta = float(rng.choice([0.0, 1.0, 0.4, rng.uniform()]))
            r = float(rng.choice([0.0, 0.5, -1e10, 1e10]))
            tau_l = float(10.0 ** rng.uniform(-3.0, 1.0))
            flags = ["--r", repr(r)]
            if i % 3 == 1:
                m, n = (int(v) for v in rng.integers(1, 4, 2))
                taus = lags(m + n)
                bank.write_text(json.dumps({
                    "tau_l": tau_l, "k": k, "beta": beta,
                    "positive": [{"rho": 1.0 / m, "tau": t} for t in taus[:m]],
                    "negative": [{"rho": 1.0 / n, "tau": t} for t in taus[m:]]}))
                argv = ["multichannel", "--bank", str(bank), *flags]
            else:
                tau_p, tau_n = lags(2)
                argv = ["--tau-l", repr(tau_l), "--tau-p", repr(tau_p), "--tau-n", repr(tau_n),
                        "--k", repr(k), "--beta", repr(beta), *flags]
                if i % 3 == 0:
                    argv = ["analyze", *argv]
                else:
                    load.write_text(json.dumps(dict(zip(
                        ("a", "b", "kv", "kp", "ki", "ko"),
                        [*10.0 ** rng.uniform(-1.0, 3.0, 4), *rng.uniform(0.0, 5.0, 2)]))))
                    argv = ["interconnect", *argv, "--load", str(load), "--certify"]
            code, out, _ = _outcome(capsys, argv)
            assert code in (0, 2, 4), argv
            if code == 0:
                _strict_json(out)
            codes.append(code)
        assert codes.count(0) > 100
