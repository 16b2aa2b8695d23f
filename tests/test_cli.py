"""Command-line surface: exit codes, formats, determinism, round trips."""

import json
import math
import os

import numpy as np
import pytest

from conftest import RECIPES_DIR, fold_point

import mfa.cli as cli
from mfa import __version__
from mfa.cli import main
from mfa.sim import InputSchedule, Trajectory

AMP_FLAGS = ["--tau-l", "0.01", "--tau-p", "0.1", "--tau-n", "1"]
LOAD_JSON = os.path.join(RECIPES_DIR, "data", "load_msd.json")
BANK_SINGLE = os.path.join(RECIPES_DIR, "data", "bank_single.json")
PULSE_JSON = os.path.join(RECIPES_DIR, "data", "pulse_return.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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

    def test_jobs_accepted_and_ignored(self, capsys):
        args = ["map", *AMP_FLAGS, "--k-min", "0.5", "--k-max", "50",
                "--rows", "3", "--cols", "4", "--lambda", "50"]
        _, serial = run(capsys, args)
        code, with_jobs = run(capsys, [*args, "--jobs", "2"])
        assert code == 0 and with_jobs == serial


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

    def test_schedule_file_and_detect(self, capsys, tmp_path):
        code, out = run(capsys, ["simulate", *AMP_FLAGS, "--k", "5",
                                 "--beta", "0.4", "--dt", "0.001",
                                 "--t-end", "40", "--ic", "0.1,0,0",
                                 "--detect"])
        rep = json.loads(out)
        assert rep["oscillating"] is True
        assert rep["bounded"] is True

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
        (["--ic", "nan,0,0"], "finite initial condition"),
        (["--t-end", "inf"], "finite t_end"),
        (["--dt", "inf"], "finite dt"),
    ])
    @pytest.mark.filterwarnings("ignore:dt above")
    def test_non_finite_inputs_exit_2(self, capsys, flags, reason):
        code = main(["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                     "--t-end", "0.01", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err

    def test_memory_error_exit_2(self, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "integrate", too_large)
        code = main(["simulate", *AMP_FLAGS, "--k", "5", "--beta", "0.4",
                     "--dt", "1e-9", "--t-end", "1e3"])
        assert code == 2
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"

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
        dest = tmp_path / "traj.csv"
        cli._write_trajectory(traj, str(dest))

        def _fmt(x):
            return format(float(x), ".17g")

        data = np.column_stack([traj.t, traj.states, traj.y, traj.extra["ye"]])
        expected = "".join([f"# mfa {__version__}\n", "t,x,xp,xn,y,ye\n",
                            *(",".join(_fmt(v) for v in row) + "\n" for row in data)])
        assert dest.read_text() == expected
        assert "-0," in expected and "4.9406564584124654e-324" in expected
        assert "1e+308" in expected


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


class TestMultichannel:
    def test_single_channel_matches_analyze(self, capsys):
        _, out_mc = run(capsys, ["multichannel", "--bank", BANK_SINGLE])
        mc = json.loads(out_mc)
        _, out_an = run(capsys, ["analyze", *AMP_FLAGS, "--k", "5",
                                 "--beta", "0.4"])
        an = json.loads(out_an)
        assert mc["regime"] == an["regime"]
        assert mc["lambda"] == pytest.approx(an["lambda"], rel=1e-9)
        assert mc["g0"] == pytest.approx(an["g0"])
        assert mc["k0_bar"] == pytest.approx(an["k0_bar"], rel=1e-9)
        assert mc["k2_bar"] == "unbounded" and an["k2_bar"] == "unbounded"
        assert mc["beta_star"] == pytest.approx(an["beta_star"], rel=1e-12)
        ys_mc = [e["y"] for e in mc["equilibria"]]
        ys_an = [e["y"] for e in an["equilibria"]]
        assert ys_mc == pytest.approx(ys_an, abs=1e-9)
        zs_mc = sorted(z[0] for z in mc["zeros"])
        zs_an = sorted(z[0] for z in an["zeros"])
        assert zs_mc == pytest.approx(zs_an, rel=1e-9)

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

    def test_trajectory_columns(self, capsys):
        code, out = run(capsys, ["interconnect", *AMP_FLAGS, "--k", "10",
                                 "--beta", "0.4", "--load", LOAD_JSON,
                                 "--dt", "0.001", "--t-end", "0.01",
                                 "--ic", "0.1,0,0,0,0"])
        assert code == 0
        assert out.splitlines()[1] == "t,x,xp,xn,q,qdot,y,ye"


class TestRecipeData:
    def test_shipped_files_parse(self):
        from mfa.interconnect import load_from_json
        from mfa.multichannel import bank_from_json
        from mfa.sim import InputSchedule

        with open(LOAD_JSON) as fh:
            load_from_json(fh.read())
        with open(BANK_SINGLE) as fh:
            bank_from_json(fh.read())
        with open(PULSE_JSON) as fh:
            InputSchedule.from_json(fh.read())
