"""Passive load interconnection: certificates, assembly, closed-loop behavior."""

import math
import os

import numpy as np
import pytest

from conftest import RECIPES_DIR, brute_min_re, fold_point

from mfa.cli import _read_bank, _read_load
from mfa.equilibria import UNSTABLE, LureLoop
from mfa.freq_analysis import check_p_passivity
from mfa.interconnect import (
    CompositionCertificate,
    InterfaceGains,
    LoadParams,
    compose_certificates,
    load_tf,
)
from mfa.sim import Trajectory, detect_oscillation, integrate
from mfa.tf_core import _horner, get_nonlinearity

K = 10.0
UNIT = LureLoop.amplifier(0.01, 0.1, 1.0, 1.0, 0.4)  # the channel loop at unit gain
AMP = LureLoop.amplifier(0.01, 0.1, 1.0, K, 0.4)
LOAD = LoadParams(a=350.0, b=35.0, kv=1.0, kp=20.0)
IFACE = InterfaceGains(ki=10.0, ko=1.0)


class TestLoadTf:
    def test_poles(self):
        imag = math.sqrt(4 * 350 - 35**2) / 2.0
        poles = load_tf(LOAD).poles()
        assert poles[0] == pytest.approx(complex(-17.5, -imag), rel=1e-12)
        assert poles[1] == pytest.approx(complex(-17.5, +imag), rel=1e-12)

    def test_dc_gain(self):
        g = load_tf(LOAD)
        assert _horner(g.num, 0.0) / _horner(g.den, 0.0) == pytest.approx(20.0 / 350.0)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError, match="kv > 0"):
            LoadParams(350.0, 35.0, 0.0, 20.0)
        with pytest.raises(ValueError, match="a > 0"):
            LoadParams(-1.0, 35.0, 1.0, 20.0)

    def test_json_parsing(self, tmp_path):
        path = tmp_path / "load.json"
        path.write_text('{"a": 350, "b": 35, "kv": 1, "kp": 20, "ki": 10, "ko": 1}')
        load, iface = _read_load(str(path))
        assert load == LOAD and iface == IFACE


class TestLoadPassivity:
    def test_reference_parameters_pass(self):
        cert = check_p_passivity(load_tf(LOAD), 15.0, 0, 1.0)
        assert cert.passed and cert.min_re >= 0.0

    def test_velocity_feedback_alone_insufficient(self):
        cert = check_p_passivity(load_tf(LoadParams(350.0, 35.0, 1.0, 0.01)), 15.0, 0, 1.0)
        assert not cert.passed and cert.min_re < 0.0

    def test_unshifted_reduces_to_positive_realness(self):
        cert = check_p_passivity(load_tf(LOAD), 0.0, 0, 1.0)
        g = load_tf(LOAD)
        assert cert.passed == (brute_min_re(g, 0.0, 1e-3, 1e4) >= -1e-12)


class TestComposition:
    def amp_cert(self, lam=15.0):
        return check_p_passivity(UNIT.g1, lam, 2, K)

    def test_two_plus_zero(self):
        comp = compose_certificates(self.amp_cert(),
                                    check_p_passivity(load_tf(LOAD), 15.0, 0, 1.0))
        assert comp == CompositionCertificate(2, 0, 15.0, 2, valid=True)

    def test_rate_mismatch(self):
        comp = compose_certificates(self.amp_cert(15.0),
                                    check_p_passivity(load_tf(LOAD), 50.0, 0, 1.0))
        assert not comp.valid and comp.reason == "rate mismatch"

    def test_rate_mismatch_by_one_ulp(self):
        # the rates are compared exactly: the next float up is another rate,
        # though both certificates pass there
        lam = 12.0
        comp = compose_certificates(
            self.amp_cert(lam),
            check_p_passivity(load_tf(LOAD), math.nextafter(lam, math.inf), 0, 1.0))
        assert not comp.valid and comp.reason == "rate mismatch"

    def test_two_zero_passive_blocks(self):
        c1 = check_p_passivity(load_tf(LOAD), 15.0, 0, 1.0)
        comp = compose_certificates(c1, c1)
        assert comp.valid and comp.p_total == 0

    def test_composition_matches_direct_loop_check(self):
        comp = compose_certificates(self.amp_cert(),
                                    check_p_passivity(load_tf(LOAD), 15.0, 0, 1.0))
        g1 = LureLoop.load(UNIT, K, LOAD, IFACE).g1
        direct = check_p_passivity(g1, 15.0, comp.p_total, K)
        assert comp.valid and direct.passed


class TestAssembly:
    def test_interface_gain_signs(self):
        with pytest.raises(ValueError, match="ki >= 0"):
            InterfaceGains(-1.0, 1.0)

    @pytest.mark.parametrize("gains", [(math.nan, 1.0), (1.0, math.inf)])
    def test_interface_gains_finite(self, gains):
        with pytest.raises(ValueError, match="requires finite ki >= 0 and ko >= 0"):
            InterfaceGains(*gains)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_load_values_finite(self, index, value):
        values = [350.0, 35.0, 1.0, 20.0]
        values[index] = value
        with pytest.raises(ValueError, match="requires finite (a|b|kv|kp) > 0"):
            LoadParams(*values)

    @pytest.mark.parametrize("load, iface", [
        (LOAD, InterfaceGains(1e300, 1e300)),  # ki kp ko / a overflows
        (LOAD, InterfaceGains(0.0, 1e308)),  # ko k in the realization overflows
        (LoadParams(1e-300, 35.0, 1.0, 20.0), InterfaceGains(1e10, 1e10)),
    ])
    def test_overflowing_loop_gain_refused(self, load, iface):
        with pytest.raises(ValueError, match="requires finite loop gains"):
            LureLoop.load(UNIT, K, load, iface)

    def test_cascade_bit_match(self):
        ss = LureLoop.load(UNIT, K, LOAD, InterfaceGains(0.0, 1.0)).ss
        full = integrate(ss, (0.1, 0, 0, 0, 0), dt=5e-4, t_end=2.0)
        alone = integrate(AMP.ss, (0.1, 0, 0), dt=5e-4, t_end=2.0)
        assert np.array_equal(full.states[:, :3], alone.states)
        assert np.abs(full.states[:, 3:]).max() > 0.0  # load is driven

    def test_severed_forward_path(self):
        ss = LureLoop.load(UNIT, K, LOAD, InterfaceGains(10.0, 0.0)).ss
        traj = integrate(ss, (0.1, 0, 0, 0.5, 0.5), dt=5e-4, t_end=3.0)
        assert np.abs(traj.states[-1, 3:]).max() < 1e-6  # load decays
        at_rest = integrate(ss, (0.1, 0, 0, 0.0, 0.0), dt=5e-4, t_end=3.0)
        alone = integrate(AMP.ss, (0.1, 0, 0), dt=5e-4, t_end=3.0)
        assert np.array_equal(at_rest.states[:, :3], alone.states)

    def test_extra_output_is_load_output(self):
        ss = LureLoop.load(UNIT, K, LOAD, IFACE).ss
        traj = integrate(ss, (0.1, 0, 0, 0.2, -0.3), dt=5e-4, t_end=0.01)
        expected = LOAD.kv * traj.states[:, 4] + LOAD.kp * traj.states[:, 3]
        assert traj.extra["ye"] == pytest.approx(expected)


class TestClosedLoopEquilibria:
    def test_reference_configuration_unique_unstable(self):
        eqs = LureLoop.load(UNIT, K, LOAD, IFACE).equilibria(0.0)
        assert len(eqs) == 1
        assert eqs[0].y_star == pytest.approx(0.0, abs=1e-9)
        assert eqs[0].stability == UNSTABLE
        assert len(eqs[0].eigenvalues) == 5

    def test_residual_of_field(self):
        ss = LureLoop.load(UNIT, K, LOAD, IFACE).ss
        for r in (0.0, 0.3, -0.7):
            for eq in LureLoop.load(UNIT, K, LOAD, IFACE).equilibria(r):
                a = np.array(ss.a)
                b = np.asarray(ss.b)
                state = np.asarray(eq.state)
                phi = get_nonlinearity("tanh")[0]
                v = float(np.asarray(ss.loop_row) @ state)
                resid = a @ state + b * (r - phi(v))
                assert np.abs(resid).max() < 1e-8

    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    @pytest.mark.parametrize("delta", [1e-6, 1e-7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_close_pair_next_to_fold(self, tag, delta, sign):
        unit = LureLoop.amplifier(0.01, 0.1, 1.0, 1.0, 1.0, nonlinearity=tag)
        kappa = IFACE.ki * LOAD.kp * IFACE.ko / LOAD.a
        _, r_fold = fold_point(tag, 1.0 / (2.0 * (1.0 + kappa)))
        eqs = LureLoop.load(unit, 2.0, LOAD, IFACE).equilibria(sign * (r_fold - delta))
        assert len(eqs) == 3

    def test_zero_loop_gain(self):
        unit = LureLoop.amplifier(0.01, 0.1, 1.0, 1.0, 0.5)
        eqs = LureLoop.load(unit, 10.0, LOAD, IFACE).equilibria(0.4)
        assert len(eqs) == 1 and eqs[0].y_star == 0.0
        assert eqs[0].state[0] == pytest.approx(0.4)


class TestClosedLoopBehavior:
    def test_limit_cycle_on_both_outputs(self):
        ss = LureLoop.load(UNIT, K, LOAD, IFACE).ss
        traj = integrate(ss, (0.1, 0, 0, 0, 0), dt=5e-4, t_end=50.0)
        rep_y = detect_oscillation(traj, transient_fraction=0.4)
        rep_ye = detect_oscillation(
            Trajectory(traj.t, traj.states, traj.extra["ye"], traj.schedule,
                       traj.labels), transient_fraction=0.4)
        assert rep_y.oscillating and rep_ye.oscillating
        assert rep_y.period == pytest.approx(rep_ye.period, rel=0.02)
        # soundness: valid 2-passive composition + all equilibria unstable
        # + bounded trajectories => oscillation
        eqs = LureLoop.load(UNIT, K, LOAD, IFACE).equilibria(0.0)
        assert all(e.stability == UNSTABLE for e in eqs)
        assert np.abs(traj.states).max() < 1e3

    def test_linearize_consistent_with_equilibrium_eigs(self):
        loop = LureLoop.load(UNIT, K, LOAD, IFACE)
        (eq,) = loop.equilibria(0.0)
        v = eq.y_star * (1.0 + IFACE.ki * LOAD.kp * IFACE.ko / LOAD.a)
        eigs = sorted(np.linalg.eigvals(loop.jacobians([v])[0]),
                      key=lambda z: (z.real, z.imag))
        assert np.allclose(eigs, eq.eigenvalues)


class TestLoadArguments:
    def test_requires_unit_gain_inner_loop(self):
        with pytest.raises(ValueError, match="requires a unit-gain inner loop"):
            LureLoop.load(AMP, K, LOAD, IFACE)

    @pytest.mark.parametrize("k, message", [(-1.0, "requires k >= 0"),
                                            (math.inf, "requires a finite k")])
    def test_gain_checked(self, k, message):
        with pytest.raises(ValueError, match=message):
            LureLoop.load(UNIT, k, LOAD, IFACE)


class TestBorderedBank:
    """The load borders a 2+2 channel bank, the channels, gain and balance of
    ``bank_two_by_two.json``, with k_o != 1, as it borders the amplifier."""

    IFACE = InterfaceGains(ki=0.3, ko=2.5)

    def loop(self):
        _, tau_l, pos, neg, k, beta = _read_bank(
            os.path.join(RECIPES_DIR, "data", "bank_two_by_two.json"))
        return k, LureLoop.load(LureLoop.bank(tau_l, pos, neg, 1.0, beta), k, LOAD, self.IFACE)

    def test_realization_has_the_transfer_function(self):
        k, loop = self.loop()
        a, b, c = np.array(loop.ss.a), np.array(loop.ss.b), np.array(loop.ss.loop_row)
        assert loop.ss.labels == ("x", "xp1", "xp2", "xn1", "xn2", "q", "qdot")
        for s in (0.3 + 2.0j, 5.0j, -3.0 + 40.0j):
            got = c @ np.linalg.solve(s * np.eye(7) - a, b)
            assert got == pytest.approx(k * _horner(loop.g1.num, s) / _horner(loop.g1.den, s),
                                        rel=1e-10)

    def test_equilibria_zero_the_vector_field(self):
        _, loop = self.loop()
        a, b, c = np.array(loop.ss.a), np.array(loop.ss.b), np.array(loop.ss.loop_row)
        counts = set()
        for r in (0.0, 0.01, -0.3):
            eqs = loop.equilibria(r)
            counts.add(len(eqs))
            for eq in eqs:
                x = np.array(eq.state)
                assert np.abs(a @ x + b * (r - math.tanh(c @ x))).max() < 1e-9
        assert counts == {1, 3}

    def test_dc_gain(self):
        k, loop = self.loop()
        a, b, c = np.array(loop.ss.a), np.array(loop.ss.b), np.array(loop.ss.loop_row)
        # u = r - phi(v) and v = G(0) u at rest, so phi(v) = r + v/g0 with
        # g0 = -G(0), G(0) = c_loop (-A)^-1 b = k G1(0)
        dc = c @ np.linalg.solve(-a, b)
        assert loop.g0 == pytest.approx(-dc, rel=1e-12)
        assert loop.g0 == pytest.approx(
            -k * _horner(loop.g1.num, 0.0) / _horner(loop.g1.den, 0.0), rel=1e-12)

    def test_two_shifted_poles_at_default_rate(self):
        _, loop = self.loop()
        assert loop.inertia(loop.rate()) == 2
