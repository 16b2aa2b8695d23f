"""Exact frequency minimum, critical gains, and circle-criterion certificates."""

import math

import numpy as np
import pytest

from conftest import (
    RECIPES_DIR,
    analyze_report,
    brute_min_re,
    gain_scaled,
    reference_min_real_part,
)

from mfa.freq_analysis import (
    _gain,
    check_p_passivity,
    midpoint_rate,
    min_real_part,
    nyquist_locus,
)
from mfa.equilibria import LureLoop
from mfa.interconnect import InterfaceGains, LoadParams, load_from_json, load_tf
from mfa.multichannel import Channel, ChannelBank, bank_critical_balance
from mfa.tf_core import Polynomial, RationalTF, _companion_roots, tf_shift

TAUS = (0.01, 0.1, 1.0)


def mixed(k, beta, taus=TAUS):
    return LureLoop.amplifier(*taus, k, beta)


def beta_star(tau_p, tau_n):
    """The amplifier's critical balance: that of one unit-weight channel per
    bank."""
    return bank_critical_balance(ChannelBank((Channel(1.0, tau_p),)),
                                 ChannelBank((Channel(1.0, tau_n),)))


def unit_lag():
    return RationalTF(Polynomial([1.0]), Polynomial([1.0, 1.0]))


class TestMinRealPart:
    def test_positive_real_lag(self):
        mr, wat = min_real_part(unit_lag(), 0.0)
        assert mr == 0.0 and math.isinf(wat)

    def test_negative_dip_matches_oracle(self):
        p = mixed(1.0, 0.2)
        g = gain_scaled(p.g1, p.k)
        mr, _ = min_real_part(g, 0.0)
        oracle = brute_min_re(g, 0.0, 1e-3, 1e5)
        assert mr < 0.0
        assert mr == pytest.approx(oracle, rel=1e-6)

    def test_shifted_positive_realness(self):
        p = mixed(1.0, 0.4)
        g = gain_scaled(p.g1, p.k)
        mr, _ = min_real_part(g, 55.0)
        assert mr >= 0.0
        assert brute_min_re(g, 55.0, 1e-3, 1e5) >= 0.0

    def test_pole_on_shifted_axis(self):
        with pytest.raises(ArithmeticError, match="shifted imaginary axis"):
            min_real_part(mixed(1.0, 0.4).g1, 10.0)



def assert_exact_min(g, lam, omega_lo=1e-5, omega_hi=1e7, got=None):
    """min_real_part, or the (min_re, omega_at_min) pair ``got`` in its place,
    against the zoomed brute-force sweep, to 1e-9 of max |G(jw - lam)|, and
    its value is Re G at its own frequency."""
    gs = tf_shift(g, lam)

    def resp(w):
        s = 1j * np.asarray(w, dtype=float)
        return (np.polynomial.polynomial.polyval(s, gs.num.coeffs)
                / np.polynomial.polynomial.polyval(s, gs.den.coeffs))

    mr, w_at = min_real_part(g, lam) if got is None else got
    oracle = brute_min_re(g, lam, omega_lo, omega_hi, n=50_000, zoom=3)
    scale = float(np.abs(resp(np.append(0.0, np.geomspace(omega_lo, omega_hi, 2000)))).max())
    assert abs(mr - oracle) <= 1e-9 * scale, (mr, oracle, scale)
    if math.isinf(w_at):
        assert mr == (g.num.leading / g.den.leading if g.is_biproper else 0.0)
    else:
        assert abs(mr - float(resp(w_at).real)) <= 1e-12 * scale
    return mr, w_at


def random_bank(rng, m, n, close_pair=False):
    taus = np.sort(rng.uniform(0.01, 5.0, m + n))
    if close_pair:
        taus[1] = taus[0] + 2e-4
        taus = np.sort(taus)
    rho_p = rng.uniform(0.1, 1.0, m)
    rho_n = rng.uniform(0.1, 1.0, n)
    pos = ChannelBank(tuple(Channel(float(w), float(t)) for w, t in
                            zip(rho_p / rho_p.sum(), taus[:m])))
    neg = ChannelBank(tuple(Channel(float(w), float(t)) for w, t in
                            zip(rho_n / rho_n.sum(), taus[m:])))
    tau_l = float(rng.uniform(0.005, 20.0))
    return LureLoop.bank(tau_l, pos, neg, 1.0, float(rng.uniform(0.0, 1.0))).g1


class TestExactMinimum:
    def test_random_amplifiers(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            tp = float(rng.uniform(0.01, 0.5))
            tn = tp * float(rng.uniform(1.5, 30.0))
            tl = float(rng.uniform(0.005, 20.0))
            if tl == tp or tl == tn:
                tl *= 1.0001
            p = LureLoop.amplifier(tl, tp, tn, k=1.0, beta=float(rng.uniform(0.0, 1.0)))
            g = gain_scaled(p.g1, p.k)
            assert_exact_min(g, 0.0)
            assert_exact_min(g, midpoint_rate(g.poles()))

    @pytest.mark.parametrize("size", [2, 3])
    def test_random_banks(self, size):
        rng = np.random.default_rng(30 + size)
        for trial in range(20):
            g = random_bank(rng, size, size, close_pair=trial % 4 == 0)
            assert_exact_min(g, 0.0)
            assert_exact_min(g, midpoint_rate(g.poles()))

    def test_five_state_load_loop(self):
        with open(f"{RECIPES_DIR}/data/load_msd.json") as fh:
            load, iface = load_from_json(fh.read())
        for k in (1.0, 10.0, 100.0):
            for beta in (0.1, 0.4, 0.8):
                g = gain_scaled(LureLoop.load(mixed(1.0, beta), k, load, iface).g1, k)
                for lam in (0.0, 15.0, 55.0):
                    assert_exact_min(g, lam)

    def test_minimum_at_zero_frequency(self):
        g = RationalTF(Polynomial([-1.0]), Polynomial([1.0, 1.0]))
        assert assert_exact_min(g, 0.0) == (-1.0, 0.0)

    def test_minimum_at_infinity(self):
        # Re (jw + 2)/(jw + 1) = (2 + w^2)/(1 + w^2) falls to 1 as w grows
        g = RationalTF(Polynomial([2.0, 1.0]), Polynomial([1.0, 1.0]))
        assert assert_exact_min(g, 0.0) == (1.0, math.inf)

    def test_zero_numerator(self):
        g = RationalTF(Polynomial([0.0]), Polynomial([1.0, 3.0, 1.0]))
        assert min_real_part(g, 0.0) == (0.0, 0.0)
        assert min_real_part(g, 0.2) == (0.0, 0.0)

    def test_degenerate_quartic_minimum(self):
        # Solve for N so that Re N(jw)/D(jw) = m + c (w^2 - u0)^4 / |D(jw)|^2:
        # the minimum m at w = sqrt(u0) is quartic, and P'Q - PQ' has a
        # triple root there.
        den = Polynomial([24.0, 50.0, 35.0, 10.0, 1.0])  # (s+1)(s+2)(s+3)(s+4)
        m, c, u0 = -0.5, 0.01, 4.0
        w = np.linspace(0.5, 4.5, 9)
        s = 1j * w
        dv = np.polynomial.polynomial.polyval(s, den.coeffs)
        basis = np.array([(s ** k * np.conj(dv)).real for k in range(5)]).T
        target = m * np.abs(dv) ** 2 + c * (w ** 2 - u0) ** 4
        coeffs = np.linalg.lstsq(basis, target, rcond=None)[0]
        g = RationalTF(Polynomial(coeffs), den)
        probe = np.array([0.3, 1.7, 2.0, 2.6, 7.0])
        gv = (np.polynomial.polynomial.polyval(1j * probe, g.num.coeffs)
              / np.polynomial.polynomial.polyval(1j * probe, den.coeffs))
        expected = m + c * (probe ** 2 - u0) ** 4 / np.abs(
            np.polynomial.polynomial.polyval(1j * probe, den.coeffs)) ** 2
        assert np.allclose(gv.real, expected, rtol=0.0, atol=1e-12)
        mr, w_at = assert_exact_min(g, 0.0)
        assert abs(mr - m) <= 1e-12
        assert w_at == pytest.approx(2.0, rel=1e-3)


def _hex(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


def _seeded_loops(rng):
    """Amplifiers, 2+2 and 3+3 banks and load loops with random lags and
    gains, 100 of each."""
    def lags(n):
        return sorted(float(t) for t in 10.0 ** rng.uniform(-3.0, 1.0, n))

    for i in range(400):
        kind = i % 4
        if kind == 0:
            tl, tp, tn = lags(3)
            yield LureLoop.amplifier(
                float(rng.uniform(0.001, 10.0)), tp, tn, 1.0, float(rng.uniform(0.0, 1.0)))
        elif kind in (1, 2):
            m = 1 + kind
            taus = lags(2 * m + 1)
            rho = rng.uniform(0.1, 1.0, 2 * m)
            pos = ChannelBank(tuple(Channel(float(r / rho[:m].sum()), t)
                                    for r, t in zip(rho[:m], taus[:m])))
            neg = ChannelBank(tuple(Channel(float(r / rho[m:].sum()), t)
                                    for r, t in zip(rho[m:], taus[m:2 * m])))
            yield LureLoop.bank(taus[-1], pos, neg, 1.0, float(rng.uniform(0.0, 1.0)))
        else:
            tl, tp, tn = lags(3)
            tl, k, beta = (float(rng.uniform(0.001, 10.0)), float(10.0 ** rng.uniform(-1.0, 2.0)),
                           float(rng.uniform(0.0, 1.0)))
            load = LoadParams(*(float(v) for v in 10.0 ** rng.uniform(-1.0, 3.0, 4)))
            iface = InterfaceGains(*(float(v) for v in rng.uniform(0.0, 2.0, 2)))
            yield LureLoop.load(LureLoop.amplifier(tl, tp, tn, 1.0, beta), k, load, iface)


class TestStackedRoots:
    """Stationary points come from companion matrices stacked into one
    eigenvalue call, with the same bits as one ``np.roots`` call each."""

    def test_companion_roots_are_np_roots(self):
        rng = np.random.default_rng(1501)
        polys = []
        for i in range(3000):
            c = rng.uniform(-1.0, 1.0, int(rng.integers(3, 10)))
            c *= 10.0 ** rng.uniform(-8.0, 8.0, len(c))
            if i % 5 == 0:
                c[-int(rng.integers(1, 3)):] = 0.0  # roots at 0
            if i % 7 == 0:
                c[0] = 0.0  # a leading zero
            polys.append(c)
        polys += [np.zeros(4), np.array([0.0, 2.0, 0.0]), np.array([3.0])]
        stacked = _companion_roots(polys)
        for c, z in zip(polys, stacked):
            assert _hex(z) == _hex(np.roots(c))
            assert _hex(_companion_roots([c])[0]) == _hex(z)

    def test_min_real_part_matches_np_roots_path(self):
        rng = np.random.default_rng(1502)
        checked = 0
        for loop in _seeded_loops(rng):
            try:
                lam = midpoint_rate(loop.poles)
                want = [reference_min_real_part(loop.g1, r) for r in (0.0, lam)]
            except ArithmeticError:
                with pytest.raises(ArithmeticError):
                    min_real_part(loop.g1, (0.0, lam))
                continue
            got = min_real_part(loop.g1, (0.0, lam))
            assert [min_real_part(loop.g1, r) for r in (0.0, lam)] == list(got)
            assert [(m.hex(), w.hex()) for m, w in got] == [(m.hex(), w.hex()) for m, w in want]
            checked += 1
        assert checked > 350


def critical_gain(g, lam):
    return _gain(min_real_part(g, lam)[0])


class TestCriticalGain:
    def test_pure_negative_feedback_finite(self):
        p = mixed(1.0, 0.0)
        k0 = critical_gain(p.g1, 0.0)
        g = gain_scaled(p.g1, p.k)
        oracle = -1.0 / brute_min_re(g, 0.0, 1e-3, 1e5)
        assert 0.0 < k0 < math.inf
        assert k0 == pytest.approx(oracle, rel=1e-6)

    def test_unbounded_above_critical_balance(self):
        assert critical_gain(mixed(7.0, 0.4).g1, 55.0) == math.inf

    def test_gain_linearity(self):
        # min_re of G(s,k,b) is k times min_re of G(s,1,b), same frequency
        p1, p9 = mixed(1.0, 0.2), mixed(9.0, 0.2)
        m1, w1 = min_real_part(gain_scaled(p1.g1, p1.k), 0.0)
        m9, w9 = min_real_part(gain_scaled(p9.g1, p9.k), 0.0)
        assert m9 == pytest.approx(9.0 * m1, rel=1e-6)
        assert w9 == pytest.approx(w1, rel=1e-6)

    def test_pole_on_shifted_axis_raises(self):
        # a 1e10 s lag puts a pole at -1e-10, within 1e-9 of the axis at rate 0
        g = LureLoop.amplifier(0.01, 0.1, 1e10, k=5.0, beta=0.4).g1
        with pytest.raises(ArithmeticError, match="shifted imaginary axis"):
            critical_gain(g, 0.0)
        assert critical_gain(g, 55.0) > 0.0


class TestRateSelection:
    def test_fast_load(self):
        assert midpoint_rate(mixed(1.0, 0.2).g1.poles()) == pytest.approx(55.0)

    def test_slow_load(self):
        p = LureLoop.amplifier(10.0, 0.1, 1.0, k=1.0, beta=0.2)
        assert midpoint_rate(p.poles) == pytest.approx(5.5)

    def test_feasibility_window(self):
        loop = mixed(1.0, 0.3)
        for lam in (10.5, 25.0, 55.0, 99.5):
            assert loop.inertia(lam) == 2

    def test_midpoint_rate_matches_policy(self):
        g = mixed(1.0, 0.3).g1
        assert midpoint_rate(g.poles()) == pytest.approx(55.0, rel=1e-9)


class TestShiftedPoleCount:
    def test_stable_open_loop(self):
        assert mixed(1.0, 0.2).inertia(0.0) == 0

    def test_two_after_midpoint_shift(self):
        assert mixed(1.0, 0.2).inertia(55.0) == 2

    def test_all_three_for_large_rate(self):
        assert mixed(1.0, 0.2).inertia(200.0) == 3


class TestDominanceCertificate:
    def test_zero_dominant_at_small_gain(self):
        # gain 1 lies below the unit-gain loop's critical gain at rate 0
        assert critical_gain(mixed(1.0, 0.2).g1, 0.0) > 1.0

    def test_fails_condition3_at_large_gain(self):
        g1 = mixed(1.0, 0.2).g1
        assert critical_gain(g1, 0.0) < 1000.0
        cert = check_p_passivity(g1, 0.0, 0, 1000.0)
        assert not cert.passed
        assert cert.conditions[0] and cert.conditions[1] and not cert.conditions[2]

    def test_two_passive_for_any_gain(self):
        for k in (0.1, 10.0, 1000.0):
            cert = check_p_passivity(mixed(1.0, 0.4).g1, 55.0, 2, k)
            assert cert.passed
            assert cert.critical_gain == math.inf

    def test_certificate_invariants(self):
        for beta in (0.05, 0.4):  # below and above beta* = 1/11
            cert = check_p_passivity(mixed(1.0, beta).g1, 55.0, 2, 1.0)
            assert cert.passed == all(cert.conditions)
            assert math.isinf(cert.critical_gain) == (cert.min_re >= 0.0)
            if cert.min_re < 0.0:
                assert cert.critical_gain == -1.0 / cert.min_re

    def test_failure_encoded_not_raised(self):
        cert = check_p_passivity(mixed(1.0, 0.2).g1, 10.0, 2, 1.0)
        assert not cert.passed and not cert.conditions[0]
        assert math.isnan(cert.min_re) and math.isnan(cert.critical_gain)


class TestUnitGainCertificate:
    """A certificate taken on the unit-gain loop and scaled by k is the
    certificate of the gain-k transfer function: for k > 0,
    min Re kG1(jw - lam) = k min Re G1(jw - lam), and the poles do not
    depend on k."""

    @staticmethod
    def loops():
        rng = np.random.default_rng(16)
        with open(f"{RECIPES_DIR}/data/load_msd.json") as fh:
            load, iface = load_from_json(fh.read())
        for trial in range(24):
            tp = float(rng.uniform(0.01, 0.5))
            tn = tp * float(rng.uniform(1.5, 30.0))
            tl = float(rng.uniform(0.005, 20.0))
            k, beta = float(10.0 ** rng.uniform(-1.0, 3.0)), float(rng.uniform(0.0, 1.0))
            amp = LureLoop.amplifier(tl, tp, tn, 1.0, beta)
            lam = midpoint_rate(amp.poles)
            yield k, amp.g1 if trial % 2 == 0 else LureLoop.load(amp, k, load, iface).g1, lam

    def test_unit_gain_matches_gain_k(self):
        for k, g1, lam in self.loops():
            gk = gain_scaled(g1, k)
            for rate in (0.0, lam):
                unit = check_p_passivity(g1, rate, 2, k)
                direct = check_p_passivity(gk, rate, 2, 1.0)
                assert unit.conditions == direct.conditions, (k, rate)
                assert math.isinf(unit.critical_gain) == math.isinf(direct.critical_gain)
                assert_exact_min(gk, rate, got=(unit.min_re, unit.omega_at_min))


class TestPassivity:
    def test_positive_real_lag(self):
        assert check_p_passivity(unit_lag(), 0.0, 0, 1.0).passed

    def test_mass_spring_damper_shifted(self):
        cert = check_p_passivity(load_tf(LoadParams(350.0, 35.0, 1.0, 20.0)), 15.0, 0, 1.0)
        assert cert.passed

    def test_below_critical_balance_reports_min(self):
        p = mixed(1.0, 0.05)  # below beta* = 1/11
        cert = check_p_passivity(gain_scaled(p.g1, p.k), 55.0, 2, 1.0)
        assert not math.isnan(cert.min_re)
        assert cert.min_re < 0.0 and not cert.passed


class TestCriticalBalance:
    """The amplifier's critical balance tau_p/(tau_n + tau_p), the bank
    formula of single-channel banks."""

    def test_reference_values(self):
        assert beta_star(0.1, 1.0) == pytest.approx(1.0 / 11.0, abs=1e-15)
        assert beta_star(0.1, 0.3) == pytest.approx(0.25, abs=1e-15)

    def test_matches_infinite_zero(self):
        bstar = beta_star(0.1, 1.0)
        rep = analyze_report(TAUS, 1.0, bstar)
        assert rep["beta_star"] == bstar and rep["zero"] == "infinite"

    def test_vanishes_with_fast_positive_channel(self):
        assert beta_star(1e-6, 1.0) < 1e-5

    def test_domain(self):
        # a bank refuses a lag <= 0, and the amplifier whose balance analyze
        # reports refuses tau_p >= tau_n
        with pytest.raises(ValueError, match="tau > 0"):
            beta_star(0.0, 0.5)
        with pytest.raises(ValueError, match="tau_p < tau_n"):
            LureLoop.amplifier(0.01, 1.0, 0.5, 1.0, 0.5)

    def test_single_channel_value(self):
        # bit for bit tau_p/(tau_n + tau_p): P = tau_n and M = tau_p exactly
        rng = np.random.default_rng(22)
        for _ in range(1000):
            tp = float(10.0 ** rng.uniform(-3.0, 1.0))
            tn = tp * float(10.0 ** rng.uniform(0.0, 2.0))
            assert beta_star(tp, tn) == tp / (tn + tp)


class TestTheoremSixProperty:
    def test_passivity_above_critical_balance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            tp = float(rng.uniform(0.01, 0.5))
            tn = tp * float(rng.uniform(1.5, 30.0))
            tl = float(rng.uniform(0.005, 20.0))
            if tl == tp or tl == tn:
                continue
            bstar = beta_star(tp, tn)
            beta = float(rng.uniform(bstar + 1e-6, 1.0))
            g1 = LureLoop.amplifier(tl, tp, tn, 1.0, beta).g1
            cert = check_p_passivity(g1, midpoint_rate(g1.poles()), 2,
                                     float(rng.uniform(0.1, 100.0)))
            assert cert.passed, (tl, tp, tn, beta)


class TestNyquistLocus:
    def test_grid_contract(self):
        omegas = np.geomspace(0.1, 100.0, 50)
        locus = nyquist_locus(unit_lag(), 0.0, omegas)
        assert locus.shape == (50, 3)
        assert np.array_equal(locus[:, 0], omegas)
        assert locus[0, 1] > locus[-1, 1]  # lag rolls off

    def test_shifted_load_in_right_half_plane(self):
        g = load_tf(LoadParams(350.0, 35.0, 1.0, 20.0))
        locus = nyquist_locus(g, 15.0, np.geomspace(1e-2, 1e5, 2000))
        assert np.all(locus[:, 1] >= -1e-9)  # no nan: no sample near a pole

    def test_locus_below_critical_gain_stays_right_of_line(self):
        p1 = mixed(1.0, 0.2)
        k0 = critical_gain(p1.g1, 0.0)
        p = mixed(0.9 * k0, 0.2)
        locus = nyquist_locus(gain_scaled(p.g1, p.k), 0.0,
                              np.geomspace(1e-3, 1e5, 2000))
        assert np.all(locus[:, 1] > -1.0)
