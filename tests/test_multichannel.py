"""Channel banks: assembly, interlacing, extended loop, diagonal realization."""

import json
import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from conftest import bisect_root, brute_min_re, exact_bank_numerator

from mfa.equilibria import LureLoop
from mfa.freq_analysis import _gain, midpoint_rate, min_real_part
from mfa.interconnect import InterfaceGains, LoadParams
from mfa.multichannel import (
    BETWEEN_NEGATIVE,
    BETWEEN_POSITIVE,
    COMPLEX_ZERO,
    OUTER,
    UNPLACED,
    Channel,
    ChannelBank,
    bank_critical_balance,
    bank_from_json,
    check_interlacing,
)
from mfa.sim import integrate
from mfa.tf_core import Polynomial, get_nonlinearity


def single_banks(tau_p=0.1, tau_n=1.0):
    return (ChannelBank((Channel(1.0, tau_p),)),
            ChannelBank((Channel(1.0, tau_n),)))


def two_by_two():
    pos = ChannelBank((Channel(0.5, 0.05), Channel(0.5, 0.1)))
    neg = ChannelBank((Channel(0.5, 1.0), Channel(0.5, 2.0)))
    return pos, neg


def random_banks(rng, max_size=4, beta_lo=0.05, beta_hi=0.95):
    m = int(rng.integers(1, max_size + 1))
    n = int(rng.integers(1, max_size + 1))
    taus = np.sort(rng.uniform(0.01, 10.0, m + n))
    while len(set(taus)) != m + n:
        taus = np.sort(rng.uniform(0.01, 10.0, m + n))
    rho_p = rng.uniform(0.1, 1.0, m)
    rho_p /= rho_p.sum()
    rho_n = rng.uniform(0.1, 1.0, n)
    rho_n /= rho_n.sum()
    pos = ChannelBank(tuple(Channel(float(w), float(tau))
                            for w, tau in zip(rho_p, taus[:m])))
    neg = ChannelBank(tuple(Channel(float(w), float(tau))
                            for w, tau in zip(rho_n, taus[m:])))
    beta = float(rng.uniform(beta_lo, beta_hi))
    return pos, neg, beta


def bank_tf(pos, neg, beta, tau_l=0.003):
    """Unit-gain transfer function of the bank loop, -C/(tau_l s + 1) with C
    the bank difference."""
    return LureLoop.bank(tau_l, pos, neg, 1.0, beta).g1


def random_loop(kind, rng):
    """A Lure loop from one of the three constructors, at a random gain."""
    if kind == "bank":
        pos, neg, beta = random_banks(rng, max_size=3)
        return LureLoop.bank(0.07, pos, neg, 4.2, beta)
    k, beta = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.0, 1.0))
    if kind == "amplifier":
        return LureLoop.amplifier(0.01, 0.1, 1.0, k, beta)
    load = LoadParams(*rng.uniform([250.0, 30.0, 0.5, 10.0], [450.0, 40.0, 1.5, 30.0]))
    return LureLoop.load(LureLoop.amplifier(0.01, 0.1, 1.0, 1.0, beta), k, load,
                         InterfaceGains(*rng.uniform([5.0, 0.5], [15.0, 1.5])))


def bank_response(bank, s):
    """Direct evaluation sum_i rho_i/(tau_i s + 1)."""
    return sum(ch.rho / (ch.tau * s + 1.0) for ch in bank.channels)


def bank_difference(pos, neg, beta, s):
    """Direct sum-form evaluation, independent of polynomial assembly."""
    return beta * bank_response(pos, s) - (1.0 - beta) * bank_response(neg, s)


class TestBankInvariants:
    def test_unit_gain_required(self):
        with pytest.raises(ValueError, match="unit bank gain"):
            ChannelBank((Channel(0.6, 0.1), Channel(0.6, 0.2)))

    def test_distinct_taus(self):
        with pytest.raises(ValueError, match="distinct"):
            ChannelBank((Channel(0.5, 0.1), Channel(0.5, 0.1)))

    def test_positive_weights(self):
        with pytest.raises(ValueError, match="rho > 0"):
            ChannelBank((Channel(-0.5, 0.1), Channel(1.5, 0.2)))

    def test_time_scale_ordering(self):
        pos = ChannelBank((Channel(1.0, 2.0),))
        neg = ChannelBank((Channel(1.0, 1.0),))
        with pytest.raises(ValueError, match="time-scale ordering"):
            LureLoop.bank(0.01, pos, neg, 1.0, 0.5)
        with pytest.raises(ValueError, match="requires 0 <= beta <= 1"):
            LureLoop.bank(0.01, neg, pos, 1.0, 1.5)


class TestBuildChannelTf:
    """The bank loop's unit-gain transfer function -C/(tau_l s + 1): its
    numerator is the bank difference C over the channel lags, negated."""

    def test_single_channel_base_case(self):
        pos, neg = single_banks()
        beta = 0.8
        c = bank_tf(pos, neg, beta)
        assert c.den.degree == 3 and c.num.degree == 1
        # zero matches the closed form of the weighted two-lag difference
        (z,) = c.zeros()
        expected = (1.0 - 2 * beta) / (beta * 1.1 - 0.1)
        assert z.real == pytest.approx(expected, rel=1e-12)

    def test_matches_sum_form(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pos, neg, beta = random_banks(rng)
            c = bank_tf(pos, neg, beta)
            s = complex(rng.normal(), rng.normal())
            direct = -bank_difference(pos, neg, beta, s) / (0.003 * s + 1.0)
            assert c.num(s) / c.den(s) == pytest.approx(direct, rel=1e-10)

    def test_negative_bank_limit(self):
        pos, neg = two_by_two()
        c = bank_tf(pos, neg, 0.0)
        # C = -Cn over the full common denominator: one interlaced zero of
        # the negative bank, plus the positive-bank factors untouched
        zs = sorted(z.real for z in c.zeros())
        n_poles = sorted(neg.poles())
        interlaced = [z for z in zs if n_poles[0] < z < n_poles[1]]
        assert len(interlaced) == 1

    def test_reference_two_by_two_zeros(self):
        pos, neg = two_by_two()
        c = bank_tf(pos, neg, 0.6)
        zs = sorted(z.real for z in c.zeros())
        assert len(zs) == 3
        assert -20.0 < zs[0] < -10.0
        assert -1.0 < zs[1] < -0.5
        assert zs[2] > -0.5
        # independent oracle: bisection on the sum form over each gap
        f = lambda x: bank_difference(pos, neg, 0.6, complex(x, 0.0)).real
        for lo, hi, z in ((-19.99, -10.01, zs[0]), (-0.999, -0.501, zs[1])):
            assert bisect_root(f, lo, hi) == pytest.approx(z, abs=1e-9)


class TestExactNumerator:
    def test_coefficients_within_rounding_of_exact_expansion(self):
        # every coefficient of the unit-gain numerator lies within 16 eps of
        # the exact expansion, relative to the sum of |terms| it adds up:
        # a few roundings per lag factor, for at most eight channels
        eps = Fraction(np.finfo(float).eps)
        rng = np.random.default_rng(1901)
        sizes = set()
        for trial in range(320):
            pos, neg, beta = random_banks(rng, beta_lo=0.0, beta_hi=1.0)
            beta = (0.0, 1.0, beta, beta)[trial % 4]
            sizes.add((len(pos.channels), len(neg.channels)))
            exact, scales = exact_bank_numerator(pos, neg, beta)
            got = bank_tf(pos, neg, beta).num.coeffs
            assert len(got) <= len(exact)
            for c, e, scale in zip_longest(got, exact, scales, fillvalue=0.0):
                assert abs(Fraction(c) - e) <= 16 * eps * scale, (pos, neg, beta)
        assert sizes == {(m, n) for m in range(1, 5) for n in range(1, 5)}


class TestInterlacing:
    def test_single_channel_outer_zero(self):
        pos, neg = single_banks()
        rep = check_interlacing(pos, neg, bank_tf(pos, neg, 0.8).zeros())
        assert rep.satisfied and rep.pattern == (OUTER,)

    def test_reference_pattern(self):
        pos, neg = two_by_two()
        rep = check_interlacing(pos, neg, bank_tf(pos, neg, 0.6).zeros())
        assert rep.satisfied
        assert rep.pattern == (BETWEEN_POSITIVE, BETWEEN_NEGATIVE, OUTER)
        # hand-made zeros against the poles -20, -10 (positive bank) and -1,
        # -0.5 (negative bank): a complex pair, two zeros in the positive gap
        # with none in the negative one, and a zero between the banks
        for zeros, pattern in [
            ([-15.0, complex(-3.0, 2.0), complex(-3.0, -2.0)],
             (BETWEEN_POSITIVE, COMPLEX_ZERO, COMPLEX_ZERO)),
            ([-16.0, -12.0, -30.0], (OUTER, BETWEEN_POSITIVE, BETWEEN_POSITIVE)),
            ([-15.0, -5.0, -0.7], (BETWEEN_POSITIVE, UNPLACED, BETWEEN_NEGATIVE)),
        ]:
            rep = check_interlacing(pos, neg, zeros)
            assert rep.pattern == pattern and not rep.satisfied
            assert rep.zeros == tuple(sorted(complex(z).real for z in zeros))

    def test_random_banks_property(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            pos, neg, beta = random_banks(rng)
            m, n = len(pos.channels), len(neg.channels)
            rep = check_interlacing(pos, neg, bank_tf(pos, neg, beta).zeros())
            assert rep.satisfied, (pos, neg, beta)
            assert len(rep.zeros) == m + n - 1
            assert rep.pattern.count(BETWEEN_POSITIVE) == m - 1
            assert rep.pattern.count(BETWEEN_NEGATIVE) == n - 1
            assert rep.pattern.count(OUTER) == 1

    def test_loop_zeros_give_the_same_report(self):
        # the unit-gain numerator -C depends on neither the load lag nor the
        # gain, so the zeros the loop hands over give one report
        rng = np.random.default_rng(34)
        for _ in range(100):
            pos, neg, beta = random_banks(rng)
            k = float(rng.uniform(0.5, 20.0))
            fast, slow = (LureLoop.bank(tau_l, pos, neg, k, beta).g1 for tau_l in (0.003, 50.0))
            assert fast.num.coeffs == slow.num.coeffs
            assert (check_interlacing(pos, neg, fast.zeros())
                    == check_interlacing(pos, neg, slow.zeros()))

    def test_sign_change_witness(self):
        # the difference flips sign across each same-bank pole gap
        rng = np.random.default_rng(35)
        pos, neg, beta = random_banks(rng, max_size=4)
        eps = 1e-7
        for bank in (pos, neg):
            poles = bank.poles()
            for p1, p2 in zip(poles, poles[1:]):
                v_right = bank_difference(pos, neg, beta, complex(p1 + eps)).real
                v_left = bank_difference(pos, neg, beta, complex(p2 - eps)).real
                assert v_right * v_left < 0.0

    def test_outer_zero_escapes_at_critical_balance(self):
        pos, neg = single_banks()
        blim = bank_critical_balance(pos, neg)
        assert blim == pytest.approx(0.1 / 1.1, rel=1e-12)
        mags = []
        for beta in (blim + 0.05, blim + 0.02, blim + 0.005, blim + 0.0005):
            rep = check_interlacing(pos, neg, bank_tf(pos, neg, beta).zeros())
            (outer,) = [z for z, p in zip(rep.zeros, rep.pattern) if p == OUTER]
            mags.append(abs(outer))
        assert mags == sorted(mags)
        assert mags[-1] > 50.0 * mags[0]


class TestCriticalBalance:
    """M/(P + M), the balance at which the numerator's top coefficient
    vanishes, for every bank size."""

    def test_within_rounding_of_exact_value(self):
        # against the exact balance of the double inputs: P and M in exact
        # rational arithmetic, one ratio at the end
        eps = Fraction(np.finfo(float).eps)
        rng = np.random.default_rng(2201)
        sizes = set()
        for _ in range(400):
            pos, neg, _ = random_banks(rng, max_size=3)
            sizes.add((len(pos.channels), len(neg.channels)))
            chans = pos.sorted_channels() + neg.sorted_channels()
            tops = [Fraction(ch.rho) * math.prod(Fraction(c.tau) for j, c in enumerate(chans)
                                                 if j != i)
                    for i, ch in enumerate(chans)]
            p, m = sum(tops[:len(pos.channels)]), sum(tops[len(pos.channels):])
            exact = m / (p + m)
            assert abs(Fraction(bank_critical_balance(pos, neg)) - exact) <= 2 * eps * exact
        assert sizes == {(m, n) for m in range(1, 4) for n in range(1, 4)}

    def test_top_coefficient_changes_sign(self):
        # the loop's numerator -(beta (P + M) - M) has its top coefficient
        # of one sign below the balance and of the other above it
        rng = np.random.default_rng(2202)
        for _ in range(100):
            pos, neg, _ = random_banks(rng, max_size=3)
            b = bank_critical_balance(pos, neg)
            below, above = (bank_tf(pos, neg, beta).num.coeffs for beta in (b * 0.999, b * 1.001))
            n = len(pos.channels) + len(neg.channels) - 1
            assert len(below) == len(above) == n + 1
            assert below[n] > 0.0 > above[n]


class TestExtendedOpenLoop:
    def test_base_case_reduces_to_three_state(self):
        pos, neg = single_banks()
        gb = LureLoop.bank(0.01, pos, neg, 5.0, 0.8).g1
        ge = LureLoop.amplifier(0.01, 0.1, 1.0, 5.0, 0.8).g1
        assert gb.num.coeffs == ge.num.coeffs and gb.den.coeffs == ge.den.coeffs
        # the three-state closed form -[(2 beta - 1) + (beta (tau_n + tau_p) - tau_p) s]
        # over (tau_l s + 1)(tau_p s + 1)(tau_n s + 1)
        assert gb.num.coeffs == (-(2 * 0.8 - 1.0), -(0.8 * (1.0 + 0.1) - 0.1))
        assert gb.den.coeffs == (Polynomial([1.0, 0.01]) * Polynomial([1.0, 0.1])
                                 * Polynomial([1.0, 1.0])).coeffs

    def test_dc_value_independent_of_bank_size(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            pos, neg, beta = random_banks(rng)
            k = float(rng.uniform(0.1, 20.0))
            loop = LureLoop.bank(17.0, pos, neg, k, beta)
            assert loop.k * loop.g1.num(0.0) / loop.g1.den(0.0) == pytest.approx(
                k * (1 - 2 * beta), abs=1e-10)

    def test_pole_set(self):
        pos, neg = two_by_two()
        got = sorted(p.real for p in LureLoop.bank(0.001, pos, neg, 2.0, 0.6).poles)
        assert got == pytest.approx([-1000.0, -20.0, -10.0, -1.0, -0.5], rel=1e-7)

    def test_dominance_check_agrees_with_sweep_oracle(self):
        pos, neg = two_by_two()
        loop = LureLoop.bank(0.01, pos, neg, 1.0, 0.6)
        g1 = loop.g1
        lam = midpoint_rate(g1.poles())
        assert loop.inertia(lam) == 2
        min_re, _ = min_real_part(g1, lam)
        oracle = brute_min_re(g1, lam, 1e-4, 1e6)
        assert min_re == pytest.approx(oracle, rel=1e-3)
        assert (_gain(min_re) > 1.0) == (oracle > -1.0)

    def test_tau_l_collision_rejected(self):
        pos, neg = two_by_two()
        with pytest.raises(ValueError, match="tau_l"):
            LureLoop.bank(0.05, pos, neg, 1.0, 0.5)

    def test_infinite_gain_rejected(self):
        # 1/g0 would be 0, a slope solve_phi_line does not take
        pos, neg = two_by_two()
        with pytest.raises(ValueError, match="finite k"):
            LureLoop.bank(0.01, pos, neg, float("inf"), 0.6)


class TestDiagonalRealization:
    def test_base_case_matches_amplifier(self):
        pos, neg = single_banks()
        ss = LureLoop.bank(0.01, pos, neg, 5.0, 0.4).ss
        ref = LureLoop.amplifier(0.01, 0.1, 1.0, 5.0, 0.4).ss
        assert ss.a == ref.a and ss.b == ref.b and ss.c == ref.c

    @pytest.mark.parametrize("kind", ["amplifier", "bank", "load"])
    def test_transfer_function_agreement(self, kind):
        rng = np.random.default_rng(39)
        loop = random_loop(kind, rng)
        ss, g1 = loop.ss, loop.g1
        a = np.array(ss.a)
        b = np.asarray(ss.b)
        c = np.asarray(ss.loop_row)
        eye = np.eye(ss.dim)
        for _ in range(16):
            s = complex(rng.normal(), rng.normal())
            via_ss = c @ np.linalg.solve(s * eye - a, b)
            via_tf = loop.k * g1.num(s) / g1.den(s)
            assert abs(via_ss - via_tf) <= 1e-8 * abs(via_tf)

    @pytest.mark.parametrize("kind", ["amplifier", "bank", "load"])
    def test_equilibria_are_fixed_points(self, kind):
        # A x* + b (r - phi(v*)) = 0 and c_loop x* = v*, with v* = v_per_y y*
        rng = np.random.default_rng(43)
        for _ in range(20):
            loop = random_loop(kind, rng)
            phi = get_nonlinearity(loop.ss.nonlinearity)[0]
            a = np.array(loop.ss.a)
            b = np.asarray(loop.ss.b)
            c = np.asarray(loop.ss.loop_row)
            for r in (0.0, 0.3, -0.7):
                for eq in loop.equilibria(r):
                    x = np.asarray(eq.state)
                    v = eq.y_star * loop.v_per_y
                    assert c @ x == pytest.approx(v, rel=1e-9, abs=1e-12)
                    resid = a @ x + b * (r - phi(v))
                    assert np.abs(resid).max() <= 1e-9 * np.abs(a).max()

    def test_steady_state_channels_track_load(self):
        pos, neg = two_by_two()
        ss = LureLoop.bank(0.01, pos, neg, 0.5, 0.3).ss
        traj = integrate(ss, tuple([0.0] * ss.dim),
                         schedule=None, dt=1e-3, t_end=60.0)
        final = traj.states[-1]
        assert np.abs(final[1:] - final[0]).max() < 1e-9

    def test_oscillates_like_three_state_skeleton(self):
        from mfa.sim import detect_oscillation

        pos = ChannelBank((Channel(0.5, 0.09), Channel(0.5, 0.11)))
        neg = ChannelBank((Channel(0.5, 0.9), Channel(0.5, 1.1)))
        ss = LureLoop.bank(0.01, pos, neg, 5.0, 0.4).ss
        rep = detect_oscillation(integrate(ss, (0.1, 0, 0, 0, 0),
                                           dt=1e-3, t_end=50.0))
        ref = detect_oscillation(integrate(
            LureLoop.amplifier(0.01, 0.1, 1.0, 5.0, 0.4).ss, (0.1, 0, 0),
            dt=1e-3, t_end=50.0))
        assert rep.oscillating and ref.oscillating
        assert rep.period == pytest.approx(ref.period, rel=0.05)


class TestEquilibriumReuse:
    def test_counts_independent_of_bank_size(self):
        # unit-gain banks leave g0 = k(2 beta - 1) unchanged, so the scalar
        # equilibrium count matches the three-state case for any bank sizes
        from mfa.equilibria import solve_phi_line
        from mfa.tf_core import get_nonlinearity

        rng = np.random.default_rng(41)
        phi, _, slope_inverse = get_nonlinearity("tanh")
        for _ in range(40):
            pos, neg, beta = random_banks(rng)
            k = float(rng.uniform(0.1, 30.0))
            g0 = k * (2 * beta - 1)
            if g0 == 0.0 or abs(g0 - 1.0) < 1e-3:
                continue
            bank_count = len(solve_phi_line(phi, 1.0 / g0, 0.0, slope_inverse))
            ref = LureLoop.amplifier(123.0, 0.1, 1.0, k, beta)
            assert ref.g0 == pytest.approx(g0)
            assert bank_count == len(ref.equilibria(0.0))


class TestBankJson:
    def test_round_trip(self):
        pos, neg = two_by_two()
        text = json.dumps({
            "tau_l": 0.01,
            "positive": [{"rho": ch.rho, "tau": ch.tau} for ch in pos.channels],
            "negative": [{"rho": ch.rho, "tau": ch.tau} for ch in neg.channels],
            "k": 5.0,
            "beta": 0.6,
        })
        tau_l, p2, n2, k, beta = bank_from_json(text)
        assert (tau_l, k, beta) == (0.01, 5.0, 0.6)
        assert p2.channels == pos.channels
        assert n2.channels == neg.channels
