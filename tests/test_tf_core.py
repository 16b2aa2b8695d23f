"""Polynomial/transfer-function arithmetic against closed-form oracles."""

import math

import numpy as np
import pytest

from conftest import analyze_report, gain_scaled, reference_shift

from mfa.equilibria import LureLoop
from mfa.tf_core import (
    Polynomial,
    RationalTF,
    get_nonlinearity,
    poly_roots,
    tf_multiply,
    tf_shift,
)

TAUS = (0.01, 0.1, 1.0)


def mixed(k, beta, taus=TAUS):
    return LureLoop.amplifier(*taus, k, beta)


class TestPolyRoots:
    def test_linear_factor(self):
        assert poly_roots(Polynomial([1.0, 1.0])) == [(-1 + 0j)]

    def test_quadratic_formula(self):
        # roots of 350 + 35 s + s^2: (-35 +/- sqrt(35^2 - 4*350))/2
        imag = math.sqrt(4 * 350 - 35**2) / 2.0
        roots = poly_roots(Polynomial([350.0, 35.0, 1.0]))
        assert roots[0] == pytest.approx(complex(-17.5, -imag), rel=1e-12)
        assert roots[1] == pytest.approx(complex(-17.5, +imag), rel=1e-12)

    def test_constructed_from_factors(self):
        p = Polynomial([1, 0.01]) * Polynomial([1, 0.1]) * Polynomial([1, 1.0])
        roots = poly_roots(p)
        assert np.allclose(roots, [-100.0, -10.0, -1.0], rtol=1e-9)
        assert all(z.imag == 0.0 for z in roots)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="degenerate polynomial"):
            poly_roots(Polynomial([0.0]))

    def test_constant_has_no_roots(self):
        assert poly_roots(Polynomial([3.0])) == []

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="cap"):
            poly_roots(Polynomial([1.0] * 40))

    def test_conjugate_ordering(self):
        roots = poly_roots(Polynomial([2.0, 0.0, 1.0]))  # +/- j sqrt(2)
        assert roots[0].imag < 0 < roots[1].imag
        assert roots[0] == roots[1].conjugate()

    def test_linear_root_is_the_companion_eigenvalue(self):
        # -a0/a1 is the eigenvalue np.roots takes of the 1x1 companion
        # matrix, bit for bit; a root at 0 is 0.0 either way
        rng = np.random.default_rng(1203)
        for i in range(2000):
            c0, c1 = rng.uniform(-1, 1, 2) * 10.0 ** rng.uniform(-8, 8, 2)
            if i % 10 == 0:
                c0 = -0.0 if i % 20 else 0.0
            (got,) = poly_roots(Polynomial([c0, c1]))
            want = complex(np.roots([c1, c0])[0])
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_root_coefficient_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            deg = int(rng.integers(1, 7))
            coeffs = rng.uniform(-2, 2, deg + 1)
            coeffs[-1] = rng.uniform(0.5, 2.0)
            p = Polynomial(coeffs)
            rebuilt = np.poly(poly_roots(p))[::-1]
            monic = [c / p.leading for c in p.coeffs]
            scale = max(1.0, max(abs(c) for c in monic))
            err = max(abs(a - b) for a, b in zip(monic, rebuilt))
            assert err < 1e-8 * scale


class TestBuildMixed:
    def test_dc_value(self):
        g = gain_scaled(mixed(5.0, 0.2).g1, 5.0)
        assert g.num(0.0) / g.den(0.0) == pytest.approx(3.0, rel=1e-14)

    def test_balanced_numerator_has_zero_constant(self):
        g = gain_scaled(mixed(2.0, 0.5).g1, 2.0)
        assert g.num.coeffs[0] == 0.0
        assert g.num.coeffs[-1] == pytest.approx(-2.0 * (0.5 * 1.1 - 0.1))

    def test_zero_gain_severs_loop(self):
        g = gain_scaled(mixed(0.0, 0.3).g1, 0.0)
        assert g.num.is_zero

    def test_dc_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            tp = float(rng.uniform(0.01, 1.0))
            tn = tp * float(rng.uniform(1.5, 20.0))
            tl = float(rng.uniform(0.005, 5.0))
            if tl in (tp, tn):
                continue
            k, beta = float(rng.uniform(0, 50)), float(rng.uniform(0, 1))
            g = gain_scaled(LureLoop.amplifier(tl, tp, tn, k, beta).g1, k)
            assert g.num(0.0) / g.den(0.0) == pytest.approx(k * (1 - 2 * beta), abs=1e-12)

    def test_parameter_invariants(self):
        with pytest.raises(ValueError, match="tau_p < tau_n"):
            LureLoop.amplifier(0.01, 1.0, 0.5, 1.0, 0.5)
        with pytest.raises(ValueError, match="distinct"):
            LureLoop.amplifier(0.1, 0.1, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="beta"):
            LureLoop.amplifier(0.01, 0.1, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError, match="k >= 0"):
            LureLoop.amplifier(0.01, 0.1, 1.0, -1.0, 0.5)
        with pytest.raises(ValueError, match="finite k"):
            LureLoop.amplifier(0.01, 0.1, 1.0, math.inf, 0.5)


class TestShift:
    def test_zero_shift_identity(self):
        g = gain_scaled(mixed(5.0, 0.2).g1, 5.0)
        gs = tf_shift(g, 0.0)
        assert gs.num.coeffs == g.num.coeffs
        assert gs.den.coeffs == g.den.coeffs

    def test_single_pole_translation(self):
        g = RationalTF(Polynomial([1.0]), Polynomial([1.0, 1.0]))
        gs = tf_shift(g, 5.0)
        assert gs.den.coeffs == pytest.approx((-4.0, 1.0))

    def test_zero_rate_turns_negative_zero_positive(self):
        # at beta = 0.5 the numerator's constant is -k * 0.0 = -0.0; the
        # re-expansion sum gives 0.0, and so does the rate-0 shortcut
        g = gain_scaled(mixed(2.0, 0.5).g1, 2.0)
        assert g.num.coeffs[0].hex() == "-0x0.0p+0"
        gs = tf_shift(g, 0.0)
        for got, poly in ((gs.num, g.num), (gs.den, g.den)):
            want = reference_shift(poly.coeffs, 0.0)
            assert [c.hex() for c in got.coeffs] == [c.hex() for c in want]
        assert gs.num.coeffs[0].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("degree", range(9))
    def test_recurrence_matches_convolution_loop(self, degree):
        rng = np.random.default_rng(1200 + degree)
        for _ in range(200):
            coeffs = rng.uniform(-1, 1, degree + 1) * 10.0 ** rng.uniform(-3, 3, degree + 1)
            if degree and rng.uniform() < 0.3:
                coeffs[rng.integers(0, degree)] = rng.choice([0.0, -0.0])
            p = Polynomial(coeffs)
            rates = (0.0, -float(10.0 ** rng.uniform(-3, 4)), float(10.0 ** rng.uniform(-3, 4)),
                     1e4, -1e4)
            for lam in rates:
                got, want = p.shifted(lam).coeffs, reference_shift(p.coeffs, lam)
                assert got == want
                assert [c.hex() for c in got] == [c.hex() for c in want]

    def test_pole_translation_mixed(self):
        g = mixed(1.0, 0.2).g1
        shifted = sorted(z.real for z in tf_shift(g, 55.0).poles())
        assert shifted == pytest.approx([-45.0, 45.0, 54.0], rel=1e-9)

    def test_shift_homomorphism_random(self):
        rng = np.random.default_rng(3)
        from conftest import random_proper_tf

        for _ in range(300):
            g = random_proper_tf(rng)
            l1, l2 = rng.uniform(0, 2.0, 2)
            a = tf_shift(g, l1 + l2)
            b = tf_shift(tf_shift(g, l1), l2)
            for pa, pb in ((a.num, b.num), (a.den, b.den)):
                scale = max(1.0, max(abs(c) for c in pa.coeffs))
                assert max(abs(x - y) for x, y in zip(pa.coeffs, pb.coeffs)) \
                    < 1e-12 * scale


class TestKnownPoles:
    def test_roots_sorted_like_poly_roots(self):
        g = RationalTF(Polynomial([1.0]), Polynomial([2.0, 0.0, 1.0]),
                       [complex(0.0, 2.0 ** 0.5), complex(0.0, -(2.0 ** 0.5))])
        assert g.poles() == poly_roots(g.den)

    def test_root_count_checked(self):
        with pytest.raises(ValueError, match="one root per denominator degree"):
            RationalTF(Polynomial([1.0]), Polynomial([1.0, 1.0, 1.0]), [-1.0])


def analyze_zero(k, beta, taus=TAUS):
    """The ``"zero"`` and ``"zeros"`` fields of ``mfa analyze``."""
    rep = analyze_report(taus, k, beta)
    return rep["zero"], rep["zeros"]


class TestZeroMixed:
    """The open-loop zero location (2 beta - 1)/(beta (tau_p + tau_n) - tau_p)
    that ``analyze`` reports, n0/n1 of the unit-gain numerator n0 + n1 s, and
    "infinite" within a few ulps of the critical balance."""

    def test_balanced_zero_at_origin(self):
        assert analyze_zero(2.0, 0.5)[0] == 0.0

    def test_positive_dominant_value(self):
        assert analyze_zero(5.0, 0.8)[0] == pytest.approx(0.6 / 0.78, rel=1e-12)

    def test_infinite_at_critical_balance(self):
        assert analyze_zero(5.0, 1.0 / 11.0)[0] == "infinite"
        assert analyze_zero(5.0, 0.1 / 1.1)[0] == "infinite"

    def test_requires_positive_gain(self):
        assert analyze_zero(0.0, 0.3) == (None, [])

    def test_mirrors_numerator_root(self):
        # the numerator root of the open loop sits at exactly -z
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 1000:
            tp = float(rng.uniform(0.01, 1.0))
            tn = tp * float(rng.uniform(1.5, 20.0))
            beta = float(rng.uniform(0, 1))
            if abs(beta - tp / (tp + tn)) < 1e-6:
                continue
            z, ((root, imag),) = analyze_zero(1.0, beta, (2.345 * tn, tp, tn))
            assert imag == 0.0 and abs(z + root) <= 1e-10 * abs(z)
            checked += 1


class TestMultiplyEval:
    def test_identity_factor(self):
        g = gain_scaled(mixed(5.0, 0.2).g1, 5.0)
        one = RationalTF(Polynomial([1.0]), Polynomial([1.0]))
        gg = tf_multiply(g, one)
        assert gg.num.coeffs == g.num.coeffs and gg.den.coeffs == g.den.coeffs

    def test_factored_product(self):
        a = RationalTF(Polynomial([1.0]), Polynomial([1.0, 1.0]))
        b = RationalTF(Polynomial([1.0]), Polynomial([2.0, 1.0]))
        ab = tf_multiply(a, b)
        assert ab.den.coeffs == pytest.approx((2.0, 3.0, 1.0))

    def test_degree_bookkeeping(self):
        g = gain_scaled(mixed(5.0, 0.8).g1, 5.0)
        e = RationalTF(Polynomial([1.0, 0.2]), Polynomial([1.0, 0.05]))  # bi-proper
        ge = tf_multiply(g, e)
        assert ge.num.degree == g.num.degree + e.num.degree
        assert ge.den.degree == g.den.degree + e.den.degree

    def test_pure_feedback_dc_signs(self):
        for beta, dc in ((0.0, 1.0), (1.0, -1.0)):
            g = mixed(1.0, beta).g1
            assert g.num(0.0) / g.den(0.0) == pytest.approx(dc)

    def test_high_frequency_rolloff(self):
        g = mixed(1.0, 0.2).g1
        hi = abs(g.num(1j * 1e6) / g.den(1j * 1e6))
        lo = abs(g.num(1j * 1e5) / g.den(1j * 1e5))
        assert hi / lo == pytest.approx(1e-2, rel=1e-2)  # |G| ~ w^-2
        assert hi < 1e-9

    def test_conjugate_symmetry_random(self):
        rng = np.random.default_rng(13)
        from conftest import random_proper_tf

        for _ in range(300):
            g = random_proper_tf(rng)
            w = float(rng.uniform(0.01, 100.0))
            v1 = g.num(1j * w) / g.den(1j * w)
            v2 = g.num(-1j * w) / g.den(-1j * w)
            assert abs(v2 - v1.conjugate()) <= 1e-13 * max(1.0, abs(v1))


class TestCancelSerialization:
    def test_no_implicit_cancellation(self):
        # beta = 0 creates a common (tau_p s + 1) factor that must be kept
        g = mixed(1.0, 0.0).g1
        assert g.den.degree == 3 and g.num.degree == 1


class TestNonlinearityRegistry:
    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    def test_slope_inverse(self, tag):
        _, dphi, slope_inverse = get_nonlinearity(tag)
        for s in [*np.geomspace(1e-6, 0.5, 40), *(1.0 - np.geomspace(1e-9, 0.5, 40))]:
            y = slope_inverse(float(s))
            assert y > 0.0
            assert dphi(y) == pytest.approx(s, rel=1e-12)
