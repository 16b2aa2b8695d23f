"""Polynomial and transfer-function arithmetic against closed-form oracles."""

import dis
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import analyze_report, gain_scaled, reference_shift, repeated_operations

from mfa import tf_core
from mfa.equilibria import LureLoop
from mfa.interconnect import InterfaceGains, LoadParams, load_tf
from mfa.tf_core import (
    RationalTF,
    _CALLS_BEFORE_KERNEL,
    _compiled,
    _conv,
    _eigvals,
    _horner,
    _kernel,
    _loop_kernel,
    _poly_add,
    _shift,
    get_nonlinearity,
    poly_roots,
    tf_shift,
)

TAUS = (0.01, 0.1, 1.0)


def mixed(k, beta, taus=TAUS):
    return LureLoop.amplifier(*taus, k, beta)


class TestPolyRoots:
    def test_linear_factor(self):
        assert poly_roots([1.0, 1.0]) == [(-1 + 0j)]

    def test_quadratic_formula(self):
        # roots of 350 + 35 s + s^2: (-35 +/- sqrt(35^2 - 4*350))/2
        imag = math.sqrt(4 * 350 - 35**2) / 2.0
        roots = poly_roots([350.0, 35.0, 1.0])
        assert roots[0] == pytest.approx(complex(-17.5, -imag), rel=1e-12)
        assert roots[1] == pytest.approx(complex(-17.5, +imag), rel=1e-12)

    def test_constructed_from_factors(self):
        p = _conv(_conv([1.0, 0.01], [1.0, 0.1]), [1.0, 1.0])
        roots = poly_roots(p)
        assert np.allclose(roots, [-100.0, -10.0, -1.0], rtol=1e-9)
        assert all(z.imag == 0.0 for z in roots)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="degenerate polynomial"):
            poly_roots([0.0])

    def test_constant_has_no_roots(self):
        assert poly_roots([3.0]) == []

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="cap"):
            poly_roots([1.0] * 40)

    def test_tiny_imaginary_part_snapped(self):
        # (s + 1e-6)^2 + (1e-13)^2: the eigenvalues' imaginary parts, about
        # 1e-13, lie within 1e-12 (1 + |z|), so the pair is a double real root
        roots = poly_roots([1e-12 + 1e-26, 2e-6, 1.0])
        assert [z.imag for z in roots] == [0.0, 0.0]
        assert roots[0].real == roots[1].real == pytest.approx(-1e-6, rel=1e-12)

    def test_tiny_complex_pair_kept(self):
        # s^2 + 1e-30: the eigenvalues +-1e-15j are exact, and the double
        # root at 0 that snapping them would give fails the residual check
        assert poly_roots([1e-30, 0.0, 1.0]) == [-1e-15j, 1e-15j]

    def test_residual_above_tolerance(self, monkeypatch):
        # a root the eigenvalue call gets wrong is refused
        monkeypatch.setattr(tf_core, "_companion_roots", lambda rows: [[-1.0, -2.0 + 1e-6]])
        with pytest.raises(ArithmeticError, match="root residual above tolerance"):
            poly_roots([2.0, 3.0, 1.0])

    def test_conjugate_ordering(self):
        roots = poly_roots([2.0, 0.0, 1.0])  # +/- j sqrt(2)
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
            (got,) = poly_roots([c0, c1])
            want = complex(np.roots([c1, c0])[0])
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_root_coefficient_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            deg = int(rng.integers(1, 7))
            coeffs = rng.uniform(-2, 2, deg + 1)
            coeffs[-1] = rng.uniform(0.5, 2.0)
            rebuilt = np.poly(poly_roots(coeffs))[::-1]
            monic = [c / coeffs[-1] for c in coeffs]
            scale = max(1.0, max(abs(c) for c in monic))
            err = max(abs(a - b) for a, b in zip(monic, rebuilt))
            assert err < 1e-8 * scale


class TestBuildMixed:
    def test_dc_value(self):
        g = gain_scaled(mixed(5.0, 0.2).g1, 5.0)
        assert _horner(g.num, 0.0) / _horner(g.den, 0.0) == pytest.approx(3.0, rel=1e-14)

    def test_balanced_numerator_has_zero_constant(self):
        g = gain_scaled(mixed(2.0, 0.5).g1, 2.0)
        assert g.num[0] == 0.0
        assert g.num[-1] == pytest.approx(-2.0 * (0.5 * 1.1 - 0.1))

    def test_zero_gain_severs_loop(self):
        g = gain_scaled(mixed(0.0, 0.3).g1, 0.0)
        assert g.num == (0.0,)

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
            assert _horner(g.num, 0.0) / _horner(g.den, 0.0) \
                == pytest.approx(k * (1 - 2 * beta), abs=1e-12)

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
        assert gs.num == g.num
        assert gs.den == g.den

    def test_single_pole_translation(self):
        g = RationalTF([1.0], [1.0, 1.0], [-1.0])
        gs = tf_shift(g, 5.0)
        assert gs.den == pytest.approx((-4.0, 1.0))
        assert gs.poles() == [4.0]

    def test_zero_rate_turns_negative_zero_positive(self):
        # at beta = 0.5 the numerator's constant is -k * 0.0 = -0.0; the
        # re-expansion sum gives 0.0, and so does the rate-0 shortcut
        g = gain_scaled(mixed(2.0, 0.5).g1, 2.0)
        assert g.num[0].hex() == "-0x0.0p+0"
        gs = tf_shift(g, 0.0)
        for got, poly in ((gs.num, g.num), (gs.den, g.den)):
            want = reference_shift(poly, 0.0)
            assert [c.hex() for c in got] == [c.hex() for c in want]
        assert gs.num[0].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("degree", range(9))
    def test_recurrence_matches_convolution_loop(self, degree):
        rng = np.random.default_rng(1200 + degree)
        for _ in range(200):
            coeffs = rng.uniform(-1, 1, degree + 1) * 10.0 ** rng.uniform(-3, 3, degree + 1)
            if degree and rng.uniform() < 0.3:
                coeffs[rng.integers(0, degree)] = rng.choice([0.0, -0.0])
            p = coeffs.tolist()
            rates = (0.0, -float(10.0 ** rng.uniform(-3, 4)), float(10.0 ** rng.uniform(-3, 4)),
                     1e4, -1e4)
            for lam in rates:
                got, want = tuple(_shift(p, lam)), reference_shift(p, lam)
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
                scale = max(1.0, max(abs(c) for c in pa))
                assert max(abs(x - y) for x, y in zip(pa, pb)) \
                    < 1e-12 * scale


class TestKnownPoles:
    def test_roots_sorted_like_poly_roots(self):
        g = RationalTF([1.0], [2.0, 0.0, 1.0],
                       [complex(0.0, 2.0 ** 0.5), complex(0.0, -(2.0 ** 0.5))])
        assert g.poles() == poly_roots(g.den)

    def test_root_count_checked(self):
        with pytest.raises(ValueError, match="one root per denominator degree"):
            RationalTF([1.0], [1.0, 1.0, 1.0], [-1.0])

    def test_roots_required(self):
        with pytest.raises(TypeError):
            RationalTF([1.0], [1.0, 1.0])

    def test_zero_denominator_refused(self):
        with pytest.raises(ValueError, match="zero denominator"):
            RationalTF([1.0], [], [])

    def test_biproper_refused(self):
        # (s + 2)/(s + 1): a numerator of the denominator's degree
        with pytest.raises(ValueError, match="requires a strictly proper transfer function"):
            RationalTF([2.0, 1.0], [1.0, 1.0], [-1.0])

    def test_coefficients_trimmed_to_float_tuples(self):
        # any float sequence in ascending degree: float() on each
        # coefficient, trailing zeros (of either sign) stripped
        g = RationalTF(np.array([2.0, 0.0, -0.0]), [1, 3, 2, 0.0], [-1.0, -0.5])
        assert g.num == (2.0,) and g.den == (1.0, 3.0, 2.0)
        assert all(type(c) is float for c in g.num + g.den)

    def test_zero_numerator_is_canonical(self):
        # a zero numerator of any length is (0.0,), and strictly proper
        for num in ([], [0.0], [0.0, -0.0, 0.0], np.zeros(3)):
            g = RationalTF(num, [1.0, 1.0], [-1.0])
            assert g.num == (0.0,) and g.zeros() == []


def analyze_zero(k, beta, taus=TAUS):
    """The ``"zero"`` and ``"zeros"`` fields of ``mfa analyze``."""
    rep = analyze_report(taus, k, beta)
    return rep["zero"], rep["zeros"]


class TestZeroMixed:
    """The open-loop zero location (2 beta - 1)/(beta (tau_p + tau_n) - tau_p)
    that ``analyze`` reports, n0/n1 of the unit-gain numerator n0 + n1 s, and
    "infinite" where n1 is exactly 0."""

    def test_balanced_zero_at_origin(self):
        assert analyze_zero(2.0, 0.5)[0] == 0.0

    def test_positive_dominant_value(self):
        assert analyze_zero(5.0, 0.8)[0] == pytest.approx(0.6 / 0.78, rel=1e-12)

    def test_infinite_at_critical_balance(self):
        assert analyze_zero(5.0, 1.0 / 11.0)[0] == "infinite"
        assert analyze_zero(5.0, 0.1 / 1.1)[0] == "infinite"

    def test_infinite_exactly_without_zeros(self):
        # within 50 ulps of the critical balance n1 is 0 or a few ulps: the
        # zero is infinite exactly where the numerator has no root, and
        # otherwise the negated root
        outcomes = set()
        for taus in (TAUS, (0.02, 0.3, 0.7), (2.0, 0.05, 3.0)):
            beta = taus[1] / (taus[2] + taus[1])
            for _ in range(50):
                beta = math.nextafter(beta, -math.inf)
            for _ in range(101):
                zero, zeros = analyze_zero(5.0, beta, taus)
                if zero == "infinite":
                    assert zeros == []
                else:
                    assert zeros == [[-zero, 0.0]]
                outcomes.add(zero == "infinite")
                beta = math.nextafter(beta, math.inf)
        assert outcomes == {True, False}

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
    def test_load_border_product(self):
        # the bordered loop's G1 (1 + ki ko L) is one product over the
        # channel loop's and the load's denominators, with both sets of poles
        inner = mixed(1.0, 0.8)
        load, iface = LoadParams(2.0, 0.5, 0.3, 1.5), InterfaceGains(0.4, 2.5)
        g, lt = inner.g1, load_tf(load)
        gl = LureLoop.load(inner, 5.0, load, iface).g1
        kk = iface.ki * iface.ko
        want_num = _conv(g.num, _poly_add(lt.den, _conv([kk], lt.num)))
        want_den = _conv(g.den, lt.den)
        assert [c.hex() for c in gl.num] == [c.hex() for c in want_num]
        assert [c.hex() for c in gl.den] == [c.hex() for c in want_den]
        assert len(gl.num) == len(g.num) + 2 and len(gl.den) == len(g.den) + 2
        assert gl.poles() == sorted(g.poles() + lt.poles(), key=lambda z: (z.real, z.imag))

    def test_product_within_summation_bound(self):
        # each coefficient sums at most m = min(len(a), len(b)) products in
        # one order, so it is within gamma_m = m u / (1 - m u) of the sum of
        # their magnitudes from the exact product (u = 2**-53), and a sum
        # seeded with 0.0 is never -0.0
        rng = np.random.default_rng(2601)
        for _ in range(500):
            a, b = (rng.uniform(-1.0, 1.0, int(rng.integers(1, 9))) for _ in range(2))
            a[rng.uniform(size=len(a)) < 0.2] = -0.0
            got = _conv(a.tolist(), b.tolist())
            m = min(len(a), len(b))
            for k, c in enumerate(got):
                terms = [Fraction(x) * Fraction(b[k - i])
                         for i, x in enumerate(a) if 0 <= k - i < len(b)]
                bound = Fraction(m, 2**53 - m) * sum(map(abs, terms))
                assert abs(Fraction(c) - sum(terms)) <= bound
                assert c != 0.0 or math.copysign(1.0, c) == 1.0
        assert _conv([1.0, 2.0], [3.0, 4.0]) == [3.0, 10.0, 8.0]

    def test_pure_feedback_dc_signs(self):
        for beta, dc in ((0.0, 1.0), (1.0, -1.0)):
            g = mixed(1.0, beta).g1
            assert _horner(g.num, 0.0) / _horner(g.den, 0.0) == pytest.approx(dc)

    def test_high_frequency_rolloff(self):
        g = mixed(1.0, 0.2).g1
        hi = abs(_horner(g.num, 1j * 1e6) / _horner(g.den, 1j * 1e6))
        lo = abs(_horner(g.num, 1j * 1e5) / _horner(g.den, 1j * 1e5))
        assert hi / lo == pytest.approx(1e-2, rel=1e-2)  # |G| ~ w^-2
        assert hi < 1e-9

    def test_conjugate_symmetry_random(self):
        rng = np.random.default_rng(13)
        from conftest import random_proper_tf

        for _ in range(300):
            g = random_proper_tf(rng)
            w = float(rng.uniform(0.01, 100.0))
            v1 = _horner(g.num, 1j * w) / _horner(g.den, 1j * w)
            v2 = _horner(g.num, -1j * w) / _horner(g.den, -1j * w)
            assert abs(v2 - v1.conjugate()) <= 1e-13 * max(1.0, abs(v1))


def _hex_all(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


class TestEigvals:
    """``_eigvals`` is ``np.linalg.eigvals`` without its wrapper: the same
    LAPACK ufunc, the same bits after complex conversion, the same errors."""

    def test_matches_numpy(self):
        rng = np.random.default_rng(3001)
        kinds = set()
        for i in range(3000):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 5))
            a = rng.normal(size=(m, n, n)) * 10.0 ** rng.uniform(-6.0, 6.0)
            if i % 3 == 1:
                a = a + a.transpose(0, 2, 1)  # symmetric: a real spectrum
            elif i % 3 == 2:
                a = np.triu(a)  # triangular: the diagonal, real
            got = _eigvals(a)
            assert got.shape == (m, n) and got.dtype == complex
            for z, w in zip(got, np.linalg.eigvals(a)):
                assert _hex_all(z) == _hex_all(w)
                kinds.add(bool((w.imag != 0.0).any()))
        assert kinds == {False, True}

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_refused_as_numpy(self, bad):
        a = np.eye(3)[None].repeat(2, axis=0)
        a[1, 2, 0] = bad
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.eigvals(a)
        with pytest.raises(np.linalg.LinAlgError) as got:
            _eigvals(a)
        assert str(got.value) == str(want.value) == "Array must not contain infs or NaNs"


class TestKernel:
    def test_branch_on_value_refused(self):
        def sign(xs):
            return [x if x > 0.0 else -x for x in xs]

        def zero(xs):
            return [x for x in xs if x != 0.0]

        def truth(xs):
            return [x if x else 1.0 for x in xs]

        for fn in (sign, zero, truth):
            with pytest.raises(TypeError):
                _kernel(fn, 2)

    def test_record_order_and_constants(self):
        def f(xs, y):
            # float on the left, int, unary ops, a -0.0 constant and a
            # tuple result with a constant in it
            return (0.0 + xs[0] * y, [abs(-xs[1]) ** 0.5 / y, 2 * xs[0] + -0.0], 1.5)

        def outcome(fn, *args):
            try:
                return repr(fn(*args))
            except ArithmeticError as exc:
                return type(exc)

        k = _kernel(f, 2, None)
        cases = (([-0.0, 4.0], 3.0), ([1e308, -2.0], 1e-300), ([-1.5, 0.25], 7.0),
                 ([1.0, 2.0], -0.0))
        assert [outcome(k, *c) for c in cases] == [outcome(f, *c) for c in cases]
        assert outcome(k, *cases[-1]) is ZeroDivisionError
        with pytest.raises(ValueError):
            k([1.0, 2.0, 3.0], 1.0)

    @staticmethod
    def built(monkeypatch, build):
        """What ``build()`` returns, and the last source the tracer compiled."""
        sources = []

        def capture(src, namespace):
            sources.append(src)
            exec(src, namespace)

        monkeypatch.setattr(tf_core, "exec", capture, raising=False)
        return build(), sources[-1]

    def test_subtraction_parentheses(self, monkeypatch):
        def f(a, b, c):
            return [a - (b - c), a - b - c, c - -1.0, -1.0 - c, (a - b) * c, a - b * c]

        k, src = self.built(monkeypatch, lambda: _kernel(f, None, None, None))
        assert src.splitlines()[-1].strip() == (
            "return [x0 - (x1 - x2), t0 - x2, x2 - -1.0, -1.0 - x2, t0 * x2, x0 - x1 * x2]")
        rng = np.random.default_rng(7)
        cases = [*rng.normal(size=(100, 3)).tolist(), [0.1, 0.7, 0.3], [-0.0, 0.0, -0.0]]
        assert [repr(k(*c)) for c in cases] == [repr(f(*c)) for c in cases]
        # a grouping without the parentheses gives other bits here
        assert k(0.1, 0.7, 0.3)[0] != 0.1 - 0.7 + 0.3

    def test_recorded_call(self, monkeypatch):
        # the function is a local of the kernel, called once per call that
        # fn made, on a constant argument too, and twice on the one shared
        # a + b; the kernel takes the others
        seen = []

        def g(x):
            seen.append(x)
            return math.atan(x)

        def f(fn, a, b):
            return [fn(a + b), fn(0.5) * a, b - fn(a + b)]

        k, src = self.built(monkeypatch, lambda: _kernel(f, g, None, None))
        assert src.splitlines()[0] == "def kernel(x1, x2, *, x0=x0):"
        assert src.count("x0(t0)") == 2 and "x0(0.5) * x1" in src
        assert not [ins for ins in dis.get_instructions(k) if ins.opname == "LOAD_GLOBAL"]
        got = repr(k(0.3, -0.7))
        calls, seen[:] = list(seen), []
        assert got == repr(f(g, 0.3, -0.7)) and calls == seen == [0.3 + -0.7, 0.5, 0.3 + -0.7]

    def test_shared_operations(self, monkeypatch):
        # an operation repeated on the same operands is computed once and
        # gives the function's bits; a constant is told apart by its repr,
        # so -0.0 and 0.0 give two products
        def f(a, b, c):
            d = a * b + c
            e = a * b + c
            return [d * e, (a - b) * 0.0, (a - b) * -0.0, -(a - b) + c, -(a - b) * 2.0,
                    abs(c - a) ** 0.5 + abs(c - a), d - (b - a), (b - a) / d]

        def outcome(fn, *args):
            try:
                return repr(fn(*args))
            except ArithmeticError as exc:
                return type(exc)

        k, src = self.built(monkeypatch, lambda: _kernel(f, None, None, None))
        assert repeated_operations(src) == []
        # a * b, + c, d * e, a - b, * 0.0, * -0.0, the negation, + c, * 2.0,
        # c - a, ** 0.5, +, b - a, d -, / d; abs, shared too, is a call
        assert sum(ins.opname in ("BINARY_OP", "UNARY_NEGATIVE")
                   for ins in dis.get_instructions(k)) == 15
        assert "* 0.0" in src and "* -0.0" in src
        rng = np.random.default_rng(11)
        special = [0.0, -0.0, math.inf, -math.inf]
        cases = [*rng.normal(size=(100, 3)).tolist(),
                 *([a, b, c] for a in special for b in special for c in special),
                 [1.5, -0.0, -1.5], [0.5, 0.5, -0.25]]
        assert [outcome(k, *c) for c in cases] == [outcome(f, *c) for c in cases]

    def test_record_order(self, monkeypatch):
        # a value used twice is a local, assigned in the order of the
        # operations; one used once is written into its user, and an unused
        # one is still made, in its place
        def f(a, b):
            s = a + b
            a * 2.0
            d = s - b
            return d * s + d

        _, src = self.built(monkeypatch, lambda: _kernel(f, None, None))
        assert src == "\n    ".join(["def kernel(x0, x1):", "t0 = x0 + x1", "t1 = x0 * 2.0",
                                     "t2 = t0 - x1", "return t2 * t0 + t2"])

    def test_loop_carries_state(self):
        # each new state is computed from the whole old one: the first
        # component reads the old second and the second the old first
        def step(fn, r, s):
            return [s[1] - r, fn(s[0]) * 0.5 + s[1]]

        block = _loop_kernel(step, math.atan, None, 2)
        assert block is not _loop_kernel(step, math.atan, None, 2)
        assert not [ins for ins in dis.get_instructions(block)
                    if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME", "LOAD_DEREF")]
        rs = [0.25, -1.5, -0.0, 3.0, 1e-300]
        out, want, s = [], [], [0.3, -0.0]
        block(rs, s, out)
        for r in rs:
            s = step(math.atan, r, s)
            want += s
        assert repr(out) == repr(want)

    def test_compiled_after_calls(self):
        # a shape runs the function itself for its first calls, then the one
        # cached kernel
        def f(xs):
            return [x + 0.0 for x in xs]

        got = [_compiled(f, 3) for _ in range(_CALLS_BEFORE_KERNEL + 2)]
        assert got[:_CALLS_BEFORE_KERNEL] == [f] * _CALLS_BEFORE_KERNEL
        assert got[-1] is got[-2] is _kernel(f, 3) is not f
        assert _compiled(f, 4) is f


class TestCancelSerialization:
    def test_no_implicit_cancellation(self):
        # beta = 0 creates a common (tau_p s + 1) factor that must be kept
        g = mixed(1.0, 0.0).g1
        assert len(g.den) == 4 and len(g.num) == 2


class TestNonlinearityRegistry:
    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    def test_slope_inverse(self, tag):
        _, dphi, slope_inverse = get_nonlinearity(tag)
        for s in [*np.geomspace(1e-6, 0.5, 40), *(1.0 - np.geomspace(1e-9, 0.5, 40))]:
            y = slope_inverse(float(s))
            assert y > 0.0
            assert dphi(y) == pytest.approx(s, rel=1e-12)
