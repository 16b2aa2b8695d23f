"""Equilibrium enumeration, linearization, regime classification, maps."""

import math

import numpy as np
import pytest

from conftest import bisect_root, fd_jacobian, fold_point, vector_field

from mfa.equilibria import (
    MARGINAL,
    REGIME_MULTISTABLE,
    REGIME_OSCILLATION,
    REGIME_UNCLASSIFIED,
    REGIME_ZERO_DOMINANT,
    STABLE,
    UNSTABLE,
    LureLoop,
    classify_stability,
    dominance_map,
    solve_phi_line,
)
from mfa.freq_analysis import _gain, midpoint_rate, min_real_part
from mfa.interconnect import InterfaceGains, LoadParams
from mfa.multichannel import Channel, ChannelBank
from mfa.sim import integrate
from mfa.tf_core import RationalTF, _conv, get_nonlinearity, poly_roots

TAUS = (0.01, 0.1, 1.0)


def mixed(k, beta, taus=TAUS):
    return LureLoop.amplifier(*taus, k, beta)


class TestDcLoopGain:
    def test_values(self):
        assert mixed(5.0, 0.8).g0 == pytest.approx(3.0)
        assert mixed(5.0, 0.4).g0 == pytest.approx(-1.0)
        assert mixed(7.0, 0.5).g0 == 0.0


class TestFindEquilibria:
    def test_single_equilibrium_negative_gain(self):
        eqs = mixed(5.0, 0.4).equilibria(0.0)
        assert len(eqs) == 1
        assert eqs[0].y_star == pytest.approx(0.0, abs=1e-12)

    def test_three_equilibria_and_value(self):
        eqs = mixed(5.0, 0.8).equilibria(0.0)
        assert len(eqs) == 3
        y1 = bisect_root(lambda y: math.tanh(y) - y / 3.0, 1.0, 4.0)
        assert eqs[2].y_star == pytest.approx(y1, abs=1e-9)
        assert eqs[0].y_star == pytest.approx(-y1, abs=1e-9)
        assert abs(eqs[2].y_star - 2.9847) < 1e-3
        assert [e.stability for e in eqs] == [STABLE, UNSTABLE, STABLE]

    def test_zero_loop_gain(self):
        eqs = mixed(0.0, 0.3).equilibria(0.25)
        assert len(eqs) == 1
        assert eqs[0].y_star == 0.0
        assert eqs[0].state[0] == pytest.approx(0.25)  # x = r - phi(0)

    def test_residual_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = float(rng.uniform(0, 20))
            beta = float(rng.uniform(0, 1))
            r = float(rng.uniform(-1.5, 1.5))
            for eq in mixed(k, beta).equilibria(r):
                f = vector_field(TAUS, k, beta, eq.state, r)
                assert np.linalg.norm(f) < 1e-8

    def test_odd_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = mixed(float(rng.uniform(0.2, 30)), float(rng.uniform(0, 1)))
            eqs = p.equilibria(0.0)
            ys = [e.y_star for e in eqs]
            assert ys == pytest.approx([-y for y in reversed(ys)], abs=1e-9)
            for e, m in zip(eqs, reversed(eqs)):
                assert sorted(z.real for z in e.eigenvalues) == pytest.approx(
                    sorted(z.real for z in m.eigenvalues), rel=1e-8)

    def test_count_law(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = mixed(float(rng.uniform(0.1, 100)), float(rng.uniform(0, 1)))
            g0 = p.g0
            if abs(g0 - 1.0) < 1e-3:
                continue
            n = len(p.equilibria(0.0))
            assert n == (3 if g0 > 1.0 else 1)

    def test_alternative_sigmoid(self):
        # the slope-one odd sigmoid obeys the same count law and residuals
        eqs = LureLoop.amplifier(*TAUS, 5.0, 0.8, "atan").equilibria(0.0)
        assert len(eqs) == 3
        for eq in eqs:
            assert np.linalg.norm(vector_field(TAUS, 5.0, 0.8, eq.state, 0.0, "atan")) < 1e-8
        assert len(LureLoop.amplifier(*TAUS, 5.0, 0.4, "atan").equilibria(0.0)) == 1


class TestJacobian:
    def test_zero_gain_is_triangular(self):
        a = mixed(0.0, 0.3).jacobians([0.7])[0]
        assert a[0, 1] == 0.0 and a[0, 2] == 0.0
        eigs = sorted(np.linalg.eigvals(a).real)
        assert eigs == pytest.approx([-100.0, -10.0, -1.0])

    def test_saturated_equilibrium_like_zero_gain(self):
        a = mixed(50.0, 0.8).jacobians([40.0])[0]  # tanh'(40) ~ 0
        assert abs(a[0, 1]) < 1e-9 and abs(a[0, 2]) < 1e-9

    def test_reference_matrix(self):
        a = mixed(5.0, 0.8).jacobians([0.0])[0]
        assert a == pytest.approx(np.array([
            [-100.0, 400.0, -100.0],
            [10.0, -10.0, 0.0],
            [1.0, 0.0, -1.0],
        ]))
        assert np.linalg.eigvals(a).real.max() > 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k, beta = float(rng.uniform(0, 20)), float(rng.uniform(0, 1))
            p = mixed(k, beta)
            r = float(rng.uniform(-1, 1))
            eqs = p.equilibria(r)
            eq = eqs[int(rng.integers(len(eqs)))]
            a = p.jacobians([eq.y_star])[0]
            fd = fd_jacobian(lambda s: vector_field(TAUS, k, beta, s, r), eq.state)
            assert np.abs(a - fd).max() <= 1e-6 * max(1.0, np.abs(a).max())


class TestClassifyStability:
    def test_cases(self):
        assert classify_stability([-1, -2, -3]) == STABLE
        assert classify_stability([0.5, -1 + 1j, -1 - 1j]) == UNSTABLE
        assert classify_stability([0.0, -1, -2]) == MARGINAL

    def test_no_eigenvalues_refused(self):
        with pytest.raises(ValueError, match="at least one eigenvalue"):
            classify_stability([])


class TestClassifyRegime:
    def test_three_reference_regimes(self):
        def regime(beta):
            return mixed(5.0, beta).classify(0.0, 50.0).regime

        assert regime(0.2) == REGIME_ZERO_DOMINANT
        assert regime(0.4) == REGIME_OSCILLATION
        assert regime(0.8) == REGIME_MULTISTABLE

    def test_wrong_inertia_unclassified(self):
        rc = mixed(5.0, 0.4).classify(0.0, 200.0)
        assert rc.regime == REGIME_UNCLASSIFIED
        assert "inertia" in rc.reason

    def test_supporting_data_attached(self):
        rc = mixed(5.0, 0.4).classify(0.0, 50.0)
        assert rc.k0_bar < 5.0 and math.isinf(rc.k2_bar)
        assert [e.stability for e in rc.equilibria] == [UNSTABLE]

    def test_zero_dominant_converges_from_random_states(self):
        p = mixed(5.0, 0.2)
        rc = p.classify(0.0, 50.0)
        assert rc.regime == REGIME_ZERO_DOMINANT
        target = np.asarray(rc.equilibria[0].state)
        rng = np.random.default_rng(9)
        for _ in range(10):
            ic = tuple(rng.uniform(-2, 2, 3))
            traj = integrate(p.ss, ic, dt=1e-3, t_end=25.0)
            assert np.abs(traj.states[-1] - target).max() < 1e-4


class TestDominanceMap:
    def test_single_cell_degenerates_to_classify(self):
        cells = dominance_map(*TAUS, [5.0], [0.4], r=0.0, lam=50.0)
        rc = mixed(5.0, 0.4).classify(0.0, 50.0)
        assert cells[0][0].regime == rc.regime
        assert cells[0][0].k0_bar == pytest.approx(rc.k0_bar)

    def test_low_gain_rows_zero_dominant(self):
        ks = np.geomspace(0.1, 0.5, 3)
        betas = np.linspace(0.0, 1.0, 7)
        cells = dominance_map(*TAUS, ks, betas, r=0.0, lam=50.0)
        for row in cells:
            for cell in row:
                assert cell.regime == REGIME_ZERO_DOMINANT

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dominance_map(*TAUS, [-1.0], [0.5])
        with pytest.raises(ValueError):
            dominance_map(*TAUS, [1.0], [1.5])

    @pytest.mark.parametrize("k, message", [(math.nan, "requires positive gains"),
                                            (-math.inf, "requires positive gains"),
                                            (math.inf, "requires finite gains")])
    def test_non_finite_gain_refused(self, k, message):
        # a NaN gain once passed the sign check and came out Unclassified,
        # and an infinite one divided by zero
        with pytest.raises(ValueError, match=message):
            dominance_map(*TAUS, [1.0, k], [0.5])

    def test_repeated_map_deterministic(self):
        ks = np.geomspace(0.5, 50, 4)
        betas = np.linspace(0.1, 0.9, 5)
        first = dominance_map(*TAUS, ks, betas, lam=50.0)
        second = dominance_map(*TAUS, ks, betas, lam=50.0)
        assert first == second

    def test_empty_grid_rejected(self):
        for ks, betas in (([], [0.5]), ([1.0], [])):
            with pytest.raises(ValueError, match="at least one gain"):
                dominance_map(*TAUS, ks, betas)

    def test_map_makes_no_per_cell_numerics(self, monkeypatch):
        """A column builds one loop and locates no root and no eigenvalue of
        its cells: its one eigenvalue call roots the stationary-point
        polynomials of both critical gains, whatever the number of rows."""
        import mfa.equilibria as eq
        import mfa.sim as sim
        import mfa.tf_core as tf_core

        calls = {"solve_phi_line": 0, "eigvals": 0, "LureLoop": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(eq, "solve_phi_line", counted("solve_phi_line", eq.solve_phi_line))
        eigvals = counted("eigvals", tf_core._eigvals)
        for mod in (tf_core, eq, sim):
            monkeypatch.setattr(mod, "_eigvals", eigvals)
        monkeypatch.setattr(LureLoop, "__init__", counted("LureLoop", LureLoop.__init__))
        for beta in (0.2, 0.4, 0.8):
            for rows in (1, 60):
                calls.update(dict.fromkeys(calls, 0))
                cells = dominance_map(*TAUS, np.geomspace(0.1, 1000.0, rows), [beta],
                                      lam=50.0)
                assert sum(c[0].n_equilibria for c in cells) >= rows
                assert calls == {"solve_phi_line": 0, "eigvals": 1, "LureLoop": 1}


RECIPE_TAUS = {"map_fast_load": ((0.01, 0.1, 1.0), 50.0),
               "map_slow_load": ((10.0, 0.1, 1.0), 5.0),
               "map_fast_load_reduced_separation": ((0.01, 0.1, 0.3), 50.0),
               "map_slow_load_reduced_separation": ((10.0, 0.1, 0.3), 5.0)}


def _hurwitz(poly) -> bool:
    return bool(np.roots(poly).real.max() < 0.0)


def _characteristic(taus, beta, gain):
    """den(s) + gain num1(s) of the amplifier, descending, built here from
    den = (tl s + 1)(tp s + 1)(tn s + 1), num1 = -[(beta(tn + tp) - tp) s + 2 beta - 1]."""
    tl, tp, tn = taus
    den = np.polymul(np.polymul([tl, 1.0], [tp, 1.0]), [tn, 1.0])
    num = np.array([-(beta * (tn + tp) - tp), -(2.0 * beta - 1.0)])
    return np.polyadd(den, gain * num)


class TestCrossingGain:
    def test_hurwitz_oracle(self):
        """T separates Hurwitz from non-Hurwitz closed loops, by np.roots."""
        rng = np.random.default_rng(23)
        finite = 0
        for i in range(300):
            tp, tn = sorted(10.0 ** rng.uniform(-2.0, 1.0, 2))
            taus = (float(10.0 ** rng.uniform(-2.0, 1.0)), float(tp), float(tn))
            beta = float((0.0, 0.5, 1.0)[i] if i < 3 else rng.uniform(0.0, 1.0))
            t = LureLoop.amplifier(*taus, 1.0, beta).crossing_gain
            if math.isinf(t):
                for gain in np.geomspace(1e-3, 1e9, 49):
                    assert _hurwitz(_characteristic(taus, beta, gain)), (taus, beta, gain)
                continue
            finite += 1
            assert _hurwitz(_characteristic(taus, beta, t * (1.0 - 1e-9))), (taus, beta)
            assert not _hurwitz(_characteristic(taus, beta, t * (1.0 + 1e-9))), (taus, beta)
        assert 50 < finite < 290

    def test_fold_gain_and_no_crossing(self):
        # beta = 1: the w = 0 crossing 1/(2 beta - 1) = 1 binds; beta = 0: no crossing
        assert mixed(5.0, 1.0).crossing_gain == 1.0
        assert mixed(5.0, 0.0).crossing_gain == math.inf

    def test_only_third_order_loops(self):
        from mfa.interconnect import InterfaceGains, LoadParams

        loop = LureLoop.load(mixed(1.0, 0.4), 5.0, LoadParams(350.0, 35.0, 1.0, 20.0),
                             InterfaceGains(10.0, 1.0))
        with pytest.raises(ValueError, match="third-order"):
            loop.crossing_gain


class TestMapCountsAgainstEigenvalues:
    """dominance_map counts against per-cell LureLoop.equilibria labels.

    Every cell the eigenvalue path calls marginal (an eigenvalue within
    1e-8 of the axis) is listed with what the exact rule says there:
    - k = 1, beta = 1, r = 0: g0 = 1, and v = 0 has phi'(0) k = 1 = T, so
      it is marginal;
    - slow load (tau_l = 10), k = 10, beta = 0.55, r = 0:
      g0 = 1 + 9e-16 and T = 1/(2 beta - 1) = 10 - 9e-15.  v = 0 has
      phi'(0) k = 10 > T, so it is unstable; the two pitchfork roots next to
      it have phi'(v) k < k/g0 = T, so they are stable.
    """

    KS = sorted({1.0, 10.0} | set(10.0 ** np.random.default_rng(11).uniform(-1.0, 3.0, 38)))
    BETAS = np.linspace(0.0, 1.0, 41)
    REFERENCES = (0.0, 0.2, -0.5)

    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    @pytest.mark.parametrize("recipe", sorted(RECIPE_TAUS))
    def test_seeded_grid(self, recipe, tag):
        taus, lam = RECIPE_TAUS[recipe]
        assert len(self.KS) == 40
        expected_marginal = {(0.0, 1.0, 1.0): (1, 0, REGIME_UNCLASSIFIED)}
        if taus[0] == 10.0:
            expected_marginal[(0.0, 10.0, 0.55)] = (3, 1, REGIME_MULTISTABLE)
        loops = [[LureLoop.amplifier(*taus, k, float(beta), nonlinearity=tag)
                  for beta in self.BETAS] for k in self.KS]
        marginal = {}
        for r in self.REFERENCES:
            cells = dominance_map(*taus, self.KS, self.BETAS, r=r, lam=lam, nonlinearity=tag)
            for k, row, loop_row in zip(self.KS, cells, loops):
                for beta, cell, loop in zip(self.BETAS, row, loop_row):
                    labels = [e.stability for e in loop.equilibria(r)]
                    counts = (cell.n_equilibria, cell.n_unstable)
                    if MARGINAL in labels:
                        marginal[(r, k, round(float(beta), 12))] = (*counts, cell.regime)
                    else:
                        assert counts == (len(labels), labels.count(UNSTABLE)), (r, k, beta)
        assert marginal == expected_marginal

    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("k, beta", [(2.0, 1.0), (6.0, 0.92), (5.0, 0.97)])
    def test_tangency(self, k, beta, sign, tag):
        """At r = +-r_fold the tangent root is one marginal equilibrium: T is
        the fold gain here, and T/k and 1/g0 differ in the last digit for
        the last two balances."""
        loop = LureLoop.amplifier(*TAUS, k, beta, nonlinearity=tag)
        r = sign * fold_point(tag, 1.0 / loop.g0)[1]
        labels = [e.stability for e in loop.equilibria(r)]
        assert sorted(labels) == [MARGINAL, STABLE]
        (cell,), = dominance_map(*TAUS, [k], [beta], r=r, lam=50.0, nonlinearity=tag)
        assert (cell.n_equilibria, cell.n_unstable) == (2, 0)

    @pytest.mark.parametrize("recipe", ["map_fast_load", "map_slow_load_reduced_separation"])
    def test_recipe_map(self, recipe):
        """The 60 x 60 recipe map, cell by cell, against the eigenvalue path."""
        taus, lam = RECIPE_TAUS[recipe]
        ks, betas = np.geomspace(0.1, 1000.0, 60), np.linspace(0.0, 1.0, 60)
        cells = dominance_map(*taus, ks, betas, r=0.0, lam=lam)
        for ib, beta in enumerate(betas):
            head = LureLoop.amplifier(*taus, ks[0], beta)
            assert head.inertia(lam) == 2
            k0_bar, k2_bar = (_gain(min_real_part(head.g1, rate)[0]) for rate in (0.0, lam))
            for ik, k in enumerate(ks):
                labels = [e.stability for e in
                          LureLoop.amplifier(*taus, k, beta).equilibria(0.0)]
                assert MARGINAL not in labels
                if k < k0_bar:
                    regime = REGIME_ZERO_DOMINANT
                elif k >= k2_bar:
                    regime = REGIME_UNCLASSIFIED
                elif STABLE in labels:
                    regime = REGIME_MULTISTABLE
                else:
                    regime = REGIME_OSCILLATION
                cell = cells[ik][ib]
                assert (cell.regime, cell.k0_bar, cell.k2_bar, cell.n_equilibria,
                        cell.n_unstable) == (regime, k0_bar, k2_bar, len(labels),
                                             labels.count(UNSTABLE)), (k, beta)



class TestSolvePhiLine:
    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    @pytest.mark.parametrize("delta", [1e-6, 1e-7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_close_pair_next_to_fold(self, tag, delta, sign):
        p = LureLoop.amplifier(*TAUS, k=2.0, beta=1.0, nonlinearity=tag)
        assert p.g0 == 2.0
        _, r_fold = fold_point(tag, 0.5)
        eqs = p.equilibria(sign * (r_fold - delta))
        assert [e.stability for e in eqs] == [STABLE, UNSTABLE, STABLE]

    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    @pytest.mark.parametrize("g0", [1.0 + 1e-6, 1.0 + 1e-5])
    def test_pitchfork_pair_at_zero_reference(self, tag, g0):
        p = LureLoop.amplifier(*TAUS, k=g0, beta=1.0, nonlinearity=tag)
        ys = [e.y_star for e in p.equilibria(0.0)]
        assert len(ys) == 3 and ys[1] == 0.0
        assert ys[2] == pytest.approx(-ys[0], rel=1e-9)

    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tangency_reported_once(self, tag, sign):
        p = LureLoop.amplifier(*TAUS, k=2.0, beta=1.0, nonlinearity=tag)
        y_c, r_fold = fold_point(tag, 0.5)
        eqs = p.equilibria(sign * r_fold)
        assert len(eqs) == 2
        tangent = [e for e in eqs if e.y_star == sign * y_c]
        assert len(tangent) == 1 and tangent[0].stability == MARGINAL

    @pytest.mark.parametrize("tag", ["tanh", "atan"])
    def test_counts_match_dense_sign_changes(self, tag):
        phi, _, slope_inverse = get_nonlinearity(tag)
        dense_phi = {"tanh": np.tanh,
                     "atan": lambda y: (2 / np.pi) * np.arctan(np.pi * y / 2)}[tag]
        rng = np.random.default_rng(17)
        for _ in range(500):
            g0 = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 1.5))
            r = float(rng.uniform(-1.5, 1.5))
            bound = (1.0 + abs(r)) * abs(g0) + 1.0
            y = np.linspace(-bound, bound, 100_001)
            h = dense_phi(y) - r - y / g0
            dense = np.count_nonzero(h[:-1] * h[1:] < 0.0) + np.count_nonzero(h == 0.0)
            assert len(solve_phi_line(phi, 1.0 / g0, r, slope_inverse)) == dense, (g0, r)

    @pytest.mark.parametrize("g0", [1e4, 1e6, 1e12])
    def test_large_roots_end_at_adjacent_floats(self, g0):
        # past |y| ~ 4500 neighbouring floats are more than 1e-12 apart
        phi, _, slope_inverse = get_nonlinearity("tanh")
        ys = solve_phi_line(phi, 1.0 / g0, 0.3, slope_inverse)
        assert len(ys) == 3
        assert [ys[0], ys[2]] == pytest.approx([-1.3 * g0, 0.7 * g0], rel=1e-9)
        assert abs(math.tanh(ys[1]) - 0.3 - ys[1] / g0) < 1e-12


def _root_order(z):
    # the order of poly_roots: real part, then imaginary part
    return (z.real, z.imag)


def _bank(*taus):
    return ChannelBank(tuple(Channel(1.0 / len(taus), t) for t in taus))


POS2, NEG2 = _bank(0.05, 0.1), _bank(1.0, 2.0)
POS3, NEG3 = _bank(0.02, 0.07, 0.15), _bank(0.6, 1.3, 2.9)
LOAD = LoadParams(a=350.0, b=35.0, kv=1.0, kp=20.0)


class TestConstructedPoles:
    """Poles taken from the lags and loads a transfer function is built from:
    each lag gives exactly -1/tau, the load its two roots, in the order of
    poly_roots, and together they are the roots of the expanded denominator."""

    CASES = {
        "amplifier": (lambda: mixed(5.0, 0.4).g1, TAUS, False),
        "bank 2+2": (lambda: LureLoop.bank(0.003, POS2, NEG2, 1.0, 0.6).g1,
                     (0.003,) + POS2.taus + NEG2.taus, False),
        "bank 3+3": (lambda: LureLoop.bank(5.0, POS3, NEG3, 1.0, 0.3).g1,
                     (5.0,) + POS3.taus + NEG3.taus, False),
        "bank loop": (lambda: LureLoop.bank(0.01, POS3, NEG3, 4.0, 0.3).g1,
                      (0.01,) + POS3.taus + NEG3.taus, False),
        "load loop": (lambda: LureLoop.load(mixed(1.0, 0.4), 10.0, LOAD,
                                            InterfaceGains(10.0, 1.0)).g1, TAUS, True),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_poles(self, case):
        build, lags, with_load = self.CASES[case]
        g = build()
        poles = g.poles()
        expected = [complex(-1.0 / t) for t in lags]
        if with_load:
            expected += poly_roots([LOAD.a, LOAD.b, 1.0])
        assert poles == sorted(expected, key=_root_order)
        roots = sorted((complex(z) for z in np.roots(g.den[::-1])), key=_root_order)
        assert len(roots) == len(poles)
        for pole, root in zip(poles, roots):
            assert abs(pole - root) <= 1e-9 * abs(root)

    def test_midpoint_rate_closed_form(self):
        # the lag poles are exactly -1/tau, so the midpoint rate is the closed
        # form (1/tau_1 + 1/tau_2)/2 of the two fastest lags, bit for bit
        rng = np.random.default_rng(1204)
        for _ in range(2000):
            tp = float(10.0 ** rng.uniform(-3, 1))
            tn = tp * float(10.0 ** rng.uniform(0.01, 2))
            tl = float(10.0 ** rng.uniform(-3, 2))
            p = LureLoop.amplifier(tl, tp, tn, float(rng.uniform(0, 50)), float(rng.uniform()))
            tau_1, tau_2 = sorted((tl, tp, tn))[:2]
            assert midpoint_rate(p.poles) == (1.0 / tau_1 + 1.0 / tau_2) / 2.0


class TestOneOwner:
    """The amplifier, bank and load loops share one lag realization, one
    transfer-function builder, one linearization and one rate; checked bit
    for bit on seeded loops."""

    @staticmethod
    def balance(i, tp, tn, beta):
        """The balances 0, 0.5, 1 and the critical tau_p/(tau_p + tau_n) in
        turn with the seeded ``beta``."""
        return (0.0, 0.5, 1.0, tp / (tp + tn), beta)[i % 5]

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    def loops(self):
        rng = np.random.default_rng(1806)
        for _ in range(200):
            tp = float(10.0 ** rng.uniform(-3, 1))
            tn = tp * float(10.0 ** rng.uniform(0.01, 2))
            tl = float(10.0 ** rng.uniform(-3, 2))
            k, beta = float(10.0 ** rng.uniform(-2, 3)), float(rng.uniform())
            load = LoadParams(*(float(10.0 ** rng.uniform(-1, 2)) for _ in range(4)))
            iface = InterfaceGains(*(float(10.0 ** rng.uniform(-2, 1)) for _ in range(2)))
            yield tl, tp, tn, k, beta, load, iface

    def test_realizations(self):
        bits = self.bits
        for tl, tp, tn, k, beta, load, iface in self.loops():
            amp = LureLoop.amplifier(tl, tp, tn, k, beta)
            bank = LureLoop.bank(tl, ChannelBank((Channel(1.0, tp),)),
                                 ChannelBank((Channel(1.0, tn),)), k, beta)
            for x in ("a", "b", "c"):
                assert bits(getattr(bank.ss, x)) == bits(getattr(amp.ss, x))
            loaded = LureLoop.load(LureLoop.amplifier(tl, tp, tn, 1.0, beta), k, load, iface)
            assert bits([row[:3] for row in loaded.ss.a[:3]]) == bits(amp.ss.a)
            # k c1 and (k_o k) c1 of the unit-gain row c1 give the gain-k
            # amplifier's output row and the force row -k_o k beta xp +
            # k_o k (1 - beta) xn, bit for bit
            ko = iface.ko
            assert bits(loaded.ss.c[:3]) == bits(amp.ss.c)
            assert bits(loaded.ss.a[4][:3]) == bits((0.0, -ko * k * beta, ko * k * (1.0 - beta)))
            kappa = iface.ki * load.kp * ko / load.a
            assert bits(loaded.g0) == bits(amp.g0 * (1.0 + kappa))

    def test_transfer_functions(self):
        # the amplifier is the bank with one unit-weight channel per side
        bits = self.bits
        for i, (tl, tp, tn, k, beta, _, _) in enumerate(self.loops()):
            beta = self.balance(i, tp, tn, beta)
            amp = LureLoop.amplifier(tl, tp, tn, k, beta).g1
            bank = LureLoop.bank(tl, ChannelBank((Channel(1.0, tp),)),
                                 ChannelBank((Channel(1.0, tn),)), k, beta).g1
            assert bits(bank.num) == bits(amp.num)
            assert bits(bank.den) == bits(amp.den)
            assert bank.poles() == amp.poles()

    def test_nyquist_transfer_function(self, capsys, monkeypatch):
        # the gain-k locus that nyquist draws has the coefficients of the
        # amplifier's closed form, written out here as the reference
        import mfa.cli as cli

        drawn = []

        def capture(g, lam, omegas):
            drawn.append(g)
            return np.zeros((0, 3))

        monkeypatch.setattr(cli, "nyquist_locus", capture)
        for i, (tl, tp, tn, k, beta, _, _) in enumerate(self.loops()):
            k, beta = (0.0, 1e300, 5e-324, k)[i % 4], self.balance(i // 4, tp, tn, beta)
            argv = ["nyquist", "--tau-l", repr(tl), "--tau-p", repr(tp), "--tau-n", repr(tn),
                    "--k", repr(k), "--beta", repr(beta)]
            assert cli.main(argv) == 0
            want = RationalTF([-k * (2.0 * beta - 1.0), -k * (beta * (tn + tp) - tp)],
                              _conv(_conv([1.0, tl], [1.0, tp]), [1.0, tn]),
                              [-1.0 / t for t in (tl, tp, tn)])
            g = drawn.pop()
            assert self.bits(g.num) == self.bits(want.num)
            assert self.bits(g.den) == self.bits(want.den)
            assert g.poles() == sorted([complex(-1.0 / t) for t in (tl, tp, tn)],
                                       key=_root_order)
        capsys.readouterr()

    def test_linearization_and_rate(self):
        for tl, tp, tn, k, beta, load, iface in self.loops():
            for loop in (LureLoop.amplifier(tl, tp, tn, k, beta),
                         LureLoop.load(LureLoop.amplifier(tl, tp, tn, 1.0, beta), k, load, iface)):
                ss = loop.ss
                a = np.array(ss.a)
                assert self.bits(ss.jacobians([0.0, 1.0])) == self.bits(
                    [a, a - np.outer(ss.b, ss.loop_row)])
                assert loop.rate() == midpoint_rate(loop.poles)
                assert loop.rate(7.0) == 7.0
