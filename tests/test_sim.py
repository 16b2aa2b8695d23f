"""Fixed-step integration, oscillation detection, boundedness."""

import dis
import math
import os
import sys
import warnings

import numpy as np
import pytest

from conftest import RECIPES_DIR, WIDE_LOOPS, reference_rk4, vector_field, wide_loop

from mfa import sim, tf_core
from mfa.cli import _read_load, _read_schedule
from mfa.equilibria import STABLE, UNSTABLE, LureLoop
from mfa.interconnect import InterfaceGains, LoadParams
from mfa.multichannel import Channel, ChannelBank
from mfa.sim import (
    _BLOCK,
    InputSchedule,
    StateSpace,
    Trajectory,
    boundedness_check,
    detect_oscillation,
    integrate,
)
from mfa.tf_core import get_nonlinearity

TAUS = (0.01, 0.1, 1.0)


def mixed(k, beta, taus=TAUS):
    return LureLoop.amplifier(*taus, k, beta)


def amp_ss(loop):
    """Realization of the amplifier loop, which ``integrate`` runs."""
    return loop.ss


def linear_decay_reference(loop, ic, t):
    """Matrix-exponential solution of the k = 0 lag chain."""
    a = np.array(loop.ss.a)
    vals, vecs = np.linalg.eig(a)
    c = np.linalg.solve(vecs, np.asarray(ic, dtype=complex))
    return (vecs @ (c * np.exp(vals * t))).real


class TestVectorField:
    def test_origin_is_equilibrium(self):
        assert vector_field(TAUS, 5.0, 0.3, (0.0, 0.0, 0.0), 0.0) == (0.0, 0.0, 0.0)

    def test_open_loop_lags(self):
        assert vector_field(TAUS, 0.0, 0.3, (1.0, 0.0, 0.0), 0.0) == \
            pytest.approx((-100.0, 10.0, 1.0))

    def test_zero_at_solver_equilibria(self):
        for eq in mixed(5.0, 0.8).equilibria(0.2):
            assert np.linalg.norm(vector_field(TAUS, 5.0, 0.8, eq.state, 0.2)) < 1e-8


class TestStateSpace:
    @pytest.mark.parametrize("fields, match", [
        ({"a": ((1.0, 0.0),)}, "inconsistent state dimensions"),
        ({"c": (1.0, 0.0)}, "inconsistent output/label dimensions"),
        ({"c_loop": (1.0, 0.0)}, "inconsistent loop row dimension"),
        ({"extra_outputs": (("ye", (1.0, 0.0)),)}, "inconsistent extra output row"),
    ])
    def test_inconsistent_dimensions_refused(self, fields, match):
        with pytest.raises(ValueError, match=match):
            StateSpace(**{"a": ((-1.0,),), "b": (1.0,), "c": (1.0,), "labels": ("x",),
                          **fields})


class TestSchedule:
    def test_empty_refused(self):
        with pytest.raises(ValueError, match="at least one entry"):
            InputSchedule(())

    def test_invariants(self):
        with pytest.raises(ValueError, match="first t_start"):
            InputSchedule(((1.0, 0.0),))
        with pytest.raises(ValueError, match="strictly increasing"):
            InputSchedule(((0.0, 0.0), (5.0, 1.0), (5.0, 2.0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused(self, value):
        # refused here, not later as a divergence of the run
        with pytest.raises(ValueError, match="finite reference values"):
            InputSchedule(((0.0, 0.0), (1.0, value)))
        with pytest.raises(ValueError, match="finite reference values"):
            InputSchedule.constant(value)

    def test_json_parsing(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text('[{"t": 0, "r": 0}, {"t": 20, "r": -0.5}, {"t": 30, "r": 0}]')
        sched = _read_schedule(str(path))
        assert sched == InputSchedule(((0.0, 0.0), (20.0, -0.5), (30.0, 0.0)))

    def test_change_applies_at_first_sample_at_or_after_start(self):
        sched = InputSchedule(((0.0, 1.0), (0.25, 2.0)))
        vals = sched.values_for_steps(0.1, 6)
        assert list(vals) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        vals = sched.values_for_steps(0.25, 4)
        assert list(vals) == [1.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize("t_start", [1.0, 1e300, 1e308, sys.float_info.max])
    def test_change_beyond_horizon_ignored(self, t_start):
        # 1e308 / 1e-3 overflows to inf, whose sample index has no integer
        sched = InputSchedule(((0.0, 0.5), (t_start, 1.0)))
        assert sched.values_for_steps(1e-3, 1000).tolist() == [0.5] * 1000

    @pytest.mark.parametrize("t_start", [math.nan, math.inf])
    def test_non_finite_start_refused(self, t_start):
        with pytest.raises(ValueError, match="finite t_start"):
            InputSchedule(((0.0, 0.5), (t_start, 1.0)))


class TestIntegrate:
    def test_linear_decay_endpoint(self):
        p = mixed(0.0, 0.3)
        ic = (1.0, 1.0, 1.0)
        traj = integrate(amp_ss(p), ic, dt=0.001, t_end=1.0)  # dt = tau_min / 10
        exact = linear_decay_reference(p, ic, 1.0)
        assert np.abs(traj.states[-1] - exact).max() < 1e-6

    def test_rk4_order_ratio(self):
        p = LureLoop.amplifier(0.5, 0.1, 1.0, k=0.0, beta=0.3)
        ic = (1.0, 1.0, 1.0)

        def endpoint(dt):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return integrate(amp_ss(p), ic, dt=dt, t_end=1.0).states[-1]

        ref = endpoint(0.05 / 16)
        e1 = np.abs(endpoint(0.05) - ref).sum()
        e2 = np.abs(endpoint(0.025) - ref).sum()
        assert 12.0 <= e1 / e2 <= 20.0

    def test_coarse_step_warns(self):
        with pytest.warns(UserWarning, match="dt"):
            integrate(amp_ss(mixed(0.0, 0.3)), (1.0, 0.0, 0.0), dt=0.01, t_end=0.1)

    @pytest.mark.filterwarnings("ignore:dt above")
    def test_divergence_reported_with_time(self):
        ss = StateSpace(a=((5.0,),), b=(0.0,), c=(1.0,), labels=("x",))
        with pytest.raises(ArithmeticError, match="divergence at t="):
            integrate(ss, (1.0,), dt=0.5, t_end=1000.0)

    def test_statespace_step_above_rk4_limit_warns(self):
        # A - b c_loop of the 5-state load loop has spectral radius ~127, and
        # A has 100 (tau_l = 0.01), so both step checks warn
        ss = LureLoop.load(mixed(1.0, 0.4), 10.0, LoadParams(350.0, 35.0, 1.0, 20.0),
                           InterfaceGains(10.0, 1.0)).ss
        with pytest.warns(UserWarning) as record:
            integrate(ss, (0.1, 0.0, 0.0, 0.0, 0.0), dt=0.025, t_end=0.05)
        assert "accuracy degraded" in str(record[0].message)
        assert "RK4 stability limit" in str(record[1].message) and len(record) == 2

    def test_statespace_step_within_rk4_limit_silent(self):
        ss = LureLoop.load(mixed(1.0, 0.4), 10.0, LoadParams(350.0, 35.0, 1.0, 20.0),
                           InterfaceGains(10.0, 1.0)).ss
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate(ss, (0.1, 0.0, 0.0, 0.0, 0.0), dt=5e-4, t_end=0.05)

    @pytest.mark.parametrize("kwargs, match", [
        ({"ic": (math.nan, 0.0, 0.0)}, "finite initial condition"),
        ({"ic": (0.0, math.inf, 0.0)}, "finite initial condition"),
        ({"t_end": math.inf}, "finite t_end"),
        ({"t_end": math.nan}, "finite t_end"),
        ({"dt": math.inf}, "finite dt"),
        ({"ic": (0.1, 0.0)}, "^requires 3 initial-condition components$"),
        ({"ic": (0.1, 0.0, 0.0, 0.0)}, "^requires 3 initial-condition components$"),
    ])
    def test_non_finite_inputs_rejected(self, kwargs, match):
        args = {"ic": (0.1, 0.0, 0.0), "dt": 1e-3, "t_end": 1.0, **kwargs}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match=match):
                integrate(amp_ss(mixed(5.0, 0.4)), args.pop("ic"), **args)

    @pytest.mark.parametrize("t_end", [0.4e-3, 1e-9])
    def test_zero_steps_rejected(self, t_end):
        # t_end is rounded to whole steps; rounding to none is an error
        with pytest.raises(ValueError, match="rounds to zero steps"):
            integrate(amp_ss(mixed(5.0, 0.4)), (0.1, 0.0, 0.0), dt=1e-3, t_end=t_end)

    def test_too_many_steps_to_store(self):
        # 1e163 steps pass the overflow check but no array can hold them
        with pytest.raises(ValueError, match=r"t_end = 50 over dt = 5e-162 is 1e\+163 steps, "
                                             "too many to store"):
            integrate(amp_ss(mixed(5.0, 0.4, (1e-160, 2e-160, 3e-160))), (0.0, 0.0, 0.0),
                      dt=5e-162, t_end=50.0)

    @pytest.mark.parametrize("n_steps, sizes", [
        (1, [2]), (4, [5]), (5, [6]), (6, [7]), (11, [6, 6]), (12, [6, 5, 2]), (16, [6, 5, 6]),
    ])
    def test_sink_gets_every_row_once(self, monkeypatch, n_steps, sizes):
        # blocks of five steps: the initial row comes with the first block,
        # and a lone last step joins the block before it, so no block is one
        # row, whose product with c takes another path than the whole array's
        monkeypatch.setattr(sim, "_BLOCK", 5)
        load, iface = _read_load(_recipe_path("load_msd.json"))
        ss = LureLoop.load(mixed(1.0, 0.4), 10.0, load, iface).ss
        blocks = []
        traj = integrate(ss, (0.1, 0.02, -0.01, 0.003, 0.0), dt=1e-3, t_end=n_steps * 1e-3,
                         sink=blocks.append)
        assert [len(b) for b in blocks] == sizes
        rows = np.column_stack([traj.t, traj.states, traj.y, traj.extra["ye"]])
        assert np.concatenate(blocks).tobytes() == rows.tobytes()
        assert traj.y.tobytes() == (traj.states @ np.asarray(ss.c)).tobytes()
        # one table: every block is a view of the rows whose columns the
        # returned arrays are
        assert all(np.shares_memory(block, col) for block in blocks
                   for col in (traj.t, traj.states, traj.y, traj.extra["ye"]))

    def test_t_end_rounded_to_whole_steps(self):
        traj = integrate(amp_ss(mixed(5.0, 0.4)), (0.1, 0.0, 0.0), dt=1e-3, t_end=1.4e-3)
        assert len(traj.t) == 2 and traj.t[-1] == 1e-3

    @pytest.mark.filterwarnings("error")
    def test_default_step_from_radii(self):
        # 0.05 / rho(A) at k = 1; at k = 1e5 one over the closed-loop radius
        # is the smaller; neither step warns
        for k, binding in ((1.0, 0), (1e5, 1)):
            ss = mixed(k, 0.4).ss
            rho_open, rho_closed = (max(abs(np.linalg.eigvals(m)))
                                    for m in ss.jacobians([0.0, 1.0]))
            steps = [0.05 / rho_open, 1.0 / max(rho_open, rho_closed)]
            traj = integrate(ss, (0.0, 0.0, 0.0), t_end=0.01)
            assert traj.t[1] == steps[binding] == min(steps)

    @pytest.mark.filterwarnings("error")
    def test_default_step_with_a_zero_radius(self):
        # A = 0 bounds no step, so the closed-loop radius 1 gives dt = 1; with
        # both radii 0 there is no default step
        ss = StateSpace(a=((0.0,),), b=(1.0,), c=(1.0,), labels=("x",))
        traj = integrate(ss, (0.5,), t_end=3.0)
        assert list(traj.t) == [0.0, 1.0, 2.0, 3.0]
        ss = StateSpace(a=((0.0,),), b=(0.0,), c=(1.0,), labels=("x",))
        with pytest.raises(ValueError, match="requires dt"):
            integrate(ss, (0.5,))

    def test_odd_symmetry(self):
        p = mixed(5.0, 0.4)
        a = integrate(amp_ss(p), (0.1, 0.0, 0.0), dt=5e-4, t_end=5.0)
        b = integrate(amp_ss(p), (-0.1, 0.0, 0.0), dt=5e-4, t_end=5.0)
        assert np.abs(a.states + b.states).max() < 1e-10

    def test_stable_equilibrium_holds(self):
        p = LureLoop.amplifier(0.01, 0.1, 0.3, k=5.0, beta=0.8)
        eqs = p.equilibria(0.0)
        eq = next(e for e in eqs if e.stability == STABLE)
        traj = integrate(amp_ss(p), eq.state, dt=5e-4, t_end=30.0)  # 100 max(tau)
        assert np.abs(traj.states - np.asarray(eq.state)).max() < 1e-6

    def test_unstable_equilibrium_departs(self):
        p = mixed(5.0, 0.8)
        eqs = p.equilibria(0.05)
        eq = next(e for e in eqs if e.stability == UNSTABLE)
        assert max(z.real for z in eq.eigenvalues) > 1e-2
        traj = integrate(amp_ss(p), eq.state, InputSchedule.constant(0.05),
                         dt=1e-3, t_end=100.0)
        dist = np.abs(traj.states - np.asarray(eq.state)).max(axis=1)
        assert dist.max() > 1e-3


def _recipe_path(name):
    return os.path.join(RECIPES_DIR, "data", name)


class TestKernelBitIdentity:
    """The generated RK4 kernel against the generic closure loop it replaced."""

    @staticmethod
    def check(ss, ic, schedule=None, dt=1e-3, t_end=1.0):
        traj = integrate(ss, ic, schedule, dt=dt, t_end=t_end)
        schedule = schedule or InputSchedule.constant(0.0)
        r_steps = schedule.values_for_steps(dt, len(traj.t) - 1)
        assert traj.states.tobytes() == reference_rk4(ss, ic, r_steps, dt).tobytes()
        return traj

    def test_recipe_pulse_switch_mid_block(self):
        sched = _read_schedule(_recipe_path("pulse_switch.json"))
        # the switches at t = 20 and t = 30 land on steps 10000 and 15000,
        # inside the third and fourth blocks
        assert 10000 % _BLOCK and 15000 % _BLOCK
        self.check(amp_ss(mixed(5.0, 0.8)), (0.1, 0.0, 0.0), sched, dt=2e-3, t_end=35.0)

    def test_five_state_load_loop(self):
        load, iface = _read_load(_recipe_path("load_msd.json"))
        ss = LureLoop.load(mixed(1.0, 0.4), 10.0, load, iface).ss
        traj = self.check(ss, (0.1, 0.0, 0.0, 0.0, 0.0), dt=5e-4, t_end=5.0)
        assert traj.states.shape == (10001, 5)

    def test_atan(self):
        p = LureLoop.amplifier(*TAUS, k=5.0, beta=0.4, nonlinearity="atan")
        self.check(amp_ss(p), (0.1, -0.02, 0.01), InputSchedule.constant(0.3), t_end=5.0)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("loop", ["amplifier", "load", "scalar"])
    def test_zero_initial_state_sign_of_zero(self, zero, loop):
        # every sum starts from 0.0, so no derivative is -0.0; the
        # input-free scalar x' = x keeps a -0.0 state only if one were
        if loop == "amplifier":
            system, dim = amp_ss(mixed(5.0, 0.4)), 3
        elif loop == "load":
            load, iface = _read_load(_recipe_path("load_msd.json"))
            system, dim = LureLoop.load(mixed(1.0, 0.4), 10.0, load, iface).ss, 5
        else:
            system, dim = StateSpace(a=((1.0,),), b=(0.0,), c=(1.0,), labels=("x",)), 1
        traj = self.check(system, (zero,) * dim, dt=5e-4, t_end=0.01)
        assert not np.signbit(traj.states[1:]).any()

    @pytest.mark.parametrize("schedule", [
        InputSchedule.constant(-0.0),
        InputSchedule(((0.0, 0.2), (0.004, -0.0))),
    ], ids=["r=-0.0", "switch-to-r=-0.0"])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_minus_zero_reference(self, schedule, zero):
        # with r = -0.0 the unseeded derivative rows are -0.0 where the
        # seeded ones are 0.0; the increments agree all the same
        traj = self.check(amp_ss(mixed(5.0, 0.4)), (zero,) * 3, schedule, dt=5e-4, t_end=0.01)
        if schedule.max_abs_value == 0.0:
            assert not traj.states[1:].any() and not np.signbit(traj.states[1:]).any()

    def test_two_by_two_bank(self):
        pos = ChannelBank((Channel(0.5, 0.05), Channel(0.5, 0.1)))
        neg = ChannelBank((Channel(0.5, 1.0), Channel(0.5, 2.0)))
        ss = LureLoop.bank(0.01, pos, neg, 5.0, 0.6).ss
        self.check(ss, (0.1, 0.0, -0.0, 0.0, -0.05), InputSchedule(((0.0, -0.0), (0.5, 0.3))),
                   dt=5e-4, t_end=2.0)

    def test_four_by_three_bank_outputs(self, monkeypatch):
        # an 8-state loop: its 2001 rows fit one block, so the output is the
        # product over every row; in blocks of 7 it is the products over
        # each block, the rows the sink gets
        pos = ChannelBank(tuple(Channel(0.25, tau) for tau in (0.02, 0.05, 0.1, 0.2)))
        neg = ChannelBank(tuple(Channel(1 / 3, tau) for tau in (1.0, 2.0, 3.0)))
        ss = LureLoop.bank(0.01, pos, neg, 5.0, 0.4).ss
        ic = (0.1, 0.03, -0.02, 0.01, 0.0, -0.01, 0.02, 0.005)
        traj = self.check(ss, ic, dt=5e-4, t_end=1.0)
        assert traj.states.shape == (2001, 8)
        assert traj.y.tobytes() == (traj.states @ np.asarray(ss.c)).tobytes()
        monkeypatch.setattr(sim, "_BLOCK", 7)
        blocks = []
        sunk = integrate(ss, ic, dt=5e-4, t_end=1.0, sink=blocks.append)
        assert sunk.states.tobytes() == traj.states.tobytes()
        rows = np.concatenate(blocks)
        assert rows[:, 9].tobytes() == sunk.y.tobytes()
        assert rows.tobytes() == np.column_stack([sunk.t, sunk.states, sunk.y]).tobytes()

    @pytest.mark.parametrize("name", WIDE_LOOPS)
    def test_outputs_same_with_and_without_sink(self, monkeypatch, name):
        # from 9 states up the product over every row differs in the last
        # bit from the blocked ones: both ways take the blocked products
        monkeypatch.setattr(sim, "_BLOCK", 7)
        ss, ic = wide_loop(name)
        plain = integrate(ss, ic, dt=1e-3, t_end=0.1)
        blocks = []
        sunk = integrate(ss, ic, dt=1e-3, t_end=0.1, sink=blocks.append)
        assert len(blocks) == 15  # 100 steps: 14 blocks of 7, then 2
        for traj in (plain, sunk):
            rows = np.column_stack([traj.t, traj.states, traj.y, *traj.extra.values()])
            assert rows.tobytes() == np.concatenate(blocks).tobytes()

    def test_load_single_term_row(self):
        # with ko = 0 the load decays on its own, so q' = qdot, a row of one
        # term, sees only the -0.0 it starts from while the amplifier swings
        ss = LureLoop.load(mixed(1.0, 0.4), 10.0, LoadParams(350.0, 35.0, 1.0, 20.0),
                           InterfaceGains(10.0, 0.0)).ss
        assert [j for j, aij in enumerate(ss.a[3]) if aij != 0.0] == [4]
        traj = self.check(ss, (0.1, 0.0, 0.0, -0.0, -0.0), dt=5e-4, t_end=1.0)
        assert not traj.states[1:, 3:].any() and not np.signbit(traj.states[1:, 3:]).any()

    def test_zero_loop_row(self):
        # y is the constant 0.0, so u = r: x0 integrates r = -0.0 from -0.0,
        # with derivatives -0.0 where the seeded loop has 0.0, and x1 has a
        # row of no terms at all
        ss = StateSpace(a=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, -2.0)),
                        b=(1.0, 0.0, 0.0), c=(0.0, 0.0, 1.0), labels=("x0", "x1", "x2"),
                        c_loop=(0.0, 0.0, 0.0))
        traj = self.check(ss, (-0.0, -0.0, 0.3), InputSchedule(((0.0, -0.0), (0.5, -0.4))),
                          t_end=2.0)
        assert not traj.states[1:, 1].any() and not np.signbit(traj.states[1:, 1]).any()
        assert not np.signbit(traj.states[1:501, 0]).any()

    def test_underflowing_increment_keeps_the_reference_sign(self):
        # sixth * (k1 + 2 (k2 + k3) + k4) underflows to -0.0, which the
        # seeded loop adds to the -0.0 initial state: the state stays -0.0
        ss = StateSpace(a=((0.0, -1.0), (0.0, 0.0)), b=(0.0, 0.0), c=(1.0, 0.0),
                        labels=("x0", "x1"))
        traj = self.check(ss, (-0.0, 5e-324), dt=1e-3, t_end=0.005)
        assert np.signbit(traj.states[:, 0]).all() and not traj.states[:, 0].any()

    def test_random_sparse_realizations(self):
        # 400 seeded loops of 1 to 9 states with sparse rows, one of them
        # empty, a zero loop row or a zero b in some, -0.0 initial
        # components and references, and both sigmoids
        rng = np.random.default_rng(2031)
        for case in range(400):
            n = int(rng.integers(1, 10))

            def sparse(shape, density):
                return rng.uniform(-3.0, 3.0, shape) * (rng.uniform(size=shape) < density)

            a = sparse((n, n), 0.4)
            a[rng.integers(n)] = 0.0
            b = sparse(n, 0.5) if case % 7 else np.zeros(n)
            c = sparse(n, 0.5) if case % 5 else np.zeros(n)
            ic = [float(v) if v or rng.uniform() < 0.5 else -0.0
                  for v in sparse(n, 0.6) / 6.0]
            ss = StateSpace(a=tuple(map(tuple, a.tolist())), b=tuple(b.tolist()),
                            c=tuple(c.tolist()), labels=tuple(f"x{i}" for i in range(n)),
                            nonlinearity=("tanh", "atan")[case % 2])
            r0, r1 = rng.uniform(-1.0, 1.0, 2).tolist()
            self.check(ss, ic, InputSchedule(((0.0, r0), (0.03, -0.0), (0.06, r1))),
                       t_end=0.1)

    def test_kernel_form(self, monkeypatch):
        # phi is a local of the block, dt and the coefficients are constants
        # of its record, and no sum has a 0.0 seed; anything else would slow
        # every step
        sources, blocks = [], []

        def exec_capture(src, namespace):
            sources.append(src)
            exec(src, namespace)

        def loop_kernel(*args):
            blocks.append(tf_core._loop_kernel(*args))
            return blocks[-1]

        monkeypatch.setattr(tf_core, "exec", exec_capture, raising=False)
        monkeypatch.setattr(sim, "_loop_kernel", loop_kernel)
        for ss in (amp_ss(mixed(5.0, 0.4)), StateSpace(a=((0.0,),), b=(0.0,), c=(0.0,),
                                                       labels=("x",))):
            integrate(ss, (0.1,) * ss.dim, dt=1e-3, t_end=0.01)
            block = blocks[-1]
            assert block.__code__.co_freevars == ()
            assert not [ins for ins in dis.get_instructions(block)
                        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME", "LOAD_DEREF")]
            assert "0.0 +" not in sources[-1]
        assert repr(1e-3 / 6.0) in sources[0]

    @pytest.mark.parametrize("n_steps", [1, _BLOCK, _BLOCK + 1])
    def test_block_boundaries(self, n_steps):
        dt = 1e-3
        ss = amp_ss(mixed(5.0, 0.4))
        traj = self.check(ss, (0.1, 0.0, 0.0), dt=dt, t_end=n_steps * dt)
        assert len(traj.t) == n_steps + 1
        # the output taken block by block for a sink is the product over
        # every row
        sunk = integrate(ss, (0.1, 0.0, 0.0), dt=dt, t_end=n_steps * dt, sink=lambda rows: None)
        assert sunk.y.tobytes() == traj.y.tobytes() == (traj.states @ np.asarray(ss.c)).tobytes()

    @pytest.mark.parametrize("a, dt", [(5.0, 0.5), (1.0, 0.1)])
    @pytest.mark.filterwarnings("ignore:dt above")
    def test_divergence_at_same_time(self, a, dt):
        # the first case overflows inside the first block, the second after it
        ss = StateSpace(a=((a,),), b=(0.0,), c=(1.0,), labels=("x",))
        r_steps = np.zeros(int(round(1000.0 / dt)))
        with pytest.raises(ArithmeticError, match="divergence at t=") as ref:
            reference_rk4(ss, (1.0,), r_steps, dt)
        with pytest.raises(ArithmeticError) as got:
            integrate(ss, (1.0,), dt=dt, t_end=1000.0)
        assert str(got.value) == str(ref.value)


class TestDetectOscillation:
    def test_constant_trajectory(self):
        t = np.arange(0.0, 20.0, 1e-3)
        traj = Trajectory(t, np.zeros((len(t), 1)), np.full(len(t), 0.7),
                          InputSchedule.constant(0.0), ("x",))
        rep = detect_oscillation(traj)
        assert not rep.oscillating and rep.period is None

    def test_synthetic_sinusoid_period(self):
        t = np.arange(0.0, 40.0 + 1e-12, 1e-3)
        y = np.sin(2 * math.pi * t)
        traj = Trajectory(t, np.zeros((len(t), 1)), y,
                          InputSchedule.constant(0.0), ("x",))
        rep = detect_oscillation(traj)  # window is the last 20 s
        assert rep.oscillating
        assert abs(rep.period - 1.0) < 0.002
        assert rep.method_agreement < 0.02

    def test_insufficient_horizon(self):
        t = np.arange(0.0, 6.0, 1e-3)
        y = np.sin(2 * math.pi * t)  # window 3 s covers only 3 periods
        traj = Trajectory(t, np.zeros((len(t), 1)), y,
                          InputSchedule.constant(0.0), ("x",))
        with pytest.raises(ArithmeticError, match="insufficient horizon"):
            detect_oscillation(traj)

    @pytest.mark.parametrize("d", [[0.0] * 8, [1.0, 1.0, 1.0, 1.0], [1.0, -1.0]],
                             ids=["zero", "never-negative", "peak-at-end"])
    def test_autocorr_without_a_peak(self, d):
        # no power, no negative lobe, or a largest lag after the first
        # negative one that is the last: no period
        assert sim._autocorr_period(np.array(d), 1e-3) is None

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, math.nan])
    def test_transient_fraction_range(self, fraction):
        t = np.arange(0.0, 1.0, 1e-3)
        traj = Trajectory(t, np.zeros((len(t), 1)), np.zeros(len(t)),
                          InputSchedule.constant(0.0), ("x",))
        with pytest.raises(ValueError, match="requires 0 <= transient_fraction < 1"):
            detect_oscillation(traj, transient_fraction=fraction)

    def test_oscillating_regime(self):
        traj = integrate(amp_ss(mixed(5.0, 0.4)), (0.1, 0.0, 0.0), dt=5e-4, t_end=50.0)
        rep = detect_oscillation(traj)
        assert rep.oscillating and rep.period > 0.0
        assert rep.method_agreement < 0.02


class TestBoundedness:
    def test_decay_to_zero(self):
        traj = integrate(amp_ss(mixed(0.0, 0.3)), (1.0, 1.0, 1.0), dt=1e-3, t_end=5.0)
        assert boundedness_check(traj, r_max=0.0)

    def test_pulse_run_bounded(self):
        sched = InputSchedule(((0.0, 0.0), (2.0, -0.5), (3.0, 0.0)))
        traj = integrate(amp_ss(mixed(5.0, 0.4)), (0.1, 0.0, 0.0), sched,
                         dt=1e-3, t_end=15.0)
        assert boundedness_check(traj, r_max=0.5, settle_time=10.0)

    def test_diverging_series_rejected(self):
        t = np.arange(0.0, 10.0, 1e-2)
        states = np.exp(t)[:, None] * np.ones((1, 3))
        traj = Trajectory(t, states, states[:, 0],
                          InputSchedule.constant(0.0), ("x", "xp", "xn"))
        assert not boundedness_check(traj, r_max=0.0)

    def test_ultimate_bound_over_tunings(self):
        for k in (0.1, 5.0, 100.0):
            for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
                traj = integrate(amp_ss(mixed(k, beta)), (0.5, -0.5, 0.2),
                                 dt=2e-3, t_end=15.0)
                assert boundedness_check(traj, r_max=0.0,
                                         settle_time=10.0), (k, beta)


class TestLinearize:
    def test_matches_equilibrium_jacobian(self):
        loop = mixed(5.0, 0.8)
        for eq in loop.equilibria(0.0):
            s = get_nonlinearity(loop.ss.nonlinearity)[1](eq.y_star)
            assert loop.jacobians([eq.y_star])[0] == pytest.approx(np.array([
                [-100.0, 400.0 * s, -100.0 * s],
                [10.0, -10.0, 0.0],
                [1.0, 0.0, -1.0],
            ]))
