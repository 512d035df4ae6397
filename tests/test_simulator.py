import errno
import io
import math
import mmap
import os
import signal
import stat
import subprocess
import threading
import time
import tracemalloc
import warnings
from array import array
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradflow import (
    ControllerParams,
    IntegrationError,
    SimConfig,
    Trajectory,
    convergence_order,
    integrate_gradient_flow,
    load_trajectory_csv,
    make_quadratic,
    make_v_alpha,
    sim_config,
    simulate,
    tracking_deviation,
)
from gradflow import _kernels, simulator
from gradflow.simulator import (
    CSV_HEADER,
    TERMINATED_GOAL,
    TERMINATED_HORIZON,
    TRAJECTORY_COLUMNS,
)
from helpers import in_build, preset_sim_config
import oracles
from oracles import (
    amplitude_vector,
    averaged_field,
    continuous_averaged_field,
    control_value,
    frame,
    hold_step,
    potential_value,
    rk4_flow,
    rk4_gradient_flow,
)


IDEAL = (math.inf, math.inf)
TB3 = (0.22, 2.84)


def short_config(loop_mode="continuous", bounds=IDEAL, potential=None, t_max=2.0,
                 x0=(-0.5, -0.5, 0.0), goal_tol=0.05, cp=1e-3, log_every=1):
    """`bounds` is the pair (u1_max, u2_max)."""
    controller = ControllerParams(u1_max=bounds[0], u2_max=bounds[1], loop_mode=loop_mode)
    return SimConfig(
        potential=potential if potential is not None else make_v_alpha(1.0),
        controller=controller, x0=x0, goal_tol=goal_tol, t_max=t_max,
        control_period=cp, log_every=log_every,
    )


def as_rows(data) -> array:
    """The rows of the 2-D array `data` as the array('d') a Trajectory holds."""
    return array("d", np.ascontiguousarray(data, dtype=np.float64).tobytes())


def logged(data):
    """A horizon-terminated Trajectory of the rows of the 2-D array `data`,
    with zero run counts."""
    return Trajectory(as_rows(data), None, 0, 0.0, 0.0)


class TestSimConfigValidation:
    def test_period_must_divide_epsilon(self):
        with pytest.raises(ValueError, match="divide"):
            short_config(cp=0.3)

    def test_ordering_enforced(self):
        # the default controller's epsilon is 1 s
        with pytest.raises(ValueError, match="control_period"):
            short_config(cp=2.0)

    def test_horizon_must_be_whole_periods(self):
        # rounding would run 2001 updates, to t = 1.0005, past the horizon
        with pytest.raises(ValueError, match="t_max"):
            short_config(t_max=1.00026, cp=5e-4)
        assert short_config(t_max=1.0005, cp=5e-4).t_max == 1.0005

    def test_large_decimal_horizon(self):
        # 17,214,402,104 periods: n*base rounds by more than 1e-9 at this size
        assert short_config(t_max=8607201.052, cp=5e-4).t_max == 8607201.052

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 2 ** 40 - 1), base=st.sampled_from(["5e-4", "1e-3", "1e-5"]))
    def test_decimal_multiples_accepted(self, k, base):
        # k*base in decimal, rounded once to a float, is k steps; a third of a
        # step more is no multiple, however large the value
        step = float(base)
        assert simulator._multiple_of(float(k * Decimal(base)), step) == k
        assert simulator._multiple_of(float(k * Decimal(base) + Decimal(base) / 3), step) is None

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2 ** 40), base=st.floats(1e-6, 10.0),
           offset=st.floats(-2e-9, 2e-9))
    def test_absolute_tolerance_multiples_keep_their_count(self, n, base, offset):
        # whatever an absolute 1e-9 tolerance accepts keeps its count, so no
        # run that was accepted before changes its number of steps
        value = n * base + offset
        count = round(value / base)
        if count >= 1 and abs(value - count * base) <= 1e-9:
            assert simulator._multiple_of(value, base) == count

    def test_overflowing_horizon(self):
        # epsilon / control_period overflows to inf: a ValueError, not an OverflowError
        controller = ControllerParams(epsilon=1e308)
        with pytest.raises(ValueError, match="1e\\+308 is not a finite multiple"):
            SimConfig(potential=make_v_alpha(1.0), controller=controller, x0=(0.1, 0.0, 0.0))

    def test_negative_tolerance(self):
        with pytest.raises(ValueError, match="goal_tol"):
            short_config(goal_tol=-1.0)

    def test_bad_log_every(self):
        with pytest.raises(ValueError, match="log_every"):
            short_config(log_every=0)
        with pytest.raises(ValueError, match="log_every"):
            short_config(log_every=True)


class TestSimulate:
    def test_controls_overflowing_at_the_start(self):
        # V(x0) = 0.5 is finite, but omega*|a12| overflows and u2 = 8*inf*sin(0) is nan
        cfg = SimConfig(potential=make_v_alpha(1.0), controller=ControllerParams(gamma=1e308),
                        x0=(-0.5, -0.5, 0.0), t_max=1.0)
        with pytest.raises(ValueError, match="V, the amplitudes or the controls are non-finite"):
            simulate(cfg)

    def test_start_at_goal_single_row(self):
        # the goal test, full-state distance to the origin <= goal_tol, runs at t = 0 first
        for x0, tol, stops in [
            ((0.0, 0.0, 0.0), 0.05, True),
            ((0.0, -0.0, 0.0), 0.0, True),  # exact
            ((0.03, 0.04, 0.0), 0.05, True),  # on the boundary: a 3-4-5 triangle
            ((0.06, 0.0, 0.0), 0.05, False),  # outside
        ]:
            traj = simulate(short_config(x0=x0, goal_tol=tol, t_max=0.01))
            assert traj.t[0] == 0.0
            if stops:
                assert traj.data.shape[0] == 1
                assert traj.terminated == TERMINATED_GOAL
                assert traj.convergence_time == 0.0
            else:
                assert traj.terminated == TERMINATED_HORIZON

    @pytest.mark.parametrize("mode, refresh_every", [("continuous", 1), ("sampling", 1000)])
    def test_zero_goal_tol_stops_once_the_distance_underflows(self, mode, refresh_every):
        # sqrt(x1*x1 + x2*x2 + x3*x3) <= 0 holds once every square underflows to 0,
        # below about 2.2e-162: so goal_tol = 0 stops a run before the exact origin
        for x1, stops in [(1.5e-162, True), (3e-162, False)]:
            cfg = short_config(loop_mode=mode, x0=(x1, 0.0, 0.0), goal_tol=0.0, t_max=0.01)
            assert simulator._loop_args(cfg)["refresh_every"] == refresh_every
            traj = simulate(cfg)
            if stops:
                assert traj.data.shape[0] == 1 and traj.convergence_time == 0.0
            else:
                assert traj.terminated == TERMINATED_HORIZON and traj.data.shape[0] == 11

    def test_first_row_is_initial_state(self):
        traj = simulate(short_config(t_max=0.25, goal_tol=0.0))
        assert traj.t[0] == 0.0
        assert np.array_equal(frame(traj)[0, 1:4], [-0.5, -0.5, 0.0])

    def test_time_strictly_increasing(self):
        traj = simulate(short_config(t_max=0.5, goal_tol=0.0))
        assert np.all(np.diff(traj.t) > 0)

    def test_potential_column_consistent(self):
        cfg = short_config(potential=make_v_alpha(4.0), t_max=0.5, goal_tol=0.0)
        traj = simulate(cfg)
        data = frame(traj)
        expected = potential_value(cfg.potential, data[:, 1:4])
        assert np.abs(data[:, 9] - expected).max() <= 1e-12

    def test_deterministic_bitwise(self):
        cfg = short_config(loop_mode="sampling", t_max=1.0, goal_tol=0.0)
        a = simulate(cfg)
        b = simulate(cfg)
        assert a.rows == b.rows
        assert a.terminated == b.terminated

    def test_sampling_amplitudes_frozen_within_period(self):
        controller = ControllerParams(epsilon=0.5, loop_mode="sampling")
        cfg = SimConfig(potential=make_v_alpha(1.0), controller=controller,
                        x0=(-0.5, -0.5, 0.0), goal_tol=0.0, t_max=1.5,
                        control_period=0.01)
        data = frame(simulate(cfg))
        block = np.floor(data[:, 0] / 0.5 + 1e-9).astype(int)
        for j in np.unique(block):
            amps = data[block == j, 6:9]
            assert np.array_equal(amps, np.tile(amps[0], (amps.shape[0], 1)))
        firsts = [data[block == j, 6:9][0] for j in np.unique(block)]
        assert not np.array_equal(firsts[0], firsts[1])

    def test_continuous_amplitudes_track_state(self):
        cfg = short_config(loop_mode="continuous", t_max=0.2, goal_tol=0.0)
        data = frame(simulate(cfg))
        assert not np.array_equal(data[0, 6:9], data[1, 6:9])

    def test_log_every_keeps_endpoints(self):
        cfg = short_config(t_max=0.1, goal_tol=0.0, log_every=7)
        traj = simulate(cfg)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(0.1, abs=1e-12)
        full = simulate(short_config(t_max=0.1, goal_tol=0.0))
        assert traj.data.shape[0] < full.data.shape[0]
        assert np.array_equal(frame(traj)[-1], frame(full)[-1])

    @pytest.mark.parametrize("bounds", [IDEAL, TB3])
    def test_counts_cover_every_update(self, bounds):
        full = simulate(short_config(bounds=bounds, t_max=1.0, goal_tol=0.0))
        data = frame(full)
        assert full.saturation_count == int(np.count_nonzero(data[:, 10]))
        assert full.max_abs_u1 == np.abs(data[:, 4]).max()
        assert full.max_abs_u2 == np.abs(data[:, 5]).max()
        sparse = simulate(short_config(bounds=bounds, t_max=1.0, goal_tol=0.0, log_every=7))
        assert sparse.data.shape[0] < full.data.shape[0]
        for name in ("saturation_count", "max_abs_u1", "max_abs_u2"):
            assert getattr(sparse, name) == getattr(full, name)

    def test_finite_bounds_saturate(self):
        # finite limits are the clamp: P1's limits need no mode to act
        controller = ControllerParams(u1_max=0.22, u2_max=2.84)
        traj = simulate(SimConfig(potential=make_v_alpha(1.0), controller=controller,
                                  x0=(-0.5, -0.5, 0.0), t_max=2.0))
        assert traj.saturation_count > 0
        assert traj.max_abs_u1 == 0.22 and traj.max_abs_u2 <= 2.84
        assert traj.rows == simulate(preset_sim_config("P1", t_max=2.0)).rows

    def test_peak_memory_is_one_trajectory(self):
        # the logged rows are returned in place, not copied out of the run's buffer,
        # and a run that stops at the goal holds the rows it logged, not its horizon's:
        # P1 sampling reaches the goal at 27.9 s of its 600 s
        runs = [(short_config(t_max=2.0, goal_tol=0.0), TERMINATED_HORIZON),
                (preset_sim_config("P1", loop_mode="sampling"), TERMINATED_GOAL)]
        simulate(runs[0][0])  # warm up lazy imports and caches outside the trace
        for cfg, terminated in runs:
            tracemalloc.start()
            try:
                traj = simulate(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert traj.terminated == terminated
            assert peak <= 1.1 * traj.data.nbytes

    def test_blowup_raises_with_partial_trajectory(self):
        # a stiff heading term: a2 = -gamma*2*c3*x3 = -100*x3 held for 0.05 s
        # multiplies x3 by about -4 per hold, until the state overflows
        cfg = SimConfig(potential=make_quadratic(1.0, 1.0, 1e3),
                        controller=ControllerParams(epsilon=0.05), x0=(0.1, 0.0, 0.3),
                        goal_tol=0.0, t_max=600.0, control_period=0.05)
        with pytest.raises(IntegrationError, match=r"t=12\.7") as info:
            simulate(cfg)
        traj = info.value.trajectory
        assert traj.data.shape[0] == 255
        assert np.all(np.isfinite(frame(traj)[-1]))


hold_values = st.floats(-3.0, 3.0, allow_nan=False)


class TestLibraryFormulasAreTheOracle:
    """Every logged row equals control_value and amplitude_vector, bit for bit."""

    @pytest.mark.parametrize("bounds", ["ideal", "clamp"])
    @pytest.mark.parametrize("mode", ["continuous", "sampling"])
    def test_p3_rows(self, mode, bounds):
        cfg = preset_sim_config("P3", loop_mode=mode, bounds_mode=bounds,
                                t_max=5.0, control_period=1e-3)
        traj = simulate(cfg)
        ctrl = cfg.controller
        assert traj.data.shape[0] == 5001
        refreshed = 0
        # log_every = 1 and no goal hit: row k is control update k
        for k, row in enumerate(frame(traj)):
            t, state, a = row[0], row[1:4], row[6:9]
            u, sat = control_value(ctrl, a, t)
            assert u[0] == row[4] and u[1] == row[5] and float(sat) == row[10]
            # sampling mode refreshes the amplitudes once per epsilon = 1000 updates
            if mode == "continuous" or k % 1000 == 0:
                assert np.array_equal(amplitude_vector(cfg.potential, ctrl.gamma, state), a)
                refreshed += 1
        assert refreshed == (5001 if mode == "continuous" else 6)
        assert (traj.saturation_count > 0) == (bounds == "clamp")


class TestExactHold:
    def test_single_hold_is_circular_arc(self):
        # one zero-order-hold segment, against the arc written as the
        # integral of (u1 cos, u1 sin)(x3 + u2 s) over s in [0, T]
        controller = ControllerParams(epsilon=0.8)
        cfg = SimConfig(potential=make_quadratic(3.0, 1.0, 2.0), controller=controller,
                        x0=(0.7, -0.4, 0.6), goal_tol=0.0, t_max=0.8, control_period=0.8)
        traj = simulate(cfg)
        assert traj.data.shape[0] == 2
        data = frame(traj)
        (x1, x2, x3), (u1, u2) = data[0, 1:4], data[0, 4:6]
        assert abs(u2) > 0.1
        r = u1 / u2
        arc = [x1 + r * (math.sin(x3 + 0.8 * u2) - math.sin(x3)),
               x2 - r * (math.cos(x3 + 0.8 * u2) - math.cos(x3)),
               x3 + 0.8 * u2]
        assert np.abs(data[-1, 1:4] - arc).max() <= 1e-14

    def test_straight_hold(self):
        assert hold_step(0.5, -1.0, 0.3, 0.2, 0.0, 2.0) == (
            0.5 + 0.4 * math.cos(0.3), -1.0 + 0.4 * math.sin(0.3), 0.3)

    @settings(max_examples=200, deadline=None)
    @given(hold_values, hold_values, hold_values, hold_values, hold_values,
           st.floats(1e-3, 2.0))
    def test_two_half_holds_compose(self, x1, x2, x3, u1, u2, T):
        half = hold_step(*hold_step(x1, x2, x3, u1, u2, T / 2), u1, u2, T / 2)
        whole = hold_step(x1, x2, x3, u1, u2, T)
        assert np.abs(np.subtract(half, whole)).max() <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(hold_values, hold_values, hold_values, st.floats(1e-2, 2.0))
    def test_planar_speed_conserved(self, x3, u1, u2, T):
        # central difference in T of the planar position along the hold
        d = 1e-6
        ahead = hold_step(0.0, 0.0, x3, u1, u2, T + d)
        behind = hold_step(0.0, 0.0, x3, u1, u2, T - d)
        speed = math.hypot(ahead[0] - behind[0], ahead[1] - behind[1]) / (2 * d)
        assert speed == pytest.approx(abs(u1), abs=1e-8)
        assert (ahead[2] - behind[2]) / (2 * d) == pytest.approx(u2, abs=1e-8)


class TestOneLoopStep:
    """One update of the closed loop is the oracle's hold and V, bit for bit."""

    @pytest.mark.parametrize("bounds,saturated", [(IDEAL, 0.0), (TB3, 1.0)],
                             ids=["continuous", "clamped"])
    def test_second_row_is_oracle_hold(self, bounds, saturated):
        c1, c2, c3 = 1.5, 0.7, 2.2
        ctrl = ControllerParams()
        T = 0.01
        out = _kernels.closed_loop(c1, c2, c3, (-0.5, 0.4, 0.3), ctrl.gamma, ctrl.k1, ctrl.k2,
                                   ctrl.omega, T, 1, 1, *bounds, 0.0, 1)
        rows = np.frombuffer(out[0]).reshape(-1, len(TRAJECTORY_COLUMNS)).tolist()
        assert out[1] == _kernels.STATUS_HORIZON
        assert len(rows) == 2
        first, second = rows
        assert first[10] == saturated
        x1, x2, x3 = second[1:4]
        assert (x1, x2, x3) == hold_step(*first[1:4], *first[4:6], T)
        assert second[9] == c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3


def same_run(**args):
    """closed_loop's run of `args`, asserted equal to the C loop's, bit for bit.

    Also asserts the row rule: no logged value is non-finite.
    """
    assert _kernels.compiled_loop() is not None
    scalar = _kernels.closed_loop(**args)
    compiled = _kernels.c_loop(**args)
    assert len(scalar) == 5
    assert compiled[0].tobytes() == scalar[0].tobytes()
    assert compiled[1:] == scalar[1:]
    assert np.all(np.isfinite(scalar[0]))
    return scalar


def recorded_c_calls(monkeypatch):
    """Record each call of the C loop: its rows logged, then k, status and state after it."""
    fn = _kernels.compiled_loop().closed_loop
    calls = []

    def recorded(p, n, s, rows, room):
        logged = fn(p, n, s, rows, room)
        calls.append((logged, n[4], n[6], list(s)))
        return logged

    monkeypatch.setattr(_kernels, "compiled_loop", lambda: SimpleNamespace(closed_loop=recorded))
    return calls


def refine_config(eps, t_max=2.0, log_every=1):
    """One closed loop of `refine --v-alpha 1` at this eps: 2,000 updates per eps."""
    controller = ControllerParams(epsilon=eps, gamma=0.05, loop_mode="sampling")
    return SimConfig(potential=make_v_alpha(1.0), controller=controller, x0=(-0.5, -0.5, 0.0),
                     goal_tol=0.0, t_max=t_max, control_period=eps / 2000,
                     log_every=log_every)


def overflow_args(refresh_every):
    """A run whose x3 first overflows at update 4, after four logged rows.

    c3 = 0 keeps V finite at any x3, and u2 = k2*osc*sin(omega*t) clamps to
    u2_max = 1e307 from update 1 on, so x3 grows by 1e307 per hold until the
    hold of update 3 takes it past the float range, its heading x3 + u2*T/2
    still in it.
    """
    return dict(c1=1.0, c2=1.0, c3=0.0, x0=(1000.0, 0.0, 1.52e308), gamma=0.05, k1=1.0,
                k2=1e307, omega=0.4, control_period=1.0, n_updates=40,
                refresh_every=refresh_every, u1_max=1.0, u2_max=1e307, goal_tol=0.0,
                log_every=1)


class TestSamplingWindows:
    """The C loop is closed_loop, bit for bit, in both loop modes: rows, status
    and the counters of every evaluated update."""

    def test_c_loop_loads_on_this_host(self):
        assert _kernels.kernel() == "c"

    @pytest.mark.parametrize("bounds", ["clamp", "ideal"])
    @pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
    def test_presets(self, name, bounds):
        for mode, refresh_every in [("continuous", 1), ("sampling", 2000)]:
            args = simulator._loop_args(
                preset_sim_config(name, loop_mode=mode, bounds_mode=bounds))
            assert args["refresh_every"] == refresh_every
            status, n_sat = same_run(**args)[1:3]
            assert status == _kernels.STATUS_GOAL
            assert (n_sat > 0) == (bounds == "clamp")

    @pytest.mark.parametrize("eps, t_max", [(0.5, 2.0), (0.1, 2.0), (0.02, 2.0), (0.004, 0.5)])
    def test_refine_runs(self, eps, t_max):
        # eps 0.004 over the first 0.5 s of its 2 s, 125 windows: the whole
        # run would take closed_loop about 2 s
        args = simulator._loop_args(refine_config(eps, t_max))
        assert same_run(**args)[1] == _kernels.STATUS_HORIZON

    def test_log_every_7(self):
        args = simulator._loop_args(preset_sim_config("P1", loop_mode="sampling", log_every=7))
        rows = same_run(**args)[0]
        assert len(rows) < 11 * args["n_updates"] / 6

    def test_goal_mid_window(self):
        cfg = short_config(loop_mode="sampling", x0=(0.3, -0.2, 0.1), goal_tol=0.2,
                           t_max=20.0, cp=1e-3, log_every=5)
        args = simulator._loop_args(cfg)
        assert args["refresh_every"] == 1000
        rows, status = same_run(**args)[:2]
        assert status == _kernels.STATUS_GOAL
        # the goal row is logged though k % 5 != 0, and is the last
        t, x1, x2, x3 = rows[-11:-7]
        k = round(t / 1e-3)
        assert k % 1000 != 0 and k % 5 != 0
        assert math.sqrt(x1 * x1 + x2 * x2 + x3 * x3) <= 0.2
        assert simulate(cfg).convergence_time == t

    @pytest.mark.parametrize("mode", ["continuous", "sampling"])
    def test_resume_at_every_row(self, mode, monkeypatch):
        # one row of room per call until 64 rows are logged: every row is the
        # last of a call, and the next call resumes from k, the state, the
        # amplitudes and the counters; the goal is reached mid-run
        monkeypatch.setattr(_kernels, "GROW_ROWS", 1)
        cfg = short_config(loop_mode=mode, bounds=TB3, x0=(0.3, -0.2, 0.1), goal_tol=0.2,
                           t_max=20.0, cp=1e-3, log_every=7)
        args = simulator._loop_args(cfg)
        rows, status = same_run(**args)[:2]
        assert status == _kernels.STATUS_GOAL and len(rows) > 11 * 64
        calls = recorded_c_calls(monkeypatch)
        assert _kernels.c_loop(**args)[0].tobytes() == rows.tobytes()
        assert [logged for logged, *_ in calls[:64]] == [1] * 64
        assert [c_status for *_, c_status, _ in calls] == [-1] * (len(calls) - 1) + [status]

    @pytest.mark.parametrize("mode", ["continuous", "sampling"])
    def test_resume_at_every_update(self, mode, monkeypatch):
        # seven updates per call: each call ends mid-row-interval, with room to
        # spare, and the next resumes from k, the state, the amplitudes and the
        # counters; the goal is reached mid-run
        monkeypatch.setattr(_kernels, "UPDATES_PER_CALL", 7)
        cfg = short_config(loop_mode=mode, bounds=TB3, x0=(0.3, -0.2, 0.1), goal_tol=0.2,
                           t_max=20.0, cp=1e-3, log_every=5)
        args = simulator._loop_args(cfg)
        rows, status = same_run(**args)[:2]
        assert status == _kernels.STATUS_GOAL
        calls = recorded_c_calls(monkeypatch)
        _kernels.c_loop(**args)
        ks = [k for _, k, *_ in calls]
        assert ks[:-1] == list(range(7, 7 * len(ks), 7)) and 0 <= ks[-1] - ks[-2] < 7

    def test_a_signal_stops_a_long_run(self):
        # a run of 2^27 updates that logs two rows: one call of the C loop
        # would run it all, seconds in which Python handles no signal, Ctrl-C
        # included. UPDATES_PER_CALL hands control back within a fraction of
        # a second, and the handler's exception ends the run
        class Alarm(Exception):
            pass

        def alarm(signum, frame):
            raise Alarm

        args = dict(c1=1.0, c2=1.0, c3=1.0, x0=(1.0, 0.0, 0.0), gamma=0.0, k1=1.0, k2=1.0,
                    omega=1.0, control_period=1e-3, n_updates=2 ** 27, refresh_every=1,
                    u1_max=math.inf, u2_max=math.inf, goal_tol=0.0, log_every=2 ** 62)
        assert _kernels.compiled_loop() is not None
        previous = signal.signal(signal.SIGALRM, alarm)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(Alarm):
                _kernels.c_loop(**args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("refresh_every, grow", [(4, 1024), (8, 1024), (8, 4), (8, 3)],
                             ids=["window-edge", "mid-window", "block-edge", "mid-block"])
    def test_nonfinite_stop(self, refresh_every, grow, monkeypatch):
        # room for 4 rows puts a call's end right before the stopping update
        # 4, room for 3 one row before it
        monkeypatch.setattr(_kernels, "GROW_ROWS", grow)
        rows, status, n_sat = same_run(**overflow_args(refresh_every))[:3]
        assert status == _kernels.STATUS_NONFINITE
        assert len(rows) == 4 * 11 and n_sat == 4
        assert math.isfinite(rows[-8])  # x3 of update 3; update 4's is inf
        # the C loop stops at update 4 on the row rule: V = 0*inf*inf is nan, and
        # at the window edge, where math.sin(inf) raises, so are C's amplitudes
        calls = recorded_c_calls(monkeypatch)
        _kernels.c_loop(**overflow_args(refresh_every))
        assert calls[-1][1:3] == (4, _kernels.STATUS_NONFINITE)

    @pytest.mark.parametrize("case", ["half-angle", "heading"])
    def test_hold_angle_overflow_stops_nonfinite(self, case, monkeypatch):
        # a finite hold whose half-angle u2*T/2 or heading x3 + u2*T/2 is inf
        if case == "half-angle":
            # u2 = -2e307 on the first hold, so u2*T/2 = -2e308
            args = simulator._loop_args(sim_config({
                "potential": {"kind": "quadratic", "c": [1, 1, 1]}, "epsilon": 20.0,
                "gamma": 1e157, "x0": [0, 0, 1e150], "goal_tol": 0, "t_max": 40,
                "control_period": 20, "bounds_mode": "ideal"}))
            logged = 1
        else:
            # x3 = 1.79e308 and u2 = 1.75e307 on the second hold
            args = dict(overflow_args(1), x0=(1000.0, 0.0, 1.79e308), u2_max=2e307)
            logged = 2
        assert args["refresh_every"] == 1
        rows, status = same_run(**args)[:2]
        assert status == _kernels.STATUS_NONFINITE
        assert len(rows) == 11 * logged
        # closed_loop stops on the ValueError that math.sin or math.cos raise
        # in the hold after the last logged row
        last = rows[-11:]
        with pytest.raises(ValueError, match="math domain error"):
            hold_step(*last[1:6], args["control_period"])
        # the C loop's sin and cos return nan there, so x1 is nan after that
        # hold, and the row rule stops the run at the next update, on V = nan,
        # before it logs or counts anything: the same rows and counters
        calls = recorded_c_calls(monkeypatch)
        _kernels.c_loop(**args)
        (_, k, c_status, state), = calls
        assert (k, c_status) == (logged, _kernels.STATUS_NONFINITE)
        assert math.isnan(state[0])

    @pytest.mark.parametrize("mode", ["continuous", "sampling"])
    @pytest.mark.parametrize("x0", [[1e152, 0, 0], [0, 0, 1e152]], ids=["a1", "a2"])
    def test_clamped_amplitude_overflow_logs_no_row(self, x0, mode):
        # a1 = -gamma*2*c1*x1 or a2 = -gamma*2*c3*x3 is -inf at x0, V = 1e304 and
        # a12 are finite, and the clamp makes the control a finite -u_max: only the
        # test of a1 or a2 itself stops the run
        args = simulator._loop_args(sim_config({
            "potential": {"kind": "quadratic", "c": [1, 1, 1]}, "gamma": 1e157, "x0": x0,
            "t_max": 0.002, "goal_tol": 0, "loop_mode": mode}))
        rows, status = same_run(**args)[:2]
        assert status == _kernels.STATUS_NONFINITE
        assert len(rows) == 0

    @pytest.mark.parametrize("grow", [3, 25, 1024])
    @pytest.mark.parametrize("refresh_every", [1, 3, 100])
    def test_partial_last_window(self, refresh_every, grow, monkeypatch):
        # 550 updates: the last window is cut, and update 550 is logged though
        # 550 % 7 != 0
        monkeypatch.setattr(_kernels, "GROW_ROWS", grow)
        controller = ControllerParams(epsilon=refresh_every * 1e-3, u1_max=0.22, u2_max=2.84,
                                      loop_mode="sampling")
        cfg = SimConfig(potential=make_v_alpha(4.0), controller=controller,
                        x0=(-0.5, -0.5, 0.0), goal_tol=0.0, t_max=0.55, control_period=1e-3,
                        log_every=7)
        args = simulator._loop_args(cfg)
        assert args["n_updates"] == 550 and args["refresh_every"] == refresh_every
        rows = same_run(**args)[0]
        assert rows[-11] == 0.55 and len(rows) == 11 * (550 // 7 + 2)

    def test_counts_past_the_64_bit_range(self):
        # n_updates, refresh_every and log_every that no k reaches are capped
        # for the C loop's 64-bit k, with the same run
        args = dict(simulator._loop_args(short_config(loop_mode="sampling", t_max=0.05)),
                    refresh_every=10 ** 30, log_every=2 ** 64 + 3)
        rows, status = same_run(**args)[:2]
        assert status == _kernels.STATUS_HORIZON and len(rows) == 2 * 11


class TestCompiledLoopBuild:
    def test_build_leaves_only_the_library(self, tmp_path):
        import ctypes

        path = tmp_path / "loop.so"
        _kernels._build(str(path))
        assert os.listdir(tmp_path) == ["loop.so"]
        lib = ctypes.CDLL(str(path))
        assert lib.closed_loop and lib.parse_rows

    def test_build_removes_the_older_libraries(self, tmp_path):
        # a library of another source or flags is never loaded again; a
        # bytecode file and an unrelated file stay
        for name in ("_kernels.0badc0de.so", "_closed_loop.026d9aaf.so", "simulator.pyc",
                     "notes.txt"):
            (tmp_path / name).write_bytes(b"old")
        path = tmp_path / "_kernels.12345678.so"
        _kernels._build(str(path))
        assert sorted(os.listdir(tmp_path)) == ["_kernels.12345678.so", "notes.txt",
                                                "simulator.pyc"]

    def test_failed_build_runs_the_python_loop(self, tmp_path, monkeypatch, capfd):
        # a source that does not compile: the loader reports why on stderr,
        # leaves no file behind, and simulate runs closed_loop with the same bytes
        bad = tmp_path / "_kernels.c"
        bad.write_text("this is not C\n")
        cfg = short_config(t_max=0.5, goal_tol=0.0)
        expected = simulate(cfg).data.tobytes()  # builds the real library if it is not yet
        cache = os.path.join(os.path.dirname(_kernels.__file__), "__pycache__")
        before = sorted(os.listdir(cache))
        monkeypatch.setattr(_kernels, "_C_SOURCE", str(bad))
        _kernels.compiled_loop.cache_clear()
        try:
            assert _kernels.compiled_loop() is None
            assert _kernels.kernel() == "python"
            assert simulate(cfg).data.tobytes() == expected
        finally:
            _kernels.compiled_loop.cache_clear()
        captured = capfd.readouterr()
        assert captured.out == ""
        assert ("gradflow: running the Python closed loop, CSV reader, CSV writer, "
                "deviation and quadrature: cc exited with status" in captured.err)
        assert sorted(os.listdir(cache)) == before


class TestRK4Order:
    def test_gradient_flow_order(self):
        def run(h):
            return rk4_gradient_flow(make_quadratic(1.0, 2.0, 0.5), [1.0, -1.0, 0.5],
                                     round(1.0 / h), h)[-1, 1:]

        ref = run(1.0 / 1024)
        err_h = np.linalg.norm(run(0.25) - ref)
        err_h2 = np.linalg.norm(run(0.125) - ref)
        assert err_h / err_h2 >= 12.0


class TestGradientFlow:
    def test_closed_form_sum_of_squares(self):
        traj = integrate_gradient_flow(make_v_alpha(1.0), [-0.5, -0.5, 0.0],
                                       t_max=1.0, h=1e-3)
        x1, x2, x3 = frame(traj)[-1, 1:4]
        assert x1 == pytest.approx(-0.06766764161830635, abs=1e-15)
        assert x2 == pytest.approx(-0.06766764161830635, abs=1e-15)
        assert x3 == 0.0
        assert traj.terminated == TERMINATED_HORIZON
        assert traj.convergence_time is None

    # 2*c*h at most 0.02 keeps RK4's own error on these states below 1e-9
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
           st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           st.floats(1e-4, 0.02), st.integers(1, 400))
    def test_matches_rk4_oracle(self, coeffs, x0, step, n_steps):
        h = step / (2.0 * max(coeffs))
        potential = make_quadratic(*coeffs)
        traj = integrate_gradient_flow(potential, x0, t_max=n_steps * h, h=h)
        ref = rk4_gradient_flow(potential, x0, n_steps, h)
        data = frame(traj)
        assert np.array_equal(data[:, 0], ref[:, 0])
        x = data[:, 1:4]
        assert np.abs(x - ref[:, 1:]).max() <= 1e-9
        assert np.array_equal(data[:, 9], coeffs[0] * x[:, 0] * x[:, 0]
                              + coeffs[1] * x[:, 1] * x[:, 1] + coeffs[2] * x[:, 2] * x[:, 2])
        assert np.array_equal(data[:, 4:9], np.zeros((len(ref), 5)))
        assert np.array_equal(data[:, 10], np.zeros(len(ref)))

    def test_equilibrium(self):
        traj = integrate_gradient_flow(make_v_alpha(2.0), [0.0, 0.0, 0.0],
                                       t_max=0.5, h=1e-3)
        assert np.array_equal(frame(traj)[-1, 1:4], np.zeros(3))

    def test_anisotropic_decay_rates(self):
        # alpha=4: x1 ~ exp(-8t), x2 ~ exp(-t/2)
        traj = integrate_gradient_flow(make_v_alpha(4.0), [1.0, 1.0, 0.0],
                                       t_max=1.0, h=1e-3)
        x1, x2, _ = frame(traj)[-1, 1:4]
        assert x1 == pytest.approx(3.3546262790251185e-4, rel=1e-7)
        assert x2 == pytest.approx(0.6065306597126334, rel=1e-9)

    def test_controls_logged_zero(self):
        traj = integrate_gradient_flow(make_v_alpha(1.0), [1.0, 0.0, 0.0],
                                       t_max=0.1, h=1e-3)
        assert np.array_equal(frame(traj)[:, 4:9], np.zeros((traj.data.shape[0], 5)))

    def test_stiff_flow_reaches_horizon(self):
        # 2 * 200 * h = 4 lies outside RK4's stability interval [-2.78, 0]; the
        # closed form has no step to be unstable in
        traj = integrate_gradient_flow(make_quadratic(200.0, 200.0, 200.0), [0.1, 0.0, 0.0],
                                       t_max=5.0, h=1e-2)
        assert traj.terminated == TERMINATED_HORIZON
        assert traj.t[-1] == 5.0
        assert np.array_equal(frame(traj)[-1, 1:4], np.zeros(3))

    def test_overflowing_initial_potential_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite values at the initial state"):
                integrate_gradient_flow(make_v_alpha(1.0), [1e200, 0.0, 0.0], t_max=1.0, h=0.1)

    def test_decay_past_the_float_range(self):
        # c*t overflows to inf at t = 1e9, where the state has long been 0;
        # neither build warns
        for build in ("c", "python"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                traj = in_build(build, integrate_gradient_flow, make_quadratic(1e300, 1.0, 1.0),
                                [1.0, 1.0, 0.0], 2e9, 1e9)
            assert traj.t.tolist() == [0.0, 1e9, 2e9]
            assert np.array_equal(frame(traj)[1:, 1], [0.0, 0.0])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            integrate_gradient_flow(make_v_alpha(1.0), [0, 0, 0], t_max=1.0, h=0.0)
        with pytest.raises(ValueError):
            integrate_gradient_flow(make_v_alpha(1.0), [0, 0, 0], t_max=-1.0, h=0.1)

    def test_horizon_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="divide"):
            integrate_gradient_flow(make_v_alpha(1.0), [1, 0, 0], t_max=1.00026, h=1e-3)
        traj = integrate_gradient_flow(make_v_alpha(1.0), [1, 0, 0], t_max=1.001, h=1e-3)
        assert traj.t[-1] == pytest.approx(1.001, abs=1e-12)


class TestFlowRows:
    """Both builds give the same bits, each state within an ulp of numpy's
    closed form: flow_rows calls libm's exp, numpy its own."""

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
           exponents=st.lists(st.integers(-20, 20), min_size=3, max_size=3),
           signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3),
           h=st.floats(1e-4, 0.1), n_steps=st.integers(0, 500))
    def test_builds_agree_within_an_ulp_of_numpy(self, coeffs, exponents, signs, h, n_steps):
        # x0 is a power of two in each component, so each state is its exp
        # factor scaled exactly, and the ulp is exp's own
        x0 = [sign * 2.0 ** e for sign, e in zip(signs, exponents)]
        potential = make_quadratic(*coeffs)
        flows = [in_build(build, integrate_gradient_flow, potential, x0, (n_steps + 1) * h, h)
                 for build in ("c", "python")]
        assert flows[0].rows == flows[1].rows
        ours = frame(flows[0])
        ref = oracles.gradient_flow_rows(potential, x0, n_steps + 1, h)
        assert ours.shape == ref.shape
        assert np.array_equal(ours[:, 0], ref[:, 0])
        states, ref_states = ours[:, 1:4], ref[:, 1:4]
        assert np.all((states == ref_states) | (states == np.nextafter(ref_states, np.inf))
                      | (states == np.nextafter(ref_states, -np.inf)))
        x1, x2, x3 = states.T
        assert np.array_equal(ours[:, 9], coeffs[0] * x1 * x1 + coeffs[1] * x2 * x2
                              + coeffs[2] * x3 * x3)
        assert not ours[:, 4:9].any() and not ours[:, 10].any()


def same(x: float, y: float) -> bool:
    """x == y, where a NaN equals a NaN."""
    return x == y or (math.isnan(x) and math.isnan(y))


# states that take np.interp's NaN retry and its flat-segment fallback
EXTREME_STATES = (math.inf, -math.inf, math.nan, 1e308, -1e308, -0.0, 5e-324)


@st.composite
def run_pairs(draw):
    """Two Trajectories that start at t = 0 with ascending times, some of them
    shared and the rest interleaved; either may end first, or both at once,
    and either may be one row."""
    times = st.lists(st.floats(0.0, 10.0, exclude_min=True), max_size=10)
    ta = sorted({0.0, *draw(times)})
    shared = draw(st.lists(st.sampled_from(ta), max_size=len(ta)))
    tb = sorted({0.0, *shared, *draw(times)})
    if draw(st.booleans()):  # both end at ta's last time
        tb = sorted({t for t in tb if t < ta[-1]} | {ta[-1]})
    values = st.floats(-10.0, 10.0)
    if draw(st.booleans()):
        values = st.one_of(values, st.sampled_from(EXTREME_STATES))
    runs = []
    for t in (ta, tb):
        rows = np.zeros((len(t), len(TRAJECTORY_COLUMNS)))
        rows[:, 0] = t
        rows[:, 1:4] = draw(hnp.arrays(np.float64, (len(t), 3), elements=values))
        runs.append(logged(rows))
    return runs


class TestTrackingDeviation:
    @settings(max_examples=200, deadline=None)
    @given(runs=run_pairs())
    def test_both_builds_give_the_interp_oracles_bits(self, runs):
        a, b = runs
        expected = oracles.deviation_sq(a, b)
        lib = _kernels.compiled_loop()
        width = len(TRAJECTORY_COLUMNS)
        compiled = lib.deviation_sq(a.rows.buffer_info()[0], len(a.rows) // width,
                                    b.rows.buffer_info()[0], len(b.rows) // width)
        assert same(compiled, expected)
        assert same(_kernels.deviation_sq(a.rows, b.rows), expected)
        for build in ("c", "python"):
            assert same(in_build(build, tracking_deviation, a, b), math.sqrt(expected))

    @pytest.mark.parametrize("build", ["c", "python"])
    @pytest.mark.parametrize("x1", [
        pytest.param([math.inf, math.inf], id="flat-infinite-segment"),
        pytest.param([-math.inf, 1.0], id="nan-from-the-left-knot"),
    ])
    def test_interp_edges_between_infinite_knots(self, build, x1):
        # at t = 0.5 the line from the left knot is NaN: np.interp takes the
        # right knot's line (-inf) or, on a flat segment, the knot value (inf)
        rows = np.zeros((2, len(TRAJECTORY_COLUMNS)))
        rows[:, 0] = [0.0, 1.0]
        rows[:, 1] = x1
        a = logged(rows)
        b = self.constant_trajectory([0.0, 0.0, 0.0], n=3)
        assert oracles.deviation_sq(a, b) == math.inf
        assert in_build(build, tracking_deviation, a, b) == math.inf

    @pytest.mark.parametrize("build", ["c", "python"])
    def test_no_shared_time_is_refused(self, build):
        # a last time of NaN leaves no time at or before the earlier end
        rows = np.zeros((2, len(TRAJECTORY_COLUMNS)))
        rows[1, 0] = math.nan
        a, b = logged(rows), logged(np.zeros((1, len(TRAJECTORY_COLUMNS))))
        with pytest.raises(ValueError, match="do not overlap"):
            oracles.deviation_sq(a, b)
        with pytest.raises(ValueError, match="do not overlap"):
            in_build(build, tracking_deviation, a, b)

    def constant_trajectory(self, state, n=5):
        rows = np.zeros((n, 11))
        rows[:, 0] = np.linspace(0.0, 1.0, n)
        rows[:, 1:4] = state
        return logged(rows)

    def test_self_is_zero(self):
        traj = integrate_gradient_flow(make_v_alpha(1.0), [1.0, 2.0, 3.0],
                                       t_max=0.5, h=1e-2)
        assert tracking_deviation(traj, traj) == 0.0

    def test_constant_distance_one(self):
        a = self.constant_trajectory([0.0, 0.0, 0.0])
        b = self.constant_trajectory([1.0, 0.0, 0.0], n=9)
        assert tracking_deviation(a, b) == 1.0

    def test_requires_common_start(self):
        a = self.constant_trajectory([0.0, 0.0, 0.0])
        rows = frame(a).copy()
        rows[:, 0] += 2.0
        b = logged(rows)
        with pytest.raises(ValueError, match="t = 0"):
            tracking_deviation(a, b)

    def test_refinement_decreases_deviation(self):
        # slow closed loop vs the gain-scaled reference flow; epsilon halves
        potential = make_v_alpha(1.0)
        reference = integrate_gradient_flow(potential.scaled(0.05),
                                            [-0.5, -0.5, 0.0], t_max=2.0, h=1e-3)
        devs = []
        for eps in (0.5, 0.1):
            cp = eps / 500
            controller = ControllerParams(epsilon=eps, loop_mode="sampling")
            cfg = SimConfig(potential=potential, controller=controller,
                            x0=(-0.5, -0.5, 0.0), goal_tol=0.0, t_max=2.0,
                            control_period=cp)
            devs.append(tracking_deviation(simulate(cfg), reference))
        assert devs[1] < devs[0]


class TestConvergenceOrder:
    # refine --v-alpha 1 --eps 0.5,0.1,0.02
    REFINE = ((0.5, 0.1, 0.02), (1.0094516634015833, 0.4513622676859343, 0.20185120167060866))

    @pytest.mark.parametrize("eps, deviations", [
        REFINE,
        ((0.2, 0.1), (0.3, 0.2)),
        ((1.0, 0.5, 0.25, 0.125), (0.9, 0.7, 0.45, 0.33)),
    ])
    def test_agrees_with_polyfit(self, eps, deviations):
        slope = convergence_order(eps, deviations)
        fitted = float(np.polyfit(np.log(eps), np.log(deviations), 1)[0])
        assert abs(slope - fitted) <= 4 * math.ulp(fitted)

    @settings(max_examples=200, deadline=None)
    @given(first=st.floats(0.1, 1.0),
           ratios=st.lists(st.floats(2.0, 10.0), min_size=1, max_size=5),
           order=st.floats(0.25, 1.0), noise=st.lists(st.floats(0.95, 1.05), min_size=6,
                                                      max_size=6))
    def test_within_4_ulp_of_the_exact_slope(self, first, ratios, order, noise):
        # np.polyfit itself strays up to about 16 ulp from the exact slope here
        eps = [first]
        for ratio in ratios:
            eps.append(eps[-1] / ratio)
        deviations = [0.7 * e ** order * n for e, n in zip(eps, noise)]
        exact = oracles.least_squares_slope([math.log(e) for e in eps],
                                            [math.log(d) for d in deviations])
        assert abs(convergence_order(eps, deviations) - exact) <= 4 * math.ulp(exact)

    @pytest.mark.parametrize("eps, deviations, message", [
        ([0.5], [0.1], "at least two"),
        ([0.5, 0.1], [0.1], "at least two"),
        ([0.5, 0.1], [0.1, 0.2, 0.3], "at least two"),
        ([0.5, 0.0], [0.1, 0.05], "positive"),
        ([0.5, 0.1], [0.1, -0.05], "positive"),
        ([0.5, math.nan], [0.1, 0.05], "positive"),
        ([0.5, math.inf], [0.1, 0.05], "finite"),
        ([0.5, 0.5], [0.1, 0.2], "all be equal"),
        ([0.5, 0.5, 0.5], [0.1, 0.2, 0.3], "all be equal"),
        (0.5, [0.1, 0.2], "sequences of numbers"),
        ([0.5, 0.1], 0.1, "sequences of numbers"),
        ([[0.5, 0.1]], [[0.1, 0.2]], "sequences of numbers"),
        (np.array([[0.5], [0.1]]), np.array([[0.1], [0.2]]), "sequences of numbers"),
        (np.float64(0.5), [0.1, 0.2], "sequences of numbers"),
    ])
    def test_rejects(self, eps, deviations, message):
        with pytest.raises(ValueError, match=message):
            convergence_order(eps, deviations)


def savetxt_reference(data, path):
    """The reference trajectory writer: one np.savetxt row at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        np.savetxt(f, data, fmt="%.9g", delimiter=",", newline="\n")


def assert_csv_matches_savetxt(data, directory) -> None:
    """save_csv writes the bytes of savetxt_reference for `data`, which are
    those of CSV_ROW's % on each row."""
    ours, ref = directory / "ours.csv", directory / "ref.csv"
    savetxt_reference(data, ref)
    logged(data).save_csv(ours)
    expected = ref.read_bytes()
    assert ours.read_bytes() == expected
    rows = "".join(simulator.CSV_ROW % tuple(row) for row in np.asarray(data).tolist())
    assert expected == (CSV_HEADER + "\n" + rows).encode()
    assert sorted(p.name for p in directory.iterdir()) == ["ours.csv", "ref.csv"]


# -0.0, subnormals, non-finite values (a NaN with its sign bit set too),
# extremes, and values whose 10th significant digit is a 5, so %.9g rounds
# them (9.9999999995 -> "10")
CSV_EDGE_VALUES = (
    -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, -math.nan, 1e300, -1e300,
    1.0000000005, 0.1234567895, -9.9999999995, 999999999.5, 1e-5, 123456789.0,
)
# where %g turns from fixed to exponent notation, before and after rounding
# to 9 digits, and where 9 digits round up to the next power of ten
CSV_NOTATION_EDGES = (
    9.99999999e-5, 9.9999999950e-5, 9.9999999949e-5, 1e-4, 99999999.95, 999999999.5,
    999999999.4, 1e8, 1e9, 1e-14, 1e-15, 9.999999995e30, 1e31, 1e22, 1e23,
)
CSV_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       st.sampled_from(CSV_EDGE_VALUES))


class TestAveragedFieldTracking:
    """Sampling mode tracks the averaged field -gamma (grad V + (f3 . grad V) f3)
    to O(sqrt(eps)); against -gamma grad V its deviation flattens below eps 0.02."""

    EPS = (0.02, 0.004, 0.0008)

    @pytest.fixture(scope="class")
    def runs(self):
        # logged on the references' 1e-3 s grid: every 1e-3 / (eps/2000) updates
        return [simulate(refine_config(eps, log_every=round(2.0 / eps))) for eps in self.EPS]

    def test_order_against_the_averaged_field(self, runs):
        potential = make_v_alpha(1.0)
        rows = rk4_flow(lambda x: averaged_field(potential, 0.05, x), (-0.5, -0.5, 0.0),
                        2000, 1e-3)
        data = np.zeros((rows.shape[0], len(TRAJECTORY_COLUMNS)))
        data[:, :4] = rows
        deviations = [tracking_deviation(run, logged(data)) for run in runs]
        assert 0.4 <= convergence_order(self.EPS, deviations) <= 0.6

    def test_gradient_flow_is_not_tracked(self, runs):
        reference = integrate_gradient_flow(make_v_alpha(1.0).scaled(0.05), (-0.5, -0.5, 0.0),
                                            t_max=2.0, h=1e-3)
        deviations = [tracking_deviation(run, reference) for run in runs]
        assert convergence_order(self.EPS, deviations) < 0.4


class TestContinuousAveragedFieldTracking:
    """Continuous mode tracks `continuous_averaged_field` to O(sqrt(eps)), and
    not sampling's `averaged_field`: the gate of the continuous loop's field.

    Each run logs its 2 s window on the references' 1e-3 s grid. Over eps
    0.1 to 0.004 alone, alpha = 2 fits 0.396 against the continuous field,
    so the fit runs over the three eps of the sampling gate. A run must have
    its 2,000 updates per eps: with fewer, the hold error pollutes the fit.
    """

    EPS = (0.02, 0.004, 0.0008)

    @pytest.fixture(scope="class", params=[1.0, 2.0], ids=["alpha-1", "alpha-2"])
    def case(self, request):
        potential = make_v_alpha(request.param)
        runs = []
        for eps in self.EPS:
            controller = ControllerParams(epsilon=eps, gamma=0.05)
            assert controller.loop_mode == "continuous"
            runs.append(simulate(SimConfig(
                potential=potential, controller=controller, x0=(-0.5, -0.5, 0.0),
                goal_tol=0.0, t_max=2.0, control_period=eps / 2000,
                log_every=round(2.0 / eps))))
        return potential, runs

    def deviations(self, case, field):
        potential, runs = case
        rows = rk4_flow(lambda x: field(potential, 0.05, x), (-0.5, -0.5, 0.0), 2000, 1e-3)
        data = np.zeros((rows.shape[0], len(TRAJECTORY_COLUMNS)))
        data[:, :4] = rows
        return [tracking_deviation(run, logged(data)) for run in runs]

    def test_a12_keeps_one_sign(self, case):
        # the continuous field is singular where a12 = 0
        for run in case[1]:
            assert run.data.shape[0] == 2001
            assert abs(np.sign(frame(run)[:, 8]).sum()) == run.data.shape[0]

    def test_order_against_the_continuous_field(self, case):
        deviations = self.deviations(case, continuous_averaged_field)
        assert 0.4 <= convergence_order(self.EPS, deviations) <= 0.6

    def test_sampling_field_is_not_tracked(self, case):
        deviations = self.deviations(case, averaged_field)
        assert convergence_order(self.EPS, deviations) < 0.4


class CsvBytesEqual:
    """save_csv writes np.savetxt's bytes; `writer` is the one that must run.

    "c" runs save_csv with the compiled library, whose format_rows writes the
    rows, and "python" with the library forced to None, so write_rows does.
    """

    writer = "c"

    @pytest.fixture(autouse=True, scope="class")
    def _writer(self):
        with pytest.MonkeyPatch.context() as mp:
            if self.writer == "python":
                mp.setattr(_kernels, "compiled_loop", lambda: None)
            else:
                assert _kernels.compiled_loop() is not None
            yield

    def check(self, data, directory):
        assert _kernels.kernel() == self.writer  # the writer save_csv runs
        assert_csv_matches_savetxt(data, directory)

    @pytest.mark.parametrize("n_rows", [1, 3, 4, 5])
    def test_bytes_equal_savetxt_around_chunk_size(self, tmp_path, monkeypatch, n_rows):
        monkeypatch.setattr(simulator, "CSV_CHUNK_ROWS", 4)
        data = np.random.default_rng(n_rows).normal(size=(n_rows, len(TRAJECTORY_COLUMNS)))
        self.check(data, tmp_path)

    def test_bytes_equal_savetxt_strided_layouts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulator, "CSV_CHUNK_ROWS", 4)
        wide = np.random.default_rng(7).normal(size=(21, 2 * len(TRAJECTORY_COLUMNS)))
        fortran = np.asfortranarray(wide[:, :len(TRAJECTORY_COLUMNS)])
        strided = wide[::2, ::2]
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
        self.check(fortran, tmp_path)
        self.check(strided, tmp_path)

    def test_run_bytes_equal_savetxt(self, tmp_path):
        traj = simulate(short_config(t_max=2.0, goal_tol=0.0))
        assert traj.data.shape[0] > simulator.CSV_CHUNK_ROWS
        self.check(frame(traj), tmp_path)

    def test_ten_digit_ties_round_half_to_even(self, tmp_path):
        # (10^8..10^9)*10 + 5 are exact ties at 9 digits; halved they stay ties,
        # and divided by 1024 they have more digits than a double's 17
        ties = np.arange(10**8, 10**9, 99991, dtype=np.float64) * 10 + 5
        values = np.concatenate([ties, -ties / 2, ties / 1024, ties * 1e-13])
        values = values[:len(values) // len(TRAJECTORY_COLUMNS) * len(TRAJECTORY_COLUMNS)]
        self.check(values.reshape(-1, len(TRAJECTORY_COLUMNS)), tmp_path)

    def test_notation_edges(self, tmp_path):
        width = len(TRAJECTORY_COLUMNS)
        values = [*CSV_NOTATION_EDGES, *(-v for v in CSV_NOTATION_EDGES), *CSV_EDGE_VALUES]
        values += [0.0] * (-len(values) % width)
        self.check(np.array(values).reshape(-1, width), tmp_path)
        assert (tmp_path / "ours.csv").read_text().split("\n")[1].split(",")[:5] == [
            "9.99999999e-05", "0.0001", "9.99999999e-05", "0.0001", "100000000"]

    def test_three_digit_exponents(self, tmp_path):
        rng = np.random.default_rng(3)
        exponents = rng.integers(100, 309, size=40 * len(TRAJECTORY_COLUMNS))
        values = rng.uniform(1, 10, size=exponents.size) * 10.0 ** -exponents.astype(float)
        values[::2] = 1 / values[::2]  # 10^100 to 10^308
        values[1::3] *= -1
        self.check(values.reshape(-1, len(TRAJECTORY_COLUMNS)), tmp_path)

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        # the disk fills after the header: the partial file is removed, and an
        # existing path keeps its bytes
        class FullDisk(io.FileIO):
            def write(self, b):
                if self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(b)

        monkeypatch.setattr(simulator, "open", FullDisk, raising=False)
        data = np.zeros((40, len(TRAJECTORY_COLUMNS)))
        with pytest.raises(OSError, match="No space"):
            logged(data).save_csv(tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []
        old = tmp_path / "out.csv"
        old.write_bytes(b"an earlier run\n")
        with pytest.raises(OSError, match="No space"):
            logged(data).save_csv(old)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert old.read_bytes() == b"an earlier run\n"


def savetxt_property():
    """The hypothesis byte-equality test, a separate function for each class."""
    @settings(max_examples=60, deadline=None)
    @given(data=hnp.arrays(np.float64, st.tuples(st.integers(1, 20),
                                                 st.just(len(TRAJECTORY_COLUMNS))),
                           elements=CSV_VALUES))
    def test_bytes_equal_savetxt(self, tmp_path_factory, data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "CSV_CHUNK_ROWS", 3)  # several blocks per run
            self.check(data, tmp_path_factory.mktemp("csv"))
    return test_bytes_equal_savetxt


class InOneProcess(CsvBytesEqual):
    """save_csv formats every row in this process, whatever the cores the
    process may use: `cores` is the count it is shown, and starting a process
    or a thread fails the test."""

    cores = 1

    @pytest.fixture(autouse=True)
    def _no_process_or_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("save_csv started a process or a thread")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(self.cores)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: self.cores)
        monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)


class TestCsvWorkers(InOneProcess):
    """Many usable cores: still no worker process."""

    cores = 8
    test_bytes_equal_savetxt = savetxt_property()


class TestCsvOneCore(InOneProcess):
    """One usable core: the same bytes, in this process."""

    cores = 1
    test_bytes_equal_savetxt = savetxt_property()


class LoaderRejects:
    """load_trajectory_csv on files outside the writer's grammar: a ValueError
    that names the file line and what is wrong with it.

    `parser` says what load_trajectory_csv may use: "c" runs it with the
    compiled library, and "python" with the library forced to None, so
    `_parse_python` reads the file.
    """

    parser = "c"
    ROW = ",".join(["0"] * len(TRAJECTORY_COLUMNS))

    def load(self, path):
        with pytest.MonkeyPatch.context() as mp:
            if self.parser == "python":
                mp.setattr(_kernels, "compiled_loop", lambda: None)
            else:
                assert _kernels.compiled_loop() is not None
            return load_trajectory_csv(path)

    def test_loader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,x2,x3,u1,a1,a2,a12,V,saturated\n0,0,0,0,0,0,0,0,0,0\n")
        with pytest.raises(ValueError, match="header"):
            self.load(path)

    def test_loader_rejects_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(ValueError, match="^trajectory CSV has no data rows$"):
            self.load(path)

    # the writer never emits "#": a line holding one is malformed, not a comment
    def test_loader_rejects_a_comment_line(self, tmp_path):
        path = tmp_path / "comment.csv"
        path.write_text(f"{CSV_HEADER}\n{self.ROW}\n# note\n{self.ROW}\n")
        with pytest.raises(ValueError, match="malformed trajectory CSV"):
            self.load(path)

    def test_loader_rejects_a_trailing_comment(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text(f"{CSV_HEADER}\n{self.ROW}\n{self.ROW} # note\n")
        with pytest.raises(ValueError, match="malformed trajectory CSV"):
            self.load(path)

    def test_loader_names_the_line_of_a_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(f"{CSV_HEADER}\n{self.ROW}\n{self.ROW}\n0,1\n{self.ROW}\n")
        with pytest.raises(ValueError, match="^malformed trajectory CSV: expected 11 fields, "
                                             "got 2 on line 4$"):
            self.load(path)

    def test_loader_names_the_line_of_a_bad_number_after_blank_lines(self, tmp_path):
        # a blank line is a line of one empty field: the first one is refused
        path = tmp_path / "zero.csv"
        path.write_text(f"{CSV_HEADER}\n{self.ROW}\n{self.ROW}\n\n\n0,zero{self.ROW[3:]}\n")
        with pytest.raises(ValueError, match="^malformed trajectory CSV: expected 11 fields, "
                                             "got 1 on line 4$"):
            self.load(path)

    @pytest.mark.parametrize("value", ["1e+999", "-1e+400"])
    def test_loader_rejects_a_value_that_overflows(self, tmp_path, value):
        # in the writer's grammar, but no double: it reads as an infinity
        path = tmp_path / "overflow.csv"
        path.write_text(f"{CSV_HEADER}\n{self.ROW}\n{value}{self.ROW[1:]}\n")
        with pytest.raises(ValueError, match="non-finite value on line 3$"):
            self.load(path)

    # syntax that np.loadtxt reads and the writer never writes: each is refused,
    # with its line and the reason
    @pytest.mark.parametrize("body, reason", [
        pytest.param("{row}\r\n{row}\r\n", r"could not convert '0\\r' in column 11 on line 2",
                     id="crlf"),
        pytest.param("{row}\n1E5{tail}\n", "could not convert '1E5' in column 1 on line 3",
                     id="upper-case-exponent"),
        pytest.param("{row}\n+1{tail}\n", r"could not convert '\+1' in column 1 on line 3",
                     id="plus-sign"),
        pytest.param("{row}\n.5{tail}\n", r"could not convert '\.5' in column 1 on line 3",
                     id="no-integer-digits"),
        pytest.param("{row}\n5.{tail}\n", r"could not convert '5\.' in column 1 on line 3",
                     id="no-fraction-digits"),
        pytest.param("{row}\n1e5{tail}\n", "could not convert '1e5' in column 1 on line 3",
                     id="unsigned-exponent"),
        pytest.param("{row}\n 1{tail}\n", "could not convert ' 1' in column 1 on line 3",
                     id="space"),
        pytest.param("{row}\n{row}", "no final newline on line 3", id="no-final-newline"),
        pytest.param("{row}\n\n{row}\n\n", "expected 11 fields, got 1 on line 3",
                     id="blank-lines"),
    ])
    def test_syntax_only_loadtxt_reads_loads_as_before(self, tmp_path, body, reason):
        path = tmp_path / "loose.csv"
        path.write_text(CSV_HEADER + "\n" + body.format(row=self.ROW, tail=self.ROW[1:]),
                        newline="")
        with pytest.raises(ValueError, match=f"^malformed trajectory CSV: {reason}$"):
            self.load(path)

    def test_loader_names_a_line_longer_than_a_read(self, tmp_path, monkeypatch):
        # every line but line 4 fits in CSV_READ_BYTES, and the refused line is
        # named by its number whichever read it starts in
        long_row = ",".join(["0.000000001"] * len(TRAJECTORY_COLUMNS))
        path = tmp_path / "long.csv"
        path.write_text(f"{CSV_HEADER}\n{self.ROW}\n{self.ROW}\n{long_row}\n{self.ROW}\n")
        monkeypatch.setattr(simulator, "CSV_READ_BYTES", len(long_row))
        with pytest.raises(ValueError, match=f"^malformed trajectory CSV: more than "
                                             f"{len(long_row)} bytes on line 4$"):
            self.load(path)

    @pytest.mark.parametrize("tail, reason", [
        ("0,1\n", "expected 11 fields, got 2"),
        ("{row}", "no final newline"),
        ("nan{tail}\n", "non-finite value"),
    ])
    def test_loader_counts_the_lines_of_every_read(self, tmp_path, monkeypatch, tail, reason):
        # 300 rows over many reads of 100 bytes, then the refused line 302
        row = "0.5,-1.25e-07,3,0,0,0,0,0,0,0,1"
        path = tmp_path / "many.csv"
        path.write_text(f"{CSV_HEADER}\n" + f"{row}\n" * 300
                        + tail.format(row=self.ROW, tail=self.ROW[1:]))
        monkeypatch.setattr(simulator, "CSV_READ_BYTES", 100)
        with pytest.raises(ValueError, match=f"^malformed trajectory CSV: {reason} on line 302$"):
            self.load(path)


class TestCsvWithoutLibrary(CsvBytesEqual, LoaderRejects):
    """The writer and the parser where the library cannot be built: write_rows
    and _parse_python."""

    writer = "python"
    parser = "python"
    test_bytes_equal_savetxt = savetxt_property()


def loadtxt(path):
    """np.loadtxt's array of the rows of the trajectory CSV `path`: the bits
    that both parsers must give."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)


def load_without_library(path):
    """load_trajectory_csv of `path` with the library forced to None: `_parse_python`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "compiled_loop", lambda: None)
        data = load_trajectory_csv(path)
    assert simulator.last_csv_parser == "python"
    return data


def assert_parses_as_loadtxt(path, twin=True):
    """The compiled parser reads `path` into a writable float64 memoryview of
    np.loadtxt's array bit for bit, and so does its twin `_parse_python`,
    unless `twin` is False (a long file)."""
    data = load_trajectory_csv(path)
    assert simulator.last_csv_parser == "c"
    expected = loadtxt(path)
    for parsed in (data, load_without_library(path)) if twin else (data,):
        assert isinstance(parsed, memoryview) and parsed.format == "d"
        assert parsed.shape == expected.shape
        assert parsed.c_contiguous and not parsed.readonly
        assert np.asarray(parsed).tobytes() == expected.tobytes()
    return data


def write_rows(path, fields):
    """A trajectory CSV of the header and rows of 11 field strings each."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        f.writelines(",".join(row) + "\n" for row in fields)


@st.composite
def long_decimals(draw):
    """Values in the writer's grammar with 20 to 40 significant digits: strtod's."""
    digits = draw(st.text("0123456789", min_size=20, max_size=40))
    point = draw(st.integers(1, len(digits)))
    text = digits[:point] + ("." + digits[point:] if point < len(digits) else "")
    # at most 1e300: finite, or rounded down to a subnormal or zero
    exponent = draw(st.one_of(st.none(), st.integers(-380, 300 - point)))
    sign = draw(st.sampled_from(["", "-"]))
    return sign + text + ("" if exponent is None else f"e{exponent:+d}")


# the fast path's edges: 2^53 and 2^53 + 1, 10^+-22 and 10^+-23, and the
# subnormal, normal and largest extremes, each one way or the other
PARSE_EDGE_VALUES = [
    "9007199254740992", "9007199254740993", "9007199254740992e+22", "9007199254740993e-22",
    "1e+22", "1e-22", "1e+23", "1e-23", "123456789e-22", "1.23456789e+22",
    "4.9406564584124654e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
    "1.7976931348623157e+308", "-0", "0", "0.000", "-0.0e+0", "00012.500", "9999999999999999999",
    "18446744073709551616", "0.30000000000000004", "-1.5e-07",
]


class TestCompiledParser:
    """The compiled parser and its twin read the writer's format into np.loadtxt's
    array, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                            allow_subnormal=True),
                                  min_size=len(TRAJECTORY_COLUMNS),
                                  max_size=len(TRAJECTORY_COLUMNS)),
                         min_size=1, max_size=6),
           fmt=st.sampled_from(["%.9g", "%.17g", "repr"]))
    def test_formatted_doubles(self, tmp_path_factory, rows, fmt):
        text = repr if fmt == "repr" else fmt.__mod__
        path = tmp_path_factory.mktemp("parse") / "rows.csv"
        write_rows(path, [[text(v) for v in row] for row in rows])
        data = assert_parses_as_loadtxt(path)
        if fmt != "%.9g":  # round-trip formats: the parse is the value
            assert data.tobytes() == np.array(rows).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.one_of(long_decimals(), st.sampled_from(PARSE_EDGE_VALUES)),
                           min_size=len(TRAJECTORY_COLUMNS),
                           max_size=3 * len(TRAJECTORY_COLUMNS)))
    def test_long_significands_and_edges(self, tmp_path_factory, values):
        width = len(TRAJECTORY_COLUMNS)
        rows = [values[i:i + width] for i in range(0, len(values) - width + 1, width)]
        path = tmp_path_factory.mktemp("parse") / "rows.csv"
        write_rows(path, rows)
        assert_parses_as_loadtxt(path)

    def test_every_edge_value(self, tmp_path):
        width = len(TRAJECTORY_COLUMNS)
        values = PARSE_EDGE_VALUES + ["1"] * (-len(PARSE_EDGE_VALUES) % width)
        write_rows(tmp_path / "edges.csv", [values[i:i + width]
                                            for i in range(0, len(values), width)])
        data = assert_parses_as_loadtxt(tmp_path / "edges.csv")
        assert [float(v) for v in PARSE_EDGE_VALUES] == (
            np.asarray(data).ravel()[:len(PARSE_EDGE_VALUES)].tolist())

    def test_p1_csv(self, tmp_path):
        path = tmp_path / "p1.csv"
        traj = simulate(preset_sim_config("P1"))
        traj.save_csv(path)
        data = assert_parses_as_loadtxt(path, twin=False)
        assert data.shape == traj.data.shape

    @pytest.mark.parametrize("chunk", [150, 257, 1000, 4096])
    def test_rows_across_chunk_boundaries(self, tmp_path, monkeypatch, chunk):
        path = tmp_path / "run.csv"
        simulate(short_config(t_max=0.5, goal_tol=0.0)).save_csv(path)
        lines = path.read_bytes().split(b"\n")
        assert max(map(len, lines)) < 150 and sum(map(len, lines)) > 10 * chunk
        monkeypatch.setattr(simulator, "CSV_READ_BYTES", chunk)
        assert_parses_as_loadtxt(path)

    def test_an_array_the_host_will_not_map_goes_to_the_python_parser(self, tmp_path,
                                                                     monkeypatch):
        path = tmp_path / "run.csv"
        simulate(short_config(t_max=0.02, goal_tol=0.0)).save_csv(path)
        expected = loadtxt(path)

        def refuse(fileno, length, *args, **kwargs):
            raise OSError(errno.ENOMEM, f"cannot map {length} bytes")

        monkeypatch.setattr(mmap, "mmap", refuse)
        data = load_trajectory_csv(path)
        assert simulator.last_csv_parser == "python"
        assert data.format == "d" and data.shape == expected.shape and not data.readonly
        assert np.asarray(data).tobytes() == expected.tobytes()

    def test_a_line_longer_than_a_chunk_is_refused_in_both_builds(self, tmp_path,
                                                                 monkeypatch):
        path = tmp_path / "run.csv"
        simulate(short_config(t_max=0.02, goal_tol=0.0)).save_csv(path)
        monkeypatch.setattr(simulator, "CSV_READ_BYTES", 60)
        # the row at t = 0 fits in 60 bytes, the next does not
        message = "^malformed trajectory CSV: more than 60 bytes on line 3$"
        with pytest.raises(ValueError, match=message):
            load_trajectory_csv(path)
        with pytest.raises(ValueError, match=message):
            load_without_library(path)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.sampled_from(PARSE_EDGE_VALUES),
                                  min_size=len(TRAJECTORY_COLUMNS),
                                  max_size=len(TRAJECTORY_COLUMNS)),
                         min_size=1, max_size=4),
           junk=st.sampled_from(["\r", "\n", ",", " ", "E", "+", ".", "e", "e+", "-", "_",
                                 "#", "nan", "inf", "1e+999", "\xe9", ""]),
           at=st.integers(0, 10 ** 6), cut=st.booleans(),
           chunk=st.sampled_from([60, 150, 1 << 20]))
    def test_both_builds_refuse_alike(self, tmp_path_factory, rows, junk, at, cut, chunk):
        # a file of the grammar with junk put in, maybe without its last byte:
        # both builds give the same array, or the same error
        path = tmp_path_factory.mktemp("parse") / "rows.csv"
        body = "".join(",".join(row) + "\n" for row in rows)
        at %= len(body) + 1
        body = body[:at] + junk + body[at:]
        path.write_text(CSV_HEADER + "\n" + (body[:-1] if cut else body), newline="")

        def outcome(load):
            try:
                return load(path).tobytes()
            except ValueError as exc:
                return str(exc)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "CSV_READ_BYTES", chunk)
            assert outcome(load_trajectory_csv) == outcome(load_without_library)


class TestCsv(CsvBytesEqual, LoaderRejects):
    test_bytes_equal_savetxt = savetxt_property()

    def test_p1_bytes_equal_the_percent_loop(self, tmp_path):
        traj = simulate(preset_sim_config("P1"))
        assert _kernels.kernel() == "c"
        traj.save_csv(tmp_path / "p1.csv")
        with open(tmp_path / "loop.csv", "wb") as f:
            f.write(CSV_HEADER.encode() + b"\n")
            simulator.write_rows(f, traj.rows)
        assert (tmp_path / "p1.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_round_trip(self, tmp_path):
        traj = simulate(short_config(t_max=0.2, goal_tol=0.0))
        path = tmp_path / "run.csv"
        traj.save_csv(path)
        text = path.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert "\r" not in text
        data = load_trajectory_csv(path)
        assert data.shape == traj.data.shape
        # 9 significant digits survive the round trip
        assert np.allclose(data, frame(traj), rtol=1e-8, atol=1e-12)

    def test_replaces_the_target_with_a_plain_files_mode(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("x" * 100_000)
        data = np.zeros((2, len(TRAJECTORY_COLUMNS)))
        logged(data).save_csv(path)
        assert path.read_text() == CSV_HEADER + "\n" + "0,0,0,0,0,0,0,0,0,0,0\n" * 2
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    def test_saturated_column_integer(self, tmp_path):
        traj = simulate(short_config(bounds=TB3, t_max=0.2, goal_tol=0.0))
        path = tmp_path / "run.csv"
        traj.save_csv(path)
        lines = path.read_text().splitlines()[1:]
        sat_values = {line.rsplit(",", 1)[1] for line in lines}
        assert sat_values <= {"0", "1"}
        assert "1" in sat_values



class TestValueTypes:
    """The config types compare and hash by value; Trajectory, which holds an
    array, by identity. None of them raises."""

    @pytest.mark.parametrize("build, by_value", [
        pytest.param(lambda: make_quadratic(1.0, 2.0, 3.0), True, id="Potential"),
        pytest.param(lambda: preset_sim_config("P1"), True, id="SimConfig"),
        pytest.param(lambda: logged(np.zeros((2, len(TRAJECTORY_COLUMNS)))), False,
                     id="Trajectory"),
    ])
    def test_eq_and_hash_do_not_raise(self, build, by_value):
        a, b = build(), build()
        assert a == a
        assert (a == b) is by_value
        assert hash(a) == hash(a)
        assert (hash(a) == hash(b)) is by_value
        assert len({a, b}) == (1 if by_value else 2)


class TestTrajectory:
    def test_freezes_a_view_not_the_callers_array(self):
        rows = as_rows(np.random.default_rng(5).normal(size=(3, len(TRAJECTORY_COLUMNS))))
        traj = Trajectory(rows, None, 0, 0.0, 0.0)
        assert traj.rows is rows
        assert traj.data.shape == (3, len(TRAJECTORY_COLUMNS))
        assert traj.data.obj is rows and traj.data.tobytes() == rows.tobytes()
        assert traj.data is traj.data  # made once
        assert traj.data.readonly
        with pytest.raises(TypeError, match="read-only"):
            traj.data[0, 0] = 2.0
        rows[0] = 1.0
        assert traj.data[0, 0] == 1.0  # a view of the rows, not a copy
        assert traj.t == rows[::len(TRAJECTORY_COLUMNS)] and traj.t[0] == 1.0

    @pytest.mark.parametrize("rows", [
        pytest.param(np.zeros((2, len(TRAJECTORY_COLUMNS))), id="ndarray"),
        pytest.param([0.0] * len(TRAJECTORY_COLUMNS), id="list"),
        pytest.param(array("f", [0.0] * len(TRAJECTORY_COLUMNS)), id="typecode-f"),
        pytest.param(array("d", [0.0] * (len(TRAJECTORY_COLUMNS) + 1)), id="12-values"),
        pytest.param(array("d", [0.0] * (len(TRAJECTORY_COLUMNS) - 1)), id="10-values"),
        pytest.param(array("d"), id="no-rows"),
    ])
    def test_rejects_rows_that_are_not_whole_float_rows(self, rows):
        with pytest.raises(ValueError, match="array|columns|row"):
            Trajectory(rows, None, 0, 0.0, 0.0)

    def test_terminated_follows_convergence_time(self):
        rows = array("d", [0.0] * 2 * len(TRAJECTORY_COLUMNS))
        assert Trajectory(rows, None, 0, 0.0, 0.0).terminated == TERMINATED_HORIZON
        assert Trajectory(rows, 0.5, 0, 0.0, 0.0).terminated == TERMINATED_GOAL
        # the status is derived, so it cannot be passed to disagree with the time
        with pytest.raises(TypeError):
            Trajectory(rows, TERMINATED_GOAL, None, 0, 0.0, 0.0)
