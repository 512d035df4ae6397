import math
import os
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings

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
    VelocityBounds,
    integrate_gradient_flow,
    load_trajectory_csv,
    make_quadratic,
    make_v_alpha,
    simulate,
    tracking_deviation,
)
from gradflow import _csv_worker, _kernels, simulator
from gradflow.simulator import (
    CSV_HEADER,
    TERMINATED_GOAL,
    TERMINATED_HORIZON,
    TRAJECTORY_COLUMNS,
)
from helpers import preset_sim_config
from oracles import (
    amplitude_vector,
    control_value,
    hold_step,
    potential_value,
    rk4_gradient_flow,
)


def short_config(loop_mode="continuous", bounds=None, potential=None, t_max=2.0,
                 x0=(-0.5, -0.5, 0.0), goal_tol=0.05, cp=1e-3, log_every=1):
    controller = ControllerParams(
        bounds=bounds if bounds is not None else VelocityBounds(),
        loop_mode=loop_mode,
    )
    return SimConfig(
        potential=potential if potential is not None else make_v_alpha(1.0),
        controller=controller, x0=x0, goal_tol=goal_tol, t_max=t_max,
        control_period=cp, log_every=log_every,
    )


def logged(data):
    """A horizon-terminated Trajectory of `data` with zero run counts."""
    return Trajectory(data, None, 0, 0.0, 0.0)


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

    def test_first_row_is_initial_state(self):
        traj = simulate(short_config(t_max=0.25, goal_tol=0.0))
        assert traj.t[0] == 0.0
        assert np.array_equal(traj.states[0], [-0.5, -0.5, 0.0])

    def test_time_strictly_increasing(self):
        traj = simulate(short_config(t_max=0.5, goal_tol=0.0))
        assert np.all(np.diff(traj.t) > 0)

    def test_potential_column_consistent(self):
        cfg = short_config(potential=make_v_alpha(4.0), t_max=0.5, goal_tol=0.0)
        traj = simulate(cfg)
        expected = potential_value(cfg.potential, traj.states)
        assert np.abs(traj.potential_values - expected).max() <= 1e-12

    def test_deterministic_bitwise(self):
        cfg = short_config(loop_mode="sampling", t_max=1.0, goal_tol=0.0)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.data, b.data)
        assert a.terminated == b.terminated

    def test_sampling_amplitudes_frozen_within_period(self):
        controller = ControllerParams(epsilon=0.5, loop_mode="sampling")
        cfg = SimConfig(potential=make_v_alpha(1.0), controller=controller,
                        x0=(-0.5, -0.5, 0.0), goal_tol=0.0, t_max=1.5,
                        control_period=0.01)
        traj = simulate(cfg)
        block = np.floor(traj.t / 0.5 + 1e-9).astype(int)
        for j in np.unique(block):
            amps = traj.amplitudes[block == j]
            assert np.array_equal(amps, np.tile(amps[0], (amps.shape[0], 1)))
        firsts = [traj.amplitudes[block == j][0] for j in np.unique(block)]
        assert not np.array_equal(firsts[0], firsts[1])

    def test_continuous_amplitudes_track_state(self):
        cfg = short_config(loop_mode="continuous", t_max=0.2, goal_tol=0.0)
        traj = simulate(cfg)
        assert not np.array_equal(traj.amplitudes[0], traj.amplitudes[1])

    def test_log_every_keeps_endpoints(self):
        cfg = short_config(t_max=0.1, goal_tol=0.0, log_every=7)
        traj = simulate(cfg)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(0.1, abs=1e-12)
        full = simulate(short_config(t_max=0.1, goal_tol=0.0))
        assert traj.data.shape[0] < full.data.shape[0]
        assert np.array_equal(traj.data[-1], full.data[-1])

    @pytest.mark.parametrize("bounds", [VelocityBounds(), VelocityBounds(0.22, 2.84)])
    def test_counts_cover_every_update(self, bounds):
        full = simulate(short_config(bounds=bounds, t_max=1.0, goal_tol=0.0))
        assert full.saturation_count == int(np.count_nonzero(full.saturated))
        assert full.max_abs_u1 == np.abs(full.controls[:, 0]).max()
        assert full.max_abs_u2 == np.abs(full.controls[:, 1]).max()
        sparse = simulate(short_config(bounds=bounds, t_max=1.0, goal_tol=0.0, log_every=7))
        assert sparse.data.shape[0] < full.data.shape[0]
        for name in ("saturation_count", "max_abs_u1", "max_abs_u2"):
            assert getattr(sparse, name) == getattr(full, name)

    def test_finite_bounds_saturate(self):
        # finite limits are the clamp: P1's limits need no mode to act
        controller = ControllerParams(bounds=VelocityBounds(0.22, 2.84))
        traj = simulate(SimConfig(potential=make_v_alpha(1.0), controller=controller,
                                  x0=(-0.5, -0.5, 0.0), t_max=2.0))
        assert traj.saturation_count > 0
        assert traj.max_abs_u1 == 0.22 and traj.max_abs_u2 <= 2.84
        assert np.array_equal(traj.data, simulate(preset_sim_config("P1", t_max=2.0)).data)

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
        assert np.all(np.isfinite(traj.data[-1]))


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
        for k, row in enumerate(traj.data):
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
        (x1, x2, x3), (u1, u2) = traj.states[0], traj.controls[0]
        assert abs(u2) > 0.1
        r = u1 / u2
        arc = [x1 + r * (math.sin(x3 + 0.8 * u2) - math.sin(x3)),
               x2 - r * (math.cos(x3 + 0.8 * u2) - math.cos(x3)),
               x3 + 0.8 * u2]
        assert np.abs(traj.final_state - arc).max() <= 1e-14

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

    @pytest.mark.parametrize("bounds,saturated", [(VelocityBounds(), 0.0),
                                                  (VelocityBounds(0.22, 2.84), 1.0)],
                             ids=["continuous", "clamped"])
    def test_second_row_is_oracle_hold(self, bounds, saturated):
        c1, c2, c3 = 1.5, 0.7, 2.2
        ctrl = ControllerParams()
        T = 0.01
        out = _kernels.closed_loop(c1, c2, c3, (-0.5, 0.4, 0.3), ctrl.gamma, ctrl.k1, ctrl.k2,
                                   ctrl.omega, T, 1, 1, bounds.u1_max, bounds.u2_max, 0.0, 1)
        rows = np.frombuffer(out[0]).reshape(-1, len(TRAJECTORY_COLUMNS)).tolist()
        assert out[1] == _kernels.STATUS_HORIZON
        assert len(rows) == 2
        first, second = rows
        assert first[10] == saturated
        x1, x2, x3 = second[1:4]
        assert (x1, x2, x3) == hold_step(*first[1:4], *first[4:6], T)
        assert second[9] == c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3


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
        assert traj.final_state[0] == pytest.approx(-0.06766764161830635, abs=1e-15)
        assert traj.final_state[1] == pytest.approx(-0.06766764161830635, abs=1e-15)
        assert traj.final_state[2] == 0.0
        assert traj.terminated == TERMINATED_HORIZON
        assert traj.convergence_time is None

    # 2*c*h at most 0.02 keeps RK4's own error on these states below 1e-9
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
           st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           st.floats(1e-4, 0.02), st.integers(1, 400), st.integers(1, 50))
    def test_matches_rk4_oracle(self, coeffs, x0, step, n_steps, log_every):
        h = step / (2.0 * max(coeffs))
        potential = make_quadratic(*coeffs)
        traj = integrate_gradient_flow(potential, x0, t_max=n_steps * h, h=h,
                                       log_every=log_every)
        ref = rk4_gradient_flow(potential, x0, n_steps, h, log_every)
        assert np.array_equal(traj.t, ref[:, 0])
        assert np.abs(traj.states - ref[:, 1:]).max() <= 1e-9
        x = traj.states
        assert np.array_equal(traj.potential_values, coeffs[0] * x[:, 0] * x[:, 0]
                              + coeffs[1] * x[:, 1] * x[:, 1] + coeffs[2] * x[:, 2] * x[:, 2])
        assert np.array_equal(traj.data[:, 4:9], np.zeros((len(ref), 5)))
        assert np.array_equal(traj.saturated, np.zeros(len(ref)))

    def test_equilibrium(self):
        traj = integrate_gradient_flow(make_v_alpha(2.0), [0.0, 0.0, 0.0],
                                       t_max=0.5, h=1e-3)
        assert np.array_equal(traj.final_state, np.zeros(3))

    def test_anisotropic_decay_rates(self):
        # alpha=4: x1 ~ exp(-8t), x2 ~ exp(-t/2)
        traj = integrate_gradient_flow(make_v_alpha(4.0), [1.0, 1.0, 0.0],
                                       t_max=1.0, h=1e-3)
        assert traj.final_state[0] == pytest.approx(3.3546262790251185e-4, rel=1e-7)
        assert traj.final_state[1] == pytest.approx(0.6065306597126334, rel=1e-9)

    def test_controls_logged_zero(self):
        traj = integrate_gradient_flow(make_v_alpha(1.0), [1.0, 0.0, 0.0],
                                       t_max=0.1, h=1e-3)
        assert np.array_equal(traj.controls, np.zeros_like(traj.controls))
        assert np.array_equal(traj.amplitudes, np.zeros_like(traj.amplitudes))

    def test_stiff_flow_reaches_horizon(self):
        # 2 * 200 * h = 4 lies outside RK4's stability interval [-2.78, 0]; the
        # closed form has no step to be unstable in
        traj = integrate_gradient_flow(make_quadratic(200.0, 200.0, 200.0), [0.1, 0.0, 0.0],
                                       t_max=5.0, h=1e-2)
        assert traj.terminated == TERMINATED_HORIZON
        assert traj.t[-1] == 5.0
        assert np.array_equal(traj.final_state, np.zeros(3))

    def test_overflowing_initial_potential_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite values at the initial state"):
                integrate_gradient_flow(make_v_alpha(1.0), [1e200, 0.0, 0.0], t_max=1.0, h=0.1)

    def test_decay_past_the_float_range(self):
        # c*t overflows to inf at t = 1e9, where the state has long been 0
        traj = integrate_gradient_flow(make_quadratic(1e300, 1.0, 1.0), [1.0, 1.0, 0.0],
                                       t_max=2e9, h=1e9)
        assert traj.t.tolist() == [0.0, 1e9, 2e9]
        assert np.array_equal(traj.states[1:, 0], [0.0, 0.0])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            integrate_gradient_flow(make_v_alpha(1.0), [0, 0, 0], t_max=1.0, h=0.0)
        with pytest.raises(ValueError):
            integrate_gradient_flow(make_v_alpha(1.0), [0, 0, 0], t_max=-1.0, h=0.1)
        with pytest.raises(ValueError, match="log_every"):
            integrate_gradient_flow(make_v_alpha(1.0), [0, 0, 0], t_max=1.0, h=0.1,
                                    log_every=True)

    def test_horizon_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="divide"):
            integrate_gradient_flow(make_v_alpha(1.0), [1, 0, 0], t_max=1.00026, h=1e-3)
        traj = integrate_gradient_flow(make_v_alpha(1.0), [1, 0, 0], t_max=1.001, h=1e-3)
        assert traj.t[-1] == pytest.approx(1.001, abs=1e-12)


class TestTrackingDeviation:
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
        rows = a.data.copy()
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


def savetxt_reference(data, path):
    """The reference trajectory writer: one np.savetxt row at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        np.savetxt(f, data, fmt="%.9g", delimiter=",", newline="\n")


def assert_csv_matches_savetxt(data, directory) -> int:
    """save_csv writes the bytes of savetxt_reference for `data`.

    Returns how many processes formatted the file.
    """
    ours, ref = directory / "ours.csv", directory / "ref.csv"
    savetxt_reference(data, ref)
    n_procs = logged(data).save_csv(ours)
    assert ours.read_bytes() == ref.read_bytes()
    assert sorted(p.name for p in directory.iterdir()) == ["ours.csv", "ref.csv"]
    return n_procs


# -0.0, subnormals, non-finite values, extremes, and values whose 10th
# significant digit is a 5, so %.9g rounds them (9.9999999995 -> "10")
CSV_EDGE_VALUES = (
    -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 1e300, -1e300,
    1.0000000005, 0.1234567895, -9.9999999995, 999999999.5, 1e-5, 123456789.0,
)
CSV_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       st.sampled_from(CSV_EDGE_VALUES))


class CsvBytesEqual:
    """save_csv writes np.savetxt's bytes; subclasses set how many processes may format.

    `cores` is the core count save_csv sees (None: the machine's), and
    `min_share` its CSV_MIN_SHARE_BLOCKS (None: the default).
    """

    cores = None
    min_share = None

    @pytest.fixture(autouse=True, scope="class")
    def _processes(self):
        with pytest.MonkeyPatch.context() as mp:
            if self.cores is not None:
                mp.setattr(simulator, "_usable_cores", lambda: self.cores)
            if self.min_share is not None:
                mp.setattr(simulator, "CSV_MIN_SHARE_BLOCKS", self.min_share)
            yield

    def check(self, data, directory):
        n_procs = assert_csv_matches_savetxt(data, directory)
        n_blocks = -(-len(data) // simulator.CSV_CHUNK_ROWS)
        expected = min(simulator._usable_cores(), n_blocks // simulator.CSV_MIN_SHARE_BLOCKS)
        assert n_procs == max(1, expected)

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
        self.check(traj.data, tmp_path)


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


class TestCsvWorkers(CsvBytesEqual):
    """Every block-aligned share big enough: one worker per further core."""

    # on one core, one worker: never more workers than cores
    cores = max(2, simulator._usable_cores())
    min_share = 1
    test_bytes_equal_savetxt = savetxt_property()


class TestCsvOneCore(CsvBytesEqual):
    """Shares small enough for workers, but a single core: all in-process."""

    cores = 1
    min_share = 1
    test_bytes_equal_savetxt = savetxt_property()


class TestCsv(CsvBytesEqual):
    test_bytes_equal_savetxt = savetxt_property()

    def test_shares_are_whole_blocks_one_per_core_at_most(self, monkeypatch):
        monkeypatch.setattr(simulator, "CSV_CHUNK_ROWS", 4)
        monkeypatch.setattr(simulator, "CSV_MIN_SHARE_BLOCKS", 3)
        monkeypatch.setattr(simulator, "_usable_cores", lambda: 4)
        assert simulator._csv_shares(11) == [0, 11]  # 3 blocks: too few for a worker
        assert simulator._csv_shares(23) == [0, 12, 23]  # 6 blocks: two shares of 3
        assert simulator._csv_shares(49) == [0, 12, 24, 36, 49]  # 13 blocks, 4 cores
        assert simulator._csv_shares(4000) == [0, 1000, 2000, 3000, 4000]

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
        assert np.allclose(data, traj.data, rtol=1e-8, atol=1e-12)

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
        bounds = VelocityBounds(0.22, 2.84)
        traj = simulate(short_config(bounds=bounds, t_max=0.2, goal_tol=0.0))
        path = tmp_path / "run.csv"
        traj.save_csv(path)
        lines = path.read_text().splitlines()[1:]
        sat_values = {line.rsplit(",", 1)[1] for line in lines}
        assert sat_values <= {"0", "1"}
        assert "1" in sat_values

    def test_loader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,x2,x3,u1,a1,a2,a12,V,saturated\n0,0,0,0,0,0,0,0,0,0\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory_csv(path)

    def test_loader_rejects_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(ValueError):
            load_trajectory_csv(path)

    # the writer never emits "#": a line holding one is malformed, not a comment
    ROW = ",".join(["0"] * len(TRAJECTORY_COLUMNS))

    def test_loader_rejects_a_comment_line(self, tmp_path):
        path = tmp_path / "comment.csv"
        path.write_text(f"{CSV_HEADER}\n{self.ROW}\n# note\n{self.ROW}\n")
        with pytest.raises(ValueError, match="malformed trajectory CSV"):
            load_trajectory_csv(path)

    def test_loader_rejects_a_trailing_comment(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text(f"{CSV_HEADER}\n{self.ROW}\n{self.ROW} # note\n")
        with pytest.raises(ValueError, match="malformed trajectory CSV"):
            load_trajectory_csv(path)


class TestCsvWorkerProcess:
    """The worker interpreter that formats later shares of a trajectory CSV."""

    @pytest.fixture
    def one_worker(self, monkeypatch):
        """save_csv splits 40 rows into two shares: one in-process, one worker."""
        monkeypatch.setattr(simulator, "CSV_CHUNK_ROWS", 4)
        monkeypatch.setattr(simulator, "CSV_MIN_SHARE_BLOCKS", 1)
        monkeypatch.setattr(simulator, "_usable_cores", lambda: 2)
        started = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        return started

    def assert_reaped(self, procs):
        assert procs
        for proc in procs:
            assert proc.returncode is not None
            with pytest.raises(ChildProcessError):
                os.waitpid(proc.pid, os.WNOHANG)

    def test_worker_imports_no_numpy(self):
        data = np.random.default_rng(3).normal(size=(5, len(TRAJECTORY_COLUMNS)))
        command = simulator._CSV_WORKER_COMMAND
        assert command[1:3] == ["-I", "-S"]
        proc = subprocess.run(
            [command[0], "-X", "importtime", *command[1:], simulator.CSV_ROW,
             str(data.shape[1]), str(data.shape[0]), "2"],
            input=data.tobytes(), capture_output=True, check=True,
        )
        imported = [line.rsplit("|", 1)[-1].strip() for line in
                    proc.stderr.decode().splitlines() if line.startswith("import time:")]
        assert "encodings" in imported
        assert not [m for m in imported if m.split(".")[0] == "numpy"]
        assert proc.stdout.decode() == simulator.CSV_ROW * 5 % tuple(data.ravel().tolist())

    def test_failed_worker_raises_and_leaves_no_temporary_file(self, tmp_path, monkeypatch,
                                                               one_worker):
        monkeypatch.setattr(simulator, "_CSV_WORKER_COMMAND",
                            [sys.executable, "-I", "-S", "-c", "import sys; sys.exit(3)"])
        data = np.zeros((40, len(TRAJECTORY_COLUMNS)))
        with pytest.raises(OSError, match="status 3"):
            logged(data).save_csv(tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []  # neither a partial CSV nor a temporary file
        self.assert_reaped(one_worker)
        one_worker.clear()
        old = tmp_path / "out.csv"
        old.write_bytes(b"an earlier run\n")
        with pytest.raises(OSError, match="status 3"):
            logged(data).save_csv(old)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert old.read_bytes() == b"an earlier run\n"
        self.assert_reaped(one_worker)

    def test_workers_need_no_thread(self, tmp_path, monkeypatch, one_worker):
        # each worker reads its share from a file: nothing feeds it while it runs
        def no_threads(self):
            raise RuntimeError("save_csv started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        data = np.random.default_rng(5).normal(size=(40, len(TRAJECTORY_COLUMNS)))
        assert assert_csv_matches_savetxt(data, tmp_path) == 2
        self.assert_reaped(one_worker)

    def test_writer_failure_stops_the_workers(self, tmp_path, monkeypatch, one_worker):
        monkeypatch.setattr(simulator, "_CSV_WORKER_COMMAND", [
            sys.executable, "-I", "-S", "-c",
            "import sys, time; sys.stdin.buffer.read(); time.sleep(60)"])

        def full_disk(out, values, row, n_cols, chunk):
            raise OSError("no space left on device")

        monkeypatch.setattr(_csv_worker, "write_rows", full_disk)
        data = np.zeros((40, len(TRAJECTORY_COLUMNS)))
        with pytest.raises(OSError, match="no space"):
            logged(data).save_csv(tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []
        self.assert_reaped(one_worker)
        assert one_worker[0].returncode == -signal.SIGKILL


class TestValueTypes:
    """Types with array fields compare and hash by identity, and never raise."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: make_quadratic(1.0, 2.0, 3.0), id="Potential"),
        pytest.param(lambda: preset_sim_config("P1"), id="SimConfig"),
        pytest.param(lambda: logged(np.zeros((2, len(TRAJECTORY_COLUMNS)))), id="Trajectory"),
    ])
    def test_eq_and_hash_do_not_raise(self, build):
        a, b = build(), build()
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestTrajectory:
    def test_freezes_a_view_not_the_callers_array(self):
        a = np.zeros((3, len(TRAJECTORY_COLUMNS)))
        traj = logged(a)
        a[0, 0] = 1.0
        assert traj.data[0, 0] == 1.0  # a view of the caller's rows, not a copy
        with pytest.raises(ValueError, match="read-only"):
            traj.data[0, 0] = 2.0

    def test_terminated_follows_convergence_time(self):
        data = np.zeros((2, len(TRAJECTORY_COLUMNS)))
        assert Trajectory(data, None, 0, 0.0, 0.0).terminated == TERMINATED_HORIZON
        assert Trajectory(data, 0.5, 0, 0.0, 0.0).terminated == TERMINATED_GOAL
        # the status is derived, so it cannot be passed to disagree with the time
        with pytest.raises(TypeError):
            Trajectory(data, TERMINATED_GOAL, None, 0, 0.0, 0.0)
