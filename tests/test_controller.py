import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow import ControllerParams, convergence_order, make_quadratic, make_v_alpha
from gradflow.presets import sim_config
from helpers import preset_sim_config
from oracles import (
    amplitude_vector,
    averaged_field,
    clamp,
    continuous_averaged_field,
    control_value,
    frame_inverse,
    hold_step,
    potential_gradient,
    vector_fields,
)


def ideal_controller(**kw):
    return ControllerParams(**kw)


TB3 = ControllerParams(u1_max=0.22, u2_max=2.84)


class TestParamValidation:
    @pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
    def test_presets_accepted(self, name):
        ctrl = preset_sim_config(name).controller
        assert ctrl.k1 * ctrl.k2 == pytest.approx(4.0, abs=1e-9)
        assert ctrl.omega == pytest.approx(2 * math.pi, abs=1e-12)

    def test_product_constraint_rejected(self):
        # k2 is derived from k1, so no pair can break k1*k2 = 4
        with pytest.raises(TypeError, match="k2"):
            ControllerParams(k1=1.0, k2=1.0)

    def test_k2_of_the_presets(self):
        assert preset_sim_config("P1").controller.k2 == 8.0
        assert preset_sim_config("P2").controller.k2 == 4.0 * math.sqrt(2.0)

    @settings(deadline=None)
    @given(st.floats(1e-3, 1e3))
    def test_k2_is_four_over_k1(self, k1):
        ctrl = ControllerParams(k1=k1)
        assert ctrl.k2 == 4.0 / k1
        assert abs(ctrl.k1 * ctrl.k2 - 4.0) <= math.ulp(4.0)

    @pytest.mark.parametrize("k1", [0.0, -1.0, math.inf, math.nan, 1e-320, True])
    def test_k1_without_a_finite_k2_rejected(self, k1):
        with pytest.raises(ValueError, match="k1"):
            ControllerParams(k1=k1)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ControllerParams(gamma=gamma)

    def test_omega_consistency_enforced(self):
        ok = ControllerParams(epsilon=0.5)
        assert ok.omega == 4 * math.pi
        assert ok.omega * ok.epsilon == pytest.approx(2 * math.pi, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ControllerParams(epsilon=0.0)
        with pytest.raises(ValueError):
            ControllerParams(gamma=-0.1)
        with pytest.raises(ValueError):
            ControllerParams(k1=-0.5)

    def test_rejects_bad_loop_mode(self):
        with pytest.raises(ValueError, match="loop_mode"):
            ControllerParams(loop_mode="hybrid")


class TestControlValue:
    def test_zero_amplitude_zero_control(self):
        ctrl = ideal_controller()
        for t in (0.0, 0.37, 12.5):
            u, sat = control_value(ctrl, np.zeros(3), t)
            assert np.array_equal(u, np.zeros(2))
            assert sat is False

    def test_no_oscillation_without_bracket_term(self):
        ctrl = ideal_controller()
        a = np.array([0.07, -0.3, 0.0])
        for t in (0.0, 0.21, 1.93):
            u, _ = control_value(ctrl, a, t)
            assert np.array_equal(u, a[:2])

    def test_frozen_value_at_t0(self):
        # u1 = 0.05 - 0.5*sqrt(2*pi*0.05), high-precision reference
        ctrl = ideal_controller(k1=0.5)
        u, _ = control_value(ctrl, np.array([0.05, 0.0, -0.05]), 0.0)
        assert u[0] == pytest.approx(-0.23024956081989643, abs=1e-15)
        assert u[1] == 0.0

    def test_periodicity(self):
        ctrl = ideal_controller()
        a = np.array([0.03, -0.02, 0.017])
        rng = np.random.default_rng(21)
        for t in rng.uniform(0.0, 10.0, size=64):
            u0, _ = control_value(ctrl, a, t)
            u1, _ = control_value(ctrl, a, t + 1.0)
            assert np.abs(u1 - u0).max() <= 1e-12

    def test_zero_mean_oscillation_over_period(self):
        # Gauss-Legendre quadrature of u(t) - (a1, a2) over one period
        ctrl = ideal_controller(epsilon=1.0)
        a = np.array([0.01, -0.04, 0.06])
        nodes, weights = np.polynomial.legendre.leggauss(64)
        t = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        integral = np.zeros(2)
        for ti, wi in zip(t, w):
            u, _ = control_value(ctrl, a, ti)
            integral += wi * (u - a[:2])
        assert np.abs(integral).max() <= 1e-10

    def test_sqrt_omega_amplitude_scaling(self):
        a = np.array([0.0, 0.0, 0.013])
        base = ideal_controller(epsilon=1.0)
        double = ideal_controller(epsilon=0.5)
        u_base, _ = control_value(base, a, 0.0)
        u_double, _ = control_value(double, a, 0.0)
        assert u_double[0] == pytest.approx(math.sqrt(2.0) * u_base[0], rel=1e-15)

    def test_sign_zero_convention(self):
        ctrl = ideal_controller()
        u, _ = control_value(ctrl, np.array([0.2, 0.1, 0.0]), 0.33)
        assert u[0] == 0.2 and u[1] == 0.1

    def test_clamped_output_and_flag(self):
        u, sat = control_value(TB3, np.array([0.0, 0.0, -0.5]), 0.0)
        assert sat is True
        assert abs(u[0]) <= 0.22 and abs(u[1]) <= 2.84

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            control_value(ideal_controller(), np.zeros(3), -0.1)


AVERAGING_EPS = (0.016, 0.004, 0.001, 0.00025)
HOLDS_PER_PERIOD = 4000


def one_period_coefficients(x, a, k1, eps):
    """Frame coefficients of the mean velocity over one period with `a` frozen.

    The period is HOLDS_PER_PERIOD exact holds of the feedback; the result
    is F(x)^-1 (x(eps) - x) / eps, the mean velocity in the frame
    (f1, f2, [f1, f2]) at the start.
    """
    p = ControllerParams(epsilon=eps, k1=k1)
    T = eps / HOLDS_PER_PERIOD
    state = tuple(x)
    for k in range(HOLDS_PER_PERIOD):
        u, _ = control_value(p, a, k * T)
        state = hold_step(*state, u[0], u[1], T)
    return frame_inverse(x) @ np.subtract(state, x) / eps


class TestOnePeriodAveraging:
    """Over one period the feedback moves the state by eps * (a1 f1 + a2 f2 +
    (k1 k2 / 2) a12 [f1, f2]) + O(eps^1.5): the bracket rate is 2 a12, not a12."""

    @pytest.mark.parametrize("x, a, k1", [
        pytest.param((0.3, -0.2, 0.7), (0.1, -0.05, 0.2), 0.5, id="a12-positive"),
        pytest.param((-0.4, 0.5, -1.2), (-0.05, 0.08, -0.15), 0.5, id="a12-negative"),
        pytest.param((1.0, 0.2, 2.5), (0.02, 0.1, -0.3), 1 / math.sqrt(2), id="k1-P2"),
    ])
    def test_frame_coefficients_approach_the_averaged_field(self, x, a, k1):
        averaged = np.array([a[0], a[1], 2.0 * a[2]])  # k1 k2 / 2 = 2
        errors = [np.abs(one_period_coefficients(x, a, k1, eps) - averaged).max()
                  for eps in AVERAGING_EPS]
        assert 0.4 <= convergence_order(AVERAGING_EPS, errors) <= 0.6
        assert errors[-1] <= 0.1 * abs(a[2])


def central_bracket(b1, b2, x, step=1e-6):
    """[b1, b2] = Db2 b1 - Db1 b2 at x, with central-difference Jacobians."""
    def jac(field):
        cols = []
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = step
            cols.append((field(x + dx) - field(x - dx)) / (2.0 * step))
        return np.column_stack(cols)

    return jac(b2) @ b1(x) - jac(b1) @ b2(x)


class TestAveragedFields:
    """Each loop mode's averaged field is a1 f1 + a2 f2 + 1/2 [b1, b2], with
    b1 = k1 sqrt|a12| sgn(a12) f1 and b2 = k2 sqrt|a12| f2: the amplitudes
    follow the state in continuous mode and are frozen at x in sampling mode."""

    GAMMA = 0.05
    STATES = [(0.3, -0.4, 1.0), (-0.5, -0.5, 0.4), (0.6, 0.2, -0.7)]

    @pytest.mark.parametrize("k1", [0.5, 1 / math.sqrt(2)], ids=["P1", "P2"])
    @pytest.mark.parametrize("potential", [make_v_alpha(1.0), make_v_alpha(4.0),
                                           make_quadratic(2.0, 0.5, 1.3)],
                             ids=["alpha-1", "alpha-4", "quadratic"])
    def test_bracket_construction_matches_the_oracles(self, potential, k1):
        k2 = ControllerParams(k1=k1).k2

        def inputs(amplitudes):
            def b1(y):
                a12 = amplitudes(y)[2]
                return k1 * math.sqrt(abs(a12)) * math.copysign(1.0, a12) * vector_fields(y)[0]

            def b2(y):
                return k2 * math.sqrt(abs(amplitudes(y)[2])) * vector_fields(y)[1]
            return b1, b2

        for x in map(np.array, self.STATES):
            a = amplitude_vector(potential, self.GAMMA, x)
            assert a[2] != 0.0
            f1, f2 = vector_fields(x)
            drift = a[0] * f1 + a[1] * f2
            following = central_bracket(
                *inputs(lambda y: amplitude_vector(potential, self.GAMMA, y)), x)
            frozen = central_bracket(*inputs(lambda y: a), x)
            continuous = continuous_averaged_field(potential, self.GAMMA, x)
            sampling = averaged_field(potential, self.GAMMA, x)
            assert np.abs(drift + 0.5 * following - continuous).max() <= 1e-9
            assert np.abs(drift + 0.5 * frozen - sampling).max() <= 1e-9
            # the two fields differ: the continuous one has no f1 component
            assert abs(continuous @ f1) <= 1e-15 and abs(sampling @ f1) >= 1e-3
            g = potential_gradient(potential, x)
            c1, c2, _ = potential.coeffs
            f3g = g[0] * math.sin(x[2]) - g[1] * math.cos(x[2])
            assert g @ continuous == pytest.approx(
                -self.GAMMA * (g[2] ** 2 + 2.0 * f3g ** 2 + (c1 - c2) * math.sin(2 * x[2]) * g[2]),
                rel=1e-12)


class TestClamp:
    def test_inside_passes_through(self):
        u, sat = clamp([0.1, 1.0], TB3)
        assert np.array_equal(u, [0.1, 1.0])
        assert sat is False

    def test_clamps_both_components(self):
        u, sat = clamp([-0.33, 4.48], TB3)
        assert np.array_equal(u, [-0.22, 2.84])
        assert sat is True

    def test_boundary_not_flagged(self):
        u, sat = clamp([0.22, -2.84], TB3)
        assert np.array_equal(u, [0.22, -2.84])
        assert sat is False

    def test_ideal_bounds_never_clamp(self):
        u, sat = clamp([1e6, -1e6], ControllerParams())
        assert np.array_equal(u, [1e6, -1e6])
        assert sat is False


class TestVelocityBounds:
    def test_clamp_requires_positive_limits(self):
        for limits in [(0.0, 1.0), (1.0, -2.84), (math.nan, 1.0), (-math.inf, math.inf)]:
            with pytest.raises(ValueError, match="positive"):
                ControllerParams(u1_max=limits[0], u2_max=limits[1])

    def test_bad_mode(self):
        # the bounds mode is a setting: "ideal" or "clamp", nothing else
        with pytest.raises(ValueError, match="bounds_mode"):
            sim_config({"bounds_mode": "soft"})
