import math

import numpy as np
import pytest

from gradflow import ControllerParams, VelocityBounds
from gradflow.presets import sim_config
from helpers import preset_sim_config
from oracles import clamp, control_value


def ideal_controller(**kw):
    return ControllerParams(**kw)


class TestParamValidation:
    @pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
    def test_presets_accepted(self, name):
        ctrl = preset_sim_config(name).controller
        assert ctrl.k1 * ctrl.k2 == pytest.approx(4.0, abs=1e-9)
        assert ctrl.omega == pytest.approx(2 * math.pi, abs=1e-12)

    def test_product_constraint_rejected(self):
        with pytest.raises(ValueError, match=r"k1\*k2 = 4"):
            ControllerParams(k1=1.0, k2=1.0)

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
            ControllerParams(k1=-0.5, k2=-8.0)

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
        ctrl = ideal_controller(k1=0.5, k2=8.0)
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
        bounds = VelocityBounds(0.22, 2.84)
        ctrl = ideal_controller(bounds=bounds)
        u, sat = control_value(ctrl, np.array([0.0, 0.0, -0.5]), 0.0)
        assert sat is True
        assert abs(u[0]) <= 0.22 and abs(u[1]) <= 2.84

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            control_value(ideal_controller(), np.zeros(3), -0.1)


class TestClamp:
    def test_inside_passes_through(self):
        u, sat = clamp([0.1, 1.0], VelocityBounds(0.22, 2.84))
        assert np.array_equal(u, [0.1, 1.0])
        assert sat is False

    def test_clamps_both_components(self):
        u, sat = clamp([-0.33, 4.48], VelocityBounds(0.22, 2.84))
        assert np.array_equal(u, [-0.22, 2.84])
        assert sat is True

    def test_boundary_not_flagged(self):
        u, sat = clamp([0.22, -2.84], VelocityBounds(0.22, 2.84))
        assert np.array_equal(u, [0.22, -2.84])
        assert sat is False

    def test_ideal_bounds_never_clamp(self):
        u, sat = clamp([1e6, -1e6], VelocityBounds())
        assert np.array_equal(u, [1e6, -1e6])
        assert sat is False


class TestVelocityBounds:
    def test_clamp_requires_positive_limits(self):
        for limits in [(0.0, 1.0), (1.0, -2.84), (math.nan, 1.0), (-math.inf, math.inf)]:
            with pytest.raises(ValueError, match="positive"):
                VelocityBounds(*limits)

    def test_bad_mode(self):
        # the bounds mode is a setting: "ideal" or "clamp", nothing else
        with pytest.raises(ValueError, match="bounds_mode"):
            sim_config({"bounds_mode": "soft"})
