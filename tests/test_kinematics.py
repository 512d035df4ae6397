import math

import numpy as np
import pytest

from gradflow import (
    AdmissibilityConfig,
    ControllerParams,
    SimConfig,
    VelocityBounds,
    integrate_gradient_flow,
    make_quadratic,
    make_v_alpha,
    wrap_angle,
)
from gradflow.kinematics import as_state
from oracles import as_control, clamp, frame_inverse, frame_matrix, lie_bracket, vector_fields


def random_states(n, seed, scale=10.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, 3))


def bracket_finite_difference(x, step=1e-5):
    """[f1,f2] = Df2 f1 - Df1 f2 with central-difference Jacobians."""
    def jac(field_index):
        J = np.zeros((3, 3))
        for j in range(3):
            hi = np.array(x, dtype=float)
            lo = np.array(x, dtype=float)
            hi[j] += step
            lo[j] -= step
            J[:, j] = (vector_fields(hi)[field_index] - vector_fields(lo)[field_index]) / (2 * step)
        return J

    f1, f2 = vector_fields(x)
    return jac(1) @ f1 - jac(0) @ f2


class TestVectorFields:
    def test_origin(self):
        f1, f2 = vector_fields([0.0, 0.0, 0.0])
        assert np.array_equal(f1, [1.0, 0.0, 0.0])
        assert np.array_equal(f2, [0.0, 0.0, 1.0])

    def test_quarter_turn(self):
        f1, f2 = vector_fields([5.0, -3.0, math.pi / 2])
        assert np.allclose(f1, [0.0, 1.0, 0.0], atol=1e-15)
        assert np.array_equal(f2, [0.0, 0.0, 1.0])

    def test_direct_trig(self):
        f1, _ = vector_fields([0.0, 0.0, 0.7])
        assert f1[0] == pytest.approx(math.cos(0.7), abs=1e-15)
        assert f1[1] == pytest.approx(0.6442176872376911, abs=1e-15)
        assert f1[2] == 0.0

    def test_unit_norm_orthogonal(self):
        for x in random_states(200, seed=1):
            f1, f2 = vector_fields(x)
            assert np.linalg.norm(f1) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(f2) == 1.0
            assert abs(f1 @ f2) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            vector_fields([np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            vector_fields([0.0, 0.0])


class TestLieBracket:
    def test_origin(self):
        assert np.allclose(lie_bracket([0.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-15)

    def test_half_turn(self):
        assert np.allclose(lie_bracket([1.0, 1.0, math.pi]), [0.0, 1.0, 0.0], atol=1e-15)

    def test_matches_finite_differences(self):
        for x in random_states(1000, seed=2):
            assert np.abs(lie_bracket(x) - bracket_finite_difference(x)).max() < 1e-8

    def test_is_third_frame_column(self):
        for x in random_states(50, seed=3):
            assert np.array_equal(lie_bracket(x), frame_matrix(x)[:, 2])


class TestFrame:
    def test_inverse_rows_at_origin(self):
        Fi = frame_inverse([0.0, 0.0, 0.0])
        assert np.array_equal(Fi, [[1, 0, 0], [0, 0, 1], [0, -1, 0]])

    def test_identity_both_sides(self):
        eye = np.eye(3)
        for x in random_states(1000, seed=4):
            F, Fi = frame_matrix(x), frame_inverse(x)
            assert np.abs(F @ Fi - eye).max() <= 1e-12
            assert np.abs(Fi @ F - eye).max() <= 1e-12

    def test_inverse_entry_31(self):
        Fi = frame_inverse([1.0, 2.0, 0.7])
        assert Fi[2, 0] == pytest.approx(math.sin(0.7), abs=1e-15)
        assert Fi[2, 0] == pytest.approx(0.644218, abs=1e-6)

    def test_columns_are_fields_and_bracket(self):
        x = [0.3, -0.2, 1.9]
        F = frame_matrix(x)
        f1, f2 = vector_fields(x)
        assert np.array_equal(F[:, 0], f1)
        assert np.array_equal(F[:, 1], f2)
        assert np.array_equal(F[:, 2], lie_bracket(x))


class TestWrapAngle:
    def test_identity_inside(self):
        assert wrap_angle(1.0) == pytest.approx(1.0, abs=1e-15)
        assert wrap_angle(math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_wraps_multiples(self):
        assert wrap_angle(2 * math.pi + 0.3) == pytest.approx(0.3, abs=1e-12)
        assert wrap_angle(-7 * math.pi) == pytest.approx(math.pi, abs=1e-12)


class TestNoCoercion:
    """States and controls take numbers only: a str or bool component raises."""

    @pytest.mark.parametrize("x", [
        pytest.param(["-0.5", "0", "0"], id="strings"),
        pytest.param([True, 0.5, 0.0], id="one-bool"),
        pytest.param([True, False, True], id="bools"),
        pytest.param((0.0, np.True_, 0.0), id="numpy-bool"),
        pytest.param(np.array([1, 0, 1], dtype=bool), id="bool-array"),
        pytest.param(np.array(["1", "2", "3"]), id="string-array"),
        pytest.param(np.array([1.0, True, 2.0], dtype=object), id="object-array"),
        pytest.param("abc", id="string"),
    ])
    def test_as_state_rejects(self, x):
        with pytest.raises(ValueError, match="numbers"):
            as_state(x)

    @pytest.mark.parametrize("u", [["0.1", "0.2"], [0.1, True], (False, 0.0)])
    def test_as_control_rejects(self, u):
        with pytest.raises(ValueError, match="numbers"):
            as_control(u)

    def test_numbers_accepted(self):
        assert as_state([1, np.int32(2), np.float64(3.0)]).tolist() == [1.0, 2.0, 3.0]
        x = np.array([0.5, -0.5, 0.25])
        assert as_state(x) is x
        assert as_control((0.1, 2)).tolist() == [0.1, 2.0]

    def test_sim_config_string_x0(self):
        with pytest.raises(ValueError, match="numbers"):
            SimConfig(potential=make_v_alpha(1.0), controller=ControllerParams(),
                      x0=["-0.5", "0", "0"])

    def test_sim_config_bool_x0(self):
        with pytest.raises(ValueError, match="numbers"):
            SimConfig(potential=make_v_alpha(1.0), controller=ControllerParams(),
                      x0=[True, 0.5, 0.0])

    def test_gradient_flow_bool_x0(self):
        with pytest.raises(ValueError, match="numbers"):
            integrate_gradient_flow(make_v_alpha(1.0), [True, False, True],
                                    t_max=1.0, h=1e-3)

    def test_box_string_corners(self):
        with pytest.raises(ValueError, match="half_width must be a number"):
            AdmissibilityConfig(half_width="1")

    def test_clamp(self):
        bounds = VelocityBounds(0.22, 2.84)
        with pytest.raises(ValueError, match="numbers"):
            clamp(["0.5", "0"], bounds)
        with pytest.raises(ValueError, match="numbers"):
            clamp([True, 0.0], bounds)


def sim_with(**fields):
    return SimConfig(potential=make_v_alpha(1.0), controller=ControllerParams(),
                     x0=[-0.5, -0.5, 0.0], **fields)


class TestScalarParameters:
    """A scalar parameter takes a number only: a bool or str raises, never stands for 1 or 0."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: make_v_alpha(True), id="alpha-bool"),
        pytest.param(lambda: make_quadratic(True, 1, 1), id="c1-bool"),
        pytest.param(lambda: make_quadratic(1, 1, "1"), id="c3-string"),
        pytest.param(lambda: make_v_alpha(1.0).scaled(True), id="scale-bool"),
        pytest.param(lambda: ControllerParams(epsilon=True), id="epsilon-bool"),
        pytest.param(lambda: ControllerParams(epsilon="1"), id="epsilon-string"),
        pytest.param(lambda: ControllerParams(gamma=np.True_), id="gamma-numpy-bool"),
        pytest.param(lambda: ControllerParams(k1=True, k2=4.0), id="k1-bool"),
        pytest.param(lambda: ControllerParams(k1=4.0, k2=True), id="k2-bool"),
        pytest.param(lambda: VelocityBounds(True, 2.84), id="u1_max-bool"),
        pytest.param(lambda: VelocityBounds(0.22, True), id="u2_max-bool"),
        pytest.param(lambda: AdmissibilityConfig(samples=True), id="samples-bool"),
        pytest.param(lambda: AdmissibilityConfig(seed=False), id="seed-bool"),
        pytest.param(lambda: AdmissibilityConfig(seed=2.5), id="seed-fraction"),
        pytest.param(lambda: AdmissibilityConfig(q=True), id="q-bool"),
        pytest.param(lambda: AdmissibilityConfig(q=math.inf), id="q-inf"),
        pytest.param(lambda: AdmissibilityConfig(grid_n=np.float64(4.0)), id="grid_n-float"),
        pytest.param(lambda: AdmissibilityConfig(half_width=True), id="half_width-bool"),
        pytest.param(lambda: sim_with(t_max=True), id="t_max-bool"),
        pytest.param(lambda: sim_with(goal_tol=False), id="goal_tol-bool"),
        pytest.param(lambda: sim_with(control_period=True), id="control_period-bool"),
        pytest.param(lambda: integrate_gradient_flow(make_v_alpha(1.0), [0.1, 0.0, 0.0],
                                                     t_max=True, h=0.5), id="flow-t_max-bool"),
        pytest.param(lambda: integrate_gradient_flow(make_v_alpha(1.0), [0.1, 0.0, 0.0],
                                                     t_max=1.0, h=True), id="flow-h-bool"),
        pytest.param(lambda: AdmissibilityConfig(seed=-1), id="seed-negative"),
        pytest.param(lambda: AdmissibilityConfig(method="monte_carlo", samples=1),
                     id="monte-carlo-one-sample"),
    ])
    def test_rejects(self, build):
        with pytest.raises(ValueError):
            build()

    def test_numbers_accepted(self):
        assert make_quadratic(1, np.float64(2.0), np.int64(3)).coeffs.tolist() == [1.0, 2.0, 3.0]
        assert AdmissibilityConfig(grid_n=np.int64(4), seed=0).grid_n == 4
        assert sim_with(t_max=2, control_period=np.float64(0.5)).t_max == 2

