import math

import numpy as np
import pytest

from gradflow import make_quadratic, make_v_alpha
from oracles import (
    amplitude_vector,
    amplitude_vector_matrix,
    potential_gradient,
    potential_value,
)


def central_difference(v, x, step=1e-5):
    """Central finite-difference gradient of V at `x`."""
    out = np.empty(3)
    for i in range(3):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (potential_value(v, hi) - potential_value(v, lo)) / (2.0 * step)
    return out


class TestQuadratic:
    def test_unit_coefficients(self):
        v = make_quadratic(1, 1, 1)
        x = np.array([1.0, 1.0, 1.0])
        assert potential_value(v, x) == 3.0
        assert np.array_equal(potential_gradient(v, x), [2.0, 2.0, 2.0])

    def test_anisotropic(self):
        v = make_quadratic(2, 1, 1)
        x = np.array([1.0, 0.0, 0.0])
        assert potential_value(v, x) == 2.0
        assert np.array_equal(potential_gradient(v, x), [4.0, 0.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        v = make_quadratic(2.0, 0.5, 1.3)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            assert np.abs(potential_gradient(v, x) - central_difference(v, x)).max() <= 1e-6

    def test_coefficients_read_only(self):
        v = make_quadratic(1, 2, 3)
        assert v.coeffs == (1.0, 2.0, 3.0) and all(type(c) is float for c in v.coeffs)
        with pytest.raises(TypeError):
            v.coeffs[0] = 5.0

    def test_rejects_nonpositive(self):
        for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                make_quadratic(*bad)

    def test_rejects_infinite(self):
        for bad in [(math.inf, 1, 1), (1, math.inf, 1), (1, 1, math.nan)]:
            with pytest.raises(ValueError, match="positive and finite"):
                make_quadratic(*bad)

    def test_scaled_past_the_float_range_raises(self):
        with pytest.raises(ValueError, match="positive and finite"):
            make_quadratic(1e300, 1, 1).scaled(1e10)
        with pytest.raises(ValueError, match="positive and finite"):
            make_v_alpha(1.0).scaled(np.float64(math.inf))

    def test_scaled(self):
        v = make_quadratic(1, 2, 3).scaled(0.05)
        x = np.array([1.0, 1.0, 1.0])
        assert potential_value(v, x) == pytest.approx(0.3, rel=1e-15)
        assert np.allclose(potential_gradient(v, x), [0.1, 0.2, 0.3], rtol=1e-15)


class TestVAlpha:
    def test_alpha_one_is_sum_of_squares(self):
        v = make_v_alpha(1.0)
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=3)
            assert potential_value(v, x) == pytest.approx(float(x @ x), rel=1e-15)

    def test_hand_substitution_alpha_4(self):
        assert potential_value(make_v_alpha(4.0), np.ones(3)) == 8.25

    def test_hand_substitution_alpha_10(self):
        assert potential_value(make_v_alpha(10.0), [0.0, 1.0, 0.0]) == 0.1

    def test_equals_quadratic(self):
        assert np.array_equal(make_v_alpha(4.0).coeffs, make_quadratic(4.0, 0.25, 4.0).coeffs)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            make_v_alpha(0.99)


class TestAmplitudeVector:
    def test_zero_gradient_gives_zero(self):
        v = make_quadratic(1, 1, 1)
        assert np.array_equal(amplitude_vector(v, 0.05, np.zeros(3)), np.zeros(3))

    def test_hand_substitution_sum_of_squares(self):
        a = amplitude_vector(make_v_alpha(1.0), 0.05, [-0.5, -0.5, 0.0])
        assert a[0] == 0.05
        assert a[1] == 0.0
        assert a[2] == -0.05

    def test_hand_substitution_alpha_4(self):
        a = amplitude_vector(make_v_alpha(4.0), 0.05, [1.0, 0.0, 0.0])
        assert a[0] == pytest.approx(-0.4, abs=1e-15)
        assert a[1] == 0.0
        assert a[2] == 0.0

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            c = rng.uniform(0.2, 5.0, size=3)
            v = make_quadratic(*c)
            x = rng.uniform(-5, 5, size=3)
            gamma = rng.uniform(0.01, 2.0)
            explicit = amplitude_vector(v, gamma, x)
            matrix = amplitude_vector_matrix(v, gamma, x)
            assert np.abs(explicit - matrix).max() <= 1e-12

    def test_linear_in_gamma_exact(self):
        v = make_quadratic(1.5, 0.7, 2.2)
        x = np.array([0.4, -1.2, 0.9])
        gamma = 0.05
        assert np.array_equal(amplitude_vector(v, 2 * gamma, x),
                              2.0 * amplitude_vector(v, gamma, x))

    def test_homogeneous_in_potential(self):
        v = make_quadratic(1.0, 2.0, 0.5)
        scaled = v.scaled(3.0)
        x = np.array([-0.3, 0.8, 1.7])
        assert np.allclose(amplitude_vector(scaled, 0.05, x),
                           3.0 * amplitude_vector(v, 0.05, x), rtol=1e-14)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            amplitude_vector(make_v_alpha(1.0), 0.0, np.zeros(3))
