import numpy as np
import pytest

from gradflow import (
    finite_difference_gradient,
    make_custom,
    make_quadratic,
    make_v_alpha,
)
from oracles import amplitude_vector, amplitude_vector_matrix


class TestQuadratic:
    def test_unit_coefficients(self):
        v = make_quadratic(1, 1, 1)
        x = np.array([1.0, 1.0, 1.0])
        assert v.value(x) == 3.0
        assert np.array_equal(v.gradient(x), [2.0, 2.0, 2.0])

    def test_anisotropic(self):
        v = make_quadratic(2, 1, 1)
        x = np.array([1.0, 0.0, 0.0])
        assert v.value(x) == 2.0
        assert np.array_equal(v.gradient(x), [4.0, 0.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        v = make_quadratic(2.0, 0.5, 1.3)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            fd = finite_difference_gradient(v.value, x, step=1e-5)
            assert np.abs(v.gradient(x) - fd).max() <= 1e-6

    def test_broadcasts(self):
        v = make_quadratic(1, 2, 3)
        pts = np.arange(12.0).reshape(4, 3)
        vals = v.value(pts)
        grads = v.gradient(pts)
        assert vals.shape == (4,)
        assert grads.shape == (4, 3)
        assert vals[1] == v.value(pts[1])

    def test_rejects_nonpositive(self):
        for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                make_quadratic(*bad)


class TestVAlpha:
    def test_alpha_one_is_sum_of_squares(self):
        v = make_v_alpha(1.0)
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=3)
            assert v.value(x) == pytest.approx(float(x @ x), rel=1e-15)

    def test_hand_substitution_alpha_4(self):
        assert make_v_alpha(4.0).value(np.ones(3)) == 8.25

    def test_hand_substitution_alpha_10(self):
        assert make_v_alpha(10.0).value(np.array([0.0, 1.0, 0.0])) == 0.1

    def test_equals_quadratic(self):
        v = make_v_alpha(4.0)
        q = make_quadratic(4.0, 0.25, 4.0)
        x = np.array([0.3, -0.7, 1.1])
        assert v.value(x) == q.value(x)
        assert np.array_equal(v.gradient(x), q.gradient(x))

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            make_v_alpha(0.99)


class TestCustom:
    def test_accepts_consistent_gradient(self):
        v = make_custom(lambda x: float(np.sum(x ** 4)),
                        lambda x: 4.0 * np.asarray(x) ** 3)
        x = np.array([0.5, -0.5, 1.0])
        assert v.value(x) == pytest.approx(1.125, rel=1e-15)
        assert v.coeffs is None

    def test_rejects_wrong_gradient(self):
        with pytest.raises(ValueError, match="finite differences"):
            make_custom(lambda x: float(np.sum(x ** 2)),
                        lambda x: 3.0 * np.asarray(x))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            make_custom(lambda x: float(np.sum(x ** 2)),
                        lambda x: np.zeros(2), check_points=1)

    def test_scaled(self):
        v = make_quadratic(1, 2, 3).scaled(0.05)
        x = np.array([1.0, 1.0, 1.0])
        assert v.value(x) == pytest.approx(0.3, rel=1e-15)
        assert np.allclose(v.gradient(x), [0.1, 0.2, 0.3], rtol=1e-15)


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
