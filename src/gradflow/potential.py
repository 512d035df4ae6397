"""Lyapunov function candidates.

A candidate is a C^2 scalar field V with an analytic gradient. The library
ships two closed-form families:

* diagonal quadratic forms  V = c1*x1^2 + c2*x2^2 + c3*x3^2  with ci > 0,
* the anisotropic family    V = alpha*(x1^2 + x3^2) + x2^2/alpha,

plus user-supplied potentials whose gradients are validated against finite
differences at construction. Quadratic-family potentials carry their
coefficients, which the closed loop reads directly and the midpoint
quadrature specialises on. The closed loop computes the control amplitudes
(a1, a2, a12) = -gamma * F(x)^-1 grad V(x) from the gradient itself.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from gradflow.kinematics import check_scalar


@dataclass(frozen=True)
class Potential:
    """Scalar potential with analytic gradient.

    value maps a state (3,) to a scalar; gradient maps it to the (3,) row
    of partial derivatives. For the built-in quadratic families both
    callables also broadcast over (..., 3) arrays. coeffs holds (c1, c2, c3)
    when the potential is a diagonal quadratic form, else None.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    coeffs: np.ndarray | None = None

    def scaled(self, c: float) -> "Potential":
        """The potential c*V. Positive c preserves positive definiteness."""
        check_scalar(c, "scale factor")
        if not c > 0:
            raise ValueError(f"scale factor must be positive, got {c}")
        if self.coeffs is not None:
            return make_quadratic(*(c * self.coeffs))
        v, g = self.value, self.gradient
        return Potential(
            value=lambda x: c * v(x),
            gradient=lambda x: c * np.asarray(g(x), dtype=float),
        )


def _quadratic_callables(coeffs: np.ndarray):
    def value(x):
        x = np.asarray(x, dtype=float)
        return np.sum(coeffs * x * x, axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * coeffs * x

    return value, gradient


def make_quadratic(c1: float, c2: float, c3: float) -> Potential:
    """Diagonal quadratic form c1*x1^2 + c2*x2^2 + c3*x3^2, all ci > 0."""
    for name, c in (("c1", c1), ("c2", c2), ("c3", c3)):
        check_scalar(c, name)
    if not (c1 > 0 and c2 > 0 and c3 > 0):
        raise ValueError(f"quadratic coefficients must be positive, got ({c1}, {c2}, {c3})")
    coeffs = np.array([c1, c2, c3], dtype=float)
    coeffs.flags.writeable = False
    value, gradient = _quadratic_callables(coeffs)
    return Potential(value=value, gradient=gradient, coeffs=coeffs)


def make_v_alpha(alpha: float) -> Potential:
    """Anisotropic candidate alpha*(x1^2 + x3^2) + x2^2/alpha.

    alpha = 1 is the plain sum of squares; larger alpha penalizes the
    heading and forward coordinates harder than the sideways one, which
    lowers the admissibility cost of the induced gradient flow.
    """
    check_scalar(alpha, "alpha")
    if not alpha >= 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return make_quadratic(alpha, 1.0 / alpha, alpha)


def _check_step(step) -> None:
    check_scalar(step, "step")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step!r}")


def finite_difference_gradient(value, x, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar field at `x`."""
    _check_step(step)
    x = np.asarray(x, dtype=float)
    out = np.empty(3)
    for i in range(3):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (value(hi) - value(lo)) / (2.0 * step)
    return out


def make_custom(value, gradient, *, check_points: int = 8, seed: int = 0,
                step: float = 1e-5, tol: float = 1e-6) -> Potential:
    """Wrap a user-supplied potential, validating gradient consistency.

    The analytic gradient is compared against central finite differences of
    `value` at `check_points` random states in [-1, 1]^3; a mismatch beyond
    `tol` raises. Pass check_points=0 to skip (e.g. for potentials that are
    expensive to evaluate). check_points and seed must be nonnegative
    integers, step positive and tol nonnegative. The admissibility
    quadrature calls `gradient` on (n, 3) batches of states and raises
    ValueError unless it returns (n, 3).
    """
    for name, number, integer in (("check_points", check_points, True), ("seed", seed, True),
                                  ("tol", tol, False)):
        check_scalar(number, name, integer=integer)
        if not number >= 0:
            raise ValueError(f"{name} must be nonnegative, got {number!r}")
    _check_step(step)
    pot = Potential(value=value, gradient=gradient)
    if check_points > 0:
        rng = np.random.default_rng(seed)
        for _ in range(check_points):
            x = rng.uniform(-1.0, 1.0, size=3)
            fd = finite_difference_gradient(value, x, step=step)
            an = np.asarray(gradient(x), dtype=float)
            if an.shape != (3,):
                raise ValueError(f"gradient must return shape (3,), got {an.shape}")
            err = np.max(np.abs(an - fd))
            if not err <= tol:
                raise ValueError(
                    f"analytic gradient disagrees with finite differences at "
                    f"x={x.tolist()}: max component error {err:.3e} > {tol:g}"
                )
    return pot
