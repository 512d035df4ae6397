"""Lyapunov function candidates.

Every candidate is a diagonal quadratic form

    V = c1*x1^2 + c2*x2^2 + c3*x3^2  with ci > 0,

stored as its coefficient triple. The anisotropic family
V = alpha*(x1^2 + x3^2) + x2^2/alpha is the triple (alpha, 1/alpha, alpha).
The closed loop, the gradient flow and the admissibility quadrature read
the coefficients directly: V(x) = sum ci*xi^2 and grad V(x) = 2*c*x. The
closed loop computes the control amplitudes (a1, a2, a12) =
-gamma * F(x)^-1 grad V(x) from that gradient.
"""

from dataclasses import dataclass

import numpy as np

from gradflow.kinematics import check_scalar


@dataclass(frozen=True, eq=False)
class Potential:
    """Diagonal quadratic form; coeffs is the read-only float array (c1, c2, c3).

    Equality and hashing are by identity: compare `coeffs` for equal forms.
    """

    coeffs: np.ndarray

    def scaled(self, c: float) -> "Potential":
        """The potential c*V. Positive c preserves positive definiteness."""
        check_scalar(c, "scale factor")
        if not c > 0:
            raise ValueError(f"scale factor must be positive, got {c}")
        return make_quadratic(*(c * self.coeffs))


def make_quadratic(c1: float, c2: float, c3: float) -> Potential:
    """Diagonal quadratic form c1*x1^2 + c2*x2^2 + c3*x3^2, all ci > 0."""
    for name, c in (("c1", c1), ("c2", c2), ("c3", c3)):
        check_scalar(c, name)
    if not (c1 > 0 and c2 > 0 and c3 > 0):
        raise ValueError(f"quadratic coefficients must be positive, got ({c1}, {c2}, {c3})")
    coeffs = np.array([c1, c2, c3], dtype=float)
    coeffs.flags.writeable = False
    return Potential(coeffs=coeffs)


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
