"""Lyapunov function candidates.

Every candidate is a diagonal quadratic form

    V = c1*x1^2 + c2*x2^2 + c3*x3^2  with 0 < ci < inf,

stored as its coefficient triple. The anisotropic family
V = alpha*(x1^2 + x3^2) + x2^2/alpha is the triple (alpha, 1/alpha, alpha).
The closed loop, the gradient flow and the admissibility quadrature read
the coefficients directly: V(x) = sum ci*xi^2 and grad V(x) = 2*c*x. The
closed loop computes the control amplitudes (a1, a2, a12) =
-gamma * F(x)^-1 grad V(x) from that gradient.
"""

import math

from gradflow.kinematics import Frozen, check_scalar


class Potential(Frozen):
    """Diagonal quadratic form, the float triple coeffs = (c1, c2, c3)."""

    coeffs: tuple[float, float, float]

    def scaled(self, c: float) -> "Potential":
        """The potential c*V. Positive c preserves positive definiteness.

        A product c*ci past the float range is infinite, and raises.
        """
        check_scalar(c, "scale factor")
        if not c > 0:
            raise ValueError(f"scale factor must be positive, got {c}")
        # a Python float product past the float range is inf, and make_quadratic
        # refuses it
        return make_quadratic(*(float(c) * ci for ci in self.coeffs))


def make_quadratic(c1: float, c2: float, c3: float) -> Potential:
    """Diagonal quadratic form c1*x1^2 + c2*x2^2 + c3*x3^2, all ci positive and finite."""
    for name, c in (("c1", c1), ("c2", c2), ("c3", c3)):
        check_scalar(c, name)
    if not all(c > 0 and math.isfinite(c) for c in (c1, c2, c3)):
        raise ValueError(f"quadratic coefficients must be positive and finite, "
                         f"got ({c1}, {c2}, {c3})")
    return Potential(coeffs=(float(c1), float(c2), float(c3)))


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
