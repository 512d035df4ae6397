"""Oscillatory time-varying feedback for the unicycle.

Given amplitudes a = (a1, a2, a12) computed from a potential, the control is

    u1(a, t) = a1 + k1 * sqrt(omega*|a12|) * sign(a12) * cos(omega*t)
    u2(a, t) = a2 + k2 * sqrt(omega*|a12|) * sin(omega*t)

with omega = 2*pi/epsilon and k1*k2 = 4. The sqrt(omega) amplitude paired
with the frequency omega is what lets the cos/sin pair excite the bracket
(sideways) direction [f1, f2]. The field the state follows on average, up
to O(sqrt(epsilon)), depends on the loop mode. In sampling mode the
amplitudes are frozen over each period, and the field is

    a1 f1 + a2 f2 + (k1*k2/2) * a12 [f1, f2] = a1 f1 + a2 f2 + 2 a12 [f1, f2],

so the bracket rate is 2 a12, not a12. With a = -gamma * F^-1 grad V and
the frame F = (f1, f2, [f1, f2]) orthonormal, that field still decreases V.
In continuous mode the amplitudes follow the state within a period, the
bracket of the oscillating inputs picks up the derivatives of
sqrt(|a12|), and where a12 != 0 the field is

    a2 f2 + 2 a12 [f1, f2] - gamma (c1 - c2) sin(2 x3) f2,

with no f1 component: the a1 f1 drift cancels.

On the x1 axis (x2 = x3 = 0) with c1 = c2, the sampling field is
-gamma grad V, along which V falls at -gamma |grad V|^2, and the continuous
field is 0. Measured for P1 with ideal bounds: at epsilon 0.5 and 2,000
updates per epsilon, sampling mode reaches the goal at 26.23 s, and
continuous mode drifts out along the x1 axis to x1 = -0.609 and reaches
none in 400 s. At epsilon 1, continuous mode reaches it at 141.66 s with
2,000 updates per epsilon and at 88.53 s with 8,000; sampling mode's time
moves by under 0.01 s.

ControllerParams derives omega from epsilon and k2 = 4/k1 from k1, so
k1*k2 = 4 holds by construction. The formula itself is evaluated, with its
clamp, in the one closed loop: compiled from `_kernels.c`, or
`_kernels.closed_loop` where that cannot be built.
"""

import math

from gradflow.kinematics import Frozen, check_scalar

TWO_PI = 2.0 * math.pi


class ControllerParams(Frozen):
    """Validated parameter set for the oscillatory feedback.

    epsilon is both the oscillation period and, in sampling mode, the
    amplitude refresh interval; the frequency omega = 2*pi/epsilon follows
    from it. The controls are saturated to [-u1_max, u1_max] x
    [-u2_max, u2_max]; the infinite defaults are the ideal bounds U = R^2,
    which never clamp.
    """

    epsilon: float = 1.0
    gamma: float = 0.05
    # Oscillation coefficient preferred after tuning against the TurtleBot3
    # actuator limits: the angular channel has the larger admissible range, so
    # k2 = 4/k1 = 8 takes the larger share of the product k1*k2 = 4.
    k1: float = 0.5
    u1_max: float = math.inf
    u2_max: float = math.inf
    loop_mode: str = "continuous"

    def __post_init__(self):
        for name in ("epsilon", "gamma", "k1", "u1_max", "u2_max"):
            check_scalar(getattr(self, name), name)
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (self.k1 > 0 and math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise ValueError(f"k1 must be positive and finite with a finite k2 = 4/k1, "
                             f"got {self.k1}")
        if not (self.u1_max > 0 and self.u2_max > 0):
            raise ValueError(f"velocity bounds must be positive, got "
                             f"u1_max={self.u1_max!r}, u2_max={self.u2_max!r}")
        if self.loop_mode not in ("sampling", "continuous"):
            raise ValueError(
                f"loop_mode must be 'sampling' or 'continuous', got {self.loop_mode!r}"
            )

    @property
    def k2(self) -> float:
        """The angular coefficient 4/k1, so that k1*k2 = 4."""
        return 4.0 / self.k1

    @property
    def omega(self) -> float:
        """Oscillation frequency 2*pi/epsilon (rad/s)."""
        return TWO_PI / self.epsilon
