"""Oscillatory time-varying feedback for the unicycle.

Given amplitudes a = (a1, a2, a12) computed from a potential, the control is

    u1(a, t) = a1 + k1 * sqrt(omega*|a12|) * sign(a12) * cos(omega*t)
    u2(a, t) = a2 + k2 * sqrt(omega*|a12|) * sin(omega*t)

with omega = 2*pi/epsilon and k1*k2 = 4. The sqrt(omega) amplitude paired
with the frequency omega is what lets the cos/sin pair excite the bracket
(sideways) direction with average rate a12 per unit time, so the closed
loop drifts along -gamma * grad V on average.

ControllerParams derives omega from epsilon and always enforces k1*k2 = 4.
The formula itself is evaluated, with its clamp, in `_kernels.closed_loop`.
"""

import math
from dataclasses import dataclass, field

from gradflow.kinematics import VelocityBounds, check_scalar

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ControllerParams:
    """Validated parameter set for the oscillatory feedback.

    epsilon is both the oscillation period and, in sampling mode, the
    amplitude refresh interval; the frequency omega = 2*pi/epsilon follows
    from it. A pair (k1, k2) that breaks k1*k2 = 4 is rejected.
    """

    epsilon: float = 1.0
    gamma: float = 0.05
    # Oscillation coefficients preferred after tuning against the TurtleBot3
    # actuator limits: the angular channel has the larger admissible range, so
    # k2 takes the larger share of the product constraint k1*k2 = 4.
    k1: float = 0.5
    k2: float = 8.0
    bounds: VelocityBounds = field(default_factory=VelocityBounds)
    loop_mode: str = "continuous"

    def __post_init__(self):
        for name in ("epsilon", "gamma", "k1", "k2"):
            check_scalar(getattr(self, name), name)
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not (self.k1 > 0 and self.k2 > 0):
            raise ValueError(f"k1 and k2 must be positive, got ({self.k1}, {self.k2})")
        if abs(self.k1 * self.k2 - 4.0) > 1e-9:
            raise ValueError(
                f"coefficient constraint k1*k2 = 4 violated: "
                f"{self.k1}*{self.k2} = {self.k1 * self.k2}"
            )
        if self.loop_mode not in ("sampling", "continuous"):
            raise ValueError(
                f"loop_mode must be 'sampling' or 'continuous', got {self.loop_mode!r}"
            )

    @property
    def omega(self) -> float:
        """Oscillation frequency 2*pi/epsilon (rad/s)."""
        return TWO_PI / self.epsilon
