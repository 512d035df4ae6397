"""Oscillatory time-varying feedback for the unicycle.

Given amplitudes a = (a1, a2, a12) computed from a potential, the control is

    u1(a, t) = a1 + k1 * sqrt(omega*|a12|) * sign(a12) * cos(omega*t)
    u2(a, t) = a2 + k2 * sqrt(omega*|a12|) * sin(omega*t)

with omega = 2*pi/epsilon and k1*k2 = 4. The sqrt(omega) amplitude paired
with the frequency omega is what lets the cos/sin pair excite the bracket
(sideways) direction with average rate a12 per unit time, so the closed
loop drifts along -gamma * grad V on average.

ControllerParams derives omega from epsilon and always enforces k1*k2 = 4.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from gradflow.kinematics import VelocityBounds, as_control

TWO_PI = 2.0 * math.pi

# Oscillation coefficients preferred after tuning against the TurtleBot3
# actuator limits: the angular channel has the larger admissible range, so
# k2 takes the larger share of the product constraint k1*k2 = 4.
DEFAULT_K1 = 0.5
DEFAULT_K2 = 8.0


@dataclass(frozen=True)
class ControllerParams:
    """Validated parameter set for the oscillatory feedback.

    epsilon is both the oscillation period and, in sampling mode, the
    amplitude refresh interval; the frequency omega = 2*pi/epsilon follows
    from it. A pair (k1, k2) that breaks k1*k2 = 4 is rejected.
    """

    epsilon: float = 1.0
    gamma: float = 0.05
    k1: float = DEFAULT_K1
    k2: float = DEFAULT_K2
    bounds: VelocityBounds = field(default_factory=VelocityBounds)
    loop_mode: str = "continuous"

    def __post_init__(self):
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


def clamp(u, bounds: VelocityBounds) -> tuple[np.ndarray, bool]:
    """Componentwise clamp of u to [-u1_max, u1_max] x [-u2_max, u2_max].

    Returns the (possibly) clamped control and a flag that is True iff any
    component changed. Values exactly on the boundary pass unchanged.
    """
    u = as_control(u)
    out = np.array([
        min(max(u[0], -bounds.u1_max), bounds.u1_max),
        min(max(u[1], -bounds.u2_max), bounds.u2_max),
    ])
    return out, bool(out[0] != u[0] or out[1] != u[1])


def control_value(p: ControllerParams, a, t: float) -> tuple[np.ndarray, bool]:
    """Evaluate the feedback at amplitudes `a` = (a1, a2, a12) and time `t`.

    With ideal bounds the formula applies verbatim and the saturation flag
    is always False; with clamp bounds each component is saturated after
    evaluation and the flag records whether saturation occurred. sign(0)
    is taken as 0 (the sqrt factor vanishes there anyway).
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"amplitude vector must have shape (3,), got {a.shape}")
    omega = p.omega
    osc = math.sqrt(omega * abs(a[2]))
    sign = 0.0 if a[2] == 0.0 else math.copysign(1.0, a[2])
    u = np.array([
        a[0] + p.k1 * osc * sign * math.cos(omega * t),
        a[1] + p.k2 * osc * math.sin(omega * t),
    ])
    if p.bounds.mode == "clamp":
        return clamp(u, p.bounds)
    return u, False
