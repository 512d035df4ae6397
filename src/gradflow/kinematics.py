"""Unicycle kinematics.

State convention: x = (x1, x2, x3) where (x1, x2) is the wheel contact
point in the plane (m) and x3 is the heading angle (rad). The heading is
kept unwrapped (it lives on the whole real line); a wrapped view is a
display concern, not a model one. Controls are u = (u1, u2): translational
velocity (m/s) and angular velocity (rad/s).
"""

import math
from dataclasses import dataclass

import numpy as np

# Wheel separation of a TurtleBot3 Burger (m). Used as the default for the
# differential-drive velocity mapping; configurable everywhere it appears.
TB3_WHEEL_SEPARATION = 0.160


def _real_vector(x, n: int, what: str) -> np.ndarray:
    """`x` as a finite float64 vector of shape (n,); str and bool components raise."""
    if any(isinstance(v, (str, bytes, bool, np.bool_)) for v in np.asarray(x, dtype=object).flat):
        raise ValueError(f"{what} components must be numbers, not strings or bools: {x!r}")
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} components must be finite")
    return arr


def as_state(x) -> np.ndarray:
    """`x` as a finite float64 vector of shape (3,); str and bool components raise."""
    return _real_vector(x, 3, "state")


def as_control(u) -> np.ndarray:
    """`u` as a finite float64 vector of shape (2,); str and bool components raise."""
    return _real_vector(u, 2, "control")


def vector_fields(x) -> tuple[np.ndarray, np.ndarray]:
    """Driving vector fields of the unicycle at state `x`.

    Returns
    -------
    f1 : ndarray, shape (3,)
        Heading direction (cos x3, sin x3, 0); unit norm.
    f2 : ndarray, shape (3,)
        Turning direction (0, 0, 1); unit norm, orthogonal to f1.
    """
    x = as_state(x)
    f1 = np.array([math.cos(x[2]), math.sin(x[2]), 0.0])
    f2 = np.array([0.0, 0.0, 1.0])
    return f1, f2


def lie_bracket(x) -> np.ndarray:
    """Commutator [f1, f2] at state `x`: the sideways direction.

    Closed form (sin x3, -cos x3, 0); reachable only by maneuvering, which
    is what makes the unicycle nonholonomic.
    """
    x = as_state(x)
    return np.array([math.sin(x[2]), -math.cos(x[2]), 0.0])


def frame_matrix(x) -> np.ndarray:
    """Frame F(x) with columns (f1, f2, [f1, f2]); nonsingular for all x."""
    x = as_state(x)
    s, c = math.sin(x[2]), math.cos(x[2])
    return np.array([
        [c, 0.0, s],
        [s, 0.0, -c],
        [0.0, 1.0, 0.0],
    ])


def frame_inverse(x) -> np.ndarray:
    """Closed-form inverse of frame_matrix(x)."""
    x = as_state(x)
    s, c = math.sin(x[2]), math.cos(x[2])
    return np.array([
        [c, s, 0.0],
        [0.0, 0.0, 1.0],
        [s, -c, 0.0],
    ])


@dataclass(frozen=True)
class WheelSpeeds:
    """Differential-drive wheel speeds.

    v_l, v_r are the linear velocities at the left/right wheel edge (m/s);
    d is the wheel separation (m).
    """

    v_l: float
    v_r: float
    d: float = TB3_WHEEL_SEPARATION

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError(f"wheel separation d must be positive, got {self.d}")


@dataclass(frozen=True)
class VelocityBounds:
    """Admissible control set.

    mode "ideal" means U = R^2 (no clamping; the max fields are unused).
    mode "clamp" saturates each control component to [-max, +max].
    """

    u1_max: float = math.inf
    u2_max: float = math.inf
    mode: str = "ideal"

    def __post_init__(self):
        if self.mode not in ("ideal", "clamp"):
            raise ValueError(f"bounds mode must be 'ideal' or 'clamp', got {self.mode!r}")
        if self.mode == "clamp" and not (self.u1_max > 0 and self.u2_max > 0):
            raise ValueError("clamp mode requires u1_max > 0 and u2_max > 0")


# TurtleBot3 Burger actuator limits: 0.22 m/s translational, 2.84 rad/s angular.
TB3_BOUNDS = VelocityBounds(u1_max=0.22, u2_max=2.84, mode="clamp")


def diff_drive_to_unicycle(w: WheelSpeeds) -> np.ndarray:
    """Map wheel speeds to unicycle velocities.

    u1 = (v_r + v_l) / 2,  u2 = (v_r - v_l) / d.
    """
    return np.array([0.5 * (w.v_r + w.v_l), (w.v_r - w.v_l) / w.d])


def unicycle_to_diff_drive(u, d: float = TB3_WHEEL_SEPARATION) -> WheelSpeeds:
    """Map unicycle velocities to wheel speeds; inverse of diff_drive_to_unicycle."""
    if not d > 0:
        raise ValueError(f"wheel separation d must be positive, got {d}")
    u = as_control(u)
    half = 0.5 * u[1] * d
    return WheelSpeeds(v_l=u[0] - half, v_r=u[0] + half, d=d)


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]. Reporting helper only; the model never wraps."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi
