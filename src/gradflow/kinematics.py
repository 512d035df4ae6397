"""Unicycle kinematics.

State convention: x = (x1, x2, x3) where (x1, x2) is the wheel contact
point in the plane (m) and x3 is the heading angle (rad). The heading is
kept unwrapped (it lives on the whole real line); a wrapped view is a
display concern, not a model one. Controls are u = (u1, u2): translational
velocity (m/s) and angular velocity (rad/s). The driving vector fields
f1 = (cos x3, sin x3, 0) and f2 = (0, 0, 1) are written out where the closed
loop and the admissibility integrand use them; this module checks the
inputs: states and scalar parameters.
"""

import math
import numbers

import numpy as np


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


def check_scalar(value, what: str, integer: bool = False) -> None:
    """Raise ValueError unless `value` is a real number (an integer if `integer`).

    bool is an int subclass, so True would otherwise pass as 1: it raises,
    as do str and every other non-number.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {'an integer' if integer else 'a number'}, "
                         f"got {value!r}")


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]. Reporting helper only; the model never wraps."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi
