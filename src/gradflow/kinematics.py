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


def as_state(x) -> tuple[float, float, float]:
    """`x` as a float triple: three finite real numbers, none of them a bool.

    A str, a bool (numpy's too, which is no numbers.Real) or any other
    non-number raises ValueError, as does a row of a 2-D array.
    """
    try:
        values = tuple(x)
    except TypeError:
        raise ValueError(f"state must be a sequence of three numbers, got {x!r}") from None
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
        raise ValueError(f"state components must be numbers, not strings or bools: {x!r}")
    if len(values) != 3:
        raise ValueError(f"state must have 3 components, got {len(values)}")
    state = tuple(map(float, values))
    if not all(map(math.isfinite, state)):
        raise ValueError("state components must be finite")
    return state


def check_scalar(value, what: str, integer: bool = False) -> None:
    """Raise ValueError unless `value` is a real number (an integer if `integer`).

    bool is an int subclass, so True would otherwise pass as 1: it raises,
    as do str, numpy's bool and every other non-number.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {'an integer' if integer else 'a number'}, "
                         f"got {value!r}")


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]. Reporting helper only; the model never wraps."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi
