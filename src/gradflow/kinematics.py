"""Unicycle kinematics.

State convention: x = (x1, x2, x3) where (x1, x2) is the wheel contact
point in the plane (m) and x3 is the heading angle (rad). The heading is
kept unwrapped (it lives on the whole real line); a wrapped view is a
display concern, not a model one. Controls are u = (u1, u2): translational
velocity (m/s) and angular velocity (rad/s). The driving vector fields
f1 = (cos x3, sin x3, 0) and f2 = (0, 0, 1) are written out where the closed
loop and the admissibility integrand use them; this module checks the
inputs, states and scalar parameters, and holds `Frozen`, the base of the
package's value types.
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


class Frozen:
    """Base of a frozen value type: its fields are the names its own body
    annotates, in order, and a class value is that field's default.

    Fields are passed by position or keyword; a missing, unknown or repeated
    one raises TypeError. `__post_init__` then checks them, and may set one
    with object.__setattr__. Afterwards assigning or deleting an attribute
    raises AttributeError. Equality, hashing and repr go by type and field
    values. Plain code, not `dataclasses`: its import loads inspect, ast,
    dis and tokenize, a start-up cost that every short command would pay.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # type's __annotations__ gives the class's own (not a base's) from 3.10
        # on, and on 3.14 evaluates the lazy __annotate__ the body leaves in
        # place of an __annotations__ entry in cls.__dict__.
        cls._fields = tuple(cls.__annotations__)
        own = cls.__dict__
        cls._defaults = {name: own[name] for name in cls._fields if name in own}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} field arguments "
                            f"but {len(args)} were given")
        values = {**cls._defaults, **dict(zip(cls._fields, args))}
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in cls._fields[:len(args)]:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [repr(name) for name in cls._fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
        for name in cls._fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a subclass with invariants overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
