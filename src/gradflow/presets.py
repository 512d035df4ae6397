"""Simulation settings and the experiment presets P1-P4.

A run is described by flat settings with the keys and JSON types of
SIM_DEFAULTS; `sim_config` checks them, layers them over the defaults and
builds the SimConfig. A preset is the few settings in which it differs from
the defaults: all four share epsilon = 1 s, gamma = 0.05, start
(-0.5, -0.5, 0) and the TurtleBot3 limits (0.22 m/s, 2.84 rad/s), and
differ in the anisotropy alpha and the split of k1*k2 = 4. Every run steers
to the origin, the minimiser of its potential, so no setting names a goal.
"""

import math

from gradflow.controller import ControllerParams
from gradflow.kinematics import VelocityBounds
from gradflow.potential import make_quadratic, make_v_alpha
from gradflow.simulator import SimConfig

SIM_DEFAULTS = {
    "potential": {"kind": "v_alpha", "alpha": 1.0},
    "epsilon": ControllerParams.epsilon,
    "gamma": ControllerParams.gamma,
    "k1": ControllerParams.k1,
    "k2": ControllerParams.k2,
    # TurtleBot3 Burger actuator limits: 0.22 m/s translational, 2.84 rad/s angular
    "u1_max": 0.22,
    "u2_max": 2.84,
    "bounds_mode": "clamp",
    "loop_mode": ControllerParams.loop_mode,
    "x0": [-0.5, -0.5, 0.0],
    "goal_tol": SimConfig.goal_tol,
    "t_max": SimConfig.t_max,
    "control_period": SimConfig.control_period,
    "log_every": SimConfig.log_every,
}

PRESETS = {
    "P1": {},
    "P2": {"k1": 1.0 / math.sqrt(2.0), "k2": 4.0 * math.sqrt(2.0)},
    "P3": {"potential": {"kind": "v_alpha", "alpha": 4.0}},
    "P4": {"potential": {"kind": "v_alpha", "alpha": 10.0}},
}


def _matches(value, default) -> bool:
    """Whether a setting has the JSON type of its default; no bool is a number."""
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_matches, value, default)))
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def check_settings(settings: dict) -> dict:
    """Reject unknown keys and values without their default's JSON type."""
    unknown = set(settings) - set(SIM_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in settings.items():
        if not _matches(value, SIM_DEFAULTS[key]):
            raise ValueError(f"config key {key!r} must have the JSON type of its default "
                             f"{SIM_DEFAULTS[key]!r}, got {value!r}")
    return settings


def _potential_from_spec(spec):
    kind = spec.get("kind")
    if kind == "v_alpha":
        if not _matches(spec.get("alpha"), 1.0):
            raise ValueError("v_alpha potential spec needs a number \"alpha\"")
        return make_v_alpha(float(spec["alpha"]))
    if kind == "quadratic":
        c = spec.get("c")
        if not _matches(c, [1.0, 1.0, 1.0]):
            raise ValueError("quadratic potential spec needs \"c\": [c1, c2, c3] of numbers")
        return make_quadratic(*map(float, c))
    raise ValueError(f"unknown potential kind {kind!r} (expected 'v_alpha' or 'quadratic')")


def sim_config(settings: dict) -> SimConfig:
    """Build the SimConfig of `settings` layered over SIM_DEFAULTS."""
    s = {**SIM_DEFAULTS, **check_settings(settings)}
    # the limits are checked in either mode; "ideal" runs with the default, infinite bounds
    limits = VelocityBounds(float(s["u1_max"]), float(s["u2_max"]))
    if s["bounds_mode"] == "ideal":
        bounds = VelocityBounds()
    elif s["bounds_mode"] == "clamp":
        bounds = limits
    else:
        raise ValueError(f"bounds_mode must be 'ideal' or 'clamp', got {s['bounds_mode']!r}")
    controller = ControllerParams(
        epsilon=float(s["epsilon"]), gamma=float(s["gamma"]),
        k1=float(s["k1"]), k2=float(s["k2"]),
        bounds=bounds, loop_mode=s["loop_mode"],
    )
    return SimConfig(
        potential=_potential_from_spec(s["potential"]),
        controller=controller, x0=s["x0"],
        goal_tol=float(s["goal_tol"]), t_max=float(s["t_max"]),
        control_period=float(s["control_period"]), log_every=s["log_every"],
    )

