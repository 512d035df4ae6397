"""Experiment presets P1-P4.

All four share epsilon = 1 s, gamma = 0.05, initial state (-0.5, -0.5, 0),
goal at the origin, and the TurtleBot3 velocity limits (0.22 m/s,
2.84 rad/s). They differ in the potential anisotropy alpha and in the
split of the oscillation budget between k1 and k2 (k1*k2 = 4 throughout).
"""

import math
from dataclasses import dataclass

from gradflow.controller import ControllerParams
from gradflow.kinematics import VelocityBounds
from gradflow.potential import make_v_alpha
from gradflow.simulator import SimConfig


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    alpha: float
    k1: float
    k2: float
    epsilon: float = 1.0
    gamma: float = 0.05
    x0: tuple[float, float, float] = (-0.5, -0.5, 0.0)
    goal: tuple[float, float, float] = (0.0, 0.0, 0.0)
    u1_max: float = 0.22
    u2_max: float = 2.84


PRESETS = {
    "P1": ExperimentPreset("P1", alpha=1.0, k1=0.5, k2=8.0),
    "P2": ExperimentPreset("P2", alpha=1.0, k1=1.0 / math.sqrt(2.0), k2=4.0 * math.sqrt(2.0)),
    "P3": ExperimentPreset("P3", alpha=4.0, k1=0.5, k2=8.0),
    "P4": ExperimentPreset("P4", alpha=10.0, k1=0.5, k2=8.0),
}


def preset_sim_config(name: str, loop_mode: str = "continuous",
                      bounds_mode: str = "clamp", goal_tol: float = 0.05,
                      t_max: float = 600.0, control_period: float = 5e-4,
                      log_every: int = 1) -> SimConfig:
    """Build the full simulation config for a named preset."""
    try:
        preset = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    if bounds_mode == "ideal":
        bounds = VelocityBounds()
    else:
        bounds = VelocityBounds(preset.u1_max, preset.u2_max, mode=bounds_mode)
    controller = ControllerParams(
        epsilon=preset.epsilon, gamma=preset.gamma, k1=preset.k1, k2=preset.k2,
        bounds=bounds, loop_mode=loop_mode,
    )
    return SimConfig(
        potential=make_v_alpha(preset.alpha), controller=controller,
        x0=preset.x0, goal=preset.goal, goal_tol=goal_tol, t_max=t_max,
        control_period=control_period, log_every=log_every,
    )
