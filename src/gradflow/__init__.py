"""Oscillatory time-varying stabilization of the unicycle.

Closed-loop simulation of the sqrt(omega)-amplitude cos/sin feedback that
steers a unicycle along the gradient flow of a potential, plus the
admissibility functional that scores how well a potential's gradient flow
fits the unicycle's controllable directions.
"""

from gradflow.admissibility import (
    AdmissibilityConfig,
    AdmissibilityResult,
    BoxDomain,
    TABLE1_COEFFS,
    admissibility_measure,
    rho,
    table1,
    write_sweep_csv,
)
from gradflow.controller import ControllerParams, clamp, control_value
from gradflow.kinematics import (
    TB3_BOUNDS,
    TB3_WHEEL_SEPARATION,
    VelocityBounds,
    WheelSpeeds,
    diff_drive_to_unicycle,
    frame_inverse,
    frame_matrix,
    lie_bracket,
    unicycle_to_diff_drive,
    vector_fields,
    wrap_angle,
)
from gradflow.potential import (
    Potential,
    amplitude_vector,
    finite_difference_gradient,
    make_custom,
    make_quadratic,
    make_v_alpha,
)
from gradflow.presets import PRESETS, preset_sim_config, sim_config
from gradflow.simulator import (
    IntegrationError,
    SimConfig,
    Trajectory,
    convergence_order,
    goal_reached,
    integrate_gradient_flow,
    load_trajectory_csv,
    simulate,
    tracking_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityConfig",
    "AdmissibilityResult",
    "BoxDomain",
    "ControllerParams",
    "IntegrationError",
    "PRESETS",
    "Potential",
    "SimConfig",
    "TABLE1_COEFFS",
    "TB3_BOUNDS",
    "TB3_WHEEL_SEPARATION",
    "Trajectory",
    "VelocityBounds",
    "WheelSpeeds",
    "admissibility_measure",
    "amplitude_vector",
    "clamp",
    "control_value",
    "convergence_order",
    "diff_drive_to_unicycle",
    "finite_difference_gradient",
    "frame_inverse",
    "frame_matrix",
    "goal_reached",
    "integrate_gradient_flow",
    "lie_bracket",
    "load_trajectory_csv",
    "make_custom",
    "make_quadratic",
    "make_v_alpha",
    "preset_sim_config",
    "rho",
    "sim_config",
    "simulate",
    "table1",
    "tracking_deviation",
    "unicycle_to_diff_drive",
    "vector_fields",
    "wrap_angle",
    "write_sweep_csv",
]
