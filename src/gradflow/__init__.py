"""Oscillatory time-varying stabilization of the unicycle.

Closed-loop simulation of the sqrt(omega)-amplitude cos/sin feedback that
steers a unicycle along the gradient flow of a potential, plus the
admissibility functional that scores how well a potential's gradient flow
fits the unicycle's controllable directions.
"""

from gradflow.admissibility import (
    AdmissibilityConfig,
    AdmissibilityResult,
    TABLE1_COEFFS,
    admissibility_measure,
    table1,
    write_sweep_csv,
)
from gradflow.controller import ControllerParams
from gradflow.kinematics import VelocityBounds, wrap_angle
from gradflow.potential import Potential, make_quadratic, make_v_alpha
from gradflow.presets import PRESETS, sim_config
from gradflow.simulator import (
    IntegrationError,
    SimConfig,
    Trajectory,
    convergence_order,
    integrate_gradient_flow,
    load_trajectory_csv,
    simulate,
    tracking_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityConfig",
    "AdmissibilityResult",
    "ControllerParams",
    "IntegrationError",
    "PRESETS",
    "Potential",
    "SimConfig",
    "TABLE1_COEFFS",
    "Trajectory",
    "VelocityBounds",
    "admissibility_measure",
    "convergence_order",
    "integrate_gradient_flow",
    "load_trajectory_csv",
    "make_quadratic",
    "make_v_alpha",
    "sim_config",
    "simulate",
    "table1",
    "tracking_deviation",
    "wrap_angle",
    "write_sweep_csv",
]
