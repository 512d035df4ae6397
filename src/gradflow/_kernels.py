"""The closed-loop simulation, the package's one integration loop.

It is written once as plain scalar Python. The potential is the diagonal
quadratic V = c1*x1^2 + c2*x2^2 + c3*x3^2, passed as its three
coefficients, and the loop evaluates V and grad V = (2*c1*x1, 2*c2*x2,
2*c3*x3) inline. It appends the rows it logs, one
simulator.TRAJECTORY_COLUMNS row at a time, to an array('d') of its own and
returns it, so a run's memory follows the rows it logs and not its horizon.
The gradient flow of such a V has a closed form, which
`simulator.integrate_gradient_flow` evaluates in numpy; the admissibility
quadrature is numpy too and lives in `gradflow.admissibility`.
"""

from array import array
from math import cos, isfinite, nan, sin, sqrt

# status codes returned by closed_loop
STATUS_HORIZON = 0
STATUS_GOAL = 1
STATUS_NONFINITE = 2


def backend() -> str:
    """Name of the one numeric build, read by clibench's provenance probe."""
    return "numpy"


# ---------------------------------------------------------------------------
# closed-loop integration
# ---------------------------------------------------------------------------

def closed_loop(c1, c2, c3, x0, gamma, k1, k2, omega, control_period,
                n_updates, upd_per_eps, sampling, do_clamp, u1_max, u2_max,
                goal, goal_tol, log_every):
    """Closed-loop run, logging rows of (t, x, u, a, V, saturated).

    Returns (rows, status, convergence_time, saturated_updates, max_abs_u1,
    max_abs_u2): rows is a flat array('d') of the logged rows, row after
    row, and the last three cover every control update that was evaluated,
    logged or not. The control is held constant over each control period
    and the state follows the exact flow of the hold: x3 turns at the
    constant rate u2, so the planar motion is a circular arc whose chord is
    u1*T*sinc(u2*T/2) along the mid-hold heading. Amplitudes refresh every
    update in continuous mode and only at multiples of upd_per_eps in
    sampling mode. Goal detection runs at update instants on the
    full-state distance.
    """
    x1 = x0[0]
    x2 = x0[1]
    x3 = x0[2]
    goal1 = goal[0]
    goal2 = goal[1]
    goal3 = goal[2]
    # grad V = (d1*x1, d2*x2, d3*x3)
    d1 = 2.0 * c1
    d2 = 2.0 * c2
    d3 = 2.0 * c3
    a1 = 0.0
    a2 = 0.0
    a12 = 0.0
    rows = array("d")
    log_row = rows.fromlist
    status = STATUS_HORIZON
    conv_time = nan
    n_sat = 0
    max_u1 = 0.0
    max_u2 = 0.0
    for k in range(n_updates + 1):
        t = k * control_period
        v_val = c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3
        if (not sampling) or (k % upd_per_eps == 0):
            gx1 = d1 * x1
            gx2 = d2 * x2
            s = sin(x3)
            c = cos(x3)
            a1 = -gamma * (gx1 * c + gx2 * s)
            a2 = -gamma * (d3 * x3)
            a12 = -gamma * (gx1 * s - gx2 * c)
        osc = sqrt(omega * abs(a12))
        sign = 0.0
        if a12 > 0.0:
            sign = 1.0
        elif a12 < 0.0:
            sign = -1.0
        u1 = a1 + k1 * osc * sign * cos(omega * t)
        u2 = a2 + k2 * osc * sin(omega * t)
        sat = 0.0
        if do_clamp:
            if u1 > u1_max:
                u1 = u1_max
                sat = 1.0
            elif u1 < -u1_max:
                u1 = -u1_max
                sat = 1.0
            if u2 > u2_max:
                u2 = u2_max
                sat = 1.0
            elif u2 < -u2_max:
                u2 = -u2_max
                sat = 1.0
        # a finite state can still overflow in u/a/V; never log such a row
        if not (isfinite(x1) and isfinite(x2) and isfinite(x3)
                and isfinite(u1) and isfinite(u2)
                and isfinite(a12) and isfinite(v_val)):
            status = STATUS_NONFINITE
            break
        if sat != 0.0:
            n_sat += 1
        abs_u1 = abs(u1)
        if abs_u1 > max_u1:
            max_u1 = abs_u1
        abs_u2 = abs(u2)
        if abs_u2 > max_u2:
            max_u2 = abs_u2
        e1 = x1 - goal1
        e2 = x2 - goal2
        e3 = x3 - goal3
        at_goal = sqrt(e1 * e1 + e2 * e2 + e3 * e3) <= goal_tol
        if (k % log_every == 0) or at_goal or (k == n_updates):
            log_row([t, x1, x2, x3, u1, u2, a1, a2, a12, v_val, sat])
        if at_goal:
            status = STATUS_GOAL
            conv_time = t
            break
        if k == n_updates:
            break
        # exact flow of the hold
        half = 0.5 * u2 * control_period
        sinc = 1.0
        if half != 0.0:
            sinc = sin(half) / half
        chord = u1 * control_period * sinc
        heading = x3 + half
        x1 += chord * cos(heading)
        x2 += chord * sin(heading)
        x3 += u2 * control_period
        if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
            status = STATUS_NONFINITE
            break
    return rows, status, conv_time, n_sat, max_u1, max_u2
