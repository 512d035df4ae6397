"""The closed-loop and gradient-flow loops, one each for every potential.

Both loops are written once as plain scalar Python and read the potential
through a scalar callback vg(params, x1, x2, x3) -> (V, dV/dx1, dV/dx2,
dV/dx3). Diagonal quadratics pass their coefficients and `quadratic_vg`;
any other potential passes a wrapper around its Python callables. Each
loop appends the rows it logs, one simulator.TRAJECTORY_COLUMNS row at a
time, to an array('d') of its own and returns it, so a run's memory follows
the rows it logs and not its horizon. The admissibility quadrature is numpy
and lives in `gradflow.admissibility`.
"""

import math
from array import array

# status codes returned by the loop kernels
STATUS_HORIZON = 0
STATUS_GOAL = 1
STATUS_NONFINITE = 2


def backend() -> str:
    """Name of the one numeric build, read by clibench's provenance probe."""
    return "numpy"


# ---------------------------------------------------------------------------
# closed-loop and gradient-flow integration, any potential
# ---------------------------------------------------------------------------

def quadratic_vg(params, x1, x2, x3):
    """V and grad V of the diagonal quadratic with coefficients `params`."""
    c1 = params[0]
    c2 = params[1]
    c3 = params[2]
    return (c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3,
            2.0 * c1 * x1, 2.0 * c2 * x2, 2.0 * c3 * x3)


def hold_step(x1, x2, x3, u1, u2, T):
    """Exact unicycle flow over a hold of length T with (u1, u2) constant.

    x3 turns at the constant rate u2, so the planar motion is a circular
    arc whose chord is u1*T*sinc(u2*T/2) along the mid-hold heading.
    """
    half = 0.5 * u2 * T
    sinc = 1.0
    if half != 0.0:
        sinc = math.sin(half) / half
    chord = u1 * T * sinc
    return (x1 + chord * math.cos(x3 + half),
            x2 + chord * math.sin(x3 + half),
            x3 + u2 * T)


def closed_loop(vg, params, x0, gamma, k1, k2, omega, control_period,
                 n_updates, upd_per_eps, sampling, do_clamp, u1_max, u2_max,
                 goal, goal_tol, log_every):
    """Closed-loop run, logging rows of (t, x, u, a, V, saturated).

    Returns (rows, status, convergence_time, saturated_updates, max_abs_u1,
    max_abs_u2): rows is a flat array('d') of the logged rows, row after
    row, and the last three cover every control update that was evaluated,
    logged or not. The control is held constant over each control period
    and the state follows the exact flow of the hold. Amplitudes refresh
    every update in continuous mode and only at multiples of upd_per_eps in
    sampling mode. Goal detection runs at update instants on the full-state
    distance.
    """
    x1 = x0[0]
    x2 = x0[1]
    x3 = x0[2]
    goal1 = goal[0]
    goal2 = goal[1]
    goal3 = goal[2]
    a1 = 0.0
    a2 = 0.0
    a12 = 0.0
    rows = array("d")
    log_row = rows.fromlist
    status = STATUS_HORIZON
    conv_time = math.nan
    n_sat = 0
    max_u1 = 0.0
    max_u2 = 0.0
    for k in range(n_updates + 1):
        t = k * control_period
        v_val, gx1, gx2, gx3 = vg(params, x1, x2, x3)
        if (not sampling) or (k % upd_per_eps == 0):
            s = math.sin(x3)
            c = math.cos(x3)
            a1 = -gamma * (gx1 * c + gx2 * s)
            a2 = -gamma * gx3
            a12 = -gamma * (gx1 * s - gx2 * c)
        osc = math.sqrt(omega * abs(a12))
        sign = 0.0
        if a12 > 0.0:
            sign = 1.0
        elif a12 < 0.0:
            sign = -1.0
        u1 = a1 + k1 * osc * sign * math.cos(omega * t)
        u2 = a2 + k2 * osc * math.sin(omega * t)
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
        if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)
                and math.isfinite(u1) and math.isfinite(u2)
                and math.isfinite(a12) and math.isfinite(v_val)):
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
        d1 = x1 - goal1
        d2 = x2 - goal2
        d3 = x3 - goal3
        at_goal = math.sqrt(d1 * d1 + d2 * d2 + d3 * d3) <= goal_tol
        if (k % log_every == 0) or at_goal or (k == n_updates):
            log_row([t, x1, x2, x3, u1, u2, a1, a2, a12, v_val, sat])
        if at_goal:
            status = STATUS_GOAL
            conv_time = t
            break
        if k == n_updates:
            break
        x1, x2, x3 = hold_step(x1, x2, x3, u1, u2, control_period)
        if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)):
            status = STATUS_NONFINITE
            break
    return rows, status, conv_time, n_sat, max_u1, max_u2


def gradient_flow(vg, params, x0, h, n_steps, log_every):
    """RK4 on xdot = -grad V; control/amplitude columns stay zero.

    Returns (rows, status), rows being a flat array('d') of the logged rows.
    """
    x1 = x0[0]
    x2 = x0[1]
    x3 = x0[2]
    rows = array("d")
    log_row = rows.fromlist
    status = STATUS_HORIZON
    for k in range(n_steps + 1):
        v_val, g1, g2, g3 = vg(params, x1, x2, x3)
        if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)
                and math.isfinite(v_val)):
            status = STATUS_NONFINITE
            break
        if (k % log_every == 0) or (k == n_steps):
            log_row([k * h, x1, x2, x3, 0.0, 0.0, 0.0, 0.0, 0.0, v_val, 0.0])
        if k == n_steps:
            break
        # RK4 stages p, q, r and -g of xdot = -grad V
        p1 = -g1
        p2 = -g2
        p3 = -g3
        _, g1, g2, g3 = vg(params, x1 + 0.5 * h * p1, x2 + 0.5 * h * p2,
                           x3 + 0.5 * h * p3)
        q1 = -g1
        q2 = -g2
        q3 = -g3
        _, g1, g2, g3 = vg(params, x1 + 0.5 * h * q1, x2 + 0.5 * h * q2,
                           x3 + 0.5 * h * q3)
        r1 = -g1
        r2 = -g2
        r3 = -g3
        _, g1, g2, g3 = vg(params, x1 + h * r1, x2 + h * r2, x3 + h * r3)
        x1 += h * (p1 + 2.0 * q1 + 2.0 * r1 - g1) / 6.0
        x2 += h * (p2 + 2.0 * q2 + 2.0 * r2 - g2) / 6.0
        x3 += h * (p3 + 2.0 * q3 + 2.0 * r3 - g3) / 6.0
    return rows, status
