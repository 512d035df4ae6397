"""The closed-loop simulation: one scalar loop, and its sampling-mode twin in numpy.

`closed_loop` is plain scalar Python, one control update at a time. The
potential is the diagonal quadratic V = c1*x1^2 + c2*x2^2 + c3*x3^2,
passed as its three coefficients, and the loop evaluates V and grad V =
(2*c1*x1, 2*c2*x2, 2*c3*x3) inline. `sampling_loop` takes the same
arguments and returns the same bits: while the amplitudes are frozen it
runs a window's updates as numpy arrays. `simulator.simulate` sends a run
to it when its windows are at least SAMPLING_MIN_WINDOW updates long, and
every other run, continuous mode included, to `closed_loop`, which is also
the window kernel's bitwise oracle.

Both return (rows, status, saturated_updates, max_abs_u1, max_abs_u2).
rows is an array('d') of their own holding the logged rows, row after row,
in simulator.TRAJECTORY_COLUMNS order, so a run's memory follows the rows
it logs and not its horizon. status is STATUS_HORIZON, STATUS_GOAL or
STATUS_NONFINITE; a goal row is always logged and always last, so its t is
the convergence time. The three counters cover every update that met the row
rule, logged or not.

The row rule: an update's row is logged, or counted, only if V, u1, u2, a1,
a2 and a12 are all finite, and the first update that breaks it ends the run
with STATUS_NONFINITE. V stands for the state: with every c_i > 0, c*x*x is
inf or nan wherever x is. a1 and a2 are tested in their own right, since a
clamp turns an infinite amplitude into a finite control.

The gradient flow of such a V has a closed form, which
`simulator.integrate_gradient_flow` evaluates in numpy; the admissibility
quadrature is numpy too and lives in `gradflow.admissibility`.
"""

from array import array
from math import copysign, cos, isfinite, sin, sqrt

import numpy as np

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
                n_updates, refresh_every, u1_max, u2_max, goal_tol, log_every):
    """Closed-loop run, logging rows of (t, x, u, a, V, saturated).

    Returns the five fields, and logs under the row rule, that the module
    docstring states. The control is held constant over each control period
    and the state follows the exact flow of the hold: x3 turns at the
    constant rate u2, so the planar motion is a circular arc whose chord is
    u1*T*sinc(u2*T/2) along the mid-hold heading. The amplitudes refresh
    at every multiple of refresh_every updates: 1 in continuous mode, the
    updates per epsilon in sampling mode. Each control component is clamped
    to [-u_max, u_max]; an infinite u_max (the ideal bounds) never clamps.
    The goal is the origin, the minimiser of V: the run stops at the first
    update whose full-state distance to it is at most goal_tol.

    simulate runs continuous mode and sampling windows shorter than
    SAMPLING_MIN_WINDOW updates here, and longer windows in sampling_loop,
    which the tests hold to this loop bit for bit.
    """
    x1 = x0[0]
    x2 = x0[1]
    x3 = x0[2]
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
    n_sat = 0
    max_u1 = 0.0
    max_u2 = 0.0
    try:
        for k in range(n_updates + 1):
            t = k * control_period
            v_val = c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3
            if k % refresh_every == 0:
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
            abs_u1 = abs(u1)
            if abs_u1 > u1_max:
                u1 = copysign(u1_max, u1)
                abs_u1 = u1_max
                sat = 1.0
            abs_u2 = abs(u2)
            if abs_u2 > u2_max:
                u2 = copysign(u2_max, u2)
                abs_u2 = u2_max
                sat = 1.0
            # the row rule
            if not (isfinite(v_val) and isfinite(u1) and isfinite(u2)
                    and isfinite(a1) and isfinite(a2) and isfinite(a12)):
                status = STATUS_NONFINITE
                break
            if sat != 0.0:
                n_sat += 1
            if abs_u1 > max_u1:
                max_u1 = abs_u1
            if abs_u2 > max_u2:
                max_u2 = abs_u2
            at_goal = sqrt(x1 * x1 + x2 * x2 + x3 * x3) <= goal_tol
            if (k % log_every == 0) or at_goal or (k == n_updates):
                log_row([t, x1, x2, x3, u1, u2, a1, a2, a12, v_val, sat])
            if at_goal:
                status = STATUS_GOAL
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
    except ValueError:
        # sin and cos raise on an infinite angle: an x3 that a hold overflowed,
        # or a hold's half-angle or heading
        status = STATUS_NONFINITE
    return rows, status, n_sat, max_u1, max_u2


# ---------------------------------------------------------------------------
# sampling mode, one frozen-amplitude window at a time
# ---------------------------------------------------------------------------

# updates per numpy block of sampling_loop. A block's arrays peak at about
# 145 bytes per update, 88 of them its rows: at 1,024 that is 3 % of the
# rows a P1 sampling run logs
WINDOW_BLOCK = 1024
# the shortest window, in updates, that simulate runs in sampling_loop: on
# 2 vCPUs the two loops broke even near 40 updates, and at 48 the window
# kernel took 0.85 of the scalar loop's time
SAMPLING_MIN_WINDOW = 48


def sampling_loop(c1, c2, c3, x0, gamma, k1, k2, omega, control_period,
                  n_updates, refresh_every, u1_max, u2_max, goal_tol, log_every):
    """closed_loop's run, bit for bit, with each window's updates in numpy.

    Takes closed_loop's arguments and returns its value. While the
    amplitudes are frozen, u1 and u2 depend on t alone, so the updates of
    a window, at most WINDOW_BLOCK at a time, are array expressions: the
    controls with their clamp, the chord of each hold, and the state as the
    running sum of the holds, which np.add.accumulate adds in the loop's
    order. The amplitudes are computed at each window start with
    closed_loop's scalar math. The first update that breaks the row rule
    (module docstring) or reaches the goal cuts a block short, and the state
    after a block's last hold is checked before the next block refreshes
    its amplitudes from it.
    """
    x1, x2, x3 = x0
    d1 = 2.0 * c1
    d2 = 2.0 * c2
    d3 = 2.0 * c3
    T = control_period
    rows = array("d")
    status = STATUS_HORIZON
    n_sat = 0
    max_u1 = 0.0
    max_u2 = 0.0
    # row j of a block is update lo + j, with closed_loop's columns; the row
    # after the block's last is the state after its last hold
    buf = np.empty((min(WINDOW_BLOCK, refresh_every, n_updates + 1) + 1, 11))
    lo = 0
    with np.errstate(all="ignore"):
        while True:
            if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
                status = STATUS_NONFINITE
                break
            if lo % refresh_every == 0:
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
                p1 = k1 * osc * sign
                p2 = k2 * osc
            hi = min(lo + WINDOW_BLOCK, lo - lo % refresh_every + refresh_every,
                     n_updates + 1)
            m = hi - lo
            t, u1, u2, v = buf[:m, 0], buf[:m, 4], buf[:m, 5], buf[:m, 9]
            xs1, xs2, xs3 = buf[:m + 1, 1], buf[:m + 1, 2], buf[:m + 1, 3]
            buf[:m, 6] = a1
            buf[:m, 7] = a2
            buf[:m, 8] = a12
            k = np.arange(lo, hi)
            np.multiply(k, T, out=t)
            phase = omega * t
            # a + p*cos(omega*t), p*cos first as in closed_loop
            np.multiply(np.cos(phase), p1, out=u1)
            u1 += a1
            np.multiply(np.sin(phase), p2, out=u2)
            u2 += a2
            del phase
            sat = (np.abs(u1) > u1_max) | (np.abs(u2) > u2_max)
            buf[:m, 10] = sat
            # |u| > u_max becomes copysign(u_max, u)
            np.clip(u1, -u1_max, u1_max, out=u1)
            np.clip(u2, -u2_max, u2_max, out=u2)
            # the exact flow of each hold: x3 turns by u2*T, and the plane
            # moves by the chord u1*T*sinc(half) along the heading x3 + half.
            # Rows 1..m of the state columns take the holds' increments, and
            # then their running sums
            half = 0.5 * u2 * T
            sinc = np.sin(half) / half
            sinc[half == 0.0] = 1.0
            chord = u1 * T * sinc
            xs3[0] = x3
            np.multiply(u2, T, out=xs3[1:])
            np.add.accumulate(xs3, out=xs3)
            heading = xs3[:m] + half
            xs1[0] = x1
            np.multiply(chord, np.cos(heading), out=xs1[1:])
            np.add.accumulate(xs1, out=xs1)
            xs2[0] = x2
            np.multiply(chord, np.sin(heading), out=xs2[1:])
            np.add.accumulate(xs2, out=xs2)
            del half, sinc, chord, heading  # keep a block's memory near its rows'
            x1s, x2s, x3s = xs1[:m], xs2[:m], xs3[:m]
            v[:] = c1 * x1s * x1s + c2 * x2s * x2s + c3 * x3s * x3s
            # the row rule, with the window's amplitudes tested once
            finite = np.isfinite(v) & np.isfinite(u1) & np.isfinite(u2)
            if not (isfinite(a1) and isfinite(a2) and isfinite(a12)):
                finite[:] = False
            at_goal = np.sqrt(x1s * x1s + x2s * x2s + x3s * x3s) <= goal_tol
            n = m
            stop = int(np.argmax(~finite | at_goal))
            if not finite[stop]:
                status = STATUS_NONFINITE
                n = stop
            elif at_goal[stop]:
                status = STATUS_GOAL
                n = stop + 1
            if n:
                n_sat += int(np.count_nonzero(sat[:n]))
                max_u1 = max(max_u1, float(np.abs(u1[:n]).max()))
                max_u2 = max(max_u2, float(np.abs(u2[:n]).max()))
                log = (k[:n] % log_every == 0) | at_goal[:n] | (k[:n] == n_updates)
                block = buf[:n] if log.all() else buf[:n][log]
                rows.frombytes(block.view(np.uint8))
            if status != STATUS_HORIZON or hi > n_updates:
                break
            x1 = float(xs1[m])
            x2 = float(xs2[m])
            x3 = float(xs3[m])
            lo = hi
    return rows, status, n_sat, max_u1, max_u2
