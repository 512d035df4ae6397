"""Independent oracles that only the tests use.

Each computes a quantity of the package by another route, so a test can
compare the two. The first group are the model's formulas written one
state at a time, as the paper states them: the potential and its
gradient, the frame algebra of the unicycle, the feedback and its clamp,
the amplitude vector and the exact flow of one hold. The package computes
the same quantities only inside `_kernels.closed_loop` and
`admissibility._integrand`; `integrand_rho` reads the latter in the units
of the residual, so a test can hold it against `rho_bruteforce`.
`rk4_gradient_flow` integrates the reference flow that
`simulator.integrate_gradient_flow` evaluates in closed form, and
`semi_analytic_j` computes the admissibility cost that
`admissibility_measure` sums by midpoint quadrature.
"""

import math

import numpy as np

from gradflow import admissibility
from gradflow.controller import ControllerParams
from gradflow.kinematics import VelocityBounds, _real_vector, as_state
from gradflow.potential import Potential


def as_control(u) -> np.ndarray:
    """`u` as a finite float64 vector of shape (2,); str and bool components raise."""
    return _real_vector(u, 2, "control")


def potential_value(potential: Potential, x):
    """V(x) = c1*x1^2 + c2*x2^2 + c3*x3^2 over the last axis of `x`."""
    x = np.asarray(x, dtype=float)
    return np.sum(potential.coeffs * x * x, axis=-1)


def potential_gradient(potential: Potential, x) -> np.ndarray:
    """grad V(x) = 2*c*x, broadcast over the leading axes of `x`."""
    return 2.0 * potential.coeffs * np.asarray(x, dtype=float)


def vector_fields(x) -> tuple[np.ndarray, np.ndarray]:
    """Driving vector fields of the unicycle at state `x`.

    Returns
    -------
    f1 : ndarray, shape (3,)
        Heading direction (cos x3, sin x3, 0); unit norm.
    f2 : ndarray, shape (3,)
        Turning direction (0, 0, 1); unit norm, orthogonal to f1.
    """
    x = as_state(x)
    f1 = np.array([math.cos(x[2]), math.sin(x[2]), 0.0])
    f2 = np.array([0.0, 0.0, 1.0])
    return f1, f2


def lie_bracket(x) -> np.ndarray:
    """Commutator [f1, f2] at state `x`: the sideways direction.

    Closed form (sin x3, -cos x3, 0); reachable only by maneuvering, which
    is what makes the unicycle nonholonomic.
    """
    x = as_state(x)
    return np.array([math.sin(x[2]), -math.cos(x[2]), 0.0])


def frame_matrix(x) -> np.ndarray:
    """Frame F(x) with columns (f1, f2, [f1, f2]); nonsingular for all x."""
    x = as_state(x)
    s, c = math.sin(x[2]), math.cos(x[2])
    return np.array([
        [c, 0.0, s],
        [s, 0.0, -c],
        [0.0, 1.0, 0.0],
    ])


def frame_inverse(x) -> np.ndarray:
    """Closed-form inverse of frame_matrix(x)."""
    x = as_state(x)
    s, c = math.sin(x[2]), math.cos(x[2])
    return np.array([
        [c, s, 0.0],
        [0.0, 0.0, 1.0],
        [s, -c, 0.0],
    ])


def clamp(u, bounds: VelocityBounds) -> tuple[np.ndarray, bool]:
    """Componentwise clamp of u to [-u1_max, u1_max] x [-u2_max, u2_max].

    Returns the (possibly) clamped control and a flag that is True iff any
    component changed. Values exactly on the boundary pass unchanged.
    """
    u = as_control(u)
    out = np.array([
        min(max(u[0], -bounds.u1_max), bounds.u1_max),
        min(max(u[1], -bounds.u2_max), bounds.u2_max),
    ])
    return out, bool(out[0] != u[0] or out[1] != u[1])


def control_value(p: ControllerParams, a, t: float) -> tuple[np.ndarray, bool]:
    """Evaluate the feedback at amplitudes `a` = (a1, a2, a12) and time `t`.

    Each component is saturated to the controller's bounds after
    evaluation, and the flag records whether saturation occurred. The ideal
    bounds are infinite, so there the formula applies verbatim and the flag
    is always False. sign(0) is taken as 0 (the sqrt factor vanishes there
    anyway).
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"amplitude vector must have shape (3,), got {a.shape}")
    omega = p.omega
    osc = math.sqrt(omega * abs(a[2]))
    sign = 0.0 if a[2] == 0.0 else math.copysign(1.0, a[2])
    u = np.array([
        a[0] + p.k1 * osc * sign * math.cos(omega * t),
        a[1] + p.k2 * osc * math.sin(omega * t),
    ])
    return clamp(u, p.bounds)


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


def rk4_gradient_flow(potential: Potential, x0, n_steps: int, h: float,
                      log_every: int = 1) -> np.ndarray:
    """Classical RK4 with step h on xdot = -grad V, one state at a time.

    Returns the rows (t, x1, x2, x3) at t = k*h for every step k that is a
    multiple of log_every and for the last step n_steps, the grid
    integrate_gradient_flow logs.
    """
    x1, x2, x3 = (float(v) for v in as_state(x0))
    # -grad V = (n1*x1, n2*x2, n3*x3)
    n1, n2, n3 = (-2.0 * float(c) for c in potential.coeffs)
    rows = []
    for k in range(n_steps + 1):
        if (k % log_every == 0) or (k == n_steps):
            rows.append((k * h, x1, x2, x3))
        if k == n_steps:
            break
        # RK4 stages p, q, r, s
        p1 = n1 * x1
        p2 = n2 * x2
        p3 = n3 * x3
        q1 = n1 * (x1 + 0.5 * h * p1)
        q2 = n2 * (x2 + 0.5 * h * p2)
        q3 = n3 * (x3 + 0.5 * h * p3)
        r1 = n1 * (x1 + 0.5 * h * q1)
        r2 = n2 * (x2 + 0.5 * h * q2)
        r3 = n3 * (x3 + 0.5 * h * q3)
        s1 = n1 * (x1 + h * r1)
        s2 = n2 * (x2 + h * r2)
        s3 = n3 * (x3 + h * r3)
        x1 += h * (p1 + 2.0 * q1 + 2.0 * r1 + s1) / 6.0
        x2 += h * (p2 + 2.0 * q2 + 2.0 * r2 + s2) / 6.0
        x3 += h * (p3 + 2.0 * q3 + 2.0 * r3 + s3) / 6.0
    return np.array(rows)


def amplitude_vector(potential: Potential, gamma: float, x) -> np.ndarray:
    """Control amplitudes (a1, a2, a12) at state `x`, explicit form.

    a1  = -gamma * (dV/dx1 * cos x3 + dV/dx2 * sin x3)
    a2  = -gamma * dV/dx3
    a12 = -gamma * (dV/dx1 * sin x3 - dV/dx2 * cos x3)

    a1 and a2 are the drift components along the driving fields; a12 sets
    the strength of the oscillatory excitation of the bracket direction.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x = as_state(x)
    g = potential_gradient(potential, x)
    s, c = math.sin(x[2]), math.cos(x[2])
    return np.array([
        -gamma * (g[0] * c + g[1] * s),
        -gamma * g[2],
        -gamma * (g[0] * s - g[1] * c),
    ])


def integrand_rho(x, p) -> float:
    """rho(x, p) as the quadrature computes it: `_integrand` at q = 1, times |p|.
    A zero p is excluded by the integrand, giving 0."""
    x = as_state(x)
    g1, g2, g3 = (np.array([float(v)]) for v in p)
    vals, _ = admissibility._integrand(g1, g2, g3, math.sin(x[2]), math.cos(x[2]), 1.0)
    return float(vals[0]) * float(np.linalg.norm(p))


def rho_bruteforce(x, p, coarse_range: float | None = None,
                   refine_iters: int = 4, grid_points: int = 51) -> float:
    """Independent oracle: minimize |u1*f1(x) + u2*f2(x) + p| over u by search.

    Nested grid search: a grid_points^2 grid over the square of half-width
    coarse_range, re-centered on the best point and shrunk 10x for each of
    refine_iters refinements. coarse_range must be at least |p| so the
    square contains the unconstrained minimizer; by default it is
    max(1, |p|).
    """
    x = as_state(x)
    p = np.asarray(p, dtype=float)
    p_norm = float(np.linalg.norm(p))
    if coarse_range is None:
        coarse_range = max(1.0, p_norm)
    elif coarse_range < p_norm:
        raise ValueError(
            f"coarse_range={coarse_range} must cover |p|={p_norm} so the "
            f"minimizer lies inside the search box"
        )
    f1, f2 = vector_fields(x)
    c1 = c2 = 0.0
    half = float(coarse_range)
    best = math.inf
    for _ in range(refine_iters + 1):
        g1 = np.linspace(c1 - half, c1 + half, grid_points)
        g2 = np.linspace(c2 - half, c2 + half, grid_points)
        u1 = np.repeat(g1, grid_points)
        u2 = np.tile(g2, grid_points)
        res = (np.outer(u1, f1) + np.outer(u2, f2)) + p
        norms = np.sqrt(np.einsum("ij,ij->i", res, res))
        i = int(np.argmin(norms))
        best = min(best, float(norms[i]))
        c1, c2 = float(u1[i]), float(u2[i])  # re-center, then shrink 10x
        half /= 10.0
    return best


def amplitude_vector_matrix(potential: Potential, gamma: float, x) -> np.ndarray:
    """Same amplitudes via the matrix route -gamma * F^{-1}(x) @ grad V(x).

    An independent code path to amplitude_vector above; the two must
    agree to rounding.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x = as_state(x)
    g = potential_gradient(potential, x)
    return -gamma * (frame_inverse(x) @ g)


def semi_analytic_j(coeffs, half_width: float = 1.0, nodes: int = 100) -> float:
    """J for q = 2 of the diagonal quadratic `coeffs` on the cube [-w, w]^3.

    Along x1 the integrand is (a*x1 - b)^2 / (p*x1^2 + r) with
    a = 2*c1*sin x3, b = 2*c2*x2*cos x3, p = 4*c1^2 and
    r = 4*c2^2*x2^2 + 4*c3^2*x3^2. Its integral over [-w, w] is
    2*w*a^2/p + 2*(b^2 - a^2*r/p) * arctan(w*sqrt(p/r)) / sqrt(p*r); the
    odd term, which would give a log, cancels on the symmetric interval.
    What is left is smooth in (x2, x3) but for the kink of sqrt(r) at 0, so
    Gauss-Legendre with `nodes` nodes covers each half-axis [-w, 0] and
    [0, w]. Its nodes are interior, so r > 0 wherever it is evaluated.
    """
    c1, c2, c3 = (float(c) for c in coeffs)
    w = float(half_width)
    t, weights = np.polynomial.legendre.leggauss(nodes)
    x = np.concatenate([(t - 1.0) * w / 2.0, (t + 1.0) * w / 2.0])
    wx = np.concatenate([weights, weights]) * w / 2.0
    x2, x3 = x[:, None], x[None, :]
    a = 2.0 * c1 * np.sin(x3)
    b = 2.0 * c2 * x2 * np.cos(x3)
    p = 4.0 * c1 * c1
    r = 4.0 * c2 * c2 * x2 * x2 + 4.0 * c3 * c3 * x3 * x3
    inner = (2.0 * w * a * a / p
             + 2.0 * (b * b - a * a * r / p) * np.arctan(w * np.sqrt(p / r)) / np.sqrt(p * r))
    return float(wx @ inner @ wx) / (2.0 * w) ** 3
