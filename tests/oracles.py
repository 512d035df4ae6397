"""Independent oracles that only the tests use.

Each computes a quantity of the package by another route, so a test can
compare the two. The first group are the model's formulas written one
state at a time, as the paper states them: the potential and its
gradient, the frame algebra of the unicycle, the feedback and its clamp,
the amplitude vector and the exact flow of one hold. The package computes
the same quantities only inside its two closed-loop kernels,
`_kernels.closed_loop` and `_kernels.sampling_loop` (the scalar loop is in
turn the bitwise oracle of the numpy one), and in
`admissibility._integrand`; `integrand` calls the latter with buffers of
its own, and `integrand_rho` reads it in the units of the residual, so a
test can hold it against `rho_bruteforce`.
`rk4_flow` integrates any field: `rk4_gradient_flow` is the reference
flow that `simulator.integrate_gradient_flow` evaluates in closed form,
and `averaged_field` is the flow that the sampling loop tracks.
`semi_analytic_j` computes the admissibility cost that
`admissibility_measure` sums by midpoint quadrature.
"""

import math

import numpy as np

from gradflow import admissibility
from gradflow.controller import ControllerParams
from gradflow.kinematics import _real_vector, as_state
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


def clamp(u, p: ControllerParams) -> tuple[np.ndarray, bool]:
    """Componentwise clamp of u to p's [-u1_max, u1_max] x [-u2_max, u2_max].

    Returns the (possibly) clamped control and a flag that is True iff any
    component changed. Values exactly on the boundary pass unchanged.
    """
    u = as_control(u)
    out = np.array([
        min(max(u[0], -p.u1_max), p.u1_max),
        min(max(u[1], -p.u2_max), p.u2_max),
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
    return clamp(u, p)


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


def rk4_flow(field, x0, n_steps: int, h: float) -> np.ndarray:
    """Classical RK4 with step h on xdot = field(x), x a float64 vector of shape (3,).

    Returns the rows (t, x1, x2, x3) at t = k*h for k = 0..n_steps.
    """
    x = as_state(x0)
    rows = np.empty((n_steps + 1, 4))
    for k in range(n_steps + 1):
        rows[k, 0] = k * h
        rows[k, 1:] = x
        if k == n_steps:
            break
        p = field(x)
        q = field(x + 0.5 * h * p)
        r = field(x + 0.5 * h * q)
        s = field(x + h * r)
        x = x + h * (p + 2.0 * q + 2.0 * r + s) / 6.0
    return rows


def rk4_gradient_flow(potential: Potential, x0, n_steps: int, h: float) -> np.ndarray:
    """rk4_flow on xdot = -grad V: the grid integrate_gradient_flow logs."""
    n = -2.0 * potential.coeffs
    return rk4_flow(lambda x: n * x, x0, n_steps, h)


def averaged_field(potential: Potential, gamma: float, x) -> np.ndarray:
    """-gamma * (grad V + (f3 . grad V) f3), with f3 = [f1, f2] = (sin x3, -cos x3, 0).

    The field the sampling loop averages to: a1 f1 + a2 f2 + 2 a12 f3 with
    a = -gamma F^T grad V, where F = (f1, f2, f3) is orthonormal.
    """
    g = potential_gradient(potential, x)
    f3 = lie_bracket(x)
    return -gamma * (g + (f3 @ g) * f3)


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


def integrand(g1, g2, g3, s, c, q):
    """`admissibility._integrand` with its buffers allocated: the values.

    g1 and g2 broadcast against each other, and g3 is a scalar."""
    plane = g1 * g1 + g2 * g2
    gn, r = np.empty((2, *plane.shape))
    admissibility._integrand(g1, g2, g3, s, c, q, plane, gn, r)
    return r


def integrand_rho(x, p) -> float:
    """rho(x, p) as the quadrature computes it: `_integrand` at q = 1, times |p|.

    rho(x, 0) = 0. The integrand is 0/0 there, a point the quadrature's grid
    never reaches, so a zero p is answered here."""
    x = as_state(x)
    p_norm = float(np.linalg.norm(p))
    if p_norm == 0.0:
        return 0.0
    g1, g2 = np.array([float(p[0])]), np.array([float(p[1])])
    vals = integrand(g1, g2, float(p[2]), math.sin(x[2]), math.cos(x[2]), 1.0)
    return float(vals[0]) * p_norm


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
