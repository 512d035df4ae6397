"""Independent oracles that only the tests use.

Each computes a quantity of the package by another route, so a test can
compare the two. The first group are the model's formulas written one
state at a time, as the paper states them: the potential and its
gradient, the frame algebra of the unicycle, the feedback and its clamp,
the amplitude vector and the exact flow of one hold. The package computes
the same quantities only inside its closed loop, `_kernels._closed_loop`
and its C build in `_kernels.c` (the Python loop is in turn the bitwise
oracle of the C one), and in the admissibility quadrature's slab sums.
`integrand` is that quadrature's integrand in numpy, `integrand_rho`
reads it in the units of the residual, so a test can hold it against
`rho_bruteforce`, and `midpoint_j` is the former numpy quadrature.
`rk4_flow` integrates any field: `rk4_gradient_flow` is the reference
flow that `simulator.integrate_gradient_flow` evaluates in closed form,
`averaged_field` is the flow that the sampling loop tracks, and
`continuous_averaged_field` the one that the continuous loop tracks.
`gradient_flow_rows` is that closed form as numpy evaluates it, with its own
exp, and `deviation_sq` the squared tracking deviation by np.union1d and
np.interp: the former bodies of `integrate_gradient_flow` and
`tracking_deviation`. `least_squares_slope` is the exact slope that
`convergence_order` rounds.
`semi_analytic_j` computes the admissibility cost that
`admissibility_measure` sums by midpoint quadrature. `frame` is a
Trajectory's rows as the ndarray that these oracles take.
"""

import math
from fractions import Fraction

import numpy as np

from gradflow.controller import ControllerParams
from gradflow.kinematics import as_state
from gradflow.potential import Potential


def frame(traj) -> np.ndarray:
    """The rows of the Trajectory `traj` as a read-only (rows, 11) ndarray, with no copy."""
    return np.asarray(traj.data)


def _real_vector(x, n: int, what: str) -> np.ndarray:
    """`x` as a finite float64 vector of shape (n,); str and bool components raise."""
    if any(isinstance(v, (str, bytes, bool, np.bool_)) for v in np.asarray(x, dtype=object).flat):
        raise ValueError(f"{what} components must be numbers, not strings or bools: {x!r}")
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} components must be finite")
    return arr


def as_control(u) -> np.ndarray:
    """`u` as a finite float64 vector of shape (2,); str and bool components raise."""
    return _real_vector(u, 2, "control")


def potential_value(potential: Potential, x):
    """V(x) = c1*x1^2 + c2*x2^2 + c3*x3^2 over the last axis of `x`."""
    x = np.asarray(x, dtype=float)
    return np.sum(np.asarray(potential.coeffs) * x * x, axis=-1)


def potential_gradient(potential: Potential, x) -> np.ndarray:
    """grad V(x) = 2*c*x, broadcast over the leading axes of `x`."""
    return 2.0 * np.asarray(potential.coeffs) * np.asarray(x, dtype=float)


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
    n = -2.0 * np.asarray(potential.coeffs)
    return rk4_flow(lambda x: n * x, x0, n_steps, h)


def gradient_flow_rows(potential: Potential, x0, n_steps: int, h: float) -> np.ndarray:
    """The rows (t, x, 0, 0, 0, 0, 0, V, 0) of x_i(t) = x0_i * exp(-2*c_i*t) at
    t = k*h for k = 0..n_steps, in integrate_gradient_flow's operation order
    with numpy's exp, which may differ from libm's by an ulp."""
    t = np.arange(n_steps + 1) * h
    data = np.zeros((t.size, 11))
    data[:, 0] = t
    with np.errstate(over="ignore"):  # c*t past the float range decays to exp(-inf) = 0
        data[:, 1:4] = np.array(as_state(x0)) * np.exp(-2.0 * np.outer(t, potential.coeffs))
    c1, c2, c3 = potential.coeffs
    x1, x2, x3 = data[:, 1:4].T
    data[:, 9] = c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3
    return data


def deviation_sq(closed_loop, reference) -> float:
    """The largest squared state distance between two Trajectories on the
    union of their time grids up to the earlier end, each state interpolated
    by np.interp; ValueError where that union is empty."""
    a, b = frame(closed_loop), frame(reference)
    ta, tb = a[:, 0], b[:, 0]
    t_end = min(ta[-1], tb[-1])
    grid = np.union1d(ta[ta <= t_end], tb[tb <= t_end])
    if grid.size == 0:
        raise ValueError("trajectories do not overlap in time")
    diff_sq = np.zeros(grid.size)
    with np.errstate(all="ignore"):  # inf and NaN states go through, as on plain floats
        for j in range(1, 4):
            xa = np.interp(grid, ta, a[:, j])
            xb = np.interp(grid, tb, b[:, j])
            diff_sq += (xa - xb) ** 2
    return float(diff_sq.max())


def least_squares_slope(xs, ys) -> float:
    """The least-squares slope of ys against xs, in exact rational arithmetic
    on the floats given, rounded once."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return float(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))


def averaged_field(potential: Potential, gamma: float, x) -> np.ndarray:
    """-gamma * (grad V + (f3 . grad V) f3), with f3 = [f1, f2] = (sin x3, -cos x3, 0).

    The field the sampling loop averages to: a1 f1 + a2 f2 + 2 a12 f3 with
    a = -gamma F^T grad V, where F = (f1, f2, f3) is orthonormal.
    """
    g = potential_gradient(potential, x)
    f3 = lie_bracket(x)
    return -gamma * (g + (f3 @ g) * f3)


def continuous_averaged_field(potential: Potential, gamma: float, x) -> np.ndarray:
    """a2 f2 + 2 a12 f3 - gamma (c1 - c2) sin(2 x3) f2, where a12 != 0.

    The field the continuous loop averages to. There the amplitudes follow
    the state within a period, so the oscillating input fields
    b1 = k1 sqrt|a12| sgn(a12) f1 and b2 = k2 sqrt|a12| f2 are state
    dependent, and the drift is a1 f1 + a2 f2 + 1/2 [b1, b2], with the
    bracket [X, Y] = DY X - DX Y of `lie_bracket`. For b1 = alpha f1 and
    b2 = beta f2,

        [b1, b2] = alpha beta f3 + alpha (L_f1 beta) f2 - beta (L_f2 alpha) f1,

    and L sqrt|a12| = sgn(a12) (L a12) / (2 sqrt|a12|), which needs
    a12 != 0. With k1 k2 = 4 this is 4 a12 f3 + 2 (L_f1 a12) f2 -
    2 (L_f2 a12) f1. For a diagonal quadratic, L_f2 a12 = a1, so the a1 f1
    drift cancels and the field has no f1 component, and
    L_f1 a12 = -gamma (c1 - c2) sin(2 x3). Freezing the amplitudes over the
    period drops both Lie derivatives and leaves `averaged_field`.

    Along this field dV/dt = -gamma (g3^2 + 2 (f3 . g)^2 + (c1 - c2)
    sin(2 x3) g3) with g = grad V, which is <= 0 wherever c3 >= |c1 - c2|.
    """
    a2, a12 = amplitude_vector(potential, gamma, x)[1:]
    c1, c2, _ = potential.coeffs
    turn = a2 - gamma * (c1 - c2) * math.sin(2.0 * as_state(x)[2])
    return turn * vector_fields(x)[1] + 2.0 * a12 * lie_bracket(x)


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
    """rho(x, grad V)^q / |grad V|^q in numpy, the former vectorised integrand.

    grad V = (g1, g2, g3), with g1 and g2 broadcasting against each other,
    g3 a scalar and s, c = sin, cos x3."""
    plane = g1 * g1 + g2 * g2
    r = (g1 * s - g2 * c) / np.sqrt(plane + g3 * g3)  # the order of g1*g1 + g2*g2 + g3*g3
    return r * r if q == 2.0 else np.abs(r) ** q


def integrand_rho(x, p) -> float:
    """rho(x, p) as the quadrature's integrand computes it: `integrand` at q = 1, times |p|.

    rho(x, 0) = 0. The integrand is 0/0 there, a point the quadrature's grid
    never reaches, so a zero p is answered here."""
    x = as_state(x)
    p_norm = float(np.linalg.norm(p))
    if p_norm == 0.0:
        return 0.0
    g1, g2 = np.array([float(p[0])]), np.array([float(p[1])])
    vals = integrand(g1, g2, float(p[2]), math.sin(x[2]), math.cos(x[2]), 1.0)
    return float(vals[0]) * p_norm


def midpoint_slab(potential: Potential, q: float, grid_n: int, half_width: float,
                  k: int) -> float:
    """The integrand's sum over the x1 > 0 rows of the k-th x3 > 0 slab, in numpy.

    The centers (i + 0.5) * 2w/n and their negations, and the gradient
    scaled by 2^(1 - e_c - e_w), are the package's; the slab is one array of
    grid_n / 2 rows, summed by numpy's pairwise sum."""
    n, w = grid_n, half_width
    pos = (np.arange(n // 2) + 0.5) * (2.0 * w / n)
    xs = np.concatenate((-pos[::-1], pos))
    e = np.frexp(max(potential.coeffs))[1] + np.frexp(w)[1]
    d1, d2, d3 = np.ldexp(potential.coeffs, 1 - e)
    x3 = pos[k]
    vals = integrand((d1 * pos)[:, None], (d2 * xs)[None, :], d3 * x3, math.sin(x3),
                     math.cos(x3), q)
    return float(vals.sum())


def slab_sum_unfolded(d, nodes, weights, x3: float, q: float) -> float:
    """One x3 slab of `slab_sum`, unfolded and point by point, in numpy.

    x1 runs over the m nodes and x2 over all 2m mirrored nodes, -nodes[m-1],
    ..., nodes[m-1], each with its own weight. Each point's w_i * w_j * f,
    f the former `integrand` of the gradient (d1*x1, d2*x2, d3*x3), is
    computed on its own, with no pairs and no lanes, and math.fsum adds
    them, correctly rounded."""
    x1 = np.asarray(nodes, dtype=float)
    w1 = np.asarray(weights, dtype=float)
    x2 = np.concatenate((-x1[::-1], x1))
    w2 = np.concatenate((w1[::-1], w1))
    vals = integrand((d[0] * x1)[:, None], (d[1] * x2)[None, :], d[2] * x3, math.sin(x3),
                     math.cos(x3), q)
    return math.fsum((w1[:, None] * w2[None, :] * vals).ravel().tolist())


def midpoint_j(potential: Potential, q: float, grid_n: int, half_width: float) -> float:
    """J by the former numpy midpoint quadrature: the slab sums of
    `midpoint_slab` in slab order, times 4 / grid_n^3 for the quarter grid.

    Up to grid_n 724, where the former quadrature's rows were one block,
    this is its J bit for bit."""
    total = 0.0
    for k in range(grid_n // 2):
        total += midpoint_slab(potential, q, grid_n, half_width, k)
    return 4.0 * total / grid_n ** 3


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
