"""Admissibility measure of a gradient flow for the unicycle.

For a potential V on a box X the cost is the normalized integral

    J_X[V] = (1/mu(X)) * integral over X of rho(x, grad V(x))^q / |grad V(x)|^q

where rho(x, p) is the distance from -p to span{f1(x), f2(x)}, i.e. the
part of the requested gradient direction the unicycle cannot realize
instantaneously. With controls unrestricted (U = R^2) the infimum has the
closed form rho(x, p) = |p1*sin x3 - p2*cos x3|. `_integrand` evaluates
it, and the test suite checks it against a brute-force minimizer over u.
The integral is one deterministic rule: the midpoint rule on a tensor grid
of grid_n cells per axis.

The grid's centers are built exactly antisymmetric, so negating a center
rounds nothing. With grad V = 2*c*x, the integrand |g1 sin x3 - g2 cos x3|
/ |g| then keeps every bit under (x1, x2, x3) -> (-x1, -x2, x3), which
negates the numerator, and under (-x1, x2, -x3), which leaves it as it is.
The quadrature sums the quarter x1 > 0, x3 > 0 of the grid and counts it
four times. The grid is evaluated in blocks of rows, each block on every
slab, into three buffers that every block reuses: g1^2 + g2^2, computed
once per block, |grad V| and the values.

X is the centred cube [-w, w]^3. J is zero iff the gradient flow is
realizable everywhere; for q = 2 the integrand lies in [0, 1], hence J in
[0, 1]. Multiplying V by a positive constant leaves J unchanged, and the
quadrature keeps that in floating point: it evaluates grad V times a power
of two chosen from the largest coefficient and w, which rounds nothing and
brings every gradient component on the cube below 2, so |grad V|^2 cannot
overflow and a tiny V is not lost to underflow. Multiplying V by a power of
two leaves every bit of J unchanged.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from gradflow.kinematics import check_scalar
from gradflow.potential import Potential, make_quadratic

# midpoint evaluates its grid in row blocks of at most this many points per slab
BLOCK_POINTS = 1 << 18

# Coefficient triples (c1, c2, c3) of the published quadratic-form sweep,
# in presentation order.
TABLE1_COEFFS = (
    (1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0),
    (0.5, 1.0, 1.0),
    (1.0, 2.0, 1.0),
    (1.0, 0.5, 1.0),
    (1.0, 1.0, 2.0),
    (1.0, 1.0, 0.5),
)

SWEEP_CSV_HEADER = "c1,c2,c3,q,method,points,J,stderr,excluded"


@dataclass(frozen=True)
class AdmissibilityConfig:
    """Quadrature settings for the admissibility integral over [-w, w]^3.

    half_width is w. grid_n is the midpoint cell count per axis and must be
    even so cell centers avoid the origin, where grad V vanishes.
    """

    q: float = 2.0
    grid_n: int = 200
    half_width: float = 1.0

    def __post_init__(self):
        for name in ("q", "half_width"):
            check_scalar(getattr(self, name), name)
        check_scalar(self.grid_n, "grid_n", integer=True)
        if not (self.q > 0 and math.isfinite(self.q)):
            raise ValueError(f"exponent q must be positive and finite, got {self.q}")
        if not (self.grid_n >= 2 and self.grid_n % 2 == 0):
            raise ValueError(f"grid_n must be an even integer >= 2, got {self.grid_n}")
        # the box's width 2*w must be finite too: the grid steps across it; and w
        # normal: _gradient_coeffs scales by 2^-(e_c + e_w), which overflows below
        if not (self.half_width >= sys.float_info.min and math.isfinite(2.0 * self.half_width)):
            raise ValueError(f"half_width must be positive and normal (at least "
                             f"{sys.float_info.min!r}) with a finite width 2*half_width, "
                             f"got {self.half_width}")


@dataclass(frozen=True)
class AdmissibilityResult:
    """Midpoint estimate of J plus audit counters.

    excluded is 0 by construction: grad V vanishes at no cell center (see
    `_integrand`). It stays because the sweep CSV has a column for it and
    the benchmark's replay and run checks read it.
    """

    value: float
    points: int
    excluded: int


def _grid_centers(w: float, n: int) -> np.ndarray:
    """The centers of n cells on [-w, w], n even, exactly antisymmetric: xs[n-1-i] == -xs[i]."""
    pos = (np.arange(n // 2) + 0.5) * (2.0 * w / n)
    return np.concatenate((-pos[::-1], pos))


def _gradient_coeffs(potential: Potential, w: float) -> np.ndarray:
    """2*c times 2^-(e_c + e_w), with e_c, e_w the binary exponents of max c and w.

    grad V = (2*c) * x, so every component of this scaled gradient on the
    cube lies below 2 in magnitude. The exponents are added, not c and w
    multiplied, so nothing overflows on the way; a power of two rounds
    nothing, so the integrand's ratio is the one of the unscaled gradient.
    """
    k = np.frexp(potential.coeffs.max())[1] + np.frexp(w)[1]
    return np.ldexp(potential.coeffs, 1 - k)


def _integrand(g1, g2, g3, s, c, q: float, plane, gn, r) -> None:
    """rho(x, grad V)^q / |grad V|^q on one x3 slab, written into r.

    grad V = (g1, g2, g3), with g3 a scalar, s, c = sin, cos x3 and plane =
    g1*g1 + g2*g2. g1 and g2 broadcast to the shape of plane, gn and r; gn
    is scratch. grad V does not vanish at a center: on the axis of the
    largest coefficient the scaled gradient at the first center w/n is
    2*m_c*m_w/n, with mantissas m_c, m_w in [0.5, 1) (w is normal), so
    |grad V| >= 0.5/n.
    """
    np.add(plane, g3 * g3, out=gn)  # the order of g1*g1 + g2*g2 + g3*g3
    np.sqrt(gn, out=gn)
    np.subtract(g1 * s, g2 * c, out=r)
    r /= gn
    if q == 2.0:
        r *= r  # the square ignores the sign
    else:
        np.abs(r, out=r)
        r **= q


def admissibility_measure(potential: Potential,
                          cfg: AdmissibilityConfig | None = None) -> AdmissibilityResult:
    """Midpoint estimate of J over [-w, w]^3 with settings `cfg` (default w = 1).

    The grid has the cell centers of grid_n cells per axis. The integrand
    is bitwise unchanged by the reflections (x1, x2, x3) -> (-x1, -x2, x3)
    and (-x1, x2, -x3) of the antisymmetric centers, so the quarter x1 > 0,
    x3 > 0 of the grid is summed and counted four times. It is evaluated in
    blocks of rows, each block on every x3 slab, so memory is bounded by
    BLOCK_POINTS points whatever grid_n is.
    """
    cfg = AdmissibilityConfig() if cfg is None else cfg
    n, w, q = cfg.grid_n, cfg.half_width, cfg.q
    h = n // 2
    xs = _grid_centers(w, n)  # the cell centers of every axis
    pos = xs[h:]  # the x1 > 0 rows and the x3 > 0 slabs
    # the scaled grad V is separable: g1 varies along x1 (rows) only, g2
    # along x2 (columns) only, and g3 is constant on an x3 slab
    d1, d2, d3 = _gradient_coeffs(potential, w)
    g1 = (d1 * pos)[:, None]
    g2 = (d2 * xs)[None, :]
    g1sq, g2sq = g1 * g1, g2 * g2
    rows = min(h, max(1, BLOCK_POINTS // n))  # up to grid_n 724 the rows are one block
    # g1*g1 + g2*g2, |grad V| and the values of one block, reused by every block
    plane, gn, r = np.empty((3, rows, n))
    slabs = [(g3, math.sin(x3), math.cos(x3)) for x3, g3 in zip(pos, d3 * pos)]
    total = 0.0  # one running sum, in block and slab order
    for lo in range(0, h, rows):
        hi = min(lo + rows, h)
        m = hi - lo
        np.add(g1sq[lo:hi], g2sq, out=plane[:m])
        for g3, s, c in slabs:
            _integrand(g1[lo:hi], g2, g3, s, c, q, plane[:m], gn[:m], r[:m])
            total += float(r[:m].sum())
    points = n ** 3
    return AdmissibilityResult(value=4.0 * total / points, points=points, excluded=0)


def table1(cfg: AdmissibilityConfig | None = None
           ) -> list[tuple[tuple[float, float, float], AdmissibilityResult]]:
    """Evaluate J for the published seven-triple quadratic sweep.

    Defaults reproduce the reference setting: X = [-1, 1]^3, q = 2,
    unrestricted controls, 200 midpoint cells per axis.
    """
    return [(coeffs, admissibility_measure(make_quadratic(*coeffs), cfg))
            for coeffs in TABLE1_COEFFS]


def write_sweep_csv(rows, path) -> None:
    """Write sweep results as CSV rows (c1,c2,c3,q,method,points,J,stderr,excluded).

    `rows` is an iterable of (coeffs, q, result) triples.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(SWEEP_CSV_HEADER + "\n")
        for coeffs, q, res in rows:
            # the nine published columns, which clibench checks byte for byte; stderr is empty
            f.write(
                f"{coeffs[0]:.9g},{coeffs[1]:.9g},{coeffs[2]:.9g},{q:.9g},"
                f"midpoint,{res.points},{res.value:.9g},,{res.excluded}\n"
            )
