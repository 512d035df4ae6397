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
from dataclasses import dataclass

import numpy as np

from gradflow.kinematics import check_scalar
from gradflow.potential import Potential, make_quadratic

# midpoint evaluates its x3 slabs in row blocks of at most this many points
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
        # the box's width 2*w must be finite too: the grid steps across it
        if not (self.half_width > 0 and math.isfinite(2.0 * self.half_width)):
            raise ValueError(f"half_width must be positive with a finite width 2*half_width, "
                             f"got {self.half_width}")


@dataclass(frozen=True)
class AdmissibilityResult:
    """Midpoint estimate of J plus audit counters.

    excluded counts grid points where grad V vanishes, which contribute 0.
    """

    value: float
    points: int
    excluded: int


def _grid_centers(lo: float, hi: float, n: int) -> np.ndarray:
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step


def _gradient_coeffs(potential: Potential, w: float) -> np.ndarray:
    """2*c times 2^-(e_c + e_w), with e_c, e_w the binary exponents of max c and w.

    grad V = (2*c) * x, so every component of this scaled gradient on the
    cube lies below 2 in magnitude. The exponents are added, not c and w
    multiplied, so nothing overflows on the way; a power of two rounds
    nothing, so the integrand's ratio is the one of the unscaled gradient.
    """
    k = np.frexp(potential.coeffs.max())[1] + np.frexp(w)[1]
    return np.ldexp(potential.coeffs, 1 - k)


def _integrand(g1, g2, g3, s, c, q: float):
    """rho(x, grad V)^q / |grad V|^q from grad V = (g1, g2, g3) and s, c = sin, cos x3.

    The arguments broadcast against each other. Returns the values and the
    number of points with grad V = 0, which contribute 0.
    """
    gn = np.sqrt(g1 * g1 + g2 * g2 + g3 * g3)
    keep = gn > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(g1 * s - g2 * c) / gn
    excluded = keep.size - int(np.count_nonzero(keep))
    if excluded:
        r[~keep] = 0.0
    vals = r * r if q == 2.0 else r ** q
    return vals, excluded


def admissibility_measure(potential: Potential,
                          cfg: AdmissibilityConfig | None = None) -> AdmissibilityResult:
    """Midpoint estimate of J over [-w, w]^3 with settings `cfg` (default w = 1).

    The grid has the cell centers of grid_n cells per axis. It is
    accumulated in x3-slab order, each slab in blocks of rows, so memory is
    bounded by BLOCK_POINTS points whatever grid_n is.
    """
    cfg = AdmissibilityConfig() if cfg is None else cfg
    n, w = cfg.grid_n, cfg.half_width
    xs = _grid_centers(-w, w, n)  # the cell centers of every axis
    # the scaled grad V is separable: g1 varies along x1 (rows) only, g2
    # along x2 (columns) only, and g3 is constant on an x3 slab
    d1, d2, d3 = _gradient_coeffs(potential, w)
    g1 = (d1 * xs)[:, None]
    g2 = (d2 * xs)[None, :]
    rows = max(1, BLOCK_POINTS // n)  # up to grid_n 512 a slab is one block
    total = 0.0
    excluded = 0
    for x3, g3 in zip(xs, d3 * xs):
        s, c = math.sin(x3), math.cos(x3)
        for lo in range(0, n, rows):
            vals, exc = _integrand(g1[lo:lo + rows], g2, g3, s, c, cfg.q)
            total += float(vals.sum())  # block subtotals in slab, then row order
            excluded += exc
    points = n ** 3
    return AdmissibilityResult(value=total / points, points=points, excluded=excluded)


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
