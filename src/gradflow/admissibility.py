"""Admissibility measure of a gradient flow for the unicycle.

For a potential V on a box X the cost is the normalized integral

    J_X[V] = (1/mu(X)) * integral over X of rho(x, grad V(x))^q / |grad V(x)|^q

where rho(x, p) is the distance from -p to span{f1(x), f2(x)}, i.e. the
part of the requested gradient direction the unicycle cannot realize
instantaneously. With controls unrestricted (U = R^2) the infimum has the
closed form rho(x, p) = |p1*sin x3 - p2*cos x3|. The compiled library's
`slab_sum` evaluates it, or its Python twin `_kernels.slab_sum`, with the
same bits, and the test suite checks it against a brute-force minimizer
over u. The integral is one deterministic rule: the midpoint rule on a
tensor grid of grid_n cells per axis.

The grid's centers are built exactly antisymmetric, so negating a center
rounds nothing. With grad V = 2*c*x, the integrand |g1 sin x3 - g2 cos x3|
/ |g| then keeps every bit under (x1, x2, x3) -> (-x1, -x2, x3), which
negates the numerator, and under (-x1, x2, -x3), which leaves it as it is.
The quadrature sums the quarter x1 > 0, x3 > 0 of the grid, one x3 slab
per call, and counts it four times.

X is the centred cube [-w, w]^3. J is zero iff the gradient flow is
realizable everywhere; for q = 2 the integrand lies in [0, 1], hence J in
[0, 1]. Multiplying V by a positive constant leaves J unchanged, and the
quadrature keeps that in floating point: it evaluates grad V times a power
of two chosen from the largest coefficient and w, which rounds nothing and
brings every gradient component on the cube below 2, so |grad V|^2 cannot
overflow and a tiny V is not lost to underflow. Multiplying V by a power of
two leaves every bit of J unchanged.

The grid, the scaled gradient and the slab sums are plain floats,
array('d') buffers or the library's.
"""

import math
import sys
from array import array
from dataclasses import dataclass

from gradflow import _kernels
from gradflow.kinematics import check_scalar
from gradflow.potential import Potential, make_quadratic
from gradflow.simulator import replacing

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
    `admissibility_measure`). It stays because the sweep CSV has a column
    for it and the benchmark's replay and run checks read it.
    """

    value: float
    points: int
    excluded: int


def _grid_centers(w: float, n: int) -> array:
    """The n // 2 positive centers (i + 0.5) * 2w/n of n cells on [-w, w], n even.

    The negative half is their negation, so the grid is exactly antisymmetric."""
    step = 2.0 * w / n
    return array("d", [(i + 0.5) * step for i in range(n // 2)])


def _gradient_coeffs(potential: Potential, w: float) -> array:
    """2*c times 2^-(e_c + e_w), with e_c, e_w the binary exponents of max c and w.

    grad V = (2*c) * x, so every component of this scaled gradient on the
    cube lies below 2 in magnitude. The exponents are added, not c and w
    multiplied, so nothing overflows on the way; a power of two rounds
    nothing, so the integrand's ratio is the one of the unscaled gradient.
    """
    k = math.frexp(max(potential.coeffs))[1] + math.frexp(w)[1]
    return array("d", [math.ldexp(c, 1 - k) for c in potential.coeffs])


def admissibility_measure(potential: Potential,
                          cfg: AdmissibilityConfig | None = None) -> AdmissibilityResult:
    """Midpoint estimate of J over [-w, w]^3 with settings `cfg` (default w = 1).

    The grid has the cell centers of grid_n cells per axis. The integrand
    is bitwise unchanged by the reflections (x1, x2, x3) -> (-x1, -x2, x3)
    and (-x1, x2, -x3) of the antisymmetric centers, so the quarter x1 > 0,
    x3 > 0 of the grid is summed and counted four times. Each x3 slab is one
    call of the library's slab_sum, or of its twin `_kernels.slab_sum`, on
    the grid_n / 2 positive centers and unit weights, and the slab sums go
    into one running total in slab order. So memory follows grid_n, not
    grid_n^3, and Ctrl-C stops a large grid between two slabs.

    grad V does not vanish at a center: on the axis of the largest
    coefficient the scaled gradient at the first center w/n is 2*m_c*m_w/n,
    with mantissas m_c, m_w in [0.5, 1) (w is normal), so |grad V| >= 0.5/n.
    """
    cfg = AdmissibilityConfig() if cfg is None else cfg
    n, w, q = cfg.grid_n, cfg.half_width, cfg.q
    m = n // 2
    d = _gradient_coeffs(potential, w)
    nodes = _grid_centers(w, n)
    weights = array("d", [1.0]) * m
    lib = _kernels.compiled_loop()
    if lib:
        args = (d.buffer_info()[0], nodes.buffer_info()[0], weights.buffer_info()[0], m)
        slab_sum = lib.slab_sum
    else:
        args = (d, nodes, weights, m)
        slab_sum = _kernels.slab_sum
    total = 0.0
    for k in range(m):
        total += weights[k] * slab_sum(*args, nodes[k], q)
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

    `rows` is an iterable of (coeffs, q, result) triples. The file is written
    through `simulator.replacing`, so a failed write leaves an existing
    `path` as it was.
    """
    with replacing(path) as f:
        f.write(SWEEP_CSV_HEADER.encode() + b"\n")
        for coeffs, q, res in rows:
            # the nine published columns, which clibench checks byte for byte; stderr is empty
            f.write((
                f"{coeffs[0]:.9g},{coeffs[1]:.9g},{coeffs[2]:.9g},{q:.9g},"
                f"midpoint,{res.points},{res.value:.9g},,{res.excluded}\n"
            ).encode())
