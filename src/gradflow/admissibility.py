"""Admissibility measure of a gradient flow for the unicycle.

For a potential V on a box X the cost is the normalized integral

    J_X[V] = (1/mu(X)) * integral over X of rho(x, grad V(x))^q / |grad V(x)|^q

where rho(x, p) is the distance from -p to span{f1(x), f2(x)}, i.e. the
part of the requested gradient direction the unicycle cannot realize
instantaneously. With controls unrestricted (U = R^2) the infimum has the
closed form rho(x, p) = |p1*sin x3 - p2*cos x3|. `_integrand` evaluates
it for both quadratures, and the test suite checks it against a
brute-force minimizer over u.

X is the centred cube [-w, w]^3. J is zero iff the gradient flow is
realizable everywhere; for q = 2 the integrand lies in [0, 1], hence J in
[0, 1]. Multiplying V by a positive constant leaves J unchanged, and the
quadratures keep that in floating point: they evaluate grad V times a power
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

# fixed Monte-Carlo chunk: it is drawn, evaluated and reduced as one unit,
# and must be a multiple of 4 (see _monte_carlo)
MC_CHUNK = 1 << 18

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
    method: str = "midpoint"
    grid_n: int = 200
    samples: int = 1_000_000
    seed: int = 2025
    half_width: float = 1.0

    def __post_init__(self):
        for name in ("q", "half_width"):
            check_scalar(getattr(self, name), name)
        for name in ("grid_n", "samples", "seed"):
            check_scalar(getattr(self, name), name, integer=True)
        if not (self.q > 0 and math.isfinite(self.q)):
            raise ValueError(f"exponent q must be positive and finite, got {self.q}")
        if self.method not in ("midpoint", "monte_carlo"):
            raise ValueError(f"method must be 'midpoint' or 'monte_carlo', got {self.method!r}")
        if not (self.grid_n >= 2 and self.grid_n % 2 == 0):
            raise ValueError(f"grid_n must be an even integer >= 2, got {self.grid_n}")
        if not self.samples >= 1:
            raise ValueError(f"samples must be a positive integer, got {self.samples}")
        if self.method == "monte_carlo" and not self.samples >= 2:
            raise ValueError(f"monte_carlo needs samples >= 2 for its standard error, "
                             f"got {self.samples}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        # the box's width 2*w must be finite too: the quadratures step across it
        if not (self.half_width > 0 and math.isfinite(2.0 * self.half_width)):
            raise ValueError(f"half_width must be positive with a finite width 2*half_width, "
                             f"got {self.half_width}")


@dataclass(frozen=True)
class AdmissibilityResult:
    """Quadrature estimate of J plus audit counters.

    stderr is the Monte-Carlo standard error (None for midpoint); excluded
    counts quadrature points where grad V vanishes, which contribute 0.
    """

    value: float
    points: int
    excluded: int
    method: str
    stderr: float | None = None


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
    """Estimate J over [-w, w]^3 with settings `cfg` (default w = 1).

    Midpoint: tensor grid of cell centers, grid_n per axis, accumulated in
    x3-slab order. Monte Carlo: `samples` uniform draws from a Philox
    stream keyed by `seed`, drawn and reduced in chunks of MC_CHUNK points,
    so memory is bounded by the chunk.
    """
    cfg = AdmissibilityConfig() if cfg is None else cfg
    if cfg.method == "midpoint":
        value, points, excluded = _midpoint(potential, cfg)
        stderr = None
    else:
        value, points, excluded, stderr = _monte_carlo(potential, cfg)
    return AdmissibilityResult(value=value, points=points, excluded=excluded,
                               method=cfg.method, stderr=stderr)


def _midpoint(potential, cfg):
    n, w = cfg.grid_n, cfg.half_width
    xs = _grid_centers(-w, w, n)  # the cell centers of every axis
    # the scaled grad V is separable: g1 varies along x1 (rows) only, g2
    # along x2 (columns) only, and g3 is constant on an x3 slab
    d1, d2, d3 = _gradient_coeffs(potential, w)
    g1 = (d1 * xs)[:, None]
    g2 = (d2 * xs)[None, :]
    total = 0.0
    excluded = 0
    for x3, g3 in zip(xs, d3 * xs):
        vals, exc = _integrand(g1, g2, g3, math.sin(x3), math.cos(x3), cfg.q)
        total += float(vals.sum())  # x3-slab subtotals in slab index order
        excluded += exc
    points = n ** 3
    return total / points, points, excluded


def _monte_carlo(potential, cfg):
    n, w = cfg.samples, cfg.half_width
    d = _gradient_coeffs(potential, w)
    n_chunks = -(-n // MC_CHUNK)

    def eval_chunk(i):
        # Philox yields 4 doubles per counter step and chunk i starts 3*i*MC_CHUNK
        # doubles into the seed's stream, so every chunk draws its own points
        rng = np.random.Generator(np.random.Philox(cfg.seed).advance(i * 3 * MC_CHUNK // 4))
        u = rng.uniform(size=(min(MC_CHUNK, n - i * MC_CHUNK), 3))
        pts = -w + u * (w - -w)
        g = d * pts
        vals, exc = _integrand(g[:, 0], g[:, 1], g[:, 2], np.sin(pts[:, 2]),
                               np.cos(pts[:, 2]), cfg.q)
        return float(vals.sum()), float((vals * vals).sum()), exc

    total = 0.0
    total_sq = 0.0
    excluded = 0
    for s, s2, exc in map(eval_chunk, range(n_chunks)):  # chunk index order
        total += s
        total_sq += s2
        excluded += exc
    var = max(total_sq - total * total / n, 0.0) / (n - 1)  # n >= 2: config checks it
    return total / n, n, excluded, math.sqrt(var / n)


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

    `rows` is an iterable of (coeffs, q, result) triples; stderr is left
    empty for midpoint estimates.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(SWEEP_CSV_HEADER + "\n")
        for coeffs, q, res in rows:
            stderr = "" if res.stderr is None else format(res.stderr, ".9g")
            f.write(
                f"{coeffs[0]:.9g},{coeffs[1]:.9g},{coeffs[2]:.9g},{q:.9g},"
                f"{res.method},{res.points},{res.value:.9g},{stderr},{res.excluded}\n"
            )
