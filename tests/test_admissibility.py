import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow import (
    AdmissibilityConfig,
    TABLE1_COEFFS,
    admissibility_measure,
    make_quadratic,
    make_v_alpha,
    table1,
    write_sweep_csv,
)
from gradflow import _kernels, admissibility
from helpers import fill_the_disk, in_build
from oracles import (
    integrand,
    integrand_rho,
    midpoint_j,
    midpoint_slab,
    potential_gradient,
    rho_bruteforce,
    slab_sum_unfolded,
    vector_fields,
)


def random_pairs(n, seed, p_max=10.0):
    """Seeded (x, p) pairs with |p| <= p_max."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-5.0, 5.0, size=(n, 3))
    ps = rng.uniform(-1.0, 1.0, size=(n, 3))
    ps *= (rng.uniform(0.0, p_max, size=(n, 1)) /
           np.maximum(np.linalg.norm(ps, axis=1, keepdims=True), 1e-12))
    return xs, ps


class TestRho:
    """The residual rho(x, p) as the quadrature's integrand computes it."""

    def test_p_along_f1_is_zero(self):
        assert integrand_rho([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0

    def test_p_orthogonal(self):
        assert integrand_rho([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 1.0

    def test_frozen_value(self):
        # |0.3*sin 0.7 + 0.4*cos 0.7|, high-precision reference
        assert integrand_rho([0.0, 0.0, 0.7], [0.3, -0.4, 5.0]) == pytest.approx(
            0.4992021810851027, abs=1e-12)

    def test_bounded_by_p_norm(self):
        xs, ps = random_pairs(500, seed=31)
        for x, p in zip(xs, ps):
            r = integrand_rho(x, p)
            assert 0.0 <= r <= np.linalg.norm(p) + 1e-12

    def test_zero_on_controllable_span(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=3)
            f1, f2 = vector_fields(x)
            p = rng.normal() * f1 + rng.normal() * f2
            assert integrand_rho(x, p) <= 1e-12


class TestRhoBruteforce:
    def test_projection_length(self):
        assert rho_bruteforce([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(
            1.0, abs=1e-4)

    def test_zero_p_exact(self):
        assert rho_bruteforce([0.3, -0.2, 1.1], [0.0, 0.0, 0.0]) == 0.0

    def test_quarter_turn(self):
        val = rho_bruteforce([0.0, 0.0, math.pi / 2], [2.0, 0.0, 0.0])
        assert val == pytest.approx(2.0, abs=1e-4)

    def test_matches_closed_form(self):
        xs, ps = random_pairs(100, seed=33)
        for x, p in zip(xs, ps):
            assert rho_bruteforce(x, p) == pytest.approx(integrand_rho(x, p), abs=1e-4)

    def test_rejects_small_search_box(self):
        with pytest.raises(ValueError, match="coarse_range"):
            rho_bruteforce([0, 0, 0], [3.0, 0.0, 0.0], coarse_range=1.0)


class TestBoxDomain:
    """The domain is the centred cube [-w, w]^3, w = half_width."""

    def test_cube(self):
        assert AdmissibilityConfig().half_width == 1.0
        # J reads the box through w alone: the sum of squares gives 1/3 on any cube
        res = admissibility_measure(make_quadratic(1, 1, 1),
                                    AdmissibilityConfig(grid_n=10, half_width=2.5))
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rejects_empty(self):
        for w in (0.0, -1.0):
            with pytest.raises(ValueError, match="half_width must be positive"):
                AdmissibilityConfig(half_width=w)

    @pytest.mark.parametrize("w", [math.inf, math.nan, 1e308])
    def test_rejects_infinite_width(self, w):
        with pytest.raises(ValueError, match="finite width"):
            AdmissibilityConfig(half_width=w)


class TestConfigValidation:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="q"):
            AdmissibilityConfig(q=-1.0)

    def test_rejects_odd_grid(self):
        with pytest.raises(ValueError, match="grid_n"):
            AdmissibilityConfig(grid_n=201)


class TestMeasure:
    def test_sum_of_squares_is_one_third(self):
        # analytic value by symmetry of the unit-coefficient integrand
        res = admissibility_measure(make_quadratic(1, 1, 1),
                                    cfg=AdmissibilityConfig(grid_n=100))
        assert res.value == pytest.approx(1.0 / 3.0, abs=5e-4)
        assert res.points == 100 ** 3

    def test_integrand_bounded_value_in_unit_interval(self):
        for coeffs in [(1, 1, 1), (4, 0.25, 4), (0.3, 2.0, 1.1)]:
            res = admissibility_measure(make_quadratic(*coeffs),
                                        cfg=AdmissibilityConfig(grid_n=24))
            assert 0.0 <= res.value <= 1.0

    def test_scale_invariance(self):
        pot = make_quadratic(2.0, 1.0, 0.5)
        cfg = AdmissibilityConfig(grid_n=50)
        base = admissibility_measure(pot, cfg=cfg)
        for c in (2.0 ** -40, 2.0 ** 40):
            scaled = admissibility_measure(pot.scaled(c), cfg=cfg)
            assert (scaled.value, scaled.excluded) == (base.value, base.excluded)

    def test_v_alpha_sequence_decreases(self):
        cfg = AdmissibilityConfig(grid_n=50)
        js = [admissibility_measure(make_v_alpha(a), cfg=cfg).value for a in (2, 4, 10)]
        assert js[0] > js[1] > js[2]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs, half_width", [
        pytest.param((1e-12, 1e-12, 1e-12), 1.0, id="tiny-1e-12"),
        pytest.param((1e-13, 1e-13, 1e-13), 1.0, id="tiny-1e-13"),
        pytest.param((1e155, 1e155, 1e155), 1.0, id="huge-coeffs"),
        pytest.param((1.0, 1.0, 1.0), 1e300, id="huge-box"),
    ])
    def test_extreme_scales_give_one_third(self, coeffs, half_width):
        # a tiny |grad V| is kept, and a huge one does not overflow when squared
        cfg = AdmissibilityConfig(grid_n=40, half_width=half_width)
        res = admissibility_measure(make_quadratic(*coeffs), cfg)
        assert abs(res.value - 1.0 / 3.0) <= 1e-12
        assert res.excluded == 0

    def test_even_grid_excludes_nothing_for_quadratics(self):
        res = admissibility_measure(make_quadratic(1, 1, 1),
                                    cfg=AdmissibilityConfig(grid_n=40))
        assert res.excluded == 0

    @settings(max_examples=100, deadline=None)
    @given(mc=st.tuples(*[st.floats(0.5, 1.0, exclude_max=True)] * 3),
           ec=st.tuples(*[st.integers(-1073, 1024)] * 3),
           mw=st.floats(0.5, 1.0, exclude_max=True), ew=st.integers(-1021, 1023),
           n=st.integers(1, 20).map(lambda k: 2 * k), q=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_every_scale_gives_a_finite_j(self, mc, ec, mw, ew, n, q):
        # coefficients anywhere in the float range and any normal w: the scaled
        # gradient neither overflows nor vanishes at a cell center, in either
        # build; the twin would raise on a zero |grad V|
        coeffs = [math.ldexp(m, e) for m, e in zip(mc, ec)]
        cfg = AdmissibilityConfig(q=q, grid_n=n, half_width=math.ldexp(mw, ew))
        res = in_build("c", admissibility_measure, make_quadratic(*coeffs), cfg)
        assert math.isfinite(res.value)
        assert res.excluded == 0
        assert in_build("python", admissibility_measure, make_quadratic(*coeffs), cfg) == res


grid_sizes = st.integers(1, 8).map(lambda k: 2 * k)
coefficients = st.tuples(*[st.floats(0.1, 10.0)] * 3)
half_widths = st.floats(0.1, 3.0)


def full_grid(w, n):
    """The n cell centers of [-w, w]: the package's positive half and its negation."""
    pos = admissibility._grid_centers(w, n).tolist()
    return [-x for x in reversed(pos)] + pos


def slab_sums(build, pot, q, n, w, slabs):
    """The package's sums of the x3 > 0 slabs `slabs`, by the library ("c") or the twin."""
    d = admissibility._gradient_coeffs(pot, w)
    nodes = admissibility._grid_centers(w, n)
    weights = array("d", [1.0]) * (n // 2)
    if build == "c":
        fn = _kernels.compiled_loop().slab_sum
        args = (d.buffer_info()[0], nodes.buffer_info()[0], weights.buffer_info()[0])
    else:
        fn, args = _kernels.slab_sum, (d, nodes, weights)
    return [fn(*args, n // 2, nodes[k], q) for k in slabs]


def both_slab_sums(d, nodes, weights, x3, q):
    """slab_sum of the library and of the twin, in that order, on the sequences
    d, nodes and weights."""
    d, nodes, weights = (array("d", v) for v in (d, nodes, weights))
    m = len(nodes)
    c = _kernels.compiled_loop().slab_sum(d.buffer_info()[0], nodes.buffer_info()[0],
                                          weights.buffer_info()[0], m, x3, q)
    return c, _kernels.slab_sum(d, nodes, weights, m, x3, q)


class TestOneIntegrand:
    """The midpoint's quarter grid and slab gradients give J of the full grid."""

    @settings(max_examples=60, deadline=None)
    @given(coeffs=coefficients, q=st.sampled_from([2.0, 1.5, 3.0]), n=grid_sizes,
           w=half_widths)
    def test_slab_gradients_equal_full_grid(self, coeffs, q, n, w):
        pot = make_quadratic(*coeffs)
        cfg = AdmissibilityConfig(q=q, grid_n=n, half_width=w)
        xs = np.array(full_grid(w, n))
        plane1, plane2 = np.meshgrid(xs, xs, indexing="ij")
        total = 0.0
        for x3 in xs:
            # the unscaled gradient: the scaling must not change a bit of a value
            g = potential_gradient(pot, np.stack((plane1, plane2, np.full_like(plane1, x3)), -1))
            vals = integrand(g[..., 0], g[..., 1], float(g[0, 0, 2]), math.sin(x3),
                             math.cos(x3), q)
            total += float(vals.sum())
        res = admissibility_measure(pot, cfg)
        # the same values summed in another order
        assert abs(res.value - total / n ** 3) <= 1e-14 * res.value
        assert res.excluded == 0

    @settings(max_examples=60, deadline=None)
    @given(coeffs=coefficients, q=st.sampled_from([2.0, 1.5, 3.0]), n=grid_sizes,
           w=half_widths, data=st.data())
    def test_reflections_leave_the_integrand_unchanged(self, coeffs, q, n, w, data):
        # (x1, x2, x3) -> (-x1, -x2, x3) and (-x1, x2, -x3) map the grid onto
        # itself and each value onto its own bits: the quarter grid relies on it
        xs = full_grid(w, n)
        d = admissibility._gradient_coeffs(make_quadratic(*coeffs), w)
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))

        def value(i, j, k):
            x1, x2, x3 = xs[i], xs[j], xs[k]
            return integrand(np.array([d[0] * x1]), np.array([d[1] * x2]), d[2] * x3,
                             math.sin(x3), math.cos(x3), q)[0]

        v = value(i, j, k)
        assert value(n - 1 - i, n - 1 - j, k) == v
        assert value(n - 1 - i, j, n - 1 - k) == v

    def test_tiny_gradient_is_kept(self):
        # a nonzero gradient is kept however small, as long as its square is
        # nonzero, in both builds; the quadrature's scaling keeps |grad V| >=
        # 0.5/grid_n. The slab at x3 = pi/2 holds the two points x2 = +-1 of
        # the row x1 = 1
        one = array("d", [1.0])
        c_sum = _kernels.compiled_loop().slab_sum
        for g1 in (1e-150, 1e-30, 1.0):
            d = array("d", [g1, 0.0, 0.0])
            for q in (2.0, 1.5):
                assert _kernels.slab_sum(d, one, one, 1, math.pi / 2, q) == 2.0
                assert c_sum(d.buffer_info()[0], one.buffer_info()[0], one.buffer_info()[0],
                             1, math.pi / 2, q) == 2.0


class TestSlabSum:
    """The library's slab_sum and its twin `_kernels.slab_sum`, one x3 slab a call."""

    @settings(max_examples=100, deadline=None)
    @given(mc=st.tuples(*[st.floats(0.5, 1.0, exclude_max=True)] * 3),
           ec=st.tuples(*[st.integers(-60, 60)] * 3),
           q=st.sampled_from([2.0, 1.0, 3.0]) | st.floats(0.1, 4.0),
           w=st.floats(1e-3, 1e3), n=st.integers(1, 20).map(lambda k: 2 * k))
    def test_compiled_equals_the_twin(self, mc, ec, q, w, n):
        pot = make_quadratic(*(math.ldexp(m, e) for m, e in zip(mc, ec)))
        slabs = range(n // 2)
        assert slab_sums("c", pot, q, n, w, slabs) == slab_sums("python", pot, q, n, w, slabs)
        cfg = AdmissibilityConfig(q=q, grid_n=n, half_width=w)
        assert (in_build("c", admissibility_measure, pot, cfg)
                == in_build("python", admissibility_measure, pot, cfg))

    @settings(max_examples=200, deadline=None)
    @given(coeffs=coefficients,
           points=st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 10.0)),
                           min_size=1, max_size=20),
           x3=st.floats(1e-3, 1.0), q=st.sampled_from([2.0, 1.5, 1.0, 3.0]) | st.floats(0.1, 4.0))
    def test_each_weight_goes_with_its_pair(self, coeffs, points, x3, q):
        # the package passes unit weights only, so a weights[j] summed with
        # another pair than +-nodes[j] shows only here: drawn nodes, each with
        # its own weight, against the unfolded sum
        d = admissibility._gradient_coeffs(make_quadratic(*coeffs), 1.0)
        nodes, weights = zip(*points)
        c, python = both_slab_sums(d, nodes, weights, x3, q)
        assert c == python
        expected = slab_sum_unfolded(d, nodes, weights, x3, q)
        assert abs(c - expected) <= ORACLE_RTOL * expected

    @pytest.mark.parametrize("q", [2.0, 1.5])
    @pytest.mark.parametrize("m", [*range(1, 9), 32])
    def test_gauss_legendre_weights(self, m, q):
        # the positive half of the 2m-point Gauss-Legendre rule on [-1, 1], whose
        # weights differ pair to pair; m = 1 to 8 leaves every tail m mod 4
        # after the four lanes, twice
        t, wt = np.polynomial.legendre.leggauss(2 * m)
        nodes, weights = t[m:].tolist(), wt[m:].tolist()
        d = admissibility._gradient_coeffs(make_quadratic(1, 2, 3), 1.0)
        for x3 in nodes:
            c, python = both_slab_sums(d, nodes, weights, x3, q)
            assert c == python
            expected = slab_sum_unfolded(d, nodes, weights, x3, q)
            assert abs(c - expected) <= ORACLE_RTOL * expected

    def test_memory_follows_grid_n(self):
        # the grid_n / 2 nodes and weights, not a grid_n^3, or slab-sized, array
        cfg = AdmissibilityConfig(grid_n=256)
        pot = make_quadratic(1, 2, 3)
        admissibility_measure(pot, cfg)  # warm up caches outside the trace
        tracemalloc.start()
        try:
            admissibility_measure(pot, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 128 x 256 slab of doubles would be 256 KB
        assert peak < 16 * 1024


# the largest relative distance of the package's J, or slab sums, from the
# former numpy quadrature's, with each x2 pair folded and four lanes a row:
# measured 2.4e-16 on Table 1, 4.1e-16 on the q = 1.5 sweep, 3.8e-16 on J
# at grid_n 800 and 8.9e-16 on its eight slabs in test_grid_800_slabs; and
# 5.7e-16 from `slab_sum_unfolded` over 20,000 random weighted slabs. Not
# every slab of grid_n 800 is that close: slab 90 is 2.1e-15 from the
# correctly rounded sum of its values, before the fold too, from the serial
# sum of its 400 rows
ORACLE_RTOL = 1e-15


class TestNumpyQuadratureOracle:
    """Both builds agree with the former numpy quadrature, `oracles.midpoint_j`."""

    def test_table1(self):
        cfg = AdmissibilityConfig()
        values = [res.value for _, res in in_build("c", table1, cfg)]
        for coeffs, value in zip(TABLE1_COEFFS, values):
            expected = midpoint_j(make_quadratic(*coeffs), cfg.q, cfg.grid_n, cfg.half_width)
            assert abs(value - expected) <= ORACLE_RTOL * expected
        assert [res.value for _, res in in_build("python", table1, cfg)] == values

    @pytest.mark.parametrize("build", ["c", "python"])
    def test_q15_sweep(self, build):
        # CI's q = 1.5 sweep, which runs the pow branch
        cfg = AdmissibilityConfig(q=1.5, grid_n=60, half_width=2.5)
        for alpha in (1, 2, 4, 10):
            pot = make_v_alpha(alpha)
            value = in_build(build, admissibility_measure, pot, cfg).value
            expected = midpoint_j(pot, cfg.q, cfg.grid_n, cfg.half_width)
            assert abs(value - expected) <= ORACLE_RTOL * expected

    def test_grid_800_slabs(self):
        # CI's grid_n 800 sweep, whose former quadrature ran two row blocks; its
        # J is pinned in CI. Here eight slabs spread over x3, the numpy oracle's
        # 320,000 points each, against both builds
        pot, slabs = make_quadratic(1, 2, 3), [0, 1, 57, 150, 222, 301, 398, 399]
        c = slab_sums("c", pot, 2.0, 800, 1.0, slabs)
        assert slab_sums("python", pot, 2.0, 800, 1.0, slabs) == c
        for k, value in zip(slabs, c):
            expected = midpoint_slab(pot, 2.0, 800, 1.0, k)
            assert abs(value - expected) <= ORACLE_RTOL * expected


class TestTable1:
    def test_row_order_and_count(self):
        assert len(TABLE1_COEFFS) == 7
        assert TABLE1_COEFFS[0] == (1.0, 1.0, 1.0)


class TestSweepCsv:
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        # the disk fills during the write: the partial CSV is removed, and the
        # earlier one keeps its bytes
        res = admissibility_measure(make_quadratic(1, 1, 1), cfg=AdmissibilityConfig(grid_n=10))
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"an earlier sweep\n")
        fill_the_disk(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            write_sweep_csv([((1, 1, 1), 2.0, res)] * 5, path)
        assert path.read_bytes() == b"an earlier sweep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_format(self, tmp_path):
        cfg = AdmissibilityConfig(grid_n=10)
        res = admissibility_measure(make_quadratic(1, 1, 1), cfg=cfg)
        path = tmp_path / "sweep.csv"
        write_sweep_csv([((1, 1, 1), 2.0, res), ((2, 1, 0.5), 1.5, res)], path)
        lines = path.read_text().splitlines()
        # the published nine-column header: method is a constant, stderr is empty
        assert lines[0] == "c1,c2,c3,q,method,points,J,stderr,excluded"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 9
            assert fields[4] == "midpoint"
            assert fields[7] == ""
            assert fields[5:7] == [str(res.points), format(res.value, ".9g")]
        assert lines[2].split(",")[:4] == ["2", "1", "0.5", "1.5"]
