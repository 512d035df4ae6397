import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow import (
    AdmissibilityConfig,
    BoxDomain,
    TABLE1_COEFFS,
    admissibility_measure,
    make_quadratic,
    make_v_alpha,
    write_sweep_csv,
)
from gradflow import admissibility
from oracles import integrand_rho, potential_gradient, rho_bruteforce, vector_fields


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
    def test_cube(self):
        box = BoxDomain.cube(1.0)
        assert np.array_equal(box.lo, [-1, -1, -1])
        assert np.array_equal(box.hi, [1, 1, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BoxDomain(lo=[0, 0, 0], hi=[1, 0, 1])


class TestConfigValidation:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="q"):
            AdmissibilityConfig(q=-1.0)

    def test_rejects_odd_grid(self):
        with pytest.raises(ValueError, match="grid_n"):
            AdmissibilityConfig(grid_n=201)

    def test_rejects_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            AdmissibilityConfig(method="simpson")


class TestMeasure:
    def test_sum_of_squares_is_one_third(self):
        # analytic value by symmetry of the unit-coefficient integrand
        res = admissibility_measure(make_quadratic(1, 1, 1),
                                    cfg=AdmissibilityConfig(grid_n=100))
        assert res.value == pytest.approx(1.0 / 3.0, abs=5e-4)
        assert res.method == "midpoint"
        assert res.stderr is None
        assert res.points == 100 ** 3

    def test_integrand_bounded_value_in_unit_interval(self):
        for coeffs in [(1, 1, 1), (4, 0.25, 4), (0.3, 2.0, 1.1)]:
            res = admissibility_measure(make_quadratic(*coeffs),
                                        cfg=AdmissibilityConfig(grid_n=24))
            assert 0.0 <= res.value <= 1.0

    def test_scale_invariance(self):
        cfg = AdmissibilityConfig(grid_n=50)
        base = admissibility_measure(make_v_alpha(1.0), cfg=cfg).value
        for c in (0.5, 3.0):
            scaled = admissibility_measure(make_v_alpha(1.0).scaled(c), cfg=cfg).value
            assert abs(scaled - base) <= 1e-3

    def test_v_alpha_sequence_decreases(self):
        cfg = AdmissibilityConfig(grid_n=50)
        js = [admissibility_measure(make_v_alpha(a), cfg=cfg).value for a in (2, 4, 10)]
        assert js[0] > js[1] > js[2]

    def test_monte_carlo_agrees_with_midpoint(self):
        cfg_mc = AdmissibilityConfig(method="monte_carlo", samples=400_000, seed=7)
        cfg_mp = AdmissibilityConfig(grid_n=100)
        pot = make_quadratic(2, 1, 1)
        mc = admissibility_measure(pot, cfg=cfg_mc)
        mp = admissibility_measure(pot, cfg=cfg_mp)
        # midpoint error at this resolution is well under 1e-4
        assert abs(mc.value - mp.value) <= 3.0 * (mc.stderr + 1e-4)

    def test_monte_carlo_deterministic_and_jobs_independent(self):
        cfg = AdmissibilityConfig(method="monte_carlo", samples=300_000, seed=42)
        pot = make_v_alpha(4.0)
        r1 = admissibility_measure(pot, cfg=cfg)
        r2 = admissibility_measure(pot, cfg=cfg)
        assert r1.value == r2.value
        assert r1.stderr == r2.stderr

    def test_monte_carlo_seed_changes_estimate(self):
        pot = make_v_alpha(1.0)
        a = admissibility_measure(pot, cfg=AdmissibilityConfig(
            method="monte_carlo", samples=10_000, seed=1))
        b = admissibility_measure(pot, cfg=AdmissibilityConfig(
            method="monte_carlo", samples=10_000, seed=2))
        assert a.value != b.value

    def test_degenerate_potential_rejected(self):
        # a floor above every |grad V| on the box excludes every point
        with pytest.raises(ValueError, match="degenerate"):
            admissibility_measure(make_quadratic(1, 1, 1),
                                  cfg=AdmissibilityConfig(grid_n=8, grad_floor=1e300))

    def test_even_grid_excludes_nothing_for_quadratics(self):
        res = admissibility_measure(make_quadratic(1, 1, 1),
                                    cfg=AdmissibilityConfig(grid_n=40))
        assert res.excluded == 0

    def test_off_center_domain(self):
        # gradient never vanishes on a box away from the origin
        box = BoxDomain(lo=[0.5, 0.5, 0.5], hi=[1.5, 1.5, 1.5])
        res = admissibility_measure(make_quadratic(1, 1, 1), box,
                                    AdmissibilityConfig(grid_n=30))
        assert 0.0 < res.value < 1.0


grid_sizes = st.integers(1, 8).map(lambda k: 2 * k)
coefficients = st.tuples(*[st.floats(0.1, 10.0)] * 3)


@st.composite
def any_box(draw):
    """An even grid size and a box that may or may not contain the origin."""
    lo = np.array([draw(st.floats(-2.0, 1.0)) for _ in range(3)])
    width = np.array([draw(st.floats(0.1, 3.0)) for _ in range(3)])
    return draw(grid_sizes), BoxDomain(lo=lo, hi=lo + width)


@st.composite
def origin_cell_box(draw):
    """An even grid size and a box with a cell centred at the origin, where grad V = 0."""
    n = draw(grid_sizes)
    lo, hi = [], []
    for _ in range(3):
        step = draw(st.floats(0.05, 0.5))
        k = draw(st.integers(0, n - 1))
        lo.append(-(k + 0.5) * step)
        hi.append((n - k - 0.5) * step)
    return n, BoxDomain(lo=lo, hi=hi)


class TestOneIntegrand:
    """The midpoint's separable slab gradients equal grad V on the full grid, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(coeffs=coefficients, q=st.sampled_from([2.0, 1.5, 3.0]),
           grid_and_box=st.one_of(any_box(), origin_cell_box()))
    def test_slab_gradients_equal_full_grid(self, coeffs, q, grid_and_box):
        n, box = grid_and_box
        pot = make_quadratic(*coeffs)
        cfg = AdmissibilityConfig(q=q, grid_n=n)
        xs1, xs2, xs3 = (admissibility._grid_centers(box.lo[i], box.hi[i], n) for i in range(3))
        plane1, plane2 = np.meshgrid(xs1, xs2, indexing="ij")
        total, excluded = 0.0, 0
        for x3 in xs3:
            g = potential_gradient(pot, np.stack((plane1, plane2, np.full_like(plane1, x3)), -1))
            vals, exc = admissibility._integrand(g[..., 0], g[..., 1], g[..., 2], math.sin(x3),
                                                 math.cos(x3), q, cfg.grad_floor)
            total += float(vals.sum())
            excluded += exc
        res = admissibility_measure(pot, box, cfg)
        assert res.value == total / n ** 3
        assert res.excluded == excluded

    def test_origin_cell_is_excluded(self):
        box = BoxDomain(lo=[-0.5, -0.5, -0.5], hi=[1.5, 1.5, 1.5])  # centres 0 and 1
        res = admissibility_measure(make_quadratic(1, 1, 1), box,
                                    AdmissibilityConfig(q=1.5, grid_n=2))
        assert res.excluded == 1
        assert 0.0 < res.value < 1.0


def one_shot_points(domain, cfg):
    """Every Monte-Carlo point from a single draw of the seed's Philox stream."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    return domain.lo + rng.uniform(size=(cfg.samples, 3)) * (domain.hi - domain.lo)


class TestStreamedMonteCarlo:
    def test_chunks_draw_the_one_shot_stream(self, monkeypatch):
        monkeypatch.setattr(admissibility, "MC_CHUNK", 1024)
        chunks = []

        def recording(g1, g2, g3, *args):
            chunks.append(np.column_stack((g1, g2, g3)))
            return integrand(g1, g2, g3, *args)

        integrand = admissibility._integrand
        monkeypatch.setattr(admissibility, "_integrand", recording)
        box = BoxDomain(lo=[-1.0, 0.5, -2.0], hi=[2.0, 1.5, 1.0])
        cfg = AdmissibilityConfig(method="monte_carlo", samples=7 * 1024 + 301, seed=11)
        # 2*c = (8, 0.5, 8) scales exactly, so equal gradients mean equal points
        pot = make_v_alpha(4.0)
        admissibility_measure(pot, box, cfg)
        assert [len(c) for c in chunks] == [1024] * 7 + [301]
        assert np.array_equal(np.concatenate(chunks),
                              potential_gradient(pot, one_shot_points(box, cfg)))

    def test_memory_is_bounded_by_the_chunk(self, monkeypatch):
        monkeypatch.setattr(admissibility, "MC_CHUNK", 1024)
        cfg = AdmissibilityConfig(method="monte_carlo", samples=64 * 1024, seed=3)
        pot = make_quadratic(1, 2, 3)
        admissibility_measure(pot, cfg=cfg)  # warm up caches outside the trace
        tracemalloc.start()
        try:
            admissibility_measure(pot, cfg=cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few chunk-sized temporaries: an eighth of drawing all 64 chunks at once
        assert peak < 8 * 24 * admissibility.MC_CHUNK


class TestTable1:
    def test_row_order_and_count(self):
        assert len(TABLE1_COEFFS) == 7
        assert TABLE1_COEFFS[0] == (1.0, 1.0, 1.0)


class TestSweepCsv:
    def test_format(self, tmp_path):
        cfg = AdmissibilityConfig(grid_n=10)
        res = admissibility_measure(make_quadratic(1, 1, 1), cfg=cfg)
        mc = admissibility_measure(make_quadratic(1, 1, 1), cfg=AdmissibilityConfig(
            method="monte_carlo", samples=1000, seed=3))
        path = tmp_path / "sweep.csv"
        write_sweep_csv([((1, 1, 1), 2.0, res), ((1, 1, 1), 2.0, mc)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "c1,c2,c3,q,method,points,J,stderr,excluded"
        assert lines[1].split(",")[4] == "midpoint"
        assert lines[1].split(",")[7] == ""  # midpoint has no stderr
        assert float(lines[2].split(",")[7]) > 0.0
