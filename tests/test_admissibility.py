import math
import tracemalloc

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
        pot = make_quadratic(2.0, 1.0, 0.5)
        for cfg in (AdmissibilityConfig(grid_n=50),
                    AdmissibilityConfig(method="monte_carlo", samples=20_000, seed=5)):
            base = admissibility_measure(pot, cfg=cfg)
            for c in (2.0 ** -40, 2.0 ** 40):
                scaled = admissibility_measure(pot.scaled(c), cfg=cfg)
                assert scaled.value == base.value
                assert scaled.stderr == base.stderr

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

    def test_monte_carlo_deterministic(self):
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

    @pytest.mark.filterwarnings("error")
    def test_extreme_scale_monte_carlo(self):
        # the same draws as the unit sum of squares, so the same estimate up to rounding
        cfg = AdmissibilityConfig(method="monte_carlo", samples=20_000, seed=3)
        base = admissibility_measure(make_quadratic(1, 1, 1), cfg)
        huge = admissibility_measure(make_quadratic(1e155, 1e155, 1e155), cfg)
        assert abs(huge.value - base.value) <= 1e-12
        assert abs(base.value - 1.0 / 3.0) <= 4.0 * base.stderr

    def test_even_grid_excludes_nothing_for_quadratics(self):
        res = admissibility_measure(make_quadratic(1, 1, 1),
                                    cfg=AdmissibilityConfig(grid_n=40))
        assert res.excluded == 0


grid_sizes = st.integers(1, 8).map(lambda k: 2 * k)
coefficients = st.tuples(*[st.floats(0.1, 10.0)] * 3)
half_widths = st.floats(0.1, 3.0)


def gradient_scale(pot, w):
    """The power of two the quadratures multiply grad V by (see `_gradient_coeffs`)."""
    return 2.0 ** -(np.frexp(pot.coeffs.max())[1] + np.frexp(w)[1])


class TestOneIntegrand:
    """The midpoint's separable slab gradients give J of the full grid, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(coeffs=coefficients, q=st.sampled_from([2.0, 1.5, 3.0]), n=grid_sizes,
           w=half_widths)
    def test_slab_gradients_equal_full_grid(self, coeffs, q, n, w):
        pot = make_quadratic(*coeffs)
        cfg = AdmissibilityConfig(q=q, grid_n=n, half_width=w)
        xs = admissibility._grid_centers(-w, w, n)
        plane1, plane2 = np.meshgrid(xs, xs, indexing="ij")
        total, excluded = 0.0, 0
        for x3 in xs:
            # the unscaled gradient: the scaling must not change a bit of J
            g = potential_gradient(pot, np.stack((plane1, plane2, np.full_like(plane1, x3)), -1))
            vals, exc = admissibility._integrand(g[..., 0], g[..., 1], g[..., 2], math.sin(x3),
                                                 math.cos(x3), q)
            total += float(vals.sum())
            excluded += exc
        res = admissibility_measure(pot, cfg)
        assert res.value == total / n ** 3
        assert res.excluded == excluded == 0

    @pytest.mark.filterwarnings("error")
    def test_zero_gradient_is_excluded(self):
        # grad V = 0 (the origin) is the 0/0 point: it counts as excluded and adds 0
        zero = np.zeros(3)
        vals, excluded = admissibility._integrand(zero, zero, zero, 1.0, 0.0, 1.5)
        assert excluded == 3
        assert vals.tolist() == [0.0, 0.0, 0.0]
        # any nonzero gradient is kept, however small; only the zero one is excluded
        g1 = np.array([0.0, 1e-150, 1.0])
        vals, excluded = admissibility._integrand(g1, 0.0, 0.0, 1.0, 0.0, 2.0)
        assert excluded == 1
        assert vals.tolist() == [0.0, 1.0, 1.0]


def one_shot_points(w, cfg):
    """Every Monte-Carlo point from a single draw of the seed's Philox stream."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    return -w + rng.uniform(size=(cfg.samples, 3)) * (w - -w)


class TestStreamedMonteCarlo:
    def test_chunks_draw_the_one_shot_stream(self, monkeypatch):
        monkeypatch.setattr(admissibility, "MC_CHUNK", 1024)
        chunks = []

        def recording(g1, g2, g3, *args):
            chunks.append(np.column_stack((g1, g2, g3)))
            return integrand(g1, g2, g3, *args)

        integrand = admissibility._integrand
        monkeypatch.setattr(admissibility, "_integrand", recording)
        cfg = AdmissibilityConfig(method="monte_carlo", samples=7 * 1024 + 301, seed=11,
                                  half_width=1.5)
        # 2*c = (8, 0.5, 8) and its scaling are powers of two, so equal gradients
        # mean equal points
        pot = make_v_alpha(4.0)
        admissibility_measure(pot, cfg)
        assert [len(c) for c in chunks] == [1024] * 7 + [301]
        assert np.array_equal(np.concatenate(chunks),
                              gradient_scale(pot, 1.5) * potential_gradient(
                                  pot, one_shot_points(1.5, cfg)))

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
