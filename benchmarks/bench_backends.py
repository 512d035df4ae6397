#!/usr/bin/env python3
"""Benchmark the compiled (numba) and interpreted (numpy) kernel builds.

Times the three hot paths on both backends and reports the worst output
difference so the fallback is checked for agreement, not just speed:

* closed-loop run: preset P1, continuous mode, ideal bounds, 60 s horizon
  at the 0.5 ms command period (120k control updates),
* midpoint quadrature: unit coefficients on [-1,1]^3 at 200 cells/axis
  (8e6 integrand evaluations),
* Monte-Carlo quadrature: 2e6 seeded draws.

The quadrature is numpy on both backends, so its two cases differ by 0 by
construction; they stay so that every consumer of this output keeps its
three lines.

Usage: python benchmarks/bench_backends.py [--repeats N]
"""

import argparse
import time

import numpy as np

from gradflow import (
    AdmissibilityConfig,
    admissibility_measure,
    make_quadratic,
    preset_sim_config,
    set_backend,
    simulate,
)
from gradflow._kernels import HAVE_NUMBA


def timed(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_case(name, fn, repeats, extract):
    rows = {}
    for backend_name in ("numba", "numpy"):
        set_backend(backend_name)
        if backend_name == "numba":
            fn()  # warm-up triggers JIT compilation outside the timing
        best, result = timed(fn, repeats)
        rows[backend_name] = (best, extract(result))
    set_backend(None)
    t_nb, out_nb = rows["numba"]
    t_py, out_py = rows["numpy"]
    diff = float(np.max(np.abs(out_nb - out_py)))
    print(f"{name:<28} numba {t_nb * 1e3:9.1f} ms   numpy {t_py * 1e3:9.1f} ms   "
          f"speedup {t_py / t_nb:6.1f}x   max|diff| {diff:.2e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per backend (best is reported)")
    args = parser.parse_args()

    if not HAVE_NUMBA:
        parser.error("numba is not importable; nothing to compare")

    sim_cfg = preset_sim_config("P1", loop_mode="continuous", bounds_mode="ideal",
                                t_max=60.0, goal_tol=0.0)
    bench_case("closed loop (60 s, P1)",
               lambda: simulate(sim_cfg), args.repeats,
               lambda traj: traj.data[-1, 1:4])

    pot = make_quadratic(1.0, 1.0, 1.0)
    mp_cfg = AdmissibilityConfig(grid_n=200)
    bench_case("midpoint quadrature (200^3)",
               lambda: admissibility_measure(pot, cfg=mp_cfg), args.repeats,
               lambda res: np.array([res.value]))

    mc_cfg = AdmissibilityConfig(method="monte_carlo", samples=2_000_000, seed=2025)
    bench_case("monte carlo (2e6 draws)",
               lambda: admissibility_measure(pot, cfg=mc_cfg), args.repeats,
               lambda res: np.array([res.value]))


if __name__ == "__main__":
    main()
