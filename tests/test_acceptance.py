"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Reference values for the quadrature criteria are the published four-decimal
figures; everything else is checked against closed forms, independent
oracles, or the documented tolerances.
"""

import math
import time

import numpy as np
import pytest

from gradflow import (
    AdmissibilityConfig,
    ControllerParams,
    TABLE1_COEFFS,
    admissibility_measure,
    convergence_order,
    integrate_gradient_flow,
    make_v_alpha,
    simulate,
    table1,
    tracking_deviation,
)
from gradflow.presets import PRESETS
from gradflow.simulator import SimConfig, TERMINATED_GOAL, TERMINATED_HORIZON
from helpers import preset_sim_config
from oracles import (
    averaged_field,
    continuous_averaged_field,
    control_value,
    frame_inverse,
    frame_matrix,
    integrand_rho,
    lie_bracket,
    potential_gradient,
    rho_bruteforce,
    semi_analytic_j,
    vector_fields,
)

TABLE1_REFERENCE = (0.3333, 0.3056, 0.3658, 0.4716, 0.2123, 0.2228, 0.4219)
V_ALPHA_REFERENCE = {2.0: 0.1403, 4.0: 0.0962, 10.0: 0.0906}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def table1_run():
    """The default sweep, X = [-1,1]^3, q = 2, midpoint 200 cells/axis, and its run time."""
    t0 = time.perf_counter()
    results = table1()
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table1_oracle():
    return [semi_analytic_j(coeffs) for coeffs in TABLE1_COEFFS]


def test_criterion_1_table1_reproduction(table1_run):
    results, elapsed = table1_run
    worst = 0.0
    for (coeffs, res), ref in zip(results, TABLE1_REFERENCE):
        worst = max(worst, abs(res.value - ref))
    ok = worst <= 0.005 and elapsed <= 60.0
    report("criterion 1 (seven-cell quadratic sweep)", ok,
           f"max |J - ref| = {worst:.6f} (tol 0.005), runtime {elapsed:.1f}s (cap 60s)")


def test_criterion_1_semi_analytic_agreement(table1_run, table1_oracle):
    worst = max(abs(res.value - exact) for (_, res), exact in zip(table1_run[0], table1_oracle))
    report("criterion 1 (sweep against the semi-analytic J)", worst <= 5e-6,
           f"max |J - J_oracle| = {worst:.2e} (tol 5e-6)")


def test_criterion_1_midpoint_order(table1_run, table1_oracle):
    # the midpoint rule converges as h^2 on a smooth integrand
    grids = (50, 100, 200)
    runs = [table1(cfg=AdmissibilityConfig(grid_n=n)) for n in grids[:-1]] + [table1_run[0]]
    worst = [max(abs(res.value - exact) for (_, res), exact in zip(run, table1_oracle))
             for run in runs]
    order = -float(np.polyfit(np.log(grids), np.log(worst), 1)[0])
    report("criterion 1 (midpoint order)", 1.8 <= order <= 2.4,
           f"worst errors {', '.join(f'{e:.2e}' for e in worst)} at grid_n {grids}: "
           f"order {order:.2f} (want [1.8, 2.4])")


def test_criterion_2_v_alpha_sequence():
    values = {}
    for alpha in (2.0, 4.0, 10.0):
        values[alpha] = admissibility_measure(make_v_alpha(alpha)).value
    worst = max(abs(values[a] - ref) for a, ref in V_ALPHA_REFERENCE.items())
    decreasing = values[2.0] > values[4.0] > values[10.0]
    ok = worst <= 0.005 and decreasing
    report("criterion 2 (anisotropic cost sequence)", ok,
           f"J = {values[2.0]:.4f} > {values[4.0]:.4f} > {values[10.0]:.4f}, "
           f"max |J - ref| = {worst:.6f} (tol 0.005), decreasing = {decreasing}")


def test_criterion_2_semi_analytic_sequence():
    values = [semi_analytic_j(make_v_alpha(alpha).coeffs) for alpha in V_ALPHA_REFERENCE]
    ok = values[0] > values[1] > values[2]
    report("criterion 2 (semi-analytic cost sequence)", ok,
           "J_oracle = " + " > ".join(f"{v:.6f}" for v in values))


def test_criterion_3_residual_oracle_equivalence():
    # the residual as the quadrature's integrand computes it, against a search over u
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        x = rng.uniform(-5.0, 5.0, size=3)
        p = rng.uniform(-1.0, 1.0, size=3)
        norm = np.linalg.norm(p)
        if norm > 0:
            p *= rng.uniform(0.0, 10.0) / norm
        worst = max(worst, abs(integrand_rho(x, p) - rho_bruteforce(x, p, coarse_range=10.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed <= 10.0
    report("criterion 3 (quadrature integrand's residual vs brute force)", ok,
           f"max disagreement = {worst:.2e} on 500 pairs (tol 1e-4), "
           f"runtime {elapsed:.1f}s (cap 10s)")


def test_criterion_4_frame_identity_and_bracket():
    rng = np.random.default_rng(4321)
    eye = np.eye(3)
    worst_frame = 0.0
    worst_bracket = 0.0
    step = 1e-5
    for _ in range(1000):
        x = rng.uniform(-10.0, 10.0, size=3)
        worst_frame = max(worst_frame,
                          np.abs(frame_matrix(x) @ frame_inverse(x) - eye).max())
        fd = np.zeros((3, 3, 2))
        for j in range(3):
            hi, lo = x.copy(), x.copy()
            hi[j] += step
            lo[j] -= step
            f1h, f2h = vector_fields(hi)
            f1l, f2l = vector_fields(lo)
            fd[:, j, 0] = (f1h - f1l) / (2 * step)
            fd[:, j, 1] = (f2h - f2l) / (2 * step)
        f1, f2 = vector_fields(x)
        bracket_fd = fd[:, :, 1] @ f1 - fd[:, :, 0] @ f2
        worst_bracket = max(worst_bracket, np.abs(lie_bracket(x) - bracket_fd).max())
    ok = worst_frame <= 1e-12 and worst_bracket <= 1e-8
    report("criterion 4 (frame identity and bracket)", ok,
           f"max |F F^-1 - I| = {worst_frame:.2e} (tol 1e-12), "
           f"max bracket error = {worst_bracket:.2e} (tol 1e-8), 1000 states")


def test_criterion_5_scale_invariance():
    cfg = AdmissibilityConfig(grid_n=200)
    base = admissibility_measure(make_v_alpha(1.0), cfg=cfg).value
    scaled = admissibility_measure(make_v_alpha(1.0).scaled(3.0), cfg=cfg).value
    diff = abs(scaled - base)
    ok = diff <= 0.001
    report("criterion 5 (scale invariance of the cost)", ok,
           f"|J[3V] - J[V]| = {diff:.2e} (tol 0.001)")


def v_falls_every_period(traj, cfg) -> bool:
    """Whether V at t = 0, eps, 2 eps, ... is strictly below the value before, until
    the goal: the sampling loop's decrease, where the amplitudes are refreshed.

    Every update is logged (log_every = 1), so row k*eps/control_period is at k*eps.
    """
    assert cfg.log_every == 1
    v = traj.potential_values[::round(cfg.controller.epsilon / cfg.control_period)]
    return len(v) > 1 and bool(np.all(np.diff(v) < 0))


def test_criterion_6_preset_convergence():
    details = []
    ok = True
    for name in ("P1", "P2", "P3", "P4"):
        for mode in ("continuous", "sampling"):
            t0 = time.perf_counter()
            cfg = preset_sim_config(name, loop_mode=mode, bounds_mode="ideal")
            traj = simulate(cfg)
            elapsed = time.perf_counter() - t0
            v_drop = traj.potential_values[-1] < traj.potential_values[0]
            run_ok = (traj.terminated == TERMINATED_GOAL
                      and traj.convergence_time < 600.0
                      and v_drop and elapsed <= 120.0)
            if mode == "sampling":
                run_ok = run_ok and v_falls_every_period(traj, cfg)
            ok = ok and run_ok
            details.append(f"{name}/{mode}/ideal t={traj.convergence_time:.1f}s")

            t0 = time.perf_counter()
            cfg = preset_sim_config(name, loop_mode=mode, bounds_mode="clamp")
            clamped = simulate(cfg)
            elapsed = time.perf_counter() - t0
            planar = float(np.hypot(clamped.final_state[0], clamped.final_state[1]))
            max_u1 = float(np.abs(clamped.data[:, 4]).max())
            max_u2 = float(np.abs(clamped.data[:, 5]).max())
            run_ok = (planar < 0.1 and max_u1 <= 0.22 and max_u2 <= 2.84
                      and elapsed <= 120.0)
            if mode == "sampling":
                run_ok = run_ok and v_falls_every_period(clamped, cfg)
            ok = ok and run_ok
            details.append(
                f"{name}/{mode}/clamp planar={planar:.3f} sat={clamped.saturation_count}"
            )
    report("criterion 6 (preset convergence at desk scale)", ok, "; ".join(details))


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_criterion_6_sampling_decrease_at_smaller_eps(eps):
    # 2,000 updates per eps, as refine runs; P1 ideal converges in about 26 s
    cfg = preset_sim_config("P1", loop_mode="sampling", bounds_mode="ideal", epsilon=eps,
                            control_period=eps / 2000)
    traj = simulate(cfg)
    ok = traj.terminated == TERMINATED_GOAL and v_falls_every_period(traj, cfg)
    report(f"criterion 6 (sampling decreases V every period, eps {eps})", ok,
           f"t={traj.convergence_time}s")


def test_criterion_6_continuous_field_on_the_x1_axis():
    # for c1 = c2 the continuous field vanishes on the x1 axis, a continuum of
    # equilibria; the sampling field decreases V there at -gamma |grad V|^2
    potential, gamma, x = make_v_alpha(1.0), 0.05, (0.3, 0.0, 0.0)
    g = potential_gradient(potential, x)
    continuous = continuous_averaged_field(potential, gamma, x)
    dv_sampling = float(averaged_field(potential, gamma, x) @ g)
    ok = (np.array_equal(continuous, np.zeros(3))
          and dv_sampling == pytest.approx(-gamma * float(g @ g), rel=1e-15))
    report("criterion 6 (the two averaged fields on the x1 axis)", ok,
           f"continuous field {continuous.tolist()}, sampling dV/dt {dv_sampling:.4g}")


def test_criterion_6_continuous_mode_stalls_at_eps_half():
    # P1 ideal, eps 0.5 at 2,000 updates per eps: sampling reaches the goal at
    # 26.23 s; continuous drifts out along the x1 axis to x1 = -0.609 and
    # reaches no goal in 400 s
    settings = dict(bounds_mode="ideal", epsilon=0.5, control_period=0.5 / 2000, t_max=400.0,
                    log_every=2000)
    continuous = simulate(preset_sim_config("P1", loop_mode="continuous", **settings))
    sampling = simulate(preset_sim_config("P1", loop_mode="sampling", **settings))
    x1, x2, _ = continuous.final_state.tolist()
    ok = (continuous.terminated == TERMINATED_HORIZON and -0.615 < x1 < -0.6 and abs(x2) < 1e-4
          and sampling.terminated == TERMINATED_GOAL
          and abs(sampling.convergence_time - 26.23) < 0.05)
    report("criterion 6 (continuous mode stalls at eps 0.5)", ok,
           f"continuous {continuous.terminated} at x1={x1:.4f}, x2={x2:.1e}; "
           f"sampling t={sampling.convergence_time}s")


def test_criterion_6_continuous_convergence_time_moves_with_the_hold():
    # P1 ideal, eps 1: continuous mode reaches the goal at 141.66 s with 2,000
    # updates per eps and at 88.53 s with 8,000; sampling mode at 27.005 and
    # 27.00475 s
    def goal_time(mode, n):
        cfg = preset_sim_config("P1", loop_mode=mode, bounds_mode="ideal",
                                control_period=1.0 / n, log_every=n)
        return simulate(cfg).convergence_time

    continuous = [goal_time("continuous", n) for n in (2000, 8000)]
    sampling = [goal_time("sampling", n) for n in (2000, 8000)]
    ok = (None not in continuous + sampling and abs(continuous[0] - 141.66) < 0.05
          and abs(continuous[1] - 88.53) < 0.05 and abs(sampling[0] - sampling[1]) < 0.01)
    report("criterion 6 (the continuous convergence time moves with the hold)", ok,
           f"continuous t={continuous[0]}s at 2,000 updates per eps, {continuous[1]}s at "
           f"8,000; sampling t={sampling[0]}s and {sampling[1]}s")


REFINE_EPS = (0.5, 0.1, 0.02)


@pytest.fixture(scope="module")
def refinement_deviations():
    potential = make_v_alpha(1.0)
    gamma = 0.05
    reference = integrate_gradient_flow(potential.scaled(gamma), [-0.5, -0.5, 0.0],
                                        t_max=2.0, h=1e-3)
    deviations = []
    for eps in REFINE_EPS:
        cp = eps / 2000.0
        controller = ControllerParams(epsilon=eps, gamma=gamma, loop_mode="sampling")
        cfg = SimConfig(potential=potential, controller=controller,
                        x0=(-0.5, -0.5, 0.0), goal_tol=0.0, t_max=2.0,
                        control_period=cp)
        deviations.append(tracking_deviation(simulate(cfg), reference))
    return deviations


def test_criterion_7_epsilon_refinement(refinement_deviations):
    deviations = refinement_deviations
    ok = deviations[0] >= deviations[1] >= deviations[2]
    report("criterion 7 (oscillation-period refinement)", ok,
           "deviations " + " >= ".join(f"{d:.4f}" for d in deviations))


def test_criterion_7_convergence_order(refinement_deviations):
    # Lie-bracket approximations track the averaged flow to O(sqrt(eps))
    slope = convergence_order(REFINE_EPS, refinement_deviations)
    ok = 0.4 <= slope <= 0.6
    report("criterion 7 (tracking order in epsilon)", ok,
           f"log-log slope of deviation against eps = {slope:.4f} (want [0.4, 0.6])")


def test_criterion_8_gradient_flow_exactness():
    traj = integrate_gradient_flow(make_v_alpha(1.0), [-0.5, -0.5, 0.0],
                                   t_max=1.0, h=1e-3)
    expected = math.exp(-2.0) * np.array([-0.5, -0.5, 0.0])
    err = np.abs(traj.final_state - expected).max()
    ok = err <= 1e-15
    report("criterion 8 (gradient-flow closed form)", ok,
           f"max |x(1) - exp(-2) x0| = {err:.2e} (tol 1e-15)")


def test_criterion_9_controller_algebra():
    accepted = []
    for name in PRESETS:
        try:
            preset_sim_config(name)
            accepted.append(name)
        except ValueError:
            pass
    # k2 = 4/k1, so k1 = 1e-320 (k2 = inf) is the only way left to break k1*k2 = 4
    rejected = False
    try:
        ControllerParams(k1=1e-320)
    except ValueError:
        rejected = True

    ctrl = ControllerParams()
    zero_ok = all(
        np.array_equal(control_value(ctrl, np.zeros(3), t)[0], np.zeros(2))
        for t in (0.0, 0.4, 7.3)
    )

    rng = np.random.default_rng(99)
    a = np.array([0.03, -0.02, 0.017])
    period_err = 0.0
    for t in rng.uniform(0.0, 10.0, size=100):
        u0, _ = control_value(ctrl, a, float(t))
        u1, _ = control_value(ctrl, a, float(t) + 1.0)
        period_err = max(period_err, float(np.abs(u1 - u0).max()))

    ok = (len(accepted) == 4 and rejected and zero_ok and period_err <= 1e-12)
    report("criterion 9 (controller algebra)", ok,
           f"presets accepted = {sorted(accepted)}, k1 without a finite k2 rejected = {rejected}, "
           f"zero amplitude -> zero control = {zero_ok}, "
           f"periodicity error = {period_err:.2e} (tol 1e-12)")
