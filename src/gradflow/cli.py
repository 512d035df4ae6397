"""Command-line front end.

Subcommands: simulate, admissibility, refine, gradient-flow, plot.
Summaries go to stdout as a single JSON object; errors go to stderr.
Exit codes: 0 success, 1 property-check failure, 2 usage/config error,
3 runtime/integration failure.
"""

import argparse
import json
import os
import sys

from gradflow.admissibility import (
    AdmissibilityConfig,
    BoxDomain,
    admissibility_measure,
    table1,
    write_sweep_csv,
)
from gradflow.controller import ControllerParams
from gradflow.kinematics import VelocityBounds, wrap_angle
from gradflow.plotting import render_trajectory_svg
from gradflow.potential import make_quadratic, make_v_alpha
from gradflow.presets import PRESETS
from gradflow.simulator import (
    IntegrationError,
    SimConfig,
    convergence_order,
    integrate_gradient_flow,
    load_trajectory_csv,
    simulate,
    tracking_deviation,
)

# amplitude updates per oscillation period in the refinement study; keeps
# the zero-order hold resolving the fast oscillation at every epsilon
REFINE_UPDATES_PER_EPS = 2000

SIM_DEFAULTS = {
    "potential": {"kind": "v_alpha", "alpha": 1.0},
    "epsilon": 1.0,
    "gamma": 0.05,
    "k1": 0.5,
    "k2": 8.0,
    "u1_max": 0.22,
    "u2_max": 2.84,
    "bounds_mode": "clamp",
    "loop_mode": "continuous",
    "x0": [-0.5, -0.5, 0.0],
    "goal": [0.0, 0.0, 0.0],
    "goal_tol": 0.05,
    "t_max": 600.0,
    "control_period": 5e-4,
    "log_every": 1,
}


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _triple(text: str) -> list[float]:
    vals = _float_list(text)
    if len(vals) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    return vals


def _matches(value, default) -> bool:
    """Whether a config value has the JSON type of its default; no bool is a number."""
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_matches, value, default)))
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def _potential_from_spec(spec):
    kind = spec.get("kind")
    if kind == "v_alpha":
        if not _matches(spec.get("alpha"), 1.0):
            raise ValueError("v_alpha potential spec needs a number \"alpha\"")
        return make_v_alpha(float(spec["alpha"]))
    if kind == "quadratic":
        c = spec.get("c")
        if not _matches(c, [1.0, 1.0, 1.0]):
            raise ValueError("quadratic potential spec needs \"c\": [c1, c2, c3] of numbers")
        return make_quadratic(*map(float, c))
    raise ValueError(f"unknown potential kind {kind!r} (expected 'v_alpha' or 'quadratic')")


def _potential_from_flags(args):
    if getattr(args, "v_alpha", None) is not None:
        return make_v_alpha(args.v_alpha)
    if getattr(args, "quadratic", None) is not None:
        return make_quadratic(*args.quadratic)
    raise ValueError("specify a potential with --v-alpha or --quadratic")


def _emit(summary: dict) -> None:
    print(json.dumps(summary))


def _mc_seed(args_seed: int) -> int:
    env = os.environ.get("GRADFLOW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"GRADFLOW_SEED must be an integer, got {env!r}") from None
    return args_seed


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    unknown = set(cfg) - set(SIM_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        if not _matches(value, SIM_DEFAULTS[key]):
            raise ValueError(f"config key {key!r} must have the JSON type of its default "
                             f"{SIM_DEFAULTS[key]!r}, got {value!r}")
    return cfg


def _settings_for_simulate(args) -> dict:
    settings = dict(SIM_DEFAULTS)
    if args.preset is not None:
        preset = PRESETS[args.preset]
        settings.update(
            potential={"kind": "v_alpha", "alpha": preset.alpha},
            epsilon=preset.epsilon, gamma=preset.gamma,
            k1=preset.k1, k2=preset.k2,
            u1_max=preset.u1_max, u2_max=preset.u2_max,
            x0=list(preset.x0), goal=list(preset.goal),
        )
    if args.config is not None:
        settings.update(_load_config_file(args.config))
    for key, flag in (
        ("loop_mode", "mode"), ("bounds_mode", "bounds"), ("t_max", "t_max"),
        ("goal_tol", "goal_tol"), ("control_period", "control_period"),
        ("log_every", "log_every"), ("gamma", "gamma"),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            settings[key] = val
    return settings


def _sim_config_from_settings(settings: dict) -> SimConfig:
    if settings["bounds_mode"] == "ideal":
        bounds = VelocityBounds()
    else:
        bounds = VelocityBounds(float(settings["u1_max"]), float(settings["u2_max"]),
                                mode=settings["bounds_mode"])
    controller = ControllerParams(
        epsilon=float(settings["epsilon"]), gamma=float(settings["gamma"]),
        k1=float(settings["k1"]), k2=float(settings["k2"]),
        bounds=bounds, loop_mode=settings["loop_mode"],
    )
    return SimConfig(
        potential=_potential_from_spec(settings["potential"]),
        controller=controller, x0=settings["x0"], goal=settings["goal"],
        goal_tol=float(settings["goal_tol"]), t_max=float(settings["t_max"]),
        control_period=float(settings["control_period"]),
        log_every=settings["log_every"],
    )


def cmd_simulate(args) -> int:
    if args.preset is None and args.config is None:
        raise ValueError("simulate needs --preset or --config")
    settings = _settings_for_simulate(args)
    cfg = _sim_config_from_settings(settings)
    traj = simulate(cfg)
    csv_processes = traj.save_csv(args.out)
    conv = traj.convergence_time
    _emit({
        "preset": args.preset,
        "loop_mode": settings["loop_mode"],
        "bounds_mode": settings["bounds_mode"],
        "terminated": traj.terminated,
        "convergence_time": conv if conv is None else float(conv),
        "max_abs_u1": traj.max_abs_u1,
        "max_abs_u2": traj.max_abs_u2,
        "saturation_count": traj.saturation_count,
        "final_state": [float(v) for v in traj.final_state],
        "x3_end_wrapped": wrap_angle(float(traj.final_state[2])),
        "V_end": float(traj.potential_values[-1]),
        "rows": int(traj.data.shape[0]),
        "csv": args.out,
        "csv_processes": csv_processes,
    })
    return 0


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def cmd_admissibility(args) -> int:
    cfg = AdmissibilityConfig(
        q=args.q, method=args.method, grid_n=args.grid_n,
        samples=args.samples, seed=_mc_seed(args.seed), grad_floor=args.grad_floor,
    )
    domain = BoxDomain.cube(args.box)
    cells = []
    if args.table1:
        for coeffs, res in table1(domain, cfg, jobs=args.jobs):
            cells.append({"c": list(coeffs), "result": res})
    elif args.v_alpha is not None:
        for alpha in args.v_alpha:
            pot = make_v_alpha(alpha)
            res = admissibility_measure(pot, domain, cfg, jobs=args.jobs)
            cells.append({"c": [float(v) for v in pot.coeffs], "alpha": alpha, "result": res})
    elif args.quadratic is not None:
        res = admissibility_measure(make_quadratic(*args.quadratic), domain, cfg,
                                    jobs=args.jobs)
        cells.append({"c": list(args.quadratic), "result": res})
    else:
        raise ValueError("admissibility needs --table1, --v-alpha, or --quadratic")

    if args.out is not None:
        write_sweep_csv(
            [(cell["c"], args.q, cell["result"]) for cell in cells], args.out
        )
    _emit({
        "method": cfg.method,
        "q": cfg.q,
        "cells": [
            {k: v for k, v in (
                ("c", cell["c"]),
                ("alpha", cell.get("alpha")),
                ("J", cell["result"].value),
                ("stderr", cell["result"].stderr),
                ("points", cell["result"].points),
                ("excluded", cell["result"].excluded),
            ) if v is not None or k in ("J", "stderr")}
            for cell in cells
        ],
        "csv": args.out,
    })
    return 0


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def cmd_refine(args) -> int:
    if len(args.eps) == 0:
        raise ValueError("refine needs a nonempty --eps list")
    if any(b >= a for a, b in zip(args.eps, args.eps[1:])):
        raise ValueError(f"--eps must be strictly descending, got {args.eps}")
    potential = _potential_from_flags(args)
    reference = integrate_gradient_flow(
        potential.scaled(args.gamma), args.x0, t_max=args.window, h=1e-3
    )
    deviations = []
    for eps in args.eps:
        cp = eps / REFINE_UPDATES_PER_EPS
        controller = ControllerParams(
            epsilon=eps, gamma=args.gamma, k1=args.k1, k2=args.k2,
            loop_mode=args.mode,
        )
        cfg = SimConfig(
            potential=potential, controller=controller, x0=args.x0,
            goal_tol=0.0, t_max=args.window, control_period=cp,
        )
        deviations.append(tracking_deviation(simulate(cfg), reference))
    non_increasing = all(b <= a for a, b in zip(deviations, deviations[1:]))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write("epsilon,deviation\n")
            for eps, dev in zip(args.eps, deviations):
                f.write(f"{eps:.9g},{dev:.9g}\n")
    _emit({
        "eps": args.eps,
        "deviations": deviations,
        "non_increasing": non_increasing,
        "slope": convergence_order(args.eps, deviations) if len(deviations) > 1 else None,
        "window": args.window,
        "loop_mode": args.mode,
        "csv": args.out,
    })
    return 0 if non_increasing else 1


# ---------------------------------------------------------------------------
# gradient-flow
# ---------------------------------------------------------------------------

def cmd_gradient_flow(args) -> int:
    potential = _potential_from_flags(args)
    traj = integrate_gradient_flow(potential, args.x0, t_max=args.t_max, h=args.h,
                                   log_every=args.log_every)
    csv_processes = traj.save_csv(args.out)
    _emit({
        "final_state": [float(v) for v in traj.final_state],
        "V_end": float(traj.potential_values[-1]),
        "rows": int(traj.data.shape[0]),
        "csv": args.out,
        "csv_processes": csv_processes,
    })
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def cmd_plot(args) -> int:
    data = load_trajectory_csv(args.csv_path)
    out = args.out if args.out is not None else os.path.splitext(args.csv_path)[0] + ".svg"
    render_trajectory_svg(data, out)
    _emit({"rows": int(data.shape[0]), "out": out})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_potential_flags(sub, list_valued: bool = False):
    group = sub.add_mutually_exclusive_group()
    if list_valued:
        group.add_argument("--v-alpha", type=_float_list, metavar="A[,A...]",
                           help="anisotropy values for the v_alpha family")
    else:
        group.add_argument("--v-alpha", type=float, metavar="A",
                           help="anisotropy of the v_alpha potential")
    group.add_argument("--quadratic", type=_triple, metavar="C1,C2,C3",
                       help="diagonal quadratic form coefficients")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradflow",
        description="Oscillatory stabilizing feedback for the unicycle: "
                    "simulation, admissibility quadrature, and plots.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # no prefix matching: the removed step flag --h would otherwise print --help and exit 0
    sim = subs.add_parser("simulate", help="run the closed loop and export a trajectory CSV",
                          allow_abbrev=False)
    sim.add_argument("--preset", choices=sorted(PRESETS), help="experiment preset")
    sim.add_argument("--config", help="JSON config file (flags override its fields)")
    sim.add_argument("--mode", choices=("sampling", "continuous"), help="loop mode")
    sim.add_argument("--bounds", choices=("ideal", "clamp"), help="velocity bounds mode")
    sim.add_argument("--gamma", type=float, help="feedback gain")
    sim.add_argument("--t-max", type=float, dest="t_max", help="horizon (s)")
    sim.add_argument("--goal-tol", type=float, dest="goal_tol", help="stop radius")
    sim.add_argument("--control-period", type=float, dest="control_period",
                     help="zero-order-hold interval (s)")
    sim.add_argument("--log-every", type=int, dest="log_every",
                     help="log every Nth control update")
    sim.add_argument("--out", default="trajectory.csv", help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    adm = subs.add_parser("admissibility", help="evaluate the admissibility cost J")
    adm.add_argument("--table1", action="store_true",
                     help="run the published seven-triple coefficient sweep")
    _add_potential_flags(adm, list_valued=True)
    adm.add_argument("--q", type=float, default=2.0, help="residual exponent")
    adm.add_argument("--method", choices=("midpoint", "monte_carlo"), default="midpoint")
    adm.add_argument("--grid-n", type=int, dest="grid_n", default=200,
                     help="midpoint cells per axis (even)")
    adm.add_argument("--samples", type=int, default=1_000_000, help="Monte-Carlo draws")
    adm.add_argument("--seed", type=int, default=2025,
                     help="Monte-Carlo seed (GRADFLOW_SEED overrides)")
    adm.add_argument("--grad-floor", type=float, dest="grad_floor", default=1e-12,
                     help="exclude points with |grad V| at or below this")
    adm.add_argument("--box", type=float, default=1.0, help="domain half-width")
    adm.add_argument("--jobs", type=int, default=1, help="parallel workers (at least 1)")
    adm.add_argument("--out", help="sweep CSV path")
    adm.set_defaults(func=cmd_admissibility)

    ref = subs.add_parser("refine", help="tracking deviation against the gradient flow "
                                         "for a descending list of epsilon")
    _add_potential_flags(ref)
    ref.add_argument("--eps", type=_float_list, required=True, metavar="E[,E...]",
                     help="strictly descending oscillation periods")
    ref.add_argument("--window", type=float, default=2.0, help="comparison horizon (s)")
    ref.add_argument("--mode", choices=("sampling", "continuous"), default="sampling")
    ref.add_argument("--gamma", type=float, default=0.05, help="feedback gain")
    ref.add_argument("--k1", type=float, default=0.5)
    ref.add_argument("--k2", type=float, default=8.0)
    ref.add_argument("--x0", type=float, nargs=3, default=[-0.5, -0.5, 0.0],
                     metavar=("X1", "X2", "X3"))
    ref.add_argument("--out", help="CSV path for (epsilon, deviation) rows")
    ref.set_defaults(func=cmd_refine)

    gf = subs.add_parser("gradient-flow", help="integrate xdot = -grad V and export CSV")
    _add_potential_flags(gf)
    gf.add_argument("--x0", type=float, nargs=3, default=[-0.5, -0.5, 0.0],
                    metavar=("X1", "X2", "X3"))
    gf.add_argument("--t-max", type=float, dest="t_max", default=10.0)
    gf.add_argument("--h", type=float, default=1e-3)
    gf.add_argument("--log-every", type=int, dest="log_every", default=1)
    gf.add_argument("--out", default="gradient_flow.csv", help="output CSV path")
    gf.set_defaults(func=cmd_gradient_flow)

    plot = subs.add_parser("plot", help="render a trajectory CSV to a three-panel SVG")
    plot.add_argument("csv_path", help="trajectory CSV produced by simulate/gradient-flow")
    plot.add_argument("--out", help="output SVG path (default: CSV path with .svg)")
    plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except IntegrationError as exc:
        print(f"gradflow: integration failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"gradflow: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gradflow: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
