"""Command-line front end.

Subcommands: simulate, admissibility, refine, gradient-flow, plot.
Summaries go to stdout as a single JSON object; errors go to stderr.
Exit codes: 0 success, 1 property-check failure, 2 usage/config error,
3 runtime/integration failure.
"""

import argparse
import json
import os
import stat
import sys

from gradflow import _kernels, simulator
from gradflow.admissibility import (
    AdmissibilityConfig,
    admissibility_measure,
    table1,
    write_sweep_csv,
)
from gradflow.controller import ControllerParams
from gradflow.kinematics import wrap_angle
from gradflow.plotting import render_trajectory_svg
from gradflow.potential import make_quadratic, make_v_alpha
from gradflow.presets import PRESETS, SIM_DEFAULTS, check_settings
# kept under its old name: clibench/replay.py times the config layer by
# wrapping `_sim_config_from_settings` in this module's namespace
from gradflow.presets import sim_config as _sim_config_from_settings
from gradflow.simulator import (
    TRAJECTORY_COLUMNS,
    IntegrationError,
    SimConfig,
    _multiple_of,
    convergence_order,
    integrate_gradient_flow,
    load_trajectory_csv,
    simulate,
    tracking_deviation,
)

# amplitude updates per oscillation period in the refinement study; keeps
# the zero-order hold resolving the fast oscillation at every epsilon
REFINE_UPDATES_PER_EPS = 2000
# the spacing of refine's reference gradient flow
REFINE_REFERENCE_STEP = 1e-3

# the admissibility flags' defaults, read at import: clibench/replay.py may
# wrap this module's `AdmissibilityConfig` name before the parser is built
ADMISSIBILITY_DEFAULTS = AdmissibilityConfig()


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


def _potential_from_flags(args):
    if getattr(args, "v_alpha", None) is not None:
        return make_v_alpha(args.v_alpha)
    if getattr(args, "quadratic", None) is not None:
        return make_quadratic(*args.quadratic)
    raise ValueError("specify a potential with --v-alpha or --quadratic")


def _emit(summary: dict) -> None:
    print(json.dumps(summary))


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
    return check_settings(cfg)


def _settings_for_simulate(args) -> dict:
    """Defaults, then the preset, then the config file, then the flags."""
    settings = dict(SIM_DEFAULTS)
    if args.preset is not None:
        settings.update(PRESETS[args.preset])
    if args.config is not None:
        settings.update(_load_config_file(args.config))
    for key in SIM_DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    return settings


def cmd_simulate(args) -> int:
    if args.preset is None and args.config is None:
        raise ValueError("simulate needs --preset or --config")
    simulator.output_path(args.out)
    settings = _settings_for_simulate(args)
    cfg = _sim_config_from_settings(settings)
    traj = simulate(cfg)
    traj.save_csv(args.out)
    last = traj.rows[-len(TRAJECTORY_COLUMNS):]
    _emit({
        "preset": args.preset,
        "loop_mode": settings["loop_mode"],
        "bounds_mode": settings["bounds_mode"],
        "terminated": traj.terminated,
        "convergence_time": traj.convergence_time,
        "max_abs_u1": traj.max_abs_u1,
        "max_abs_u2": traj.max_abs_u2,
        "saturation_count": traj.saturation_count,
        "final_state": last[1:4].tolist(),
        "x3_end_wrapped": wrap_angle(last[3]),
        "V_end": last[9],
        "rows": len(traj.rows) // len(TRAJECTORY_COLUMNS),
        "csv": args.out,
        "kernel": _kernels.kernel(),
    })
    return 0


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def cmd_admissibility(args) -> int:
    if args.out is not None:
        simulator.output_path(args.out)
    cfg = AdmissibilityConfig(q=args.q, grid_n=args.grid_n, half_width=args.box)
    cells = []
    # the parser requires exactly one of --table1, --v-alpha and --quadratic
    if args.table1:
        for coeffs, res in table1(cfg):
            cells.append({"c": list(coeffs), "result": res})
    elif args.v_alpha is not None:
        for alpha in args.v_alpha:
            pot = make_v_alpha(alpha)
            res = admissibility_measure(pot, cfg)
            cells.append({"c": list(pot.coeffs), "alpha": alpha, "result": res})
    else:
        res = admissibility_measure(make_quadratic(*args.quadratic), cfg)
        cells.append({"c": list(args.quadratic), "result": res})

    if args.out is not None:
        write_sweep_csv(
            [(cell["c"], args.q, cell["result"]) for cell in cells], args.out
        )
    _emit({
        "q": cfg.q,
        "cells": [
            {k: v for k, v in (
                ("c", cell["c"]),
                ("alpha", cell.get("alpha")),
                ("J", cell["result"].value),
                ("points", cell["result"].points),
                ("excluded", cell["result"].excluded),
            ) if v is not None}
            for cell in cells
        ],
        "csv": args.out,
        "kernel": _kernels.kernel(),
    })
    return 0


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def _check_window(window: float, eps: list) -> None:
    """ValueError unless --window fits every grid of refine.

    The window must be a whole number of the reference flow's steps and of
    each run's control period eps/REFINE_UPDATES_PER_EPS.
    """
    grids = [(REFINE_REFERENCE_STEP, "the reference flow's step")]
    grids += [(e / REFINE_UPDATES_PER_EPS,
               f"the control period eps/{REFINE_UPDATES_PER_EPS} of --eps {e}") for e in eps]
    for step, name in grids:
        try:
            n = _multiple_of(window, step)
        except ValueError as exc:
            raise ValueError(f"--window {exc}") from None
        if n is None:
            raise ValueError(f"--window {window} must be a positive multiple of {step:g}, "
                             f"{name}")


def cmd_refine(args) -> int:
    if any(b >= a for a, b in zip(args.eps, args.eps[1:])):
        raise ValueError(f"--eps must be strictly descending, got {args.eps}")
    if args.out is not None:
        simulator.output_path(args.out)
    potential = _potential_from_flags(args)
    # the controllers check gamma and k1 before the reference flow is built from gamma
    controllers = [ControllerParams(epsilon=eps, gamma=args.gamma, k1=args.k1,
                                    loop_mode=args.mode) for eps in args.eps]
    _check_window(args.window, args.eps)
    configs = [SimConfig(potential=potential, controller=controller, x0=args.x0, goal_tol=0.0,
                         t_max=args.window,
                         control_period=controller.epsilon / REFINE_UPDATES_PER_EPS)
               for controller in controllers]
    reference = integrate_gradient_flow(
        potential.scaled(args.gamma), args.x0, t_max=args.window, h=REFINE_REFERENCE_STEP
    )
    # goal_tol = 0 keeps a run from ending early, so the last and longest run's
    # rows are known now: fail before any run starts if they cannot be held
    simulator.check_rows_fit(configs[-1])
    deviations = [tracking_deviation(simulate(cfg), reference) for cfg in configs]
    non_increasing = all(b <= a for a, b in zip(deviations, deviations[1:]))
    # a zero deviation (a run that stays at the equilibrium) has no log to fit
    fit = len(deviations) > 1 and all(d > 0 for d in deviations)
    if args.out is not None:
        with simulator.replacing(args.out) as f:
            f.write(b"epsilon,deviation\n")
            for eps, dev in zip(args.eps, deviations):
                f.write(f"{eps:.9g},{dev:.9g}\n".encode())
    _emit({
        "eps": args.eps,
        "deviations": deviations,
        "non_increasing": non_increasing,
        "slope": convergence_order(args.eps, deviations) if fit else None,
        "window": args.window,
        "loop_mode": args.mode,
        "csv": args.out,
        "kernel": _kernels.kernel(),
    })
    return 0 if non_increasing else 1


# ---------------------------------------------------------------------------
# gradient-flow
# ---------------------------------------------------------------------------

def cmd_gradient_flow(args) -> int:
    simulator.output_path(args.out)
    potential = _potential_from_flags(args)
    traj = integrate_gradient_flow(potential, args.x0, t_max=args.t_max, h=args.h)
    traj.save_csv(args.out)
    last = traj.rows[-len(TRAJECTORY_COLUMNS):]
    _emit({
        "final_state": last[1:4].tolist(),
        "V_end": last[9],
        "rows": len(traj.rows) // len(TRAJECTORY_COLUMNS),
        "csv": args.out,
        "kernel": _kernels.kernel(),
    })
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def cmd_plot(args) -> int:
    if args.out is None and not stat.S_ISREG(os.stat(args.csv_path).st_mode):
        # the SVG beside a pipe or a device, as /dev/stdin.svg, would go in /dev
        raise ValueError(f"{args.csv_path} is not a regular file: name the SVG with --out")
    out = args.out if args.out is not None else os.path.splitext(args.csv_path)[0] + ".svg"
    simulator.output_path(out)
    data = load_trajectory_csv(args.csv_path)
    render_trajectory_svg(data, out)
    _emit({"rows": int(data.shape[0]), "out": out, "kernel": _kernels.kernel()})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_potential_flags(sub, list_valued: bool = False, required: bool = False):
    """The --v-alpha/--quadratic group; returned so a command can add to it."""
    group = sub.add_mutually_exclusive_group(required=required)
    if list_valued:
        group.add_argument("--v-alpha", type=_float_list, metavar="A[,A...]",
                           help="anisotropy values for the v_alpha family")
    else:
        group.add_argument("--v-alpha", type=float, metavar="A",
                           help="anisotropy of the v_alpha potential")
    group.add_argument("--quadratic", type=_triple, metavar="C1,C2,C3",
                       help="diagonal quadratic form coefficients")
    return group


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
    # each dest is a settings key, so _settings_for_simulate picks the flags up by name
    sim.add_argument("--mode", choices=("sampling", "continuous"), dest="loop_mode",
                     help="loop mode")
    sim.add_argument("--bounds", choices=("ideal", "clamp"), dest="bounds_mode",
                     help="velocity bounds mode")
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
    selection = _add_potential_flags(adm, list_valued=True, required=True)
    selection.add_argument("--table1", action="store_true",
                           help="run the published seven-triple coefficient sweep")
    adm.add_argument("--q", type=float, default=ADMISSIBILITY_DEFAULTS.q,
                     help="residual exponent")
    adm.add_argument("--grid-n", type=int, dest="grid_n", default=ADMISSIBILITY_DEFAULTS.grid_n,
                     help="midpoint cells per axis (even)")
    adm.add_argument("--box", type=float, default=ADMISSIBILITY_DEFAULTS.half_width,
                     help="half-width w of the cube [-w, w]^3")
    adm.add_argument("--out", help="sweep CSV path")
    adm.set_defaults(func=cmd_admissibility)

    ref = subs.add_parser("refine", help="tracking deviation against the gradient flow "
                                         "for a descending list of epsilon")
    _add_potential_flags(ref)
    ref.add_argument("--eps", type=_float_list, required=True, metavar="E[,E...]",
                     help="strictly descending oscillation periods")
    ref.add_argument("--window", type=float, default=2.0, help="comparison horizon (s)")
    ref.add_argument("--mode", choices=("sampling", "continuous"), default="sampling",
                     help="loop mode; continuous mode measures the distance to a flow "
                          "that its loop does not track")
    ref.add_argument("--gamma", type=float, default=SIM_DEFAULTS["gamma"],
                     help="feedback gain")
    ref.add_argument("--k1", type=float, default=SIM_DEFAULTS["k1"])
    ref.add_argument("--x0", type=float, nargs=3, default=SIM_DEFAULTS["x0"],
                     metavar=("X1", "X2", "X3"))
    ref.add_argument("--out", help="CSV path for (epsilon, deviation) rows")
    ref.set_defaults(func=cmd_refine)

    gf = subs.add_parser("gradient-flow", help="export the exact flow xdot = -grad V, "
                                               "x_i(t) = x0_i*exp(-2*c_i*t), as CSV")
    _add_potential_flags(gf)
    gf.add_argument("--x0", type=float, nargs=3, default=SIM_DEFAULTS["x0"],
                    metavar=("X1", "X2", "X3"))
    gf.add_argument("--t-max", type=float, dest="t_max", default=10.0)
    gf.add_argument("--h", type=float, default=1e-3, help="spacing of the logged time grid")
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
    except MemoryError as exc:
        print(f"gradflow: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
