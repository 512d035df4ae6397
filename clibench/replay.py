"""Traced in-process replay of one benchmark workload.

Run in a fresh interpreter with the package on the path:

    python3 clibench/replay.py --workload refine --workdir DIR --spans OUT.json

It imports ``gradflow.cli``, parses the workload's command line with the
command's own parser and calls the subcommand function, so it does the
command's work with the command's parameters. Before that, every function
of ``presets``, ``simulator``, ``admissibility`` and ``plotting`` that the
subcommands call is wrapped, as ``cli`` names it, in a span; so are the
config constructors and the JSON output. Spans are kept in memory and
written to ``--spans`` when the replay ends, with the counts taken from
return values and files and with the summary the command printed.
"""

import argparse
import json
import os
import time

from workloads import WORKLOADS

_T0 = time.perf_counter()


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "run": tracer.run_id,
                       "parent": tracer._open[-1] if tracer._open else None,
                       "start": None, "end": None}

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._open.append(self.record["id"])
        self.record["start"] = time.perf_counter() - _T0
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter() - _T0
        self.tracer._open.pop()
        return False


def traced(tr: Tracer, counts: dict, name: str, fn, count=None):
    """`fn` inside a span; `count(result, *args)` adds to `counts` afterwards."""
    def call(*args, **kwargs):
        with tr.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            for key, n in count(result, *args, **kwargs).items():
                counts[key] = counts.get(key, 0) + n
        return result
    return call


def instrument(tr: Tracer, counts: dict, summaries: list, cli) -> None:
    """Wrap the layer calls the subcommands make, in `cli`'s namespace."""
    from gradflow.simulator import Trajectory

    size = os.path.getsize
    wraps = {
        "_settings_for_simulate": ("presets.config", None),
        "_sim_config_from_settings": ("presets.config", None),
        "ControllerParams": ("presets.config", None),
        "SimConfig": ("presets.config", None),
        "AdmissibilityConfig": ("presets.config", None),
        "simulate": ("simulator.simulate", lambda traj, cfg: {
            "simulator.control_updates": round(float(traj.t[-1]) / cfg.control_period),
            "simulator.rows_logged": int(traj.data.shape[0])}),
        "integrate_gradient_flow": ("simulator.gradient_flow", lambda traj, *a, **k: {
            "simulator.gradient_flow_steps": int(traj.data.shape[0]) - 1}),
        "tracking_deviation": ("simulator.tracking_deviation", None),
        "load_trajectory_csv": ("simulator.load_csv", lambda data, path: {
            "simulator.load_csv_bytes": size(path)}),
        "table1": ("admissibility.table1", lambda cells, *a, **k: {
            "admissibility.points": sum(res.points for _, res in cells),
            "admissibility.excluded": sum(res.excluded for _, res in cells)}),
        "write_sweep_csv": ("admissibility.write_sweep_csv", None),
        "render_trajectory_svg": ("plotting.render_svg", lambda _, data, out: {
            "plotting.svg_bytes": size(out)}),
        "_emit": ("cli.emit", lambda _, summary: summaries.append(summary) or {}),
    }
    for attr, (name, count) in wraps.items():
        setattr(cli, attr, traced(tr, counts, name, getattr(cli, attr), count))
    Trajectory.save_csv = traced(tr, counts, "simulator.save_csv", Trajectory.save_csv,
                                 lambda _, traj, path: {"simulator.save_csv_bytes": size(path)})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True,
                        help="where to write spans, counts and the summary")
    args = parser.parse_args()

    tr = Tracer(run_id=f"{args.workload}-{os.getpid()}")
    counts, summaries = {}, []
    with tr.span("cli.import"):
        import gradflow.cli as cli
    instrument(tr, counts, summaries, cli)
    with tr.span("cli.parse_args"):
        cli_args = cli._build_parser().parse_args(WORKLOADS[args.workload].argv(args.workdir))
    code = cli_args.func(cli_args)
    with open(args.spans, "w", encoding="utf-8") as f:
        json.dump({"spans": tr.spans, "counts": counts, "summary": summaries[-1]}, f)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
