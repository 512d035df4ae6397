#!/usr/bin/env python3
"""End-to-end benchmark of the gradflow command line.

    python3 clibench/run.py --workload sim_p1 --seed 1 --seconds 28 --trace 0
    python3 clibench/run.py --workload all --seconds 60      # every workload

Run from any directory; the package is taken from ``src/`` beside this
directory, never from an installed copy. One parent process drives fresh
``gradflow`` processes one at a time (a closed loop with one client) until
``--seconds`` have passed, with an import-only process before each run.
Every run's outputs are checked after its timer stops.

``--trace 0`` prints the end-to-end metrics of the workload: ``wall_s``,
``items_per_s``, ``setup_s`` and ``peak_rss_mb``, with ``error_rate`` on
the human-readable lines. The timings are scaled to a reference host speed
by a yardstick timed right before and right after each sample (see
``REF_S``); the unscaled medians are printed beside them.

``--trace 1`` replays every workload in-process through ``replay.py``, with
spans around each call into a layer, next to an untraced command run of the
same workload. It checks that both did the same work and prints the
per-layer metrics, which are not scaled, as ``<workload>.<layer>.<name>``.
When numba imports, it also runs the numba/numpy agreement check of
``benchmarks/bench_backends.py``; otherwise it reports that check skipped.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--save FILE`` also writes the
raw samples and the provenance (backend, versions, CPU, source digest) for
``compare.py``.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS, plot_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
CHILD_TIMEOUT_S = 60.0  # the slowest workload takes about 5 s here
MIN_SETUP_SAMPLES = 15
# Host speed drifts in phases of seconds to minutes, by up to 40 %, and child
# CPU time drifts with it. So each timing sample is scaled by
# REF_S[yardstick] / (mean of the yardstick's times right before and right
# after it). A command run's yardstick is a fixed loop in this process
# (reference_s); an import-only process's is a fresh interpreter that imports
# numpy and nothing of gradflow (import_reference_s), which spends its time
# the way the import does: spawning, reading files, loading extensions. REF_S
# is about what each takes on a 2-vCPU Intel Xeon host.
REF_S = {"loop": 0.05, "import": 0.15}
IMPORT_REFERENCE = "import numpy"
# numba and numpy builds of one kernel agree to rounding, not bitwise; in the
# order bench_backends.py prints them: closed-loop state, midpoint J, Monte-Carlo J
AGREEMENT_TOL = (1e-9, 1e-12, 1e-12)

PROBE = """
import json, sys, numpy, gradflow, gradflow.cli
from gradflow import _kernels
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
print(json.dumps({
    "backend": _kernels.backend(), "numba": numba_version,
    "python": sys.version.split()[0], "numpy": numpy.__version__,
    "package": gradflow.__file__,
    "refine_updates_per_eps": gradflow.cli.REFINE_UPDATES_PER_EPS,
}))
"""


def reference_s() -> float:
    """Time a fixed interpreted loop that never touches gradflow.

    It is the host-speed yardstick. It runs in this process, which never
    loads numpy: a child's peak RSS, as wait4 reports it, starts from its
    parent's.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400_000):
        acc += math.sin(i * 1e-3)
    return time.perf_counter() - t0


class Child:
    """One finished child process: wall time, peak RSS, exit code and output."""

    def __init__(self, argv, workdir: Path, tag: str):
        out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=CHILD_ENV, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")

    def failure(self):
        if self.code == 0:
            return None
        tail = self.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit code {self.code}: {tail[0]}"

    def last_json(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


def python(*args) -> list:
    return [sys.executable, *args]


def run_cli(w, workdir: Path):
    """One command run: (child, summary or None, problems)."""
    child = Child(python("-m", "gradflow.cli", *w.argv(str(workdir))), workdir, w.name)
    problem = child.failure()
    if problem:
        return child, None, [problem]
    try:
        summary = child.last_json()
        return child, summary, w.check(summary, str(workdir))
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return child, None, [f"output check raised {exc!r}"]


def import_s(code: str, workdir: Path) -> float:
    child = Child(python("-c", code), workdir, "setup")
    if child.failure():
        raise RuntimeError(f"{code} failed: {child.failure()}")
    return child.wall_s


def measure(names, seconds, workdir, consts):
    """Untraced runs, round robin over `names`, until `seconds` have passed.

    An import-only process runs before each command run. Each sample is
    bracketed by its yardstick and kept both as measured and scaled.
    """
    runs = {n: {"wall_s": [], "raw_wall_s": [], "rss_mb": [], "items": set(),
                "attempted": 0, "problems": []} for n in names}
    setup, raw_setup = [], []
    refs = {"loop": [], "import": []}
    deadline = time.perf_counter() + seconds

    def bracketed(yardstick, kind, sample):
        """(sample(), its scale factor) with yardstick() timed on both sides."""
        before = yardstick()
        value = sample()
        after = yardstick()
        refs[kind] += [before, after]
        return value, REF_S[kind] / ((before + after) / 2)

    def setup_sample():
        raw, factor = bracketed(lambda: import_s(IMPORT_REFERENCE, workdir), "import",
                                lambda: import_s("import gradflow.cli", workdir))
        raw_setup.append(raw)
        setup.append(raw * factor)

    while True:
        for n in names:
            setup_sample()
            (child, summary, problems), factor = bracketed(
                reference_s, "loop", lambda: run_cli(WORKLOADS[n], workdir))
            r = runs[n]
            r["attempted"] += 1
            if problems:
                r["problems"].append(problems)
                continue
            r["wall_s"].append(child.wall_s * factor)
            r["raw_wall_s"].append(child.wall_s)
            r["rss_mb"].append(child.rss_mb)
            r["items"].add(WORKLOADS[n].items(summary, consts))
        if time.perf_counter() >= deadline:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup_sample()

    metrics = {}
    samples = {"setup_s": setup, "raw_setup_s": raw_setup, "reference_s": refs}
    attempted = failed = 0
    for n, r in runs.items():
        attempted += r["attempted"]
        failed += len(r["problems"])
        if not r["wall_s"]:
            continue
        if len(r["items"]) != 1:
            r["problems"].append([f"work count changed between runs: {sorted(r['items'])}"])
            failed += 1
        wall = median(r["wall_s"])
        metrics[n] = {
            "wall_s": (wall, "s"),
            "items_per_s": (max(r["items"]) / wall, "1/s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median(r["rss_mb"]), "MB"),
        }
        samples[n] = {k: r[k] for k in ("wall_s", "raw_wall_s", "rss_mb")}
    return metrics, samples, attempted, failed, runs


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the time children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def layer_metrics(replay: dict, traced_wall: float) -> dict:
    """Per-layer values of one traced replay, keyed without the workload prefix."""
    spans = replay["spans"]
    m = {f"{k}_s": v for k, v in self_times(spans).items()}
    m.update(replay["counts"])
    m["trace.unattributed_s"] = traced_wall - sum(
        s["end"] - s["start"] for s in spans if s["parent"] is None)
    if "simulator.control_updates" in m:
        m["simulator.us_per_update"] = (
            m["simulator.simulate_s"] / m["simulator.control_updates"] * 1e6)
    if "simulator.save_csv_bytes" in m:
        m["simulator.save_csv_mb_per_s"] = (
            m["simulator.save_csv_bytes"] / 1e6 / m["simulator.save_csv_s"])
    if "simulator.load_csv_bytes" in m:
        m["simulator.load_csv_mb_per_s"] = (
            m["simulator.load_csv_bytes"] / 1e6 / m["simulator.load_csv_s"])
    if "admissibility.points" in m:
        m["admissibility.ns_per_point"] = (
            m["admissibility.table1_s"] / m["admissibility.points"] * 1e9)
        m["admissibility.kept_fraction"] = (
            1.0 - m.pop("admissibility.excluded") / m["admissibility.points"])
    return m


def output_sizes(summary: dict) -> dict:
    """Byte size of each file a command run wrote, by the path its summary gives."""
    return {p: os.path.getsize(p) for p in (summary.get("csv"), summary.get("out")) if p}


def same_work(summary: dict, sizes: dict, replay: dict) -> list:
    """Differences between a command run's outputs and its traced replay's.

    The replay parses the same command line, so it must print the same
    summary and write files of the same size to the same paths.
    """
    problems = [f"replay wrote {os.path.getsize(p)} bytes to {p}, the command {n}"
                for p, n in sizes.items() if os.path.getsize(p) != n]
    theirs = replay["summary"]
    differ = sorted(k for k in summary.keys() | theirs.keys() if summary.get(k) != theirs.get(k))
    if differ:
        problems.append(f"replay summary differs from the command's in {differ}")
    return problems


def layer_unit(key: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_update", "us"), ("_per_point", "ns"),
                         ("_bytes", "bytes"), ("_fraction", "fraction"), ("_s", "s")):
        if key.endswith(suffix):
            return unit
    return "count"


def measure_traced(seconds, workdir):
    """Rounds of (command run, traced replay) over every workload."""
    per = {n: {"cli": [], "traced": [], "layers": [], "attempted": 0, "problems": []}
           for n in WORKLOADS}
    spans = []
    deadline = time.perf_counter() + seconds
    while True:
        for n, w in WORKLOADS.items():
            r = per[n]
            r["attempted"] += 1
            child, summary, problems = run_cli(w, workdir)
            sizes = output_sizes(summary) if summary is not None else {}
            spans_path = workdir / f"spans_{n}.json"
            traced = Child(python(str(HERE / "replay.py"), "--workload", n,
                                  "--workdir", str(workdir), "--spans", str(spans_path)),
                           workdir, f"replay_{n}")
            if traced.failure():
                problems = problems + [f"replay {traced.failure()}"]
            elif summary is not None:
                replay = json.loads(spans_path.read_text(encoding="utf-8"))
                problems = problems + same_work(summary, sizes, replay)
            if problems:
                r["problems"].append(problems)
                continue
            r["cli"].append(child.wall_s)
            r["traced"].append(traced.wall_s)
            r["layers"].append(layer_metrics(replay, traced.wall_s))
            spans.extend(replay["spans"])
        if time.perf_counter() >= deadline:
            break

    metrics = {}
    for n, r in per.items():
        if not r["layers"]:
            continue
        for key in r["layers"][0]:
            metrics[f"{n}.{key}"] = (median([m[key] for m in r["layers"]]), layer_unit(key))
        metrics[f"{n}.trace.overhead_s"] = (median(r["traced"]) - median(r["cli"]), "s")
    attempted = sum(r["attempted"] for r in per.values())
    failed = sum(len(r["problems"]) for r in per.values())
    samples = {n: {k: r[k] for k in ("cli", "traced", "layers")} for n, r in per.items()}
    samples["spans"] = spans
    return metrics, samples, attempted, failed, {n: r["problems"] for n, r in per.items()}


def check_agreement(prov, workdir):
    """Worst numba-vs-numpy differences from bench_backends.py; None without numba."""
    if prov["numba"] is None:
        return None, []
    child = Child(python(str(ROOT / "benchmarks" / "bench_backends.py"), "--repeats", "1"),
                  workdir, "agreement")
    if child.failure():
        return None, [f"agreement check {child.failure()}"]
    diffs = {line.split("  ")[0]: float(line.rsplit(" ", 1)[1])
             for line in child.stdout.splitlines() if "max|diff|" in line}
    problems = [f"numba/numpy {case!r} differ by {d:.3g} > {tol:g}"
                for (case, d), tol in zip(diffs.items(), AGREEMENT_TOL) if not d <= tol]
    if len(diffs) != len(AGREEMENT_TOL):
        problems.append(f"bench_backends.py reported {len(diffs)} cases, not {len(AGREEMENT_TOL)}")
    return diffs, problems


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workdir: Path) -> dict:
    child = Child(python("-c", PROBE), workdir, "probe")
    if child.failure():
        raise RuntimeError(f"cannot import gradflow from {SRC}: {child.failure()}")
    prov = child.last_json()
    if not Path(prov["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"gradflow imported from {prov['package']}, not from {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    prov.update(nproc=len(os.sched_getaffinity(0)), cpu=cpu, commit=commit,
                source_sha256=source_digest(),
                gradflow_backend_env=os.environ.get("GRADFLOW_BACKEND"))
    return prov


def print_end_to_end(metrics, samples, runs):
    raw_setup = samples["raw_setup_s"]
    for kind, refs in samples["reference_s"].items():
        print(f"host: {kind} yardstick median {median(refs):.4f} s over {len(refs)} "
              f"runs (REF_S {REF_S[kind]} s)")
    for n, m in metrics.items():
        walls, raw = samples[n]["wall_s"], samples[n]["raw_wall_s"]
        print(f"{n:<11} wall_s       {m['wall_s'][0]:10.4f} s     median of {len(walls)} "
              f"(min {min(walls):.4f}, max {max(walls):.4f}); "
              f"unscaled {median(raw):.4f} s")
        print(f"{n:<11} items_per_s  {m['items_per_s'][0]:10.4g} 1/s   "
              f"{WORKLOADS[n].item} per second")
        print(f"{n:<11} setup_s      {m['setup_s'][0]:10.4f} s     median of {len(raw_setup)} "
              f"import-only processes; unscaled {median(raw_setup):.4f} s")
        print(f"{n:<11} peak_rss_mb  {m['peak_rss_mb'][0]:10.1f} MB")
    for n, r in runs.items():
        print(f"{n:<11} error_rate   {len(r['problems']) / r['attempted']:10.4f}       "
              f"{len(r['problems'])} of {r['attempted']} runs failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated plot input")
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measure for this long (at least one run each)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write samples and provenance to this JSON file")
    args = parser.parse_args()
    # a SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "gradflow" / "cli.py").is_file():
        print(f"run.py: no gradflow sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".clibench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        try:
            return report(args, workdir, provenance(workdir))
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def report(args, workdir: Path, prov: dict) -> int:
    """Measure, print the readable lines and the result line; return the exit code."""
    consts = {"refine_updates_per_eps": prov["refine_updates_per_eps"]}
    names = list(WORKLOADS) if args.workload == "all" or args.trace else [args.workload]
    if "plot" in names:
        child = Child(python(str(HERE / "plotinput.py"), plot_input(str(workdir)),
                             str(args.seed)), workdir, "plotinput")
        if child.failure():
            print(f"run.py: cannot write the plot input: {child.failure()}",
                  file=sys.stderr)
            return 2

    print("provenance " + json.dumps(prov, sort_keys=True))
    agreement = None
    if args.trace:
        metrics, samples, attempted, failed, problems = measure_traced(
            args.seconds, workdir)
        agreement, agreement_problems = check_agreement(prov, workdir)
        if agreement_problems:
            problems["agreement"] = [agreement_problems]
            failed += 1
        print("numba agreement: " + (json.dumps(agreement) if agreement is not None
                                     else "skipped (numba is not importable)"))
        for key, (value, unit) in metrics.items():
            print(f"{key:<44} {value:14.6g} {unit}")
        flat = metrics
    else:
        metrics, samples, attempted, failed, runs = measure(
            names, args.seconds, workdir, consts)
        print_end_to_end(metrics, samples, runs)
        problems = {n: r["problems"] for n, r in runs.items()}
        single = args.workload != "all"
        flat = {(k if single else f"{n}.{k}"): v
                for n, m in metrics.items() for k, v in m.items()}
    for n, failures in problems.items():
        for p in failures:
            print(f"FAILED {n}: {'; '.join(p)}")
    if not flat:
        print("run.py: no run succeeded, nothing to report", file=sys.stderr)
        return 1

    if args.save:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": prov, "agreement": agreement,
                  "attempted": attempted, "failed": failed, "problems": problems,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in flat.items()},
                  "samples": samples}
        Path(args.save).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in flat.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
