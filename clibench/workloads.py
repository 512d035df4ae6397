"""The four command-line workloads: their argv, work counts and output checks.

Every check uses tolerances, not byte hashes: a change to the integrator
may legitimately move continuous-mode trajectories in the last digits.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable

TRAJECTORY_HEADER = "t,x1,x2,x3,u1,u2,a1,a2,a12,V,saturated"
SWEEP_HEADER = "c1,c2,c3,q,method,points,J,stderr,excluded"

P1_CONTROL_PERIOD = 5e-4
P1_ROWS = 285_187  # rows of the P1 continuous/clamp trajectory CSV
PUBLISHED_J = (0.3333, 0.3056, 0.3658, 0.4716, 0.2123, 0.2228, 0.4219)
J_TOL = 0.005
REFINE_EPS = (0.5, 0.1, 0.02)
REFINE_SLOPE = (0.4, 0.6)  # fitted order of deviation against eps: O(sqrt(eps))


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what items_per_s counts
    argv: Callable[[str], list]  # workdir -> gradflow arguments
    items: Callable[[dict, dict], int]  # (summary, constants) -> work done
    check: Callable[[dict, str], list]  # (summary, workdir) -> problems found


def plot_input(workdir: str) -> str:
    return os.path.join(workdir, "plot_input.csv")


def _count_lines(path: str) -> int:
    n = 0
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            n += block.count(b"\n")
    return n


def _first_line(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.readline().rstrip("\n")


def _check_sim_p1(s: dict, workdir: str) -> list:
    problems = []
    if s.get("terminated") != "goal_reached":
        problems.append(f"terminated={s.get('terminated')!r}")
    conv = s.get("convergence_time")
    if conv is None or not conv < 600.0:
        problems.append(f"convergence_time={conv}")
    x1, x2 = s["final_state"][:2]
    if not math.hypot(x1, x2) < 0.1:
        problems.append(f"final planar distance {math.hypot(x1, x2):.4g} >= 0.1")
    csv = os.path.join(workdir, "sim_p1.csv")
    if _first_line(csv) != TRAJECTORY_HEADER:
        problems.append("trajectory CSV header differs")
    lines = _count_lines(csv)
    if lines != s["rows"] + 1:
        problems.append(f"trajectory CSV has {lines} lines for {s['rows']} rows")
    return problems


def refine_slope(eps, deviations) -> float:
    """Least-squares slope of log(deviation) against log(eps)."""
    xs, ys = [math.log(e) for e in eps], [math.log(d) for d in deviations]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _check_refine(s: dict, workdir: str) -> list:
    problems = []
    if s.get("non_increasing") is not True:
        problems.append("deviations are not non-increasing")
    devs = s["deviations"]
    if len(devs) != len(REFINE_EPS) or not all(math.isfinite(d) and d > 0 for d in devs):
        return problems + [f"deviations={devs}"]
    slope = refine_slope(REFINE_EPS, devs)
    if not REFINE_SLOPE[0] <= slope <= REFINE_SLOPE[1]:
        problems.append(f"log-log slope {slope:.4f} outside {list(REFINE_SLOPE)}")
    return problems


def _check_table1(s: dict, workdir: str) -> list:
    js = [cell["J"] for cell in s["cells"]]
    problems = []
    if len(js) != len(PUBLISHED_J):
        problems.append(f"{len(js)} cells")
    for j, ref in zip(js, PUBLISHED_J):
        if not abs(j - ref) <= J_TOL:
            problems.append(f"J={j:.5f} vs published {ref}")
    csv = os.path.join(workdir, "table1.csv")
    if _first_line(csv) != SWEEP_HEADER or _count_lines(csv) != len(PUBLISHED_J) + 1:
        problems.append("sweep CSV does not hold a header and 7 data rows")
    return problems


def _check_plot(s: dict, workdir: str) -> list:
    problems = []
    if s.get("rows") != P1_ROWS:
        problems.append(f"plot read {s.get('rows')} rows of {P1_ROWS}")
    with open(os.path.join(workdir, "plot.svg"), "r", encoding="utf-8") as f:
        svg = f.read()
    if not svg.rstrip().endswith("</svg>") or svg.count('<g class="panel">') != 3:
        problems.append("SVG is incomplete or does not have three panels")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sim_p1", "control updates",
            lambda d: ["simulate", "--preset", "P1", "--mode", "continuous",
                       "--bounds", "clamp", "--out", os.path.join(d, "sim_p1.csv")],
            lambda s, c: round(s["convergence_time"] / P1_CONTROL_PERIOD),
            _check_sim_p1,
        ),
        Workload(
            "refine", "control updates",
            lambda d: ["refine", "--v-alpha", "1", "--eps", ",".join(map(str, REFINE_EPS))],
            lambda s, c: sum(round(s["window"] * c["refine_updates_per_eps"] / e)
                             for e in s["eps"]),
            _check_refine,
        ),
        Workload(
            "adm_table1", "quadrature points",
            lambda d: ["admissibility", "--table1", "--out", os.path.join(d, "table1.csv")],
            lambda s, c: sum(cell["points"] for cell in s["cells"]),
            _check_table1,
        ),
        Workload(
            "plot", "rows read",
            lambda d: ["plot", plot_input(d), "--out", os.path.join(d, "plot.svg")],
            lambda s, c: s["rows"],
            _check_plot,
        ),
    )
}
