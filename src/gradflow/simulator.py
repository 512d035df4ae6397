"""Closed-loop simulation and the reference gradient flow, with trajectory logging.

The closed loop is xdot = u1*f1(x) + u2*f2(x) under a zero-order hold:
controls are evaluated at multiples of `control_period` and held constant
in between, and over each hold the state follows the exact (circular-arc)
flow of the unicycle, so there is no integrator step to choose. Two
solution semantics are supported, selected by the controller's loop mode:

* "sampling": the amplitude vector is recomputed from the state only at
  multiples of epsilon and frozen in between, while the cos/sin factors
  keep evolving with absolute time,
* "continuous": the amplitude vector is recomputed at every control update.

Time in the oscillatory terms is absolute simulation time throughout; the
phase is never reset. The goal is the origin, the minimiser of every
potential: goal detection runs at control-update instants on the
full-state Euclidean distance to it.

The reference dynamics xdot = -grad V of a diagonal quadratic V decouple
into x_i(t) = x0_i * exp(-2*c_i*t), so `integrate_gradient_flow` evaluates
that closed form on its logged grid instead of integrating.
"""

import math
import os
import shutil
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from gradflow import _csv_worker, _kernels
from gradflow.controller import ControllerParams
from gradflow.kinematics import as_state, check_scalar
from gradflow.potential import Potential

TRAJECTORY_COLUMNS = ("t", "x1", "x2", "x3", "u1", "u2", "a1", "a2", "a12", "V", "saturated")
CSV_HEADER = ",".join(TRAJECTORY_COLUMNS)
CSV_ROW = ",".join(["%.9g"] * len(TRAJECTORY_COLUMNS)) + "\n"  # %-template of one row
CSV_CHUNK_ROWS = 1024  # rows per %-format call in save_csv
# blocks a worker interpreter must format to repay its ~15 ms start: on 2 vCPUs
# two shares of 8 blocks broke even against one process, two of 12 saved 20 %
CSV_MIN_SHARE_BLOCKS = 12
_CSV_WORKER_COMMAND = [sys.executable, "-I", "-S",
                       os.path.join(os.path.dirname(__file__), "_csv_worker.py")]

TERMINATED_GOAL = "goal_reached"
TERMINATED_HORIZON = "horizon_exhausted"


class IntegrationError(RuntimeError):
    """V, a control or an amplitude became non-finite: the `_kernels` row rule broke.

    V stands for the state. Carries the trajectory logged so far.
    """

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed log of a run.

    data has one row per logged instant with columns TRAJECTORY_COLUMNS:
    time, state, applied control, amplitude vector in effect, potential
    value, and whether the control was saturated. Rows are strictly
    increasing in t, and the first row is the initial state at t = 0.

    convergence_time is the time of the update that reached the goal, or
    None when the run used its whole horizon; `terminated` names which.
    saturation_count, max_abs_u1 and max_abs_u2 cover every control update
    of the run, logged or not. Equality and hashing are by identity: data is
    an array.
    """

    data: np.ndarray
    convergence_time: float | None
    saturation_count: int
    max_abs_u1: float
    max_abs_u2: float

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(TRAJECTORY_COLUMNS):
            raise ValueError(f"trajectory data must have {len(TRAJECTORY_COLUMNS)} columns")
        if self.data.shape[0] < 1:
            raise ValueError("trajectory must contain at least one row")
        # freeze a private view: the caller's array stays writable
        object.__setattr__(self, "data", self.data.view())
        self.data.flags.writeable = False

    @property
    def terminated(self) -> str:
        return TERMINATED_HORIZON if self.convergence_time is None else TERMINATED_GOAL

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def states(self) -> np.ndarray:
        return self.data[:, 1:4]

    @property
    def potential_values(self) -> np.ndarray:
        return self.data[:, 9]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def save_csv(self, path) -> int:
        """Write the exact trajectory CSV: 9 significant digits, LF endings.

        The bytes equal np.savetxt(fmt="%.9g", delimiter=",", newline="\\n"),
        formatted CSV_CHUNK_ROWS rows per %-operation instead of one. The rows
        are split by whole blocks into one share per usable core, each
        formatted by _csv_worker.write_rows: the first in this process, each
        later one by a worker interpreter that reads it raw from an anonymous
        file and writes into another next to `path`, appended here in order.
        The file is written under a temporary name in the same directory and
        renamed onto `path` only once it is complete; on failure it is
        removed and an existing `path` is left as it was. Returns how many
        processes formatted the file.
        """
        bounds = _csv_shares(len(self.data))
        directory = os.path.dirname(os.path.abspath(path))
        tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
        f = open(tmp, "xb")
        workers = []
        try:
            with f:
                for lo, hi in zip(bounds[1:], bounds[2:]):
                    workers.append(_start_csv_worker(self.data[lo:hi], directory))
                f.write(CSV_HEADER.encode() + b"\n")
                _csv_worker.write_rows(f, self.data[:bounds[1]].ravel(), CSV_ROW,
                                       len(TRAJECTORY_COLUMNS), CSV_CHUNK_ROWS)
                for proc, out in workers:
                    status = proc.wait()
                    if status != 0:
                        raise OSError(f"CSV worker exited with status {status}")
                    out.seek(0)
                    shutil.copyfileobj(out, f)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        finally:
            for proc, out in workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                out.close()
        return len(bounds) - 1


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _csv_shares(n_rows: int) -> list:
    """Row offsets that split n_rows into one share per process, by whole blocks."""
    n_blocks = -(-n_rows // CSV_CHUNK_ROWS)
    n_procs = max(1, min(_usable_cores(), n_blocks // CSV_MIN_SHARE_BLOCKS))
    return [min(n_rows, k * n_blocks // n_procs * CSV_CHUNK_ROWS) for k in range(n_procs + 1)]


def _start_csv_worker(share: np.ndarray, directory: str):
    """Start a worker interpreter formatting `share`; returns it and its output file."""
    import subprocess
    import tempfile

    out = tempfile.TemporaryFile(dir=directory)
    try:
        with tempfile.TemporaryFile(dir=directory) as raw:
            raw.write(np.ascontiguousarray(share, dtype=np.float64))
            raw.seek(0)
            proc = subprocess.Popen(
                [*_CSV_WORKER_COMMAND, CSV_ROW, str(share.shape[1]), str(share.shape[0]),
                 str(CSV_CHUNK_ROWS)],
                stdin=raw, stdout=out,
            )
    except BaseException:
        out.close()
        raise
    return proc, out


def load_trajectory_csv(path) -> np.ndarray:
    """Parse a trajectory CSV back into its data array, validating the header and values."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").rstrip("\r")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected trajectory header: {header!r}")
        try:
            with warnings.catch_warnings():
                # an empty body is reported as a ValueError below, not a warning
                warnings.simplefilter("ignore", UserWarning)
                # the writer never emits "#", so a "#" is malformed, not a comment
                data = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"malformed trajectory CSV: {exc}") from exc
    if data.size == 0:
        raise ValueError("trajectory CSV has no data rows")
    if data.shape[1] != len(TRAJECTORY_COLUMNS):
        raise ValueError(f"expected {len(TRAJECTORY_COLUMNS)} columns, got {data.shape[1]}")
    # the writer logs no non-finite value (the _kernels row rule), so one is malformed
    if not np.isfinite(data).all():
        line = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0]) + 2  # the header is line 1
        raise ValueError(f"malformed trajectory CSV: non-finite value on line {line}")
    return data


def _multiple_of(value: float, base: float) -> int | None:
    """round(value/base) if value is that multiple of base up to rounding, else None.

    The tolerance is 1e-9 or 4 ulp of value, whichever is larger: above about
    1e6 the rounding of n*base alone exceeds 1e-9. A quotient that is
    infinite, or overflows to infinity, raises ValueError.
    """
    quotient = value / base
    if not math.isfinite(quotient):
        raise ValueError(f"{value!r} is not a finite multiple of {base!r}")
    n = round(quotient)
    if n >= 1 and abs(value - n * base) <= max(1e-9, 4 * math.ulp(value)):
        return n
    return None


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Full description of one closed-loop run.

    goal_tol is a full-state Euclidean radius around the origin; the run
    stops at the first control update inside it. control_period must
    divide both the controller's epsilon and t_max. log_every decimates
    logging to every Nth control update (the initial and final instants
    are always kept).
    Equality and hashing are by identity: x0 is an array.
    """

    potential: Potential
    controller: ControllerParams
    x0: np.ndarray
    goal_tol: float = 0.05
    t_max: float = 600.0
    control_period: float = 5e-4
    log_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x0", as_state(self.x0))
        self.x0.flags.writeable = False
        for name in ("goal_tol", "t_max", "control_period"):
            check_scalar(getattr(self, name), name)
        if not self.goal_tol >= 0:
            raise ValueError(f"goal_tol must be nonnegative, got {self.goal_tol}")
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        eps = self.controller.epsilon
        if not (0 < self.control_period <= eps):
            raise ValueError(
                f"need 0 < control_period <= epsilon, got "
                f"control_period={self.control_period}, epsilon={eps}"
            )
        if _multiple_of(eps, self.control_period) is None:
            raise ValueError(
                f"control_period={self.control_period} must divide epsilon={eps}"
            )
        if _multiple_of(self.t_max, self.control_period) is None:
            raise ValueError(
                f"control_period={self.control_period} must divide t_max={self.t_max}"
            )
        check_scalar(self.log_every, "log_every", integer=True)
        if not self.log_every >= 1:
            raise ValueError(f"log_every must be a positive integer, got {self.log_every!r}")


def _floats(x) -> tuple:
    return tuple(float(v) for v in x)


def _loop_args(cfg: SimConfig) -> dict:
    """The keyword arguments of `_kernels.closed_loop` and `sampling_loop` for `cfg`."""
    ctrl = cfg.controller
    c1, c2, c3 = _floats(cfg.potential.coeffs)
    return dict(
        c1=c1, c2=c2, c3=c3, x0=_floats(cfg.x0), gamma=ctrl.gamma, k1=ctrl.k1, k2=ctrl.k2,
        omega=ctrl.omega, control_period=cfg.control_period,
        n_updates=_multiple_of(cfg.t_max, cfg.control_period),
        refresh_every=(_multiple_of(ctrl.epsilon, cfg.control_period)
                       if ctrl.loop_mode == "sampling" else 1),
        u1_max=ctrl.u1_max, u2_max=ctrl.u2_max, goal_tol=cfg.goal_tol,
        log_every=cfg.log_every,
    )


def simulate(cfg: SimConfig) -> Trajectory:
    """Run the closed loop described by `cfg`.

    The loop reads the potential as its three coefficients. A run whose
    amplitudes are frozen for at least `_kernels.SAMPLING_MIN_WINDOW`
    updates goes to `_kernels.sampling_loop`, every other run to
    `_kernels.closed_loop`; the two give the same bits. Identical configs
    produce bit-identical trajectories. The `_kernels` module docstring
    states which rows are logged and what the loops return: a goal run's
    last row is its goal, and a non-finite stop raises IntegrationError.
    """
    args = _loop_args(cfg)
    loop = (_kernels.sampling_loop if args["refresh_every"] >= _kernels.SAMPLING_MIN_WINDOW
            else _kernels.closed_loop)
    rows, status, *counts = loop(**args)
    if len(rows) == 0:
        # the row rule broken before anything could be logged: degenerate inputs
        raise ValueError("V, the amplitudes or the controls are non-finite at the initial state")
    data = np.frombuffer(rows).reshape(-1, len(TRAJECTORY_COLUMNS))
    conv_time = float(data[-1, 0]) if status == _kernels.STATUS_GOAL else None
    traj = Trajectory(data, conv_time, *counts)
    if status == _kernels.STATUS_NONFINITE:
        raise IntegrationError(
            f"V, a control or an amplitude became non-finite after t={data[-1, 0]:g}", traj
        )
    return traj


def integrate_gradient_flow(potential: Potential, x0, t_max: float, h: float) -> Trajectory:
    """The reference dynamics xdot = -grad V(x), in closed form.

    The state x_i(t) = x0_i * exp(-2*c_i*t) is evaluated at t = k*h for
    k = 0..t_max/h; h must divide t_max. Control, amplitude and saturated
    columns are logged as zeros, and the result always terminates with the
    horizon (there is no goal test here). Every c_i is positive, so no
    component grows and this never raises IntegrationError; a V that
    overflows at x0 raises ValueError.
    """
    check_scalar(t_max, "t_max")
    check_scalar(h, "h")
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h}")
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    n_steps = _multiple_of(t_max, h)
    if n_steps is None:
        raise ValueError(f"step h={h} must divide t_max={t_max}")
    x0 = as_state(x0)
    c1, c2, c3 = _floats(potential.coeffs)
    x1, x2, x3 = _floats(x0)
    # on Python floats, so an overflow cannot warn; no later V exceeds this one
    if not math.isfinite(c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3):
        raise ValueError("potential produces non-finite values at the initial state")
    t = np.arange(n_steps + 1) * h
    data = np.zeros((t.size, len(TRAJECTORY_COLUMNS)))
    data[:, 0] = t
    with np.errstate(over="ignore"):  # c*t past the float range decays to exp(-inf) = 0
        data[:, 1:4] = x0 * np.exp(-2.0 * np.outer(t, potential.coeffs))
    x1, x2, x3 = data[:, 1:4].T
    data[:, 9] = c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3
    return Trajectory(data, None, 0, 0.0, 0.0)


def tracking_deviation(closed_loop: Trajectory, reference: Trajectory) -> float:
    """Worst-case state distance between two runs over their shared window.

    Both trajectories must start at t = 0. States are linearly interpolated
    onto the union of the two time grids restricted to the overlap, and the
    maximum Euclidean distance over that grid is returned.
    """
    ta, tb = closed_loop.t, reference.t
    if ta[0] != 0.0 or tb[0] != 0.0:
        raise ValueError("both trajectories must start at t = 0")
    t_end = min(ta[-1], tb[-1])
    grid = np.union1d(ta[ta <= t_end], tb[tb <= t_end])
    if grid.size == 0:
        raise ValueError("trajectories do not overlap in time")
    diff_sq = np.zeros(grid.size)
    for j in range(3):
        xa = np.interp(grid, ta, closed_loop.states[:, j])
        xb = np.interp(grid, tb, reference.states[:, j])
        diff_sq += (xa - xb) ** 2
    return float(np.sqrt(diff_sq.max()))


def convergence_order(eps, deviations) -> float:
    """Least-squares slope of log(deviation) against log(epsilon).

    Lie-bracket approximations track their averaged system to O(sqrt(eps)),
    so a refinement study should fit a slope near 0.5.
    """
    eps = np.asarray(eps, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if eps.size < 2 or eps.shape != deviations.shape:
        raise ValueError("need at least two (epsilon, deviation) pairs")
    if not (np.all(eps > 0) and np.all(deviations > 0)):
        raise ValueError("epsilons and deviations must be positive")
    return float(np.polyfit(np.log(eps), np.log(deviations), 1)[0])
