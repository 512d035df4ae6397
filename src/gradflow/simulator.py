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

The runs, the CSV, the reference flow and the tracking deviation compute
in `_kernels`, on plain floats or in the compiled library.
"""

import contextlib
import functools
import math
import mmap
import os
import stat
from array import array

from gradflow import _kernels
from gradflow.controller import ControllerParams
from gradflow.kinematics import Frozen, as_state, check_scalar
from gradflow.potential import Potential

TRAJECTORY_COLUMNS = ("t", "x1", "x2", "x3", "u1", "u2", "a1", "a2", "a12", "V", "saturated")
CSV_HEADER = ",".join(TRAJECTORY_COLUMNS)

TERMINATED_GOAL = "goal_reached"
TERMINATED_HORIZON = "horizon_exhausted"


class IntegrationError(RuntimeError):
    """V, a control or an amplitude became non-finite: the `_kernels` row rule broke.

    V stands for the state. Carries the trajectory logged so far.
    """

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


class Trajectory(Frozen):
    """Time-indexed log of a run.

    rows is an array('d') of the logged rows, one after the other, each
    with the columns TRAJECTORY_COLUMNS: time, state, applied control,
    amplitude vector in effect, potential value, and whether the control
    was saturated. It is the array the loop returns, not a copy of it.
    Rows are strictly increasing in t, and the first row is the initial
    state at t = 0.

    convergence_time is the time of the update that reached the goal, or
    None when the run used its whole horizon; `terminated` names which.
    saturation_count, max_abs_u1 and max_abs_u2 cover every control update
    of the run, logged or not. Equality and hashing are by identity: rows is
    an array.
    """

    rows: array
    convergence_time: float | None
    saturation_count: int
    max_abs_u1: float
    max_abs_u2: float

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        width = len(TRAJECTORY_COLUMNS)
        if not (isinstance(self.rows, array) and self.rows.typecode == "d"):
            raise ValueError("trajectory rows must be an array('d')")
        if len(self.rows) % width:
            raise ValueError(f"trajectory rows must have {width} columns: {len(self.rows)} "
                             f"values are no whole number of rows")
        if not self.rows:
            raise ValueError("trajectory must contain at least one row")

    @functools.cached_property
    def data(self) -> memoryview:
        """rows as a read-only (rows, 11) float64 memoryview, made once: the
        view that `load_trajectory_csv` returns, and `np.asarray` of it is an
        ndarray with no copy.

        It stays, with `t`, because clibench's replay counts the rows of a run
        as `data.shape[0]` right after `simulate` and `integrate_gradient_flow`.
        """
        return _kernels.rows_view(self.rows).toreadonly()

    @property
    def terminated(self) -> str:
        return TERMINATED_HORIZON if self.convergence_time is None else TERMINATED_GOAL

    @property
    def t(self) -> array:
        """The logged times, a new array('d'). It stays because clibench's
        replay counts a run's updates as `t[-1]` over its control period."""
        return self.rows[::len(TRAJECTORY_COLUMNS)]

    def save_csv(self, path) -> None:
        """Write the exact trajectory CSV: 9 significant digits, LF endings.

        The bytes equal np.savetxt(fmt="%.9g", delimiter=",", newline="\\n").
        The file is written through `replacing`, so a failed write leaves an
        existing `path` as it was.
        """
        with replacing(path) as f:
            f.write(CSV_HEADER.encode() + b"\n")
            _kernels.write_rows(f, self.rows)


def output_path(path) -> str:
    """The file that `replacing(path)` writes: `path` with its symlinks
    resolved, so that a link stays and its target gets the bytes.

    ValueError where that file exists and is not a regular file: the rename
    would put a regular file in place of a FIFO, a device or a socket, and
    cannot replace a directory. The commands call it before any work.
    """
    real = os.path.realpath(path)
    try:
        mode = os.stat(real).st_mode
    except FileNotFoundError:
        return real
    if not stat.S_ISREG(mode):
        raise ValueError(f"cannot write {path}: {real} is not a regular file")
    return real


@contextlib.contextmanager
def replacing(path):
    """A new binary file that replaces `output_path(path)` once the block completes.

    It is written under a temporary name in that file's directory and renamed
    onto it only when the block exits without error; on failure it is
    removed and an existing file is left as it was.
    """
    path = output_path(path)
    directory = os.path.dirname(path)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_trajectory_csv(path):
    """Parse a trajectory CSV in the writer's grammar into a writable (rows, 11)
    float64 memoryview; `np.asarray` of it is the ndarray, with no copy.

    The grammar: the line CSV_HEADER, then at least one line of 11 finite
    fields `_kernels._FIELD` split by "," and ended by LF, of at most
    `_kernels.CSV_READ_BYTES`. `path` may be a regular file or a pipe: it is
    read once, front to back. The header is checked here, and
    `_kernels.read_rows` reads the rest, refusing the first line outside the
    grammar with a ValueError that names it.
    """
    header = (CSV_HEADER + "\n").encode()
    with open(path, "rb") as f:
        first = f.readline(_kernels.CSV_READ_BYTES)
        if first != header:
            raise ValueError(f"unexpected trajectory header: {first.decode(errors='replace')!r}")
        return _kernels.read_rows(f)


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


class SimConfig(Frozen):
    """Full description of one closed-loop run.

    goal_tol is a full-state Euclidean radius around the origin; the run
    stops at the first control update inside it. control_period must
    divide both the controller's epsilon and t_max. log_every decimates
    logging to every Nth control update (the initial and final instants
    are always kept). x0 is stored as a float triple.
    """

    potential: Potential
    controller: ControllerParams
    x0: tuple[float, float, float]
    goal_tol: float = 0.05
    t_max: float = 600.0
    control_period: float = 5e-4
    log_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x0", as_state(self.x0))
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


def _loop_args(cfg: SimConfig) -> dict:
    """The keyword arguments of `_kernels.run_loop` for `cfg`."""
    ctrl = cfg.controller
    c1, c2, c3 = cfg.potential.coeffs
    return dict(
        c1=c1, c2=c2, c3=c3, x0=cfg.x0, gamma=ctrl.gamma, k1=ctrl.k1, k2=ctrl.k2,
        omega=ctrl.omega, control_period=cfg.control_period,
        n_updates=_multiple_of(cfg.t_max, cfg.control_period),
        refresh_every=(_multiple_of(ctrl.epsilon, cfg.control_period)
                       if ctrl.loop_mode == "sampling" else 1),
        u1_max=ctrl.u1_max, u2_max=ctrl.u2_max, goal_tol=cfg.goal_tol,
        log_every=cfg.log_every,
    )


def check_rows_fit(cfg: SimConfig) -> None:
    """MemoryError unless the most rows that a run of `cfg` can log, its
    n_updates // log_every + 2, can be mapped: a run that can never hold its
    rows fails before it starts, not once they have outgrown the memory.

    An anonymous mapping, mapped and unmapped, leaves malloc as it was. A
    malloc'd block of that size, once freed, would raise glibc's dynamic mmap
    threshold to its size, so the run's rows would come from the heap: with a
    freed bytearray here, `refine --v-alpha 1 --eps 0.5,0.1,0.02` peaked at
    48.4 MB, not 35.7 MB (x86-64, glibc 2.36, bytecode cached).
    """
    rows = _multiple_of(cfg.t_max, cfg.control_period) // cfg.log_every + 2
    try:
        mmap.mmap(-1, rows * 8 * len(TRAJECTORY_COLUMNS)).close()
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map the {rows} rows that a run of t_max={cfg.t_max:g} "
                          f"may log: {exc}") from None


def simulate(cfg: SimConfig) -> Trajectory:
    """Run the closed loop described by `cfg`.

    The loop reads the potential as its three coefficients. Identical configs
    produce bit-identical trajectories. The `_kernels` module docstring
    states which rows are logged and what the loops return: a goal run's
    last row is its goal, and a non-finite stop raises IntegrationError. A
    run with goal_tol 0 never stops early, so `check_rows_fit` refuses it
    first if its rows can never be held.
    """
    if cfg.goal_tol == 0:
        check_rows_fit(cfg)
    rows, status, *counts = _kernels.run_loop(**_loop_args(cfg))
    if len(rows) == 0:
        # the row rule broken before anything could be logged: degenerate inputs
        raise ValueError("V, the amplitudes or the controls are non-finite at the initial state")
    t_last = rows[-len(TRAJECTORY_COLUMNS)]
    traj = Trajectory(rows, t_last if status == _kernels.STATUS_GOAL else None, *counts)
    if status == _kernels.STATUS_NONFINITE:
        raise IntegrationError(
            f"V, a control or an amplitude became non-finite after t={t_last:g}", traj
        )
    return traj


def integrate_gradient_flow(potential: Potential, x0, t_max: float, h: float) -> Trajectory:
    """The reference dynamics xdot = -grad V(x), in closed form.

    The state x_i(t) = x0_i * exp(-2*c_i*t) is evaluated at t = k*h for
    k = 0..t_max/h; h must divide t_max. Control, amplitude and saturated
    columns are logged as zeros, and the result always terminates with the
    horizon (there is no goal test here). Every c_i is positive, so no
    component grows and this never raises IntegrationError; a V that
    overflows at x0 raises ValueError, and rows that cannot be allocated
    MemoryError. `_kernels.flow_rows` fills the rows on libm's exp.
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
    c1, c2, c3 = potential.coeffs
    x1, x2, x3 = x0
    # on Python floats, so an overflow cannot warn; no later V exceeds this one
    if not math.isfinite(c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3):
        raise ValueError("potential produces non-finite values at the initial state")
    # zeroed rows, so a horizon whose rows cannot be allocated fails before any work
    try:
        rows = array("d", [0.0]) * ((n_steps + 1) * len(TRAJECTORY_COLUMNS))
    except (MemoryError, OverflowError):
        raise MemoryError(f"cannot allocate the {n_steps + 1} rows of the gradient flow") from None
    _kernels.flow_rows(rows, c1, c2, c3, x0, h)
    return Trajectory(rows, None, 0, 0.0, 0.0)


def tracking_deviation(closed_loop: Trajectory, reference: Trajectory) -> float:
    """Worst-case state distance between two runs over their shared window.

    Both trajectories must start at t = 0. States are linearly interpolated
    onto the union of the two time grids restricted to the overlap, and the
    maximum Euclidean distance over that grid is returned, with
    np.interp's arithmetic.
    """
    a, b = closed_loop.rows, reference.rows
    if a[0] != 0.0 or b[0] != 0.0:
        raise ValueError("both trajectories must start at t = 0")
    worst = _kernels.worst_deviation_sq(a, b)
    if worst < 0.0:
        raise ValueError("trajectories do not overlap in time")
    return math.sqrt(worst)


def convergence_order(eps, deviations) -> float:
    """Least-squares slope of log(deviation) against log(epsilon).

    Lie-bracket approximations track their averaged system to O(sqrt(eps)),
    so a refinement study should fit a slope near 0.5. The slope is the
    closed form cov(x, y) / var(x), each sum correctly rounded by math.fsum.
    Every malformed input raises ValueError.
    """
    try:
        if getattr(eps, "ndim", 1) != 1 or getattr(deviations, "ndim", 1) != 1:
            raise TypeError
        eps = [float(e) for e in eps]
        deviations = [float(d) for d in deviations]
    except TypeError:
        raise ValueError("epsilons and deviations must be sequences of numbers") from None
    if len(eps) < 2 or len(eps) != len(deviations):
        raise ValueError("need at least two (epsilon, deviation) pairs")
    if not all(0 < v < math.inf for v in eps + deviations):
        raise ValueError("epsilons and deviations must be positive and finite")
    xs = [math.log(e) for e in eps]
    ys = [math.log(d) for d in deviations]
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    spread = math.fsum((x - mx) ** 2 for x in xs)
    if spread == 0.0:
        raise ValueError("epsilons must not all be equal")
    return math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / spread
