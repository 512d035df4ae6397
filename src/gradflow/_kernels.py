"""The closed-loop simulation, and the package's one compiled library.

`closed_loop` is plain scalar Python, one control update at a time. The
potential is the diagonal quadratic V = c1*x1^2 + c2*x2^2 + c3*x3^2,
passed as its three coefficients, and the loop evaluates V and grad V =
(2*c1*x1, 2*c2*x2, 2*c3*x3) inline.

`_kernels.c` is one library with five functions, which `compiled_loop`
builds with `cc` on first use and loads. Its `closed_loop` holds the same loop
in C, in the same operation order, and `c_loop` runs it with closed_loop's
arguments and value, bit for bit. `simulator.simulate` runs every run, in
both loop modes, in the C loop; where the library cannot be built or loaded,
it runs `closed_loop`, which is also the C loop's bitwise oracle. `kernel`
names the one that runs. Its `parse_rows` parses the trajectory CSV's rows
for `simulator.load_trajectory_csv`, which uses `simulator._parse_python`, a
line-by-line reader of the same grammar, without it, and its `format_rows`
writes them for `simulator.Trajectory.save_csv`, which uses
`simulator.write_rows`, Python's % on the same template, without it. Its
`deviation_sq` measures `simulator.tracking_deviation`, and its `slab_sum`
sums the slabs of `admissibility.admissibility_measure`; `deviation_sq` and
`slab_sum` here, the same arithmetic in the same order, run without it.
`flow_rows` here evaluates the reference gradient flow for
`simulator.integrate_gradient_flow` in every build.

Both loops return (rows, status, saturated_updates, max_abs_u1, max_abs_u2).
rows is an array('d') of their own holding the logged rows, row after row,
in simulator.TRAJECTORY_COLUMNS order, so a run's memory follows the rows
it logs, and one chunk of them in c_loop, not its horizon. status is
STATUS_HORIZON, STATUS_GOAL or STATUS_NONFINITE; a goal row is always
logged and always last, so its t is the convergence time. The three
counters cover every update that met the row rule, logged or not.

The row rule: an update's row is logged, or counted, only if V, u1, u2, a1,
a2 and a12 are all finite, and the first update that breaks it ends the run
with STATUS_NONFINITE. V stands for the state: with every c_i > 0, c*x*x is
inf or nan wherever x is. a1 and a2 are tested in their own right, since a
clamp turns an infinite amplitude into a finite control.

The package has no dependency: it computes on plain floats, on array('d')
and memoryview, or in the library.
"""

import ctypes
import functools
import os
import sys
import zlib
from array import array
from math import copysign, cos, exp, isfinite, isnan, sin, sqrt
from operator import add

# status codes returned by closed_loop and c_loop; the C function also
# sets -1, for rows full before the run ended
STATUS_HORIZON = 0
STATUS_GOAL = 1
STATUS_NONFINITE = 2


def backend() -> str:
    """A fixed label, not the build that runs (that is `kernel`): clibench's
    provenance probe reads it, and its compare flags two results whose
    labels differ, so it keeps its value until the benchmark revision of
    ROADMAP item 2 replaces the probe."""
    return "numpy"


# ---------------------------------------------------------------------------
# closed-loop integration
# ---------------------------------------------------------------------------

def closed_loop(c1, c2, c3, x0, gamma, k1, k2, omega, control_period,
                n_updates, refresh_every, u1_max, u2_max, goal_tol, log_every):
    """Closed-loop run, logging rows of (t, x, u, a, V, saturated).

    Returns the five fields, and logs under the row rule, that the module
    docstring states. The control is held constant over each control period
    and the state follows the exact flow of the hold: x3 turns at the
    constant rate u2, so the planar motion is a circular arc whose chord is
    u1*T*sinc(u2*T/2) along the mid-hold heading. The amplitudes refresh
    at every multiple of refresh_every updates: 1 in continuous mode, the
    updates per epsilon in sampling mode. Each control component is clamped
    to [-u_max, u_max]; an infinite u_max (the ideal bounds) never clamps.
    The goal is the origin, the minimiser of V: the run stops at the first
    update whose full-state distance to it is at most goal_tol.

    simulate runs it where the C loop cannot be built or loaded, and the
    tests hold the C loop to it bit for bit.
    """
    x1 = x0[0]
    x2 = x0[1]
    x3 = x0[2]
    # grad V = (d1*x1, d2*x2, d3*x3)
    d1 = 2.0 * c1
    d2 = 2.0 * c2
    d3 = 2.0 * c3
    a1 = 0.0
    a2 = 0.0
    a12 = 0.0
    rows = array("d")
    log_row = rows.fromlist
    status = STATUS_HORIZON
    n_sat = 0
    max_u1 = 0.0
    max_u2 = 0.0
    try:
        for k in range(n_updates + 1):
            t = k * control_period
            v_val = c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3
            if k % refresh_every == 0:
                gx1 = d1 * x1
                gx2 = d2 * x2
                s = sin(x3)
                c = cos(x3)
                a1 = -gamma * (gx1 * c + gx2 * s)
                a2 = -gamma * (d3 * x3)
                a12 = -gamma * (gx1 * s - gx2 * c)
            osc = sqrt(omega * abs(a12))
            sign = 0.0
            if a12 > 0.0:
                sign = 1.0
            elif a12 < 0.0:
                sign = -1.0
            u1 = a1 + k1 * osc * sign * cos(omega * t)
            u2 = a2 + k2 * osc * sin(omega * t)
            sat = 0.0
            abs_u1 = abs(u1)
            if abs_u1 > u1_max:
                u1 = copysign(u1_max, u1)
                abs_u1 = u1_max
                sat = 1.0
            abs_u2 = abs(u2)
            if abs_u2 > u2_max:
                u2 = copysign(u2_max, u2)
                abs_u2 = u2_max
                sat = 1.0
            # the row rule
            if not (isfinite(v_val) and isfinite(u1) and isfinite(u2)
                    and isfinite(a1) and isfinite(a2) and isfinite(a12)):
                status = STATUS_NONFINITE
                break
            if sat != 0.0:
                n_sat += 1
            if abs_u1 > max_u1:
                max_u1 = abs_u1
            if abs_u2 > max_u2:
                max_u2 = abs_u2
            at_goal = sqrt(x1 * x1 + x2 * x2 + x3 * x3) <= goal_tol
            if (k % log_every == 0) or at_goal or (k == n_updates):
                log_row([t, x1, x2, x3, u1, u2, a1, a2, a12, v_val, sat])
            if at_goal:
                status = STATUS_GOAL
                break
            if k == n_updates:
                break
            # exact flow of the hold
            half = 0.5 * u2 * control_period
            sinc = 1.0
            if half != 0.0:
                sinc = sin(half) / half
            chord = u1 * control_period * sinc
            heading = x3 + half
            x1 += chord * cos(heading)
            x2 += chord * sin(heading)
            x3 += u2 * control_period
    except ValueError:
        # sin and cos raise on an infinite angle: an x3 that a hold overflowed,
        # or a hold's half-angle or heading
        status = STATUS_NONFINITE
    return rows, status, n_sat, max_u1, max_u2


# ---------------------------------------------------------------------------
# the reference flow and the tracking deviation
# ---------------------------------------------------------------------------

def flow_rows(rows, c1, c2, c3, x0, h):
    """Fill the zeroed array('d') `rows`, 11 values a row, with the gradient
    flow x_i(t) = x0_i * exp(-2*c_i*t) of V = c1*x1^2 + c2*x2^2 + c3*x3^2 at
    t = k*h for each row k: its t, state and V.

    math.exp is libm's exp. A c*t past the float range is inf, and exp(-inf)
    is 0.
    """
    x01, x02, x03 = x0
    for k in range(len(rows) // 11):
        t = k * h
        x1 = x01 * exp(-2.0 * (t * c1))
        x2 = x02 * exp(-2.0 * (t * c2))
        x3 = x03 * exp(-2.0 * (t * c3))
        i = 11 * k
        rows[i] = t
        rows[i + 1] = x1
        rows[i + 2] = x2
        rows[i + 3] = x3
        rows[i + 9] = c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3


def _interp(rows, n, i, x, column):
    """np.interp's value of `column` of the n rows at x, from the last knot i
    with t_i <= x: fp_i at the last knot or where t_i == x, else the line
    through knots i and i+1 from knot i, and from knot i+1 where that is NaN."""
    lo, hi = 11 * i, 11 * i + 11
    if i == n - 1 or rows[lo] == x:
        return rows[lo + column]
    f_lo, f_hi = rows[lo + column], rows[hi + column]
    slope = (f_hi - f_lo) / (rows[hi] - rows[lo])
    y = slope * (x - rows[lo]) + f_lo
    if isnan(y):
        y = slope * (x - rows[hi]) + f_hi
        if isnan(y) and f_lo == f_hi:
            y = f_lo
    return y


def deviation_sq(a, b):
    """The largest squared state distance between the runs a and b, each an
    array('d') of rows of 11 values (t, x1, x2, x3, ...), over every time of
    either up to the smaller last time; -1.0 where no time is that small.

    Both runs start at t = 0, with their times in ascending order. It is
    `_kernels.c`'s deviation_sq, whose header states the walk, in Python,
    with the same bits.
    """
    na, nb = len(a) // 11, len(b) // 11
    t_end = min(a[11 * (na - 1)], b[11 * (nb - 1)])
    worst = -1.0
    i = j = 0  # the knots of a and of b at or before the last time
    while True:
        more_a = i < na and a[11 * i] <= t_end
        more_b = j < nb and b[11 * j] <= t_end
        if not (more_a or more_b):
            return worst
        x = a[11 * i] if more_a and not (more_b and b[11 * j] < a[11 * i]) else b[11 * j]
        while i < na and a[11 * i] == x:
            i += 1
        while j < nb and b[11 * j] == x:
            j += 1
        total = 0.0
        for column in (1, 2, 3):
            d = _interp(a, na, i - 1, x, column) - _interp(b, nb, j - 1, x, column)
            total += d * d
        if total > worst or isnan(total):
            worst = total


# ---------------------------------------------------------------------------
# the admissibility quadrature
# ---------------------------------------------------------------------------

def _lane(values, k):
    """Lane k of a row: values[k], values[k + 4], ... added to 0.0 in that order.

    Not `sum`, which compensates a float sum from Python 3.12 on."""
    return functools.reduce(add, values[k::4], 0.0)


def slab_sum(d, nodes, weights, m, x3, q):
    """The sum of (|g1 s - g2 c| / |g|)^q over one x3 > 0 slab of the
    admissibility quadrature's grid, g = (d1*x1, d2*x2, d3*x3) and s, c =
    sin x3, cos x3: x1 over the m nodes, x2 over the m pairs of mirrored
    nodes +-nodes[j].

    The two nodes of pair j share weights[j] and |g|^2 = (g1^2 + g2^2) +
    g3^2. With a = (g1 s)^2 and b = g2 c, g2 = d2*nodes[j], the pair's
    value is 2*(a + b^2)/|g|^2 for q = 2, one division and no sqrt, and
    otherwise |(g1 s - b)/|g||^q + |(g1 s + b)/|g||^q, one sqrt and two
    pows. Pair j, times weights[j] and without the factor 2, goes into lane
    j mod 4 of four running sums; the row is (l0 + l1) + (l2 + l3), times 2
    for q = 2, and it goes into the slab times weights[i].

    It is `_kernels.c`'s slab_sum, whose header states the order, in Python,
    with the same bits. The products of x2 alone are computed once a slab,
    to the same values.
    """
    d1, d2, d3 = d
    s = sin(x3)
    c = cos(x3)
    g3 = d3 * x3
    g3sq = g3 * g3
    pairs = []
    for j in range(m):
        g2 = d2 * nodes[j]
        b = g2 * c
        pairs.append((weights[j], b, b * b, g2 * g2))
    slab = 0.0
    for i in range(m):
        g1 = d1 * nodes[i]
        g1s = g1 * s
        a = g1s * g1s
        g1sq = g1 * g1
        if q == 2.0:
            values = [wj * ((a + bsq) / ((g1sq + g2sq) + g3sq)) for wj, _, bsq, g2sq in pairs]
        else:
            values = []
            for wj, b, _, g2sq in pairs:
                norm = sqrt((g1sq + g2sq) + g3sq)
                values.append(wj * (abs((g1s - b) / norm) ** q + abs((g1s + b) / norm) ** q))
        row = (_lane(values, 0) + _lane(values, 1)) + (_lane(values, 2) + _lane(values, 3))
        if q == 2.0:
            row = 2.0 * row
        slab += weights[i] * row
    return slab


# ---------------------------------------------------------------------------
# the compiled library
# ---------------------------------------------------------------------------

_C_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")
# no fast-math, no FMA contraction, and sin and cos called as math calls them
_C_FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin-sin", "-fno-builtin-cos",
            "-fPIC", "-shared")
# rows per call into the library at most, in c_loop's chunk and simulator's
# format_rows and parse_rows blocks, and per %-operation of write_rows
CHUNK_ROWS = 1024
# n_updates, refresh_every and log_every above this never meet k: no run
# reaches 2^62 updates, and the C loop's k is a 64-bit integer
_MAX_COUNT = 2 ** 62
# updates per call of the C loop at most. Python handles Ctrl-C only between
# calls; 2^20 updates of P1 take about 0.06 s (x86-64, gcc 12, -O2)
UPDATES_PER_CALL = 2 ** 20


@functools.cache
def compiled_loop():
    """The library of `_kernels.c` as a ctypes CDLL, or None.

    It holds `closed_loop`, for `c_loop`, `parse_rows`, for
    `simulator.load_trajectory_csv`, `format_rows`, for
    `simulator.Trajectory.save_csv`, `deviation_sq`, for
    `simulator.tracking_deviation`, and `slab_sum`, for
    `admissibility.admissibility_measure`.
    Built on the first call with `cc` into the package's __pycache__, under a
    name that carries a hash of the source and the flags, and then loaded
    from there. If it cannot be built or loaded, the reason goes to stderr and
    None comes back: `simulate` runs `closed_loop`, `load_trajectory_csv`
    `simulator._parse_python`, `save_csv` `simulator.write_rows`,
    `tracking_deviation` this module's `deviation_sq`, and
    `admissibility_measure` this module's `slab_sum`.
    """
    try:
        with open(_C_SOURCE, "rb") as f:
            source = f.read()
        # CRC-32: zlib is a small C module, and hashlib would load OpenSSL,
        # 3.5 MB of resident memory
        key = zlib.crc32(source + " ".join((*_C_FLAGS, os.uname().machine)).encode())
        cache = os.path.join(os.path.dirname(__file__), "__pycache__")
        path = os.path.join(cache, f"_kernels.{key:08x}.so")
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
    except OSError as exc:
        print("gradflow: running the Python closed loop, CSV reader, CSV writer, "
              f"deviation and quadrature: {exc}", file=sys.stderr)
        return None
    c_double_p = ctypes.POINTER(ctypes.c_double)
    c_int64_p = ctypes.POINTER(ctypes.c_int64)
    lib.closed_loop.argtypes = (c_double_p, c_int64_p, c_double_p, ctypes.c_void_p,
                                ctypes.c_int64)
    lib.closed_loop.restype = ctypes.c_int64
    lib.parse_rows.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                               ctypes.c_void_p, ctypes.c_int64, c_int64_p)
    lib.parse_rows.restype = ctypes.c_int64
    lib.format_rows.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                                ctypes.c_void_p)
    lib.format_rows.restype = ctypes.c_int64
    lib.deviation_sq.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                                 ctypes.c_int64)
    lib.deviation_sq.restype = ctypes.c_double
    lib.slab_sum.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                             ctypes.c_int64, ctypes.c_double, ctypes.c_double)
    lib.slab_sum.restype = ctypes.c_double
    return lib


def _build(path):
    """Compile _kernels.c to `path`, written under a temporary name and renamed.

    Then every other library in path's directory is deleted: the cache holds
    one library per source and flags, and only the current one is loaded.
    """
    import subprocess

    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        done = subprocess.run(["cc", *_C_FLAGS, "-o", tmp, _C_SOURCE, "-lm"],
                              stdin=subprocess.DEVNULL, capture_output=True)
        if done.returncode != 0:
            raise OSError(f"cc exited with status {done.returncode}: "
                          f"{done.stderr.decode(errors='replace').strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for name in os.listdir(directory):
        stale = os.path.join(directory, name)
        if name.endswith(".so") and stale != path:
            try:
                os.unlink(stale)
            except OSError:  # best effort: an old library left behind is never loaded
                pass


def kernel() -> str:
    """The build that runs in this process, the library's or the Python twins':
    "c" or "python"."""
    return "c" if compiled_loop() else "python"


def c_loop(c1, c2, c3, x0, gamma, k1, k2, omega, control_period,
           n_updates, refresh_every, u1_max, u2_max, goal_tol, log_every):
    """closed_loop's run in the C loop: its arguments, and its value bit for bit.

    Each call resumes where the last one ran out of room or out of its
    UPDATES_PER_CALL updates and logs into one reused chunk, whose rows are
    appended to the array('d') that is returned. The chunk holds 1/64 of the
    most rows the horizon can log, at least 16 and at most CHUNK_ROWS. So the
    memory follows the rows logged, as in closed_loop, plus one chunk, and
    Ctrl-C stops a long run within one call.
    """
    fn = compiled_loop().closed_loop
    p = (ctypes.c_double * 11)(c1, c2, c3, gamma, k1, k2, omega, control_period,
                               u1_max, u2_max, goal_tol)
    n = (ctypes.c_int64 * 7)(*(min(i, _MAX_COUNT) for i in (n_updates, refresh_every,
                                                              log_every)),
                             UPDATES_PER_CALL, 0, 0, -1)
    s = (ctypes.c_double * 8)(*x0, 0.0, 0.0, 0.0, 0.0, 0.0)
    room = min(CHUNK_ROWS, max(16, (n_updates // log_every + 2) // 64))
    chunk = (ctypes.c_double * (11 * room))()
    view = memoryview(chunk).cast("B")
    rows = array("d")
    while n[6] < 0:
        rows.frombytes(view[:88 * fn(p, n, s, chunk, room)])
    return rows, n[6], n[5], s[6], s[7]
