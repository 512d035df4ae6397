"""The package's one compiled library, its Python twins, and one entry point
for each computation, which runs the one or the other.

`_kernels.c` is one library of five functions, which `compiled_loop` builds
with `cc` on first use and loads. Each has a twin here: the same arithmetic
in the same order, in plain Python, with the same bits. Each computation
has one entry point, which takes floats, array('d')s and binary files, runs
the library's function, or its twin where the library cannot be built or
loaded, and returns the same value from either. The callers are in
`simulator`, but for `admissibility.admissibility_measure`:

    computation         entry point         C function    twin           caller
    closed loop         run_loop            closed_loop   _closed_loop   simulate
    CSV row writer      write_rows          format_rows   _format_rows   Trajectory.save_csv
    CSV row reader      read_rows           parse_rows    _parse_rows    load_trajectory_csv
    tracking deviation  worst_deviation_sq  deviation_sq  _deviation_sq  tracking_deviation
    slab sums           quadrature          slab_sum      _slab_sum      admissibility_measure

So this module alone picks the build and speaks the library's ABI, and
`kernel` names the build that runs. `flow_rows` evaluates the reference
gradient flow for `simulator.integrate_gradient_flow`, in every build.

A row is 11 values, in simulator.TRAJECTORY_COLUMNS order. Both loops return
(rows, status, saturated_updates, max_abs_u1, max_abs_u2). rows is an
array('d') of their own holding the logged rows, row after row, so a run's
memory follows the rows it logs, and one chunk of them in the library, not
its horizon. status is STATUS_HORIZON, STATUS_GOAL or STATUS_NONFINITE; a
goal row is always logged and always last, so its t is the convergence time.
The three counters cover every update that met the row rule, logged or not.

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
import re
import sys
import zlib
from array import array
from math import copysign, cos, exp, inf, isfinite, isnan, sin, sqrt
from operator import add

# status codes returned by the loops; the C function also sets -1, for rows
# full before the run ended
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

def _closed_loop(c1, c2, c3, x0, gamma, k1, k2, omega, control_period,
                 n_updates, refresh_every, u1_max, u2_max, goal_tol, log_every):
    """Closed-loop run, logging rows of (t, x, u, a, V, saturated).

    Returns the five fields, and logs under the row rule, that the module
    docstring states. The potential is the diagonal quadratic V = c1*x1^2 +
    c2*x2^2 + c3*x3^2, passed as its three coefficients, and the loop
    evaluates V and grad V = (2*c1*x1, 2*c2*x2, 2*c3*x3) inline. The control
    is held constant over each control period and the state follows the
    exact flow of the hold: x3 turns at the constant rate u2, so the planar
    motion is a circular arc whose chord is u1*T*sinc(u2*T/2) along the
    mid-hold heading. The amplitudes refresh at every multiple of
    refresh_every updates: 1 in continuous mode, the updates per epsilon in
    sampling mode. Each control component is clamped to [-u_max, u_max]; an
    infinite u_max (the ideal bounds) never clamps. The goal is the origin,
    the minimiser of V: the run stops at the first update whose full-state
    distance to it is at most goal_tol.
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


def _deviation_sq(a, b):
    """The largest squared state distance between the runs a and b, each an
    array('d') of rows of 11 values (t, x1, x2, x3, ...), over every time of
    either up to the smaller last time; -1.0 where no time is that small.

    Both runs start at t = 0, with their times in ascending order.
    `_kernels.c`'s deviation_sq states the walk.
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


def _slab_sum(d, nodes, weights, m, x3, q):
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

    `_kernels.c`'s slab_sum states the order. The products of x2 alone are
    computed once a slab, to the same values.
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
# the trajectory CSV's rows
# ---------------------------------------------------------------------------

CSV_ROW = ",".join(["%.9g"] * 11) + "\n"  # %-template of one row
# one field of the trajectory CSV's grammar, which the writer's "%.9g" keeps to
_FIELD = rb"-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?"
# bytes per read of the compiled CSV parser, and so the longest line that
# either parser reads
CSV_READ_BYTES = 1 << 20


def _format_rows(f, rows: array) -> None:
    """Write the array('d') `rows` to the binary file f with CSV_ROW,
    CHUNK_ROWS rows per %-operation."""
    step = 11 * CHUNK_ROWS
    for i in range(0, len(rows), step):
        block = rows[i:i + step].tolist()
        f.write((CSV_ROW * (len(block) // 11) % tuple(block)).encode())


def _parse_rows(f) -> memoryview:
    """The rows of the binary stream f, line by line: a line that matches the
    grammar goes through float(), correctly rounded as parse_rows is, into a
    growing array('d'); the first that does not, or holds an overflow, goes
    to `_check_line`."""
    match = re.compile(b",".join([_FIELD] * 11) + b"\n").fullmatch
    rows = array("d")
    # at most CSV_READ_BYTES + 1 bytes a line: a longer line is never held whole
    lines = iter(functools.partial(f.readline, CSV_READ_BYTES + 1), b"")
    for number, line in enumerate(lines, start=2):
        values = (len(line) <= CSV_READ_BYTES and match(line)
                  and tuple(map(float, line.split(b","))))
        if not values or inf in values or -inf in values:
            _check_line(line, number)
        rows.extend(values)
    return rows_view(rows)


def _check_line(line: bytes, number: int) -> None:
    """Raise the ValueError that names line `number` (the header is 1) of a
    trajectory CSV, the bytes `line`, and the first reason it is outside the
    grammar: its length, field count, a field's syntax or value, its LF."""
    def refuse(reason):
        raise ValueError(f"malformed trajectory CSV: {reason} on line {number}")

    if len(line) > CSV_READ_BYTES:
        refuse(f"more than {CSV_READ_BYTES} bytes")
    fields = line.removesuffix(b"\n").split(b",")
    if len(fields) != 11:
        refuse(f"expected 11 fields, got {len(fields)}")
    for column, field in enumerate(fields, start=1):
        try:  # nan, inf or an overflow, in the grammar or not
            finite = isfinite(float(field))
        except ValueError:
            finite = True
        if not finite:
            refuse("non-finite value")
        if not re.fullmatch(_FIELD, field):
            refuse(f"could not convert {field.decode(errors='replace')!r} in column {column}")
    refuse("no final newline")


def rows_view(rows: array) -> memoryview:
    """The array('d') `rows` as a (rows, 11) float64 memoryview.

    ValueError where it holds no row, which only a trajectory CSV can do: a
    memoryview cannot take a zero in its shape."""
    if not rows:
        raise ValueError("trajectory CSV has no data rows")
    return memoryview(rows).cast("B").cast("d", (len(rows) // 11, 11))


# ---------------------------------------------------------------------------
# the compiled library
# ---------------------------------------------------------------------------

_C_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")
# no fast-math, no FMA contraction, and sin and cos called as math calls them
_C_FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin-sin", "-fno-builtin-cos",
            "-fPIC", "-shared")
# rows per call into the library at most, in run_loop's chunk and in the
# blocks of write_rows and read_rows, and per %-operation of _format_rows
CHUNK_ROWS = 1024
# n_updates, refresh_every and log_every above this never meet k: no run
# reaches 2^62 updates, and the C loop's k is a 64-bit integer
_MAX_COUNT = 2 ** 62
# updates per call of the C loop at most. Python handles Ctrl-C only between
# calls; 2^20 updates of P1 take about 0.06 s (x86-64, gcc 12, -O2)
UPDATES_PER_CALL = 2 ** 20


@functools.cache
def compiled_loop():
    """The library of `_kernels.c` as a ctypes CDLL, or None: the one switch
    between the builds, which every entry point reads.

    Built on the first call with `cc` into the package's __pycache__, under a
    name that carries a hash of the source and the flags, and then loaded
    from there. If it cannot be built or loaded, the reason goes to stderr and
    None comes back, so every entry point runs its twin.
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
    f64, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    for fn, restype, argtypes in (
            (lib.closed_loop, i64, (ctypes.POINTER(f64), ctypes.POINTER(i64),
                                    ctypes.POINTER(f64), ptr, i64)),
            (lib.parse_rows, i64, (ptr, i64, i64, ptr, i64, ctypes.POINTER(i64))),
            (lib.format_rows, i64, (ptr, i64, i64, ptr)),
            (lib.deviation_sq, f64, (ptr, i64, ptr, i64)),
            (lib.slab_sum, f64, (ptr, ptr, ptr, i64, f64, f64))):
        fn.restype, fn.argtypes = restype, argtypes
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


# ---------------------------------------------------------------------------
# the entry points
# ---------------------------------------------------------------------------

def run_loop(c1, c2, c3, x0, gamma, k1, k2, omega, control_period,
             n_updates, refresh_every, u1_max, u2_max, goal_tol, log_every):
    """The closed-loop run of `_closed_loop`'s arguments, with its value.

    The library runs it in calls of at most UPDATES_PER_CALL updates. Each
    call resumes where the last one ran out of room or of updates and logs
    into one reused chunk, whose rows are appended to the array('d') that is
    returned. The chunk holds 1/64 of the most rows the horizon can log, at
    least 16 and at most CHUNK_ROWS. So the memory follows the rows logged,
    plus one chunk, and Ctrl-C stops a long run within one call.
    """
    lib = compiled_loop()
    if not lib:
        return _closed_loop(c1, c2, c3, x0, gamma, k1, k2, omega, control_period,
                            n_updates, refresh_every, u1_max, u2_max, goal_tol, log_every)
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
        rows.frombytes(view[:88 * lib.closed_loop(p, n, s, chunk, room)])
    return rows, n[6], n[5], s[6], s[7]


def write_rows(f, rows: array) -> None:
    """Write the array('d') `rows` to the binary file f as CSV_ROW lines.

    The library writes CHUNK_ROWS rows per call into one reused buffer, each
    block written out before the next, so the memory is one block.
    """
    lib = compiled_loop()
    if not lib:
        return _format_rows(f, rows)
    # 24 bytes a value: "%.9g" writes at most 16, as in "-1.23456789e-308",
    # and one more for the "," or "\n"; format_rows' fixed-size copies write
    # scratch bytes up to 18 past a value's start, which the next value
    # overwrites, so the chunk's last value stays inside its 24 too
    buf = bytearray(24 * 11 * CHUNK_ROWS)
    addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    view = memoryview(buf)
    start, n = rows.buffer_info()[0], len(rows) // 11
    for i in range(0, n, CHUNK_ROWS):
        f.write(view[:lib.format_rows(start + 88 * i, min(CHUNK_ROWS, n - i), 11, addr)])


def read_rows(f) -> memoryview:
    """The rows of the binary stream f, a file or a pipe past the trajectory
    CSV's header, as a writable (rows, 11) float64 memoryview of an
    array('d'); the first line outside the grammar raises `_check_line`'s
    ValueError.

    The library's path reads f CSV_READ_BYTES at a time into one reused
    buffer, a partial last line moved to its front. parse_rows parses the
    buffer's whole lines into one reused chunk of CHUNK_ROWS rows at a time,
    which is appended to the array. A refused line goes to `_check_line`
    from the buffer, up to its LF, and a partial last line or one longer
    than the buffer with the byte after it, so f is read once and never
    sought: the line is rows + 2, as every line before it is a row.
    """
    lib = compiled_loop()
    if not lib:
        return _parse_rows(f)
    chunk = bytearray(88 * CHUNK_ROWS)
    out = ctypes.addressof(ctypes.c_char.from_buffer(chunk))
    parsed = memoryview(chunk)
    buf = bytearray(CSV_READ_BYTES)
    addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    used = ctypes.c_int64()
    rows, rest = array("d"), 0
    while got := f.readinto(memoryview(buf)[rest:]):
        start, end, n = 0, rest + got, CHUNK_ROWS  # buf[start:end] is left to parse
        while n == CHUNK_ROWS:  # a full chunk: more whole lines may follow
            n = lib.parse_rows(addr + start, end - start, 11, out, CHUNK_ROWS,
                               ctypes.byref(used))
            rows.frombytes(parsed[:88 * (n if n >= 0 else -1 - n)])
            start += used.value
        if n < 0:  # -1 - the rows before the refused line, which starts at *used
            line = bytes(buf[start:buf.index(b"\n", start) + 1])
            _check_line(line, len(rows) // 11 + 2)  # raises
        rest = end - start
        ctypes.memmove(addr, addr + start, rest)
    if rest:  # a last line without its LF, or one that fills the buffer
        _check_line(bytes(buf[:rest]) + f.read(1), len(rows) // 11 + 2)  # raises
    return rows_view(rows)


def worst_deviation_sq(a: array, b: array) -> float:
    """`_deviation_sq` of the runs a and b, in the library or in the twin."""
    lib = compiled_loop()
    if not lib:
        return _deviation_sq(a, b)
    return lib.deviation_sq(a.buffer_info()[0], len(a) // 11, b.buffer_info()[0], len(b) // 11)


def quadrature(d: array, nodes: array, weights: array, q: float, slabs) -> float:
    """The sum of weight times `_slab_sum(d, nodes, weights, len(nodes), x3, q)`
    over the (x3, weight) pairs of the iterable `slabs`, added in their order.

    The library's slab_sum takes the addresses of d, nodes and weights,
    taken once, and runs one call a slab, so Ctrl-C stops between two slabs.
    """
    lib = compiled_loop()
    if lib:
        args = (d.buffer_info()[0], nodes.buffer_info()[0], weights.buffer_info()[0],
                len(nodes))
        slab_sum = lib.slab_sum
    else:
        args = (d, nodes, weights, len(nodes))
        slab_sum = _slab_sum
    total = 0.0
    for x3, weight in slabs:
        total += weight * slab_sum(*args, x3, q)
    return total
