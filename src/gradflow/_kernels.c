/* gradflow's compiled library: five functions, loaded by gradflow._kernels.

   closed_loop is the closed loop of gradflow._kernels.closed_loop, in C.
   parse_rows parses the rows of a trajectory CSV in the writer's format.
   format_rows writes those rows, in the bytes of Python's '%.9g' %.
   deviation_sq measures the squared distance between two logged runs.
   slab_sum sums one slab of the admissibility quadrature.

   closed_loop's body is _kernels.closed_loop's, statement for statement and
   in the same operation order, so with IEEE doubles, no contraction into FMAs
   (-ffp-contract=off), no fast-math and the libm that Python's math module
   calls, it gives the same bits. sin and cos are called one at a time, as
   math.sin and math.cos are, and not fused into sincos.

   Where math.sin or math.cos raise ValueError on an infinite angle, sin and
   cos return NaN here. The row rule then stops the run at the same logged
   row: an infinite x3 makes the amplitudes NaN at that update, an infinite
   omega*t its controls, and an infinite half-angle or heading of a hold
   makes x1 NaN, so V is NaN at the next update, before it counts anything.

   p holds c1, c2, c3, gamma, k1, k2, omega, control_period, u1_max, u2_max
   and goal_tol. n holds n_updates, refresh_every, log_every and the most
   updates one call runs, then the resumable k, saturated-update count and
   status. s holds the resumable x1, x2, x3, a1, a2, a12, max |u1| and
   max |u2|. The run starts with k = 0 and s = (x0, 0, 0, 0, 0, 0). It logs
   rows of 11 doubles into `rows` and returns how many it logged. When
   `capacity` rows are logged, or the call has run its updates, before the
   run ends, it returns with status -1 and n and s hold the update to resume
   from; otherwise the status is 0 (horizon), 1 (goal) or 2 (non-finite). */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t closed_loop(const double *p, int64_t *n, double *s, double *rows,
                    int64_t capacity)
{
    const double c1 = p[0], c2 = p[1], c3 = p[2], gamma = p[3], k1 = p[4],
                 k2 = p[5], omega = p[6], control_period = p[7],
                 u1_max = p[8], u2_max = p[9], goal_tol = p[10];
    const int64_t n_updates = n[0], refresh_every = n[1], log_every = n[2];
    int64_t k = n[4], n_sat = n[5], status = -1, logged = 0;
    const int64_t k_stop = k + n[3];
    double x1 = s[0], x2 = s[1], x3 = s[2], a1 = s[3], a2 = s[4], a12 = s[5],
           max_u1 = s[6], max_u2 = s[7];
    /* grad V = (d1*x1, d2*x2, d3*x3) */
    const double d1 = 2.0 * c1, d2 = 2.0 * c2, d3 = 2.0 * c3;

    for (; logged < capacity && k < k_stop; k++) {
        double t = (double)k * control_period;
        double v_val = c1 * x1 * x1 + c2 * x2 * x2 + c3 * x3 * x3;
        if (k % refresh_every == 0) {
            double gx1 = d1 * x1;
            double gx2 = d2 * x2;
            double sn = sin(x3);
            double cs = cos(x3);
            a1 = -gamma * (gx1 * cs + gx2 * sn);
            a2 = -gamma * (d3 * x3);
            a12 = -gamma * (gx1 * sn - gx2 * cs);
        }
        double osc = sqrt(omega * fabs(a12));
        double sign = 0.0;
        if (a12 > 0.0)
            sign = 1.0;
        else if (a12 < 0.0)
            sign = -1.0;
        double u1 = a1 + k1 * osc * sign * cos(omega * t);
        double u2 = a2 + k2 * osc * sin(omega * t);
        double sat = 0.0;
        double abs_u1 = fabs(u1);
        if (abs_u1 > u1_max) {
            u1 = copysign(u1_max, u1);
            abs_u1 = u1_max;
            sat = 1.0;
        }
        double abs_u2 = fabs(u2);
        if (abs_u2 > u2_max) {
            u2 = copysign(u2_max, u2);
            abs_u2 = u2_max;
            sat = 1.0;
        }
        /* the row rule */
        if (!(isfinite(v_val) && isfinite(u1) && isfinite(u2)
              && isfinite(a1) && isfinite(a2) && isfinite(a12))) {
            status = 2;
            break;
        }
        if (sat != 0.0)
            n_sat++;
        if (abs_u1 > max_u1)
            max_u1 = abs_u1;
        if (abs_u2 > max_u2)
            max_u2 = abs_u2;
        int at_goal = sqrt(x1 * x1 + x2 * x2 + x3 * x3) <= goal_tol;
        if (k % log_every == 0 || at_goal || k == n_updates) {
            double *row = rows + 11 * logged++;
            row[0] = t;
            row[1] = x1;
            row[2] = x2;
            row[3] = x3;
            row[4] = u1;
            row[5] = u2;
            row[6] = a1;
            row[7] = a2;
            row[8] = a12;
            row[9] = v_val;
            row[10] = sat;
        }
        if (at_goal) {
            status = 1;
            break;
        }
        if (k == n_updates) {
            status = 0;
            break;
        }
        /* exact flow of the hold */
        double half = 0.5 * u2 * control_period;
        double sinc = 1.0;
        if (half != 0.0)
            sinc = sin(half) / half;
        double chord = u1 * control_period * sinc;
        double heading = x3 + half;
        x1 += chord * cos(heading);
        x2 += chord * sin(heading);
        x3 += u2 * control_period;
    }
    n[4] = k;
    n[5] = n_sat;
    n[6] = status;
    s[0] = x1;
    s[1] = x2;
    s[2] = x3;
    s[3] = a1;
    s[4] = a2;
    s[5] = a12;
    s[6] = max_u1;
    s[7] = max_u2;
    return logged;
}


/* parse_rows reads the whole lines of buf[0:len], each `width` fields of
   the writer's grammar -?D+(.D+)?(e[+-]D+)? split by ',' and ended by '\n',
   into `out`, row after row, at most `capacity` rows. It returns how many
   it parsed and sets *used to the bytes they took. At the first line
   outside that grammar or with a non-finite value it returns -1 - n
   instead, n the rows parsed before that line, and sets *used to the
   line's start, so that the caller can name it. A partial last line is
   left for the next call.

   Each value is correctly rounded, as np.loadtxt's are. A significand of at
   most 19 digits and below 2^53 times a power of ten of at most 22 in
   absolute value is one IEEE multiply or divide of two exact doubles
   (Clinger's fast path, PLDI 1990); strtod reads every other value. */

/* the powers of ten that a double holds exactly */
static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

#define IS_DIGIT(c) ((unsigned)((c) - '0') < 10u)

/* One field at p, which must end at `stop`; returns the byte after the
   field's end, or NULL. The line's '\n' stops every scan, so none reads
   past it. */
static const char *parse_field(const char *p, char stop, double *value)
{
    const char *start = p, *digits;
    int negative = *p == '-';
    uint64_t m = 0;
    int n_digits = 0, exp10 = 0;

    p += negative;
    for (digits = p; IS_DIGIT(*p); p++, n_digits++)
        m = 10 * m + (uint64_t)(*p - '0');
    if (p == digits)
        return NULL;
    if (*p == '.') {
        for (digits = ++p; IS_DIGIT(*p); p++, n_digits++, exp10--)
            m = 10 * m + (uint64_t)(*p - '0');
        if (p == digits)
            return NULL;
    }
    if (*p == 'e') {
        int sign = p[1] == '-' ? -1 : 1, e = 0;
        if (p[1] != '+' && p[1] != '-')
            return NULL;
        for (digits = p += 2; IS_DIGIT(*p); p++)
            if (e < 100000)
                e = 10 * e + (*p - '0');
        if (p == digits)
            return NULL;
        exp10 += sign * e;
    }
    if (*p != stop)
        return NULL;
    /* m wraps past 19 digits, and is then not used */
    if (n_digits <= 19 && m <= (UINT64_C(1) << 53) && exp10 >= -22 && exp10 <= 22) {
        double v = (double)m;
        v = exp10 < 0 ? v / POW10[-exp10] : v * POW10[exp10];
        *value = negative ? -v : v;
    } else {
        char *end;
        *value = strtod(start, &end);
        if (end != p || !isfinite(*value))
            return NULL;
    }
    return p + 1;
}

int64_t parse_rows(const char *buf, int64_t len, int64_t width, double *out,
                   int64_t capacity, int64_t *used)
{
    const char *p = buf;
    int64_t rows = 0;

    /* whole lines only: the last '\n' ends the last of them */
    while (len > 0 && buf[len - 1] != '\n')
        len--;
    for (; rows < capacity && p < buf + len; rows++) {
        const char *line = p;
        double *row = out + width * rows;
        for (int64_t j = 0; j < width; j++) {
            p = parse_field(p, j + 1 < width ? ',' : '\n', row + j);
            if (p == NULL) {
                *used = line - buf;
                return -1 - rows;
            }
        }
    }
    *used = p - buf;
    return rows;
}


/* format_rows writes `n_rows` rows of `width` doubles from `values`, row
   after row, into `out` as lines of a trajectory CSV: each value as Python's
   '%.9g' % value writes it, split by ',' and ended by '\n'. It returns the
   bytes written, at most 24 per value.

   A finite nonzero |x| with decimal exponent k is scaled to
   y = |x| * 10^(8-k), one IEEE multiply or divide of two exact doubles, so y
   is within half an ulp of y's exact value, below 1.2e-7 for y < 2^30. Where
   y's fraction is more than 1e-6 away from 0.5, y rounds to the same 9 digits
   as the exact value, and they are written in %g's layout here. snprintf
   writes every other value: a possible tie, or a power 10^(8-k) that no
   double holds exactly (Grisu's fast path with a bail-out, Loitsch, PLDI
   2010). */

/* |x| * 10^(8-k) in *y, or 0 where 10^|8-k| is not exact */
static int scale(double x, int k, double *y)
{
    int p = 8 - k;
    if (p > 22 || p < -22)
        return 0;
    *y = p >= 0 ? x * POW10[p] : x / POW10[-p];
    return 1;
}

static char *format_value(char *p, double x)
{
    char d[9];
    double y, whole, frac;
    uint32_t digits;
    int e, k, len;

    /* Python writes every NaN as "nan", with no sign */
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (signbit(x)) {
        *p++ = '-';
        x = -x;
    }
    if (isinf(x)) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (x == 0.0) {
        *p++ = '0';
        return p;
    }
    frexp(x, &e);
    /* 10^k <= 2^(e-1) <= x < 2^e <= 10^(k+2): x's decimal exponent is k or
       k + 1, so y >= 1e8 here and y >= 1e9 means k + 1 */
    k = (int)floor((e - 1) * 0.30102999566398119521);
    if (!scale(x, k, &y) || (y >= 1e9 && !scale(x, ++k, &y)))
        goto slow;
    whole = floor(y);
    frac = y - whole;
    if (fabs(frac - 0.5) < 1e-6)
        goto slow;
    digits = (uint32_t)whole + (frac > 0.5);
    if (digits == 1000000000u) { /* rounded up to the next power of ten */
        digits = 100000000u;
        k++;
    }
    for (int i = 8; i >= 0; i--, digits /= 10)
        d[i] = (char)('0' + digits % 10);
    for (len = 9; d[len - 1] == '0'; len--)
        ;
    if (k >= 9 || k < -4) { /* %g's exponent notation: |k| <= 30 here */
        *p++ = d[0];
        if (len > 1) {
            *p++ = '.';
            memcpy(p, d + 1, len - 1);
            p += len - 1;
        }
        *p++ = 'e';
        *p++ = k < 0 ? '-' : '+';
        k = abs(k);
        *p++ = (char)('0' + k / 10);
        *p++ = (char)('0' + k % 10);
    } else if (k >= 0) {
        memcpy(p, d, k + 1);
        p += k + 1;
        if (len > k + 1) {
            *p++ = '.';
            memcpy(p, d + k + 1, len - k - 1);
            p += len - k - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > k; i--)
            *p++ = '0';
        memcpy(p, d, len);
        p += len;
    }
    return p;
slow:
    /* x >= 0 here: the sign is written already */
    return p + snprintf(p, 24, "%.9g", x);
}

int64_t format_rows(const double *values, int64_t n_rows, int64_t width, char *out)
{
    char *p = out;

    for (int64_t i = 0; i < n_rows; i++) {
        for (int64_t j = 0; j < width; j++) {
            p = format_value(p, *values++);
            *p++ = ',';
        }
        p[-1] = '\n';
    }
    return p - out;
}


/* deviation_sq takes two runs of na and nb rows of 11 doubles, (t, x1, x2,
   x3, ...), each with its times in ascending order, as every logged run's
   are. On each time of either run up to t_end, the smaller of their last
   times, it interpolates both runs' states and sums their squared
   differences; it returns the largest sum, a NaN sum if there is one, or -1
   where no time is at most t_end. gradflow._kernels.deviation_sq is the same
   walk in Python.

   The times are merged as np.union1d merges them, and each coordinate is
   interpolated as np.interp does it: at the last knot i with t_i <= x, which
   the walk keeps, the value is fp_i where i is the last knot or t_i == x, and
   otherwise the line through knots i and i+1, evaluated from knot i and,
   where that is NaN, from knot i+1. */
static double interp(const double *rows, int64_t n, int64_t i, double x, int column)
{
    const double *lo = rows + 11 * i, *hi = lo + 11;
    double slope, y;

    if (i == n - 1 || lo[0] == x)
        return lo[column];
    slope = (hi[column] - lo[column]) / (hi[0] - lo[0]);
    y = slope * (x - lo[0]) + lo[column];
    if (isnan(y)) {
        y = slope * (x - hi[0]) + hi[column];
        if (isnan(y) && lo[column] == hi[column])
            y = lo[column];
    }
    return y;
}

double deviation_sq(const double *a, int64_t na, const double *b, int64_t nb)
{
    const double ta_end = a[11 * (na - 1)], tb_end = b[11 * (nb - 1)];
    /* Python's min(ta_end, tb_end) */
    const double t_end = tb_end < ta_end ? tb_end : ta_end;
    double worst = -1.0;
    int64_t i = 0, j = 0; /* the knots of a and of b at or before the last time */

    for (;;) {
        int more_a = i < na && a[11 * i] <= t_end;
        int more_b = j < nb && b[11 * j] <= t_end;
        double x, sum = 0.0;

        if (!more_a && !more_b)
            return worst;
        x = more_a && !(more_b && b[11 * j] < a[11 * i]) ? a[11 * i] : b[11 * j];
        while (i < na && a[11 * i] == x)
            i++;
        while (j < nb && b[11 * j] == x)
            j++;
        for (int column = 1; column <= 3; column++) {
            double d = interp(a, na, i - 1, x, column) - interp(b, nb, j - 1, x, column);
            sum += d * d;
        }
        if (sum > worst || isnan(sum))
            worst = sum;
    }
}


/* slab_sum sums the integrand (|g1 s - g2 c| / |g|)^q of the admissibility
   quadrature over one x3 > 0 slab of its tensor grid: g = (d1*x1, d2*x2,
   d3*x3) is the scaled gradient, with d = (d1, d2, d3), and s, c = sin x3,
   cos x3. x1 runs over the m nodes, x2 over the 2m mirrored nodes -nodes[m-1],
   ..., -nodes[0], nodes[0], ..., nodes[m-1]. Each value goes into its row
   times weights[j], and each row into the slab times weights[i];
   gradflow._kernels.slab_sum is the same sum in Python, in the same order. */
static double integrand(double g1s, double g1sq, double g2, double c, double g3sq, double q)
{
    double r = (g1s - g2 * c) / sqrt((g1sq + g2 * g2) + g3sq);

    return q == 2.0 ? r * r : pow(fabs(r), q);
}

double slab_sum(const double *d, const double *nodes, const double *weights, int64_t m,
                double x3, double q)
{
    const double s = sin(x3), c = cos(x3), g3 = d[2] * x3, g3sq = g3 * g3;
    double slab = 0.0;

    for (int64_t i = 0; i < m; i++) {
        const double g1 = d[0] * nodes[i], g1s = g1 * s, g1sq = g1 * g1;
        double row = 0.0;

        for (int64_t j = m - 1; j >= 0; j--)
            row += weights[j] * integrand(g1s, g1sq, -(d[1] * nodes[j]), c, g3sq, q);
        for (int64_t j = 0; j < m; j++)
            row += weights[j] * integrand(g1s, g1sq, d[1] * nodes[j], c, g3sq, q);
        slab += weights[i] * row;
    }
    return slab;
}
