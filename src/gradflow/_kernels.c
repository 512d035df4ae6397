/* gradflow's compiled library: five functions, loaded by gradflow._kernels.

   closed_loop is the closed loop of gradflow._kernels.closed_loop, in C.
   parse_rows parses the rows of a trajectory CSV in the writer's format.
   format_rows writes those rows, in the bytes of Python's '%.9g' %.
   deviation_sq measures the squared distance between two logged runs.
   slab_sum sums one slab of the admissibility quadrature, one pair of
   mirrored x2 nodes at a time, into four lanes.

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
   bytes written, at most 17 per value with its separator. A value may write
   scratch bytes up to 18 past its start, which the next value or separator
   overwrites, so `out` needs 24 bytes a value.

   A finite nonzero |x| with decimal exponent k is scaled to
   y = |x| * 10^(8-k), one IEEE multiply or divide of two exact doubles, so y
   is within half an ulp of y's exact value, below 1.2e-7 for y < 2^30. Where
   y's fraction is more than 1e-6 away from 0.5, y rounds to the same 9 digits
   as the exact value, and they are written in %g's layout here. snprintf
   writes every other value: a possible tie, or a power 10^(8-k) or 10^(7-k)
   that no double holds exactly (Grisu's fast path with a bail-out, Loitsch,
   PLDI 2010).

   The fast path calls no libm function. The binary exponent e, with
   2^(e-1) <= |x| < 2^e, is read from the bits as frexp would give it for a
   normal x, and k starts at floor((e - 1) * log10 2), computed as
   ((e - 1) * 78913) >> 18; the two are equal for every |e| < 1100, checked
   exhaustively. y is computed for k and for k + 1, and one is selected, so
   both powers must be exact: the fast path takes k from -14 to 29. A
   subnormal needs no branch: its exponent bits read e = -1022, so k = -308,
   and snprintf writes it. The 8 digits after the lead are built at once in
   one 64-bit word, a digit a byte (SWAR; Lemire, Softw. Pract. Exp. 51(8),
   2021), and written with 8-byte stores, after which p moves by the real
   length; the count of significant digits is read from the word's leading
   zero bits. On P1's 3,137,079 values this takes 12.6-14.6 ns a value,
   against 17.2-17.9 ns with the digits in pairs from a table (2 vCPUs,
   x86-64, gcc 12.2, -O2). */

/* "00" to "99", the exponent's two digits */
static const char PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* w's eight bytes at p, its least significant byte first */
static inline void store8(char *p, uint64_t w)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    memcpy(p, &w, sizeof w);
}

static char *format_value(char *p, double x)
{
    uint64_t bits, m, h, t, raw, ascii;
    uint32_t digits, r;
    double y0, y1, y, frac;
    int negative, e, k, n, up, len;
    char lead;

    memcpy(&bits, &x, sizeof bits);
    negative = (int)(bits >> 63);
    *p = '-';
    p += negative;
    bits &= ~(UINT64_C(1) << 63);
    /* 0, inf and NaN: bits - 1 wraps at 0, and 0x7FEF...F is the largest
       finite double's */
    if (bits - 1 >= UINT64_C(0x7FEFFFFFFFFFFFFF)) {
        if (bits == 0) {
            *p = '0';
            return p + 1;
        }
        if (bits == UINT64_C(0x7FF0000000000000)) {
            memcpy(p, "inf", 3);
            return p + 3;
        }
        /* Python writes every NaN as "nan", with no sign */
        p -= negative;
        memcpy(p, "nan", 3);
        return p + 3;
    }
    x = fabs(x);
    e = (int)(bits >> 52) - 1022;
    /* 10^k <= 2^(e-1) <= x < 2^e <= 10^(k+2): x's decimal exponent is k or
       k + 1, so y = x * 10^(8-k) >= 1e8 here and y >= 1e9 means k + 1. e - 1
       < 0 relies on the arithmetic right shift of a negative int, which GCC
       and Clang do */
    k = ((e - 1) * 78913) >> 18;
    n = 8 - k; /* both 10^n and 10^(n-1) must be exact */
    if (n > 22 || n < -21)
        goto slow;
    if (n > 0) {
        y0 = x * POW10[n];
        y1 = x * POW10[n - 1];
    } else {
        y0 = x / POW10[-n];
        y1 = x / POW10[1 - n];
    }
    up = y0 >= 1e9;
    y = up ? y1 : y0;
    k += up;
    digits = (uint32_t)y;
    frac = y - digits;
    if (fabs(frac - 0.5) < 1e-6)
        goto slow;
    digits += frac > 0.5;
    if (digits == 1000000000u) { /* rounded up to the next power of ten */
        digits = 100000000u;
        k++;
    }
    lead = (char)('0' + digits / 100000000u);
    r = digits % 100000000u;
    /* the 8 digits after the lead in one word, byte i digit i + 1: two
       lanes of 4 digits, then four of 2, then eight of 1; each step divides
       every lane at once by a multiply and a shift that are exact for the
       lane's range */
    m = r / 10000 | (uint64_t)(r % 10000) << 32;
    h = (m * 10486) >> 20 & (0x7F | UINT64_C(0x7F) << 32);
    m = h | (m - 100 * h) << 16;
    t = (m * 103) >> 10 & UINT64_C(0x000F000F000F000F);
    raw = t | (m - 10 * t) << 8;
    ascii = raw + UINT64_C(0x3030303030303030);
    /* the significant digits: the lead and those up to raw's last nonzero byte */
    len = raw ? 9 - (__builtin_clzll(raw) >> 3) : 1;
    if (k >= 9 || k < -4) { /* %g's exponent notation: |k| <= 30 here */
        p[0] = lead;
        p[1] = '.';
        store8(p + 2, ascii);
        p += len > 1 ? len + 1 : 1;
        p[0] = 'e';
        p[1] = k < 0 ? '-' : '+';
        memcpy(p + 2, PAIRS + 2 * abs(k), 2);
        return p + 4;
    }
    if (k >= 0) {
        p[0] = lead;
        store8(p + 1, ascii);
        p += k + 1;
        if (len > k + 1) {
            p[0] = '.';
            store8(p + 1, ascii >> 8 * k);
            p += len - k;
        }
        return p;
    }
    memcpy(p, "0.000", 5);
    p += 1 - k;
    p[0] = lead;
    store8(p + 1, ascii);
    return p + len;
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
   cos x3. x1 runs over the m nodes, and x2 over the m pairs of mirrored
   nodes nodes[j] and -nodes[j]. The two nodes of pair j share weights[j] and
   |g|^2 = (g1^2 + g2^2) + g3^2, and with a = (g1 s)^2 and b = g2 c, g2 =
   d2*nodes[j], their values are (|g1 s - b| / |g|)^q and (|g1 s + b| /
   |g|)^q. For q = 2 their sum is 2 (a + b^2) / |g|^2: one division, no sqrt.
   Otherwise the pair takes one sqrt and two pow calls. Pair j, times
   weights[j] and without the factor 2, goes into lane j mod 4 of four
   running sums, from pair 0 up; the row is (l0 + l1) + (l2 + l3), times 2
   (exact) for q = 2, and it goes into the slab times weights[i].
   gradflow._kernels.slab_sum is the same sum in Python, in the same order.

   Splitting a sum into running partial sums leaves its error bound as it
   is (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec.
   4); the four lanes are explicit, so the bits do not depend on whether the
   compiler vectorises them. GCC inlines row_sum into both loops of
   slab_sum, and the q = 2 one has no pow or sqrt left in it: the seven
   Table 1 cells take about 6 ms there, against 11 ms with q a variable
   (x86-64, gcc 12.2, -O2). */

/* pair j's value times weights[j], without the factor 2 of q = 2 */
static inline double pair(const double *nodes, const double *weights, int64_t j, double d2,
                          double c, double g1s, double a, double g1sq, double g3sq, double q)
{
    const double g2 = d2 * nodes[j], b = g2 * c, gsq = (g1sq + g2 * g2) + g3sq;
    double norm;

    if (q == 2.0)
        return weights[j] * ((a + b * b) / gsq);
    norm = sqrt(gsq);
    return weights[j] * (pow(fabs((g1s - b) / norm), q) + pow(fabs((g1s + b) / norm), q));
}

/* the row's sum without the factor 2: pair j into lane j mod 4 */
static inline double row_sum(const double *nodes, const double *weights, int64_t m,
                             double d2, double c, double g1s, double a, double g1sq,
                             double g3sq, double q)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    int64_t j = 0;

    for (; j + 4 <= m; j += 4) {
        l0 += pair(nodes, weights, j, d2, c, g1s, a, g1sq, g3sq, q);
        l1 += pair(nodes, weights, j + 1, d2, c, g1s, a, g1sq, g3sq, q);
        l2 += pair(nodes, weights, j + 2, d2, c, g1s, a, g1sq, g3sq, q);
        l3 += pair(nodes, weights, j + 3, d2, c, g1s, a, g1sq, g3sq, q);
    }
    if (j < m)
        l0 += pair(nodes, weights, j, d2, c, g1s, a, g1sq, g3sq, q);
    if (j + 1 < m)
        l1 += pair(nodes, weights, j + 1, d2, c, g1s, a, g1sq, g3sq, q);
    if (j + 2 < m)
        l2 += pair(nodes, weights, j + 2, d2, c, g1s, a, g1sq, g3sq, q);
    return (l0 + l1) + (l2 + l3);
}

double slab_sum(const double *d, const double *nodes, const double *weights, int64_t m,
                double x3, double q)
{
    const double s = sin(x3), c = cos(x3), g3 = d[2] * x3, g3sq = g3 * g3;
    double slab = 0.0;

    for (int64_t i = 0; i < m; i++) {
        const double g1 = d[0] * nodes[i], g1s = g1 * s, a = g1s * g1s, g1sq = g1 * g1;

        /* the literal 2.0 leaves the q = 2 loop without pow and sqrt */
        const double row = q == 2.0
            ? 2.0 * row_sum(nodes, weights, m, d[1], c, g1s, a, g1sq, g3sq, 2.0)
            : row_sum(nodes, weights, m, d[1], c, g1s, a, g1sq, g3sq, q);

        slab += weights[i] * row;
    }
    return slab;
}
