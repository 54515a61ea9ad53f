/* The per-frame kernels of entropykf, over 8-bit pixels in row-major order.
 *
 * kernels.py compiles this file into a CPython extension module on first
 * import and loads it from its cache.  The arguments are Python buffers:
 * bytes, array.array, memoryview, or anything else with the buffer protocol,
 * numpy arrays among them, but nothing here needs numpy.  Each entry point
 * lists its arguments once, and parse_args checks every call against that
 * list: the count, and each buffer's format, writability and byte length, so
 * this file is the one place that says which buffers a kernel reads and
 * writes.  The buffer protocol refuses a non-contiguous buffer.  Python keeps
 * shapes and allocation, but segment_entropies takes a frame's width and owns
 * the 8x8 segment grid.  Every loop runs with the GIL released.  The
 * histogram and moment results are exact integers; entropy takes its log2
 * from exponent bits and IEEE + - * / alone (log2_parts), so its bits depend
 * on no libm and no CPU; sd_rows repeats numpy's float64 steps and pairwise
 * order, so it gives numpy's bits; frame_step's correlation takes Python's
 * float steps on the exact integer moments.  The build passes
 * -ffp-contract=off, so no product and sum fuse into one rounding;
 * -ffast-math would reorder the additions.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

/* frame_step's exact correlation needs a 128-bit integer type. */
#ifndef __SIZEOF_INT128__
#error "_kernels.c needs the __int128 type of gcc or clang"
#endif
typedef __int128 i128;
typedef unsigned __int128 u128;

/* Pixels counted between flushes of the uint32 lanes: one lane gets at most
 * a quarter of them (plus a three-pixel tail), so it cannot overflow. */
#define HIST_BLOCK ((int64_t)1 << 32)
/* Pixels per uint32 partial of the dot: 255 * 255 * 65536 < 2^32. */
#define DOT_BLOCK ((int64_t)1 << 16)
/* Bytes per memcmp when frame_step looks for the run of equal bytes two
 * frames start with. */
#define PREFIX_BLOCK ((int64_t)1 << 12)

#define COUNTS_BYTES ((Py_ssize_t)(256 * sizeof(int64_t)))
#define SEGMENT_ROW_BYTES ((Py_ssize_t)(64 * sizeof(double)))

/* Adds the 256-bin histogram of n pixels to out[256].  Four interleaved count
 * lanes keep runs of equal pixels from stalling on one counter. */
static void add_histogram(const uint8_t *px, int64_t n, int64_t *out)
{
    uint32_t lanes[4][256];
    int64_t start, i, end;
    int v;

    for (start = 0; start < n; start += HIST_BLOCK) {
        end = n - start < HIST_BLOCK ? n : start + HIST_BLOCK;
        memset(lanes, 0, sizeof(lanes));
        for (i = start; i + 4 <= end; i += 4) {
            lanes[0][px[i]]++;
            lanes[1][px[i + 1]]++;
            lanes[2][px[i + 2]]++;
            lanes[3][px[i + 3]]++;
        }
        for (; i < end; i++)
            lanes[0][px[i]]++;
        for (v = 0; v < 256; v++)
            out[v] += (int64_t)lanes[0][v] + lanes[1][v] + lanes[2][v] + lanes[3][v];
    }
}

/* The length of a run of equal bytes that a[0..n) and b[0..n) start with:
 * n when they are equal, else a multiple of PREFIX_BLOCK no greater than the
 * index of their first difference. */
static int64_t equal_prefix(const uint8_t *a, const uint8_t *b, int64_t n)
{
    int64_t k, len;

    for (k = 0; k < n; k += len) {
        len = n - k < PREFIX_BLOCK ? n - k : PREFIX_BLOCK;
        if (memcmp(a + k, b + k, len) != 0)
            break;
    }
    return k;
}

/* Sum over i of a[i] * b[i].  Each block of at most DOT_BLOCK products is
 * summed in uint32, which gcc vectorises; the block sums add up in uint64,
 * exact for any n below 2^64 / 255^2. */
static uint64_t dot_u8(const uint8_t *a, const uint8_t *b, int64_t n)
{
    uint64_t total = 0;
    uint32_t partial;
    int64_t start, i, end;

    for (start = 0; start < n; start += DOT_BLOCK) {
        end = n - start < DOT_BLOCK ? n : start + DOT_BLOCK;
        partial = 0;
        for (i = start; i < end; i++)
            partial += (uint32_t)a[i] * b[i];
        total += partial;
    }
    return total;
}

/* Σk·c_k and Σk²·c_k of a 256-bin histogram.  For the counts of a frame of
 * n pixels these are at most 255²·n, exact in int64; the sums run in uint64
 * so that any other counts wrap, as numpy's int64 arithmetic does, rather
 * than overflow. */
static void moments(const int64_t *counts, int64_t *s, int64_t *ss)
{
    uint64_t s1 = 0, s2 = 0, c;
    uint64_t k;

    for (k = 0; k < 256; k++) {
        c = (uint64_t)counts[k];
        s1 += k * c;
        s2 += k * k * c;
    }
    *s = (int64_t)s1;
    *ss = (int64_t)s2;
}

/* Whether counts[256] is the histogram of n pixels: every count in 0..n and
 * their total n.  Such counts total at most 256 * n, which cannot wrap for a
 * buffer that fits in memory. */
static int is_histogram_of(const int64_t *counts, int64_t n)
{
    uint64_t total = 0;
    int over = 0, v;

    for (v = 0; v < 256; v++) {
        over |= (uint64_t)counts[v] > (uint64_t)n;
        total += (uint64_t)counts[v];
    }
    return !over && total == (uint64_t)n;
}

/* The 256-bit product of a and b, as hi * 2^128 + lo, from four 64x64-bit
 * products; mid, the sum of the three terms of weight 2^64, stays below
 * 3 * 2^64. */
static void mul_256(u128 a, u128 b, u128 *hi, u128 *lo)
{
    u128 a0 = (uint64_t)a, a1 = a >> 64, b0 = (uint64_t)b, b1 = b >> 64;
    u128 p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    u128 mid = (p00 >> 64) + (uint64_t)p01 + (uint64_t)p10;

    *lo = (mid << 64) | (uint64_t)p00;
    *hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
}

/* The Pearson correlation of two frames of n pixels each from their exact
 * moments.  Flat frames follow the shot rule: two correlate 1.0 when their
 * means differ by at most one grey level, else 0.0, and a flat frame never
 * correlates with a textured one.  For the moments of two histograms of n
 * pixels, va, vb and num are at most 255^2 * n^2 in magnitude, and so are the
 * products they are made of: below 2^72 for the largest allowed frame
 * (n = 16384^2 = 2^28), and within int128 for any n below 2^55.  The
 * Cauchy-Schwarz test num^2 == va*vb, which gives an exact +-1, compares two
 * exact 256-bit products.  (double) of an int128 rounds to nearest, as
 * Python's float() of an int does, and the quotient then repeats Python's
 * float arithmetic: one product, one sqrt, one division. */
static double correlation(int64_t n, int64_t sa, int64_t sb, int64_t saa, int64_t sbb,
                          uint64_t sab)
{
    i128 va = (i128)n * saa - (i128)sa * sa;
    i128 vb = (i128)n * sbb - (i128)sb * sb;
    i128 num;
    u128 mag, num2_hi, num2_lo, vv_hi, vv_lo;
    double r;

    if (va == 0 && vb == 0)
        return (sa > sb ? sa - sb : sb - sa) <= n ? 1.0 : 0.0;
    if (va == 0 || vb == 0)
        return 0.0;
    num = (i128)n * (i128)sab - (i128)sa * sb;
    mag = num < 0 ? -(u128)num : (u128)num;
    mul_256(mag, mag, &num2_hi, &num2_lo);
    mul_256((u128)va, (u128)vb, &vv_hi, &vv_lo);
    if (num2_hi == vv_hi && num2_lo == vv_lo)
        return num > 0 ? 1.0 : -1.0;
    r = (double)num / sqrt((double)va * (double)vb);
    return r > 1.0 ? 1.0 : r < -1.0 ? -1.0 : r;
}

/* The sum of a[0..n) in the order of numpy's pairwise_sum for float64
 * (numpy/_core/src/umath/loops_utils.h.src), which np.add.reduce applies to a
 * contiguous row: in sequence below 8 values, in eight interleaved partial
 * sums up to 128, and split in two halves at a multiple of 8 above. */
static double pairwise_sum(const double *a, int64_t n)
{
    double r[8], res;
    int64_t i, half;
    int k;

    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        for (k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (k = 0; k < 8; k++)
                r[k] += a[i + k];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* 2 / ln 2 and sqrt(2), each rounded to the nearest double, and the size
 * of the table of log2_parts of small counts. */
#define TWO_LOG2_E 0x1.71547652b82fep+1
#define SQRT2 0x1.6a09e667f3bcdp+0
#define LOG2_TABLE 4096

/* log2 x = e + f for a double x >= 1, from the exponent bits and IEEE
 * + - * / only: e is x's exponent with its mantissa m taken in [sqrt(1/2),
 * sqrt(2)), and f = log2 m = (2 / ln 2) atanh s, s = (m - 1) / (m + 1), by
 * atanh's odd series to s^21 in Horner's order (|s| < 0.1716, a remainder
 * below 2^-60 of f).  Counts in a power-of-2 ratio share m, so f cancels. */
static void log2_parts(double x, double *e, double *f)
{
    uint64_t bits;
    double m, s, s2, q = 0.0;
    int k;

    memcpy(&bits, &x, sizeof(bits));
    *e = (double)((int)(bits >> 52) - 1023);
    bits = (bits & (((uint64_t)1 << 52) - 1)) | (uint64_t)1023 << 52;
    memcpy(&m, &bits, sizeof(m));
    if (m >= SQRT2) {
        m *= 0.5;
        *e += 1.0;
    }
    s = (m - 1.0) / (m + 1.0);
    s2 = s * s;
    for (k = 21; k >= 1; k -= 2)
        q = q * s2 + 1.0 / k;
    *f = TWO_LOG2_E * (s * q);
}

/* log2_parts of 1..LOG2_TABLE - 1, filled once at module init. */
static double table_e[LOG2_TABLE], table_f[LOG2_TABLE];

/* log2_parts of a count, from the table below LOG2_TABLE (0 reads zeros). */
static void log2_count(uint64_t c, double *e, double *f)
{
    if (c < LOG2_TABLE) {
        *e = table_e[c];
        *f = table_f[c];
    } else {
        log2_parts((double)c, e, f);
    }
}

/* The entropy in bits of a 256-bin row of counts c >= 0 with total T below
 * 2^64, as every histogram counted here has: -Σ p·log2 p over the non-zero c,
 * p = c / T by one IEEE division and log2 p = (e_c - e_T) + (f_c - f_T), the
 * terms summed in pairwise_sum's order, negated and clamped to [0, 8], so
 * -0.0 and noise below 0 give 0.0; T = 0 gives 0.0.  Every term is stored
 * and only a non-zero count's kept, with no branch. */
static double row_entropy(const int64_t *row)
{
    double terms[256], t, e, f, et, ft, h;
    uint64_t total = 0;
    int64_t n = 0;
    int v;

    for (v = 0; v < 256; v++)
        total += (uint64_t)row[v];
    if (total == 0)
        return 0.0;
    t = (double)total;
    log2_count(total, &et, &ft);
    for (v = 0; v < 256; v++) {
        log2_count((uint64_t)row[v], &e, &f);
        terms[n] = (double)row[v] / t * ((e - et) + (f - ft));
        n += row[v] > 0;
    }
    h = -pairwise_sum(terms, n);
    return h <= 0.0 ? 0.0 : h > 8.0 ? 8.0 : h;
}

/* The entropies of the 8x8 grid cells of a w-pixel-wide frame of h rows into
 * out[64], in row-major grid order.  Rows and columns each split into 8 runs
 * of n/8, the remainder in the last.  Each band of 8 cells is counted in one
 * pass over its rows into uint32 cells, which hold a frame of fewer than 2^32
 * pixels, and each cell is then widened into an int64 row for row_entropy,
 * so an entropy has the bits frame_step gives a frame of the same counts. */
static void segment_entropies(const uint8_t *px, int64_t w, int64_t h, double *out)
{
    uint32_t cells[8][256];
    int64_t row[256], rstep = h / 8, cstep = w / 8, y, x;
    const uint8_t *line;
    int sy, sx, v;

    for (sy = 0; sy < 8; sy++) {
        memset(cells, 0, sizeof(cells));
        for (y = sy * rstep; y < (sy == 7 ? h : (sy + 1) * rstep); y++) {
            line = px + y * w;
            for (sx = 0; sx < 8; sx++)
                for (x = sx * cstep; x < (sx == 7 ? w : (sx + 1) * cstep); x++)
                    cells[sx][line[x]]++;
        }
        for (sx = 0; sx < 8; sx++) {
            for (v = 0; v < 256; v++)
                row[v] = cells[sx][v];
            out[sy * 8 + sx] = row_entropy(row);
        }
    }
}

/* out[r] is the standard deviation of b[0..64) - a[r][0..64), each of the
 * rows rows of a being 64 doubles, as np.std(b - a, axis=-1) gives it: the
 * differences; their mean, 0.0 plus their pairwise sum, divided by 64; each
 * difference minus the mean, squared; and the square root of 0.0 plus the
 * pairwise sum of the squares, divided by 64.  Each step is one IEEE
 * operation per value, as numpy's, so the bits are numpy's. */
static void sd_rows(const double *a, const double *b, int64_t rows, double *out)
{
    double d[64], mean;
    int64_t r;
    int j;

    for (r = 0; r < rows; r++, a += 64) {
        for (j = 0; j < 64; j++)
            d[j] = b[j] - a[j];
        mean = (0.0 + pairwise_sum(d, 64)) / 64;
        for (j = 0; j < 64; j++) {
            d[j] -= mean;
            d[j] *= d[j];
        }
        out[r] = sqrt((0.0 + pairwise_sum(d, 64)) / 64);
    }
}

/* One argument of an entry point.  kind is 'B' for bytes, 'q' for 8-byte
 * integers, 'd' for doubles, or 'n' for an index, a Python int.  out is set
 * for a buffer the call writes.  A buffer must have len bytes when len is
 * set, and a whole number of rows of row bytes when row is; else any
 * length. */
struct arg {
    char kind, out;
    Py_ssize_t len, row;
};

/* Sets the ValueError of argument i of name, whose buffer does not have len
 * bytes, and returns -1; returns 0 if it has. */
static int check_len(const char *name, Py_ssize_t i, const Py_buffer *view, Py_ssize_t len)
{
    if (view->len == len)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s: argument %zd has %zd bytes, expected %zd",
                 name, i + 1, view->len, len);
    return -1;
}

/* Whether the buffer holds values of kind: a format of one type code, kind
 * itself or, for 'q', numpy's 'l', with an item of 1 byte for 'B' and 8 for
 * the others, in native byte order (no prefix, '@', '=' or the native one of
 * '<' and '>').  A NULL format is bytes. */
static int has_kind(const Py_buffer *view, char kind)
{
    const char *f = view->format == NULL ? "B" : view->format;

    if (*f == '@' || *f == '=' || *f == (PY_LITTLE_ENDIAN ? '<' : '>'))
        f++;
    return f[0] != '\0' && f[1] == '\0' && (f[0] == kind || (kind == 'q' && f[0] == 'l')) &&
           view->itemsize == (kind == 'B' ? 1 : 8);
}

static void release_buffers(Py_buffer *views, Py_ssize_t n)
{
    Py_ssize_t i;

    for (i = 0; i < n; i++)
        PyBuffer_Release(&views[i]);
}

/* Reads the nargs arguments of the entry point name against the n that spec
 * lists.  A buffer goes into views[i]: C-contiguous, writable if out, of its
 * kind and length; sizes[i] gets its number of rows, or of items when it has
 * no row size.  An index goes into sizes[i].  views starts zeroed, so a
 * PyBuffer_Release of any of the n is safe; on failure this sets an exception,
 * releases them all and returns -1, and on success the caller releases them. */
static int parse_args(const char *name, const struct arg *spec, Py_ssize_t n,
                      PyObject *const *args, Py_ssize_t nargs, Py_buffer *views,
                      Py_ssize_t *sizes)
{
    Py_buffer *v;
    Py_ssize_t i;

    memset(views, 0, n * sizeof(*views));
    if (nargs != n) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", name, n, nargs);
        return -1;
    }
    for (i = 0; i < n; i++) {
        v = &views[i];
        if (spec[i].kind == 'n') {
            if ((sizes[i] = PyLong_AsSsize_t(args[i])) == -1 && PyErr_Occurred())
                goto fail;
            continue;
        }
        /* PyBUF_ND: a memoryview gives no format to a request without it */
        if (PyObject_GetBuffer(args[i], v, PyBUF_FORMAT | PyBUF_ND |
                               (spec[i].out ? PyBUF_WRITABLE : 0)) < 0)
            goto fail;
        if (!has_kind(v, spec[i].kind)) {
            PyErr_Format(PyExc_ValueError, "%s: argument %zd has format '%s', expected '%c'", name,
                         i + 1, v->format == NULL ? "B" : v->format, spec[i].kind);
            goto fail;
        }
        if (spec[i].len > 0 && check_len(name, i, v, spec[i].len) < 0)
            goto fail;
        if (spec[i].row > 0 && v->len % spec[i].row != 0) {
            PyErr_Format(PyExc_ValueError, "%s: argument %zd has %zd bytes, not a multiple of %zd",
                         name, i + 1, v->len, spec[i].row);
            goto fail;
        }
        sizes[i] = v->len / (spec[i].row > 0 ? spec[i].row : v->itemsize);
    }
    return 0;
fail:
    release_buffers(views, n);
    return -1;
}

/* frame_step(pixels, prev_pixels, block, row, prev_row): the histogram of the
 * pixel bytes into row row of the block of 256-int64 rows, and the pair
 * (correlation of prev_pixels against pixels, entropy of pixels), the
 * histogram of prev_pixels being row prev_row and the entropy row_entropy of
 * the row just written.  row may equal prev_row.  The pixels must be bytes of
 * one length, and row prev_row a histogram of that many pixels; nothing is
 * written unless all holds.  The histogram and Σab stay two loops: one loop
 * over both frames that counts and multiplies was slower.
 *
 * memcmp first finds the run of bytes the two frames start with in common,
 * where a = b, so that Σab over it is Σb², which the histogram of that run
 * holds exactly: the dot runs over the rest alone.  The caller guarantees
 * more than is checked: row prev_row is the histogram of prev_pixels itself,
 * not only of as many pixels.  So when the frames are equal byte for byte
 * and row differs from prev_row, the memcmp stands in for both loops: row
 * prev_row is copied into row row, and Σab is that row's Σa².  These are the
 * integers the loops would give, so the correlation has the same bits.
 * row == prev_row, the first frame stepped against itself, always counts,
 * since that row is not yet a histogram of anything.  A pair that differs
 * pays the memcmp up to its first difference in place of the dot over the
 * same bytes: at worst, when only its last byte differs, one pass at memcmp
 * speed in place of one at the dot's. */
static PyObject *py_frame_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct arg spec[5] = {
        {.kind = 'B'}, {.kind = 'B'}, {.kind = 'q', .out = 1, .row = COUNTS_BYTES},
        {.kind = 'n'}, {.kind = 'n'}};
    Py_buffer v[5];
    Py_ssize_t s[5], row, prev_row, n;
    int64_t *cur, *prev, sa, sb, saa, sbb, k;
    const uint8_t *px, *prev_px;
    uint64_t sab;
    PyObject *result = NULL;
    double r = 0.0, h = 0.0;
    int ok;

    (void)self;
    if (parse_args("frame_step", spec, 5, args, nargs, v, s) < 0)
        return NULL;
    n = v[0].len;
    row = s[3];
    prev_row = s[4];
    if (v[1].len != n) {
        PyErr_Format(PyExc_ValueError, "frames differ in size: %zd vs %zd pixels", v[1].len, n);
        goto done;
    }
    if (row < 0 || row >= s[2] || prev_row < 0 || prev_row >= s[2]) {
        PyErr_Format(PyExc_ValueError, "frame_step: rows %zd and %zd are not both in 0..%zd",
                     row, prev_row, s[2] - 1);
        goto done;
    }
    px = v[0].buf;
    prev_px = v[1].buf;
    cur = (int64_t *)v[2].buf + row * 256;
    prev = (int64_t *)v[2].buf + prev_row * 256;
    Py_BEGIN_ALLOW_THREADS
    ok = prev_row == row || is_histogram_of(prev, n);
    if (ok) {
        k = equal_prefix(px, prev_px, n);
        if (k == n && prev_row != row) {
            memcpy(cur, prev, COUNTS_BYTES);
        } else {
            memset(cur, 0, COUNTS_BYTES);
            add_histogram(px, k, cur);
        }
        moments(cur, &sb, &sbb);
        sab = (uint64_t)sbb; /* Σab over the equal run is its Σb² */
        if (k < n) {
            add_histogram(px + k, n - k, cur);
            moments(cur, &sb, &sbb);
            sab += dot_u8(prev_px + k, px + k, n - k);
        }
        moments(prev, &sa, &saa);
        r = correlation(n, sa, sb, saa, sbb, sab);
        h = row_entropy(cur);
    }
    Py_END_ALLOW_THREADS
    if (ok)
        result = Py_BuildValue("(dd)", r, h);
    else
        PyErr_Format(PyExc_ValueError, "frame_step: row %zd is not the histogram of %zd pixels",
                     prev_row, n);
done:
    release_buffers(v, 5);
    return result;
}

/* segment_entropies(pixels, width, out): the 64 segment entropies of the
 * frame of width-pixel rows into the 64 doubles of out.  A width that is not
 * positive, pixels that are not whole rows, or 2^32 pixels or more, which a
 * uint32 cell might not count, raise, writing nothing. */
static PyObject *py_segment_entropies(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct arg spec[3] = {
        {.kind = 'B'}, {.kind = 'n'}, {.kind = 'd', .out = 1, .len = SEGMENT_ROW_BYTES}};
    Py_buffer v[3];
    Py_ssize_t s[3], w;
    PyObject *result = NULL;

    (void)self;
    if (parse_args("segment_entropies", spec, 3, args, nargs, v, s) < 0)
        return NULL;
    if ((w = s[1]) <= 0 || v[0].len % w != 0 || (uint64_t)v[0].len > UINT32_MAX) {
        PyErr_Format(PyExc_ValueError, "segment_entropies: %zd bytes are not whole rows of "
                     "width %zd, fewer than 2**32 in all", v[0].len, w);
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    segment_entropies(v[0].buf, w, v[0].len / w, v[2].buf);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    release_buffers(v, 3);
    return result;
}

/* sd_rows(stack, b, out): the SD of b minus each row of the (rows, 64)
 * float64 stack into the rows doubles of out; b holds 64 doubles. */
static PyObject *py_sd_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct arg spec[3] = {
        {.kind = 'd', .row = SEGMENT_ROW_BYTES}, {.kind = 'd', .len = SEGMENT_ROW_BYTES},
        {.kind = 'd', .out = 1}};
    Py_buffer v[3];
    Py_ssize_t s[3];
    PyObject *result = NULL;

    (void)self;
    if (parse_args("sd_rows", spec, 3, args, nargs, v, s) < 0)
        return NULL;
    if (check_len("sd_rows", 2, &v[2], s[0] * (Py_ssize_t)sizeof(double)) == 0) {
        Py_BEGIN_ALLOW_THREADS
        sd_rows(v[0].buf, v[1].buf, s[0], v[2].buf);
        Py_END_ALLOW_THREADS
        result = Py_NewRef(Py_None);
    }
    release_buffers(v, 3);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"frame_step", (PyCFunction)(void (*)(void))py_frame_step, METH_FASTCALL,
     "frame_step(pixels, prev_pixels, block, row, prev_row): the histogram into block[row], "
     "and (correlation of prev_pixels against pixels, entropy of pixels)."},
    {"segment_entropies", (PyCFunction)(void (*)(void))py_segment_entropies, METH_FASTCALL,
     "segment_entropies(pixels, width, out): the entropies of the 8x8 grid cells into out."},
    {"sd_rows", (PyCFunction)(void (*)(void))py_sd_rows, METH_FASTCALL,
     "sd_rows(stack, b, out): np.std(b - stack, axis=-1) of a (rows, 64) float64 stack into out."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernels", "The per-frame C kernels of entropykf.", 0,
    kernel_methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    int c;

    for (c = 1; c < LOG2_TABLE; c++)
        log2_parts((double)c, &table_e[c], &table_f[c]);
    return PyModule_Create(&kernel_module);
}
