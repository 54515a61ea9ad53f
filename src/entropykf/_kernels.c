/* The per-frame kernels of entropykf, over 8-bit pixels in row-major order.
 *
 * kernels.py compiles this file into a CPython extension module on first
 * import and loads it from its cache.  Its wrappers check dtype, shape and
 * contiguity before a call; frame_step has no wrapper and checks that its
 * pixels are bytes itself.  Each entry point here takes its arrays through
 * the buffer protocol, which refuses a non-contiguous array, checks the byte
 * length of every fixed-size buffer again, and releases the GIL around its
 * loops.  The histogram and moment results are exact integers; the two
 * entropy steps repeat numpy's own float64 arithmetic, one IEEE division per
 * probability and numpy's pairwise order of addition, so they give its bits,
 * and frame_step's correlation repeats the exact integer and float steps of
 * kernels.correlation_from_sums.  None needs -ffast-math, which would reorder
 * the additions.
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

#define COUNTS_BYTES ((Py_ssize_t)(256 * sizeof(int64_t)))
#define CUTS_BYTES ((Py_ssize_t)(9 * sizeof(int64_t)))
#define SEGMENT_COUNTS_BYTES ((Py_ssize_t)(64 * 256 * sizeof(int64_t)))

/* 256-bin histogram of n pixels into out[256].  Four interleaved count lanes
 * keep runs of equal pixels from stalling on one counter. */
static void histogram256(const uint8_t *px, int64_t n, int64_t *out)
{
    uint32_t lanes[4][256];
    int64_t start, i, end;
    int v;

    memset(out, 0, 256 * sizeof(int64_t));
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

/* kernels.correlation_from_sums(n, (sa, sb, saa, sbb, sab)), bit for bit, for
 * the moments of two histograms of n pixels each.  For such moments va, vb and
 * num are at most 255^2 * n^2 in magnitude, and so are the products they are
 * made of: below 2^72 for the largest allowed frame (n = 16384^2 = 2^28), and
 * within int128 for any n below 2^55.  The Cauchy-Schwarz test num^2 == va*vb
 * compares two exact 256-bit products.  (double) of an int128 rounds to
 * nearest, as Python's float() of an int does, and the quotient then repeats
 * Python's float arithmetic: one product, one sqrt, one division. */
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

/* Histograms of the 8x8 grid cells of a width-w frame into out[64][256], in
 * one pass over rows rows[0]..rows[8].  Cell (sy, sx) holds rows
 * rows[sy]..rows[sy + 1] and columns cols[sx]..cols[sx + 1]. */
static void segment_histograms(const uint8_t *px, int64_t w, const int64_t *rows,
                               const int64_t *cols, int64_t *out)
{
    const uint8_t *line;
    int64_t *cell;
    int64_t y, x;
    int sy, sx;

    memset(out, 0, 64 * 256 * sizeof(int64_t));
    for (sy = 0; sy < 8; sy++) {
        for (y = rows[sy]; y < rows[sy + 1]; y++) {
            line = px + y * w;
            for (sx = 0; sx < 8; sx++) {
                cell = out + (sy * 8 + sx) * 256;
                for (x = cols[sx]; x < cols[sx + 1]; x++)
                    cell[line[x]]++;
            }
        }
    }
}

/* The non-zero counts of each of rows 256-bin histograms, each divided by its
 * row's total, packed row after row into p; levels[r] gets the number of
 * non-zero counts of row r.  Returns the number of values written.  The
 * division is numpy's int64 / int64 true_divide: both sides converted to
 * double, exact for counts below 2^53, then one IEEE division.  Every count
 * is divided and stored, and the write position moves past only a non-zero
 * one, so the packing has no branch to mispredict on a row's pattern of empty
 * levels.  The total is summed in uint64 so that any counts wrap, as numpy's
 * int64 sum does, rather than overflow. */
static int64_t probabilities(const int64_t *counts, int64_t rows, double *p, int64_t *levels)
{
    const int64_t *row;
    uint64_t total;
    double t;
    int64_t r, written = 0, start;
    int v;

    for (r = 0; r < rows; r++) {
        row = counts + r * 256;
        total = 0;
        for (v = 0; v < 256; v++)
            total += (uint64_t)row[v];
        t = (double)(int64_t)total;
        start = written;
        for (v = 0; v < 256; v++) {
            p[written] = (double)row[v] / t;
            written += row[v] > 0;
        }
        levels[r] = written - start;
    }
    return written;
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

/* out[r] is the sum of row r's run of levels[r] terms, the runs packed row
 * after row in terms, as np.add.reduce gives it: 0.0 plus the pairwise sum. */
static void row_sums(const double *terms, const int64_t *levels, int64_t rows, double *out)
{
    int64_t r;

    for (r = 0; r < rows; r++) {
        out[r] = 0.0 + pairwise_sum(terms, levels[r]);
        terms += levels[r];
    }
}

/* Whether the nine cut points rise, from 0 or more, to at most end. */
static int cuts_within(const int64_t *cuts, int64_t end)
{
    int i;

    for (i = 0; i < 8; i++)
        if (cuts[i + 1] < cuts[i])
            return 0;
    return cuts[0] >= 0 && cuts[8] <= end;
}

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

/* The number of rows of size bytes each that argument i of name holds, or -1
 * with a ValueError set if its buffer is not a whole number of them. */
static Py_ssize_t count_rows(const char *name, Py_ssize_t i, const Py_buffer *view,
                             Py_ssize_t size)
{
    if (view->len % size == 0)
        return view->len / size;
    PyErr_Format(PyExc_ValueError, "%s: argument %zd has %zd bytes, not a multiple of %zd",
                 name, i + 1, view->len, size);
    return -1;
}

/* Sets the ValueError of argument i of name, whose buffer does not hold bytes
 * (format "B", which a uint8 array has), and returns -1; returns 0 if it does. */
static int check_bytes(const char *name, Py_ssize_t i, const Py_buffer *view)
{
    if (view->format == NULL || strcmp(view->format, "B") == 0)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s: argument %zd has format '%s', expected 'B'",
                 name, i + 1, view->format);
    return -1;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t n)
{
    if (nargs == n)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", name, n, nargs);
    return -1;
}

/* Fills views[i] with the C-contiguous buffer of args[i], and its format, for
 * i < n; the last n_out of them must be writable, and a non-negative lens[i]
 * is the byte length that buffer must have.  On failure, sets an exception, releases what
 * it acquired and returns -1. */
static int get_buffers(const char *name, PyObject *const *args, Py_buffer *views,
                       Py_ssize_t n, Py_ssize_t n_out, const Py_ssize_t *lens)
{
    Py_ssize_t i, j;

    for (i = 0; i < n; i++) {
        if (PyObject_GetBuffer(args[i], &views[i],
                               PyBUF_FORMAT | (i < n - n_out ? 0 : PyBUF_WRITABLE)) < 0)
            goto fail;
        if (lens[i] >= 0 && check_len(name, i, &views[i], lens[i]) < 0) {
            i++;
            goto fail;
        }
    }
    return 0;
fail:
    for (j = 0; j < i; j++)
        PyBuffer_Release(&views[j]);
    return -1;
}

static void release_buffers(Py_buffer *views, Py_ssize_t n)
{
    Py_ssize_t i;

    for (i = 0; i < n; i++)
        PyBuffer_Release(&views[i]);
}

/* histogram256(pixels, out): the histogram of the pixel bytes into out. */
static PyObject *py_histogram256(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const Py_ssize_t lens[2] = {-1, COUNTS_BYTES};
    Py_buffer v[2];

    (void)self;
    if (check_nargs("histogram256", nargs, 2) < 0 ||
        get_buffers("histogram256", args, v, 2, 1, lens) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    histogram256(v[0].buf, v[0].len, v[1].buf);
    Py_END_ALLOW_THREADS
    release_buffers(v, 2);
    Py_RETURN_NONE;
}

/* pearson_sums(counts_a, counts_b, a, b): (Σa, Σb, Σa², Σb², Σab), the first
 * four from the histograms, Σab over the pixel bytes. */
static PyObject *py_pearson_sums(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const Py_ssize_t lens[4] = {COUNTS_BYTES, COUNTS_BYTES, -1, -1};
    Py_buffer v[4];
    int64_t sa, sb, saa, sbb;
    uint64_t sab;

    (void)self;
    if (check_nargs("pearson_sums", nargs, 4) < 0 ||
        get_buffers("pearson_sums", args, v, 4, 0, lens) < 0)
        return NULL;
    if (v[2].len != v[3].len) {
        PyErr_Format(PyExc_ValueError, "frames differ in size: %zd vs %zd pixels",
                     v[2].len, v[3].len);
        release_buffers(v, 4);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    moments(v[0].buf, &sa, &saa);
    moments(v[1].buf, &sb, &sbb);
    sab = dot_u8(v[2].buf, v[3].buf, v[2].len);
    Py_END_ALLOW_THREADS
    release_buffers(v, 4);
    return Py_BuildValue("(LLLLK)", (long long)sa, (long long)sb, (long long)saa,
                         (long long)sbb, (unsigned long long)sab);
}

/* frame_step(pixels, prev_pixels, block, row, prev_row): the histogram of the
 * pixel bytes into row row of the block of 256-int64 rows, and the
 * correlation of prev_pixels against pixels, the histogram of prev_pixels
 * being row prev_row.  row may equal prev_row.  The pixels must be bytes of
 * one length, and row prev_row a histogram of that many pixels; nothing is
 * written unless all holds.  The histogram and Σab stay two loops: one loop
 * over both frames that counts and multiplies was slower. */
static PyObject *py_frame_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const Py_ssize_t lens[3] = {-1, -1, -1};
    Py_buffer v[3];
    Py_ssize_t rows, row, prev_row, n;
    int64_t *cur, *prev, sa, sb, saa, sbb;
    double r = 0.0;
    int ok;

    (void)self;
    if (check_nargs("frame_step", nargs, 5) < 0)
        return NULL;
    if ((row = PyLong_AsSsize_t(args[3])) == -1 && PyErr_Occurred())
        return NULL;
    if ((prev_row = PyLong_AsSsize_t(args[4])) == -1 && PyErr_Occurred())
        return NULL;
    if (get_buffers("frame_step", args, v, 3, 1, lens) < 0)
        return NULL;
    if (check_bytes("frame_step", 0, &v[0]) < 0 || check_bytes("frame_step", 1, &v[1]) < 0 ||
        (rows = count_rows("frame_step", 2, &v[2], COUNTS_BYTES)) < 0)
        goto fail;
    if (v[0].len != v[1].len) {
        PyErr_Format(PyExc_ValueError, "frames differ in size: %zd vs %zd pixels",
                     v[1].len, v[0].len);
        goto fail;
    }
    if (row < 0 || row >= rows || prev_row < 0 || prev_row >= rows) {
        PyErr_Format(PyExc_ValueError, "frame_step: rows %zd and %zd are not both in 0..%zd",
                     row, prev_row, rows - 1);
        goto fail;
    }
    n = v[0].len;
    cur = (int64_t *)v[2].buf + row * 256;
    prev = (int64_t *)v[2].buf + prev_row * 256;
    Py_BEGIN_ALLOW_THREADS
    ok = prev_row == row || is_histogram_of(prev, n);
    if (ok) {
        histogram256(v[0].buf, n, cur);
        moments(prev, &sa, &saa);
        moments(cur, &sb, &sbb);
        r = correlation(n, sa, sb, saa, sbb, dot_u8(v[1].buf, v[0].buf, n));
    }
    Py_END_ALLOW_THREADS
    if (!ok) {
        PyErr_Format(PyExc_ValueError, "frame_step: row %zd is not the histogram of %zd pixels",
                     prev_row, n);
        goto fail;
    }
    release_buffers(v, 3);
    return PyFloat_FromDouble(r);
fail:
    release_buffers(v, 3);
    return NULL;
}

/* segment_histograms(pixels, rows, cols, out, width): the cell histograms of
 * the width-pixel-wide frame into out; cut points outside the frame raise. */
static PyObject *py_segment_histograms(PyObject *self, PyObject *const *args,
                                       Py_ssize_t nargs)
{
    static const Py_ssize_t lens[4] = {-1, CUTS_BYTES, CUTS_BYTES, SEGMENT_COUNTS_BYTES};
    Py_buffer v[4];
    Py_ssize_t w;

    (void)self;
    if (check_nargs("segment_histograms", nargs, 5) < 0)
        return NULL;
    w = PyLong_AsSsize_t(args[4]);
    if (w == -1 && PyErr_Occurred())
        return NULL;
    if (w <= 0)
        return PyErr_Format(PyExc_ValueError, "segment_histograms: width %zd is not positive", w);
    if (get_buffers("segment_histograms", args, v, 4, 1, lens) < 0)
        return NULL;
    if (!cuts_within(v[1].buf, v[0].len / w) || !cuts_within(v[2].buf, w)) {
        PyErr_Format(PyExc_ValueError, "segment_histograms: cut points outside the %zdx%zd frame",
                     w, v[0].len / w);
        release_buffers(v, 4);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    segment_histograms(v[0].buf, w, v[1].buf, v[2].buf, v[3].buf);
    Py_END_ALLOW_THREADS
    release_buffers(v, 4);
    Py_RETURN_NONE;
}

/* probabilities(counts, p, levels): the non-zero counts of each row of the
 * (rows, 256) int64 stack over the row's total, packed into the rows * 256
 * doubles of p, and each row's number of them into the rows int64 of levels;
 * returns the number of doubles written. */
static PyObject *py_probabilities(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const Py_ssize_t lens[3] = {-1, -1, -1};
    Py_buffer v[3];
    Py_ssize_t rows;
    int64_t written;

    (void)self;
    if (check_nargs("probabilities", nargs, 3) < 0 ||
        get_buffers("probabilities", args, v, 3, 2, lens) < 0)
        return NULL;
    if ((rows = count_rows("probabilities", 0, &v[0], COUNTS_BYTES)) < 0 ||
        check_len("probabilities", 1, &v[1], rows * 256 * (Py_ssize_t)sizeof(double)) < 0 ||
        check_len("probabilities", 2, &v[2], rows * (Py_ssize_t)sizeof(int64_t)) < 0) {
        release_buffers(v, 3);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    written = probabilities(v[0].buf, rows, v[1].buf, v[2].buf);
    Py_END_ALLOW_THREADS
    release_buffers(v, 3);
    return PyLong_FromLongLong((long long)written);
}

/* row_sums(terms, levels, out): each row's sum of its run of terms into the
 * rows doubles of out; the rows int64 run lengths of levels must be
 * non-negative and add up to the number of doubles in terms. */
static PyObject *py_row_sums(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const Py_ssize_t lens[3] = {-1, -1, -1};
    Py_buffer v[3];
    Py_ssize_t rows, n, r, left;
    const int64_t *levels;

    (void)self;
    if (check_nargs("row_sums", nargs, 3) < 0 ||
        get_buffers("row_sums", args, v, 3, 1, lens) < 0)
        return NULL;
    if ((n = count_rows("row_sums", 0, &v[0], sizeof(double))) < 0 ||
        (rows = count_rows("row_sums", 1, &v[1], sizeof(int64_t))) < 0 ||
        check_len("row_sums", 2, &v[2], rows * (Py_ssize_t)sizeof(double)) < 0) {
        release_buffers(v, 3);
        return NULL;
    }
    levels = v[1].buf;
    for (r = 0, left = n; r < rows && levels[r] >= 0 && levels[r] <= left; r++)
        left -= levels[r];
    if (r < rows || left != 0) {
        PyErr_Format(PyExc_ValueError, "row_sums: the run lengths do not cover the %zd terms",
                     n);
        release_buffers(v, 3);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    row_sums(v[0].buf, levels, rows, v[2].buf);
    Py_END_ALLOW_THREADS
    release_buffers(v, 3);
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"histogram256", (PyCFunction)(void (*)(void))py_histogram256, METH_FASTCALL,
     "histogram256(pixels, out): 256-bin histogram of the pixel bytes into int64 out."},
    {"pearson_sums", (PyCFunction)(void (*)(void))py_pearson_sums, METH_FASTCALL,
     "pearson_sums(counts_a, counts_b, a, b): (sum a, sum b, sum a^2, sum b^2, sum ab)."},
    {"frame_step", (PyCFunction)(void (*)(void))py_frame_step, METH_FASTCALL,
     "frame_step(pixels, prev_pixels, block, row, prev_row): the histogram into block[row], "
     "and the correlation of prev_pixels against pixels."},
    {"segment_histograms", (PyCFunction)(void (*)(void))py_segment_histograms, METH_FASTCALL,
     "segment_histograms(pixels, rows, cols, out, width): 8x8 cell histograms into out."},
    {"probabilities", (PyCFunction)(void (*)(void))py_probabilities, METH_FASTCALL,
     "probabilities(counts, p, levels): each row's non-zero counts over its total into p."},
    {"row_sums", (PyCFunction)(void (*)(void))py_row_sums, METH_FASTCALL,
     "row_sums(terms, levels, out): each row's run of terms summed in numpy's pairwise order."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernels", "The per-frame C kernels of entropykf.", 0,
    kernel_methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModule_Create(&kernel_module);
}
