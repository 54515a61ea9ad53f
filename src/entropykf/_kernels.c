/* The per-frame kernels of entropykf, over 8-bit pixels in row-major order.
 *
 * kernels.py compiles this file into a CPython extension module on first
 * import and loads it from its cache.  Its wrappers check dtype, shape and
 * contiguity before a call.  Each entry point here takes its arrays through
 * the buffer protocol, which refuses a non-contiguous array, checks the byte
 * length of every fixed-size buffer again, and releases the GIL around its
 * loops.  All results are exact integers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

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

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t n)
{
    if (nargs == n)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", name, n, nargs);
    return -1;
}

/* Fills views[i] with the C-contiguous buffer of args[i] for i < n; the last
 * n_out of them must be writable, and a non-negative lens[i] is the byte
 * length that buffer must have.  On failure, sets an exception, releases what
 * it acquired and returns -1. */
static int get_buffers(const char *name, PyObject *const *args, Py_buffer *views,
                       Py_ssize_t n, Py_ssize_t n_out, const Py_ssize_t *lens)
{
    Py_ssize_t i, j;

    for (i = 0; i < n; i++) {
        if (PyObject_GetBuffer(args[i], &views[i],
                               i < n - n_out ? PyBUF_SIMPLE : PyBUF_WRITABLE) < 0)
            goto fail;
        if (lens[i] >= 0 && views[i].len != lens[i]) {
            PyErr_Format(PyExc_ValueError, "%s: argument %zd has %zd bytes, expected %zd",
                         name, i + 1, views[i].len, lens[i]);
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

/* segment_histograms(pixels, rows, cols, out, width): the cell histograms of
 * the width-pixel-wide frame into out. */
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
    if (get_buffers("segment_histograms", args, v, 4, 1, lens) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    segment_histograms(v[0].buf, w, v[1].buf, v[2].buf, v[3].buf);
    Py_END_ALLOW_THREADS
    release_buffers(v, 4);
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"histogram256", (PyCFunction)(void (*)(void))py_histogram256, METH_FASTCALL,
     "histogram256(pixels, out): 256-bin histogram of the pixel bytes into int64 out."},
    {"pearson_sums", (PyCFunction)(void (*)(void))py_pearson_sums, METH_FASTCALL,
     "pearson_sums(counts_a, counts_b, a, b): (sum a, sum b, sum a^2, sum b^2, sum ab)."},
    {"segment_histograms", (PyCFunction)(void (*)(void))py_segment_histograms, METH_FASTCALL,
     "segment_histograms(pixels, rows, cols, out, width): 8x8 cell histograms into out."},
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
