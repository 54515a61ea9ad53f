/* The per-frame kernels of entropykf, over 8-bit pixels in row-major order.
 *
 * kernels.py compiles this file into a shared library on first import and
 * calls it through ctypes; it checks sizes, bounds, dtype and contiguity
 * before passing any pointer here.  All results are exact integers.
 */

#include <stdint.h>
#include <string.h>

/* Pixels counted between flushes of the uint32 lanes: one lane gets at most
 * a quarter of them (plus a three-pixel tail), so it cannot overflow. */
#define HIST_BLOCK ((int64_t)1 << 32)
/* Pixels per uint32 partial of the dot: 255 * 255 * 65536 < 2^32. */
#define DOT_BLOCK ((int64_t)1 << 16)

/* 256-bin histogram of n pixels into out[256].  Four interleaved count lanes
 * keep runs of equal pixels from stalling on one counter. */
void histogram256(const uint8_t *px, int64_t n, int64_t *out)
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
uint64_t dot_u8(const uint8_t *a, const uint8_t *b, int64_t n)
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

/* Histograms of the 8x8 grid cells of a width-w frame into out[64][256], in
 * one pass over rows rows[0]..rows[8].  Cell (sy, sx) holds rows
 * rows[sy]..rows[sy + 1] and columns cols[sx]..cols[sx + 1]. */
void segment_histograms(const uint8_t *px, int64_t w, const int64_t *rows,
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
