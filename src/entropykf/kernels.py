"""Hot per-frame kernels: histogram, entropy, segment histograms, pixel correlation.

Each kernel has one numpy implementation; ``perfbench/`` times every one of
them inside a pipeline run.  Integer results (histogram counts, correlation
sums) are exact; entropy uses numpy's pairwise summation and is deterministic.
"""

from __future__ import annotations

import math

import numpy as np


def histogram256(pixels: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram of an 8-bit image, as int64 counts."""
    return np.bincount(pixels.ravel(), minlength=256).astype(np.int64)


def entropy_from_counts(counts: np.ndarray, total: int) -> float:
    """Shannon entropy in bits of the distribution counts/total.

    Zero-count levels contribute nothing; the result is clamped to [0, 8] to
    absorb last-ulp summation noise at the boundaries.
    """
    nz = counts[counts > 0]
    en = float(-np.sum((nz / total) * np.log2(nz / total)))
    if en < 0.0:
        return 0.0
    if en > 8.0:
        return 8.0
    return en


def segment_histograms(pixels: np.ndarray, row_bounds: np.ndarray,
                       col_bounds: np.ndarray) -> np.ndarray:
    """Histogram of each cell of the 8x8 segment grid, as a (64, 256) array."""
    counts = np.zeros((64, 256), dtype=np.int64)
    for sy in range(8):
        for sx in range(8):
            block = pixels[row_bounds[sy]:row_bounds[sy + 1],
                           col_bounds[sx]:col_bounds[sx + 1]]
            counts[sy * 8 + sx] = np.bincount(block.ravel(), minlength=256)
    return counts


def pearson_sums(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int, int, int]:
    """Exact integer moments (sum a, sum b, sum a^2, sum b^2, sum ab)."""
    x = a.ravel().astype(np.int64)
    y = b.ravel().astype(np.int64)
    return int(x.sum()), int(y.sum()), int(x @ x), int(y @ y), int(x @ y)


def correlation_from_sums(n: int, sums: tuple[int, int, int, int, int]) -> float:
    """Pearson correlation from exact integer moments of two equal-size images.

    Degenerate cases (zero-variance frames) follow the shot-segmentation rule:
    two flat frames correlate 1.0 when their means differ by at most one grey
    level, else 0.0; a flat frame never correlates with a textured one.
    """
    sa, sb, saa, sbb, sab = (int(v) for v in sums)
    va = n * saa - sa * sa
    vb = n * sbb - sb * sb
    if va == 0 and vb == 0:
        return 1.0 if abs(sa - sb) <= n else 0.0
    if va == 0 or vb == 0:
        return 0.0
    num = n * sab - sa * sb
    if num * num == va * vb:
        # Cauchy-Schwarz equality: exact +/-1 without float noise
        return 1.0 if num > 0 else -1.0
    r = num / math.sqrt(float(va) * float(vb))
    return max(-1.0, min(1.0, r))
