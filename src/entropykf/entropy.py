"""Entropy primitives: frame entropy (the global feature), the squared-entropy
bin key, 64-segment local entropies, and the segment-difference dissimilarity.

All functions are pure and thread-safe.  Entropy is base-2, so an 8-bit frame
lands in [0, 8] bits and the squared-entropy key in [0, 64].
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels

SEGMENT_GRID = 8  # frames are split into an 8x8 grid, 64 segments


def _pixels_of(frame) -> np.ndarray:
    """Accept either a Frame or a bare 2-D uint8 array."""
    px = getattr(frame, "pixels", frame)
    px = np.asarray(px)
    if px.ndim != 2:
        raise ValueError(f"expected a 2-D intensity grid, got shape {px.shape}")
    if px.dtype != np.uint8:
        raise ValueError(f"expected uint8 intensities, got dtype {px.dtype}")
    return px


def frame_entropy(frame) -> float:
    """Shannon entropy of the frame's grey-level distribution, in bits.

    Levels with zero probability contribute nothing; the result lies in
    [0, 8] for 8-bit frames.
    """
    px = _pixels_of(frame)
    return kernels.entropy_from_counts(kernels.histogram256(px), px.size)


def modified_entropy(en: float) -> int:
    """Integer bin key: the squared entropy rounded half away from zero.

    Squaring widens the gaps between the entropy classes; for base-2 entropy
    of an 8-bit source the key falls in [0, 64].
    """
    if not 0.0 <= en <= 8.0:
        raise ValueError(f"entropy {en!r} outside [0, 8]")
    return int(math.floor(en * en + 0.5))


def segment_bounds(n: int) -> np.ndarray:
    """Nine cut points splitting n pixels into 8 runs of floor(n/8), with the
    remainder folded into the last run."""
    step = n // SEGMENT_GRID
    bounds = np.arange(SEGMENT_GRID + 1, dtype=np.int64) * step
    bounds[SEGMENT_GRID] = n
    return bounds


def segmented_entropies(frame) -> np.ndarray:
    """Entropy of each cell of the frame's 8x8 segment grid.

    Returns 64 values in row-major grid order.  Each segment's entropy is
    normalised by that segment's own pixel count.  Frames smaller than 8x8
    cannot be segmented.
    """
    px = _pixels_of(frame)
    h, w = px.shape
    if h < SEGMENT_GRID or w < SEGMENT_GRID:
        raise ValueError(f"frame {w}x{h} is below the {SEGMENT_GRID}x{SEGMENT_GRID} minimum "
                         "for segmented entropy")
    rows = segment_bounds(h)
    cols = segment_bounds(w)
    counts = kernels.segment_histograms(px, rows, cols)
    out = np.empty(64, dtype=np.float64)
    for s in range(64):
        sy, sx = divmod(s, SEGMENT_GRID)
        n = int(rows[sy + 1] - rows[sy]) * int(cols[sx + 1] - cols[sx])
        out[s] = kernels.entropy_from_counts(counts[s], n)
    return out


def dissimilarity(a: np.ndarray, b: np.ndarray) -> float:
    """Standard deviation of the per-segment entropy differences b - a.

    Zero means the two frames differ by at most a uniform entropy shift;
    larger values mean the local entropy structure diverges.  Symmetric in
    its arguments.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (64,) or b.shape != (64,):
        raise ValueError(f"expected two 64-vectors, got shapes {a.shape} and {b.shape}")
    return float(np.std(b - a))
