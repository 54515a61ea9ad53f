"""Entropy primitives: frame entropy (the global feature), the squared-entropy
bin key, 64-segment local entropies, and the segment-difference dissimilarity.

All functions are pure and thread-safe.  Entropy is base-2, so an 8-bit frame
lands in [0, 8] bits and the squared-entropy key in [0, 64].
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .ingest import _as_frame, check_frame_size
from .kernels import segment_bounds


def frame_entropy(frame) -> float:
    """Shannon entropy of the frame's grey-level distribution, in bits.

    Levels with zero probability contribute nothing; the result lies in
    [0, 8] for 8-bit frames.  Takes a ``Frame``, whose cached histogram it
    reuses, or a bare 2-D uint8 array.
    """
    frame = _as_frame(frame)
    return kernels.entropy_from_counts(frame.counts, frame.pixels.size)


def modified_entropy(en: float) -> int:
    """Integer bin key: the squared entropy rounded half away from zero.

    Squaring widens the gaps between the entropy classes; for base-2 entropy
    of an 8-bit source the key falls in [0, 64].
    """
    if not 0.0 <= en <= 8.0:
        raise ValueError(f"entropy {en!r} outside [0, 8]")
    return int(math.floor(en * en + 0.5))


def segmented_entropies(frame) -> np.ndarray:
    """Entropy of each cell of the frame's 8x8 segment grid.

    Returns 64 values in row-major grid order.  Each segment's entropy is
    normalised by that segment's own pixel count.  ``check_frame_size`` rules
    out other sizes.  Takes a ``Frame`` or a bare 2-D uint8 array.
    """
    px = _as_frame(frame).pixels
    h, w = px.shape
    check_frame_size(w, h)
    counts = kernels.segment_histograms(px)
    present = counts > 0
    levels = np.count_nonzero(present, axis=1)
    # One division and one log2 over the non-zero levels of all 64 cells.  In
    # row-major order each cell's terms are one contiguous run, reduced on its
    # own so that numpy's pairwise sum adds the same values in the same order
    # as kernels.entropy_from_counts does for one histogram (np.add.reduceat
    # sums in another order and differs in the last bits).
    sizes = np.outer(np.diff(segment_bounds(h)), np.diff(segment_bounds(w))).ravel()
    p = np.extract(present, counts) / np.repeat(sizes, levels)
    terms = p * np.log2(p)
    ends = np.cumsum(levels).tolist()
    out = -np.array([np.add.reduce(terms[start:end]) for start, end in zip([0, *ends], ends)])
    out[out <= 0.0] = 0.0  # as in entropy_from_counts: no -0.0
    out[out > 8.0] = 8.0
    return out


def dissimilarity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Standard deviation of the per-segment entropy differences b - a.

    Zero means the two frames differ by at most a uniform entropy shift;
    larger values mean the local entropy structure diverges.  Symmetric in
    its arguments when both are 64-vectors.  ``a`` may also be a (k, 64)
    stack, giving the k SDs of b against each row, each bit-identical to the
    SD of that row alone.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != 64 or b.shape != (64,):
        raise ValueError(f"expected a 64-vector or a (k, 64) stack and a 64-vector, "
                         f"got shapes {a.shape} and {b.shape}")
    sd = np.std(b - a, axis=-1)
    return float(sd) if a.ndim == 1 else sd
