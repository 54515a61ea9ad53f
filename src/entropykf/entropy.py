"""Entropy primitives: frame entropy (the global feature, ``kernels.analyse``
over one frame), the squared-entropy bin key, 64-segment local entropies, and
the segment-difference dissimilarity.  All are pure and thread-safe.  Entropy
is base-2, so an 8-bit frame lands in [0, 8] bits and the key in [0, 64].
"""

from __future__ import annotations

import itertools
import math
from array import array

from . import kernels
from .ingest import _as_frame, check_frame_size


def frame_entropy(frame) -> float:
    """Shannon entropy of the frame's grey-level distribution, in bits.

    Levels with zero probability contribute nothing; the result lies in
    [0, 8] for 8-bit frames.  Takes a ``Frame`` or a bare 2-D uint8 buffer.
    It is ``kernels.analyse`` over the one frame, with the pass's bits.
    """
    return kernels.analyse((_as_frame(frame),))[0][0]


def modified_entropy(en: float) -> int:
    """Integer bin key: the squared entropy rounded half away from zero.

    Squaring widens the gaps between the entropy classes; for base-2 entropy
    of an 8-bit source the key falls in [0, 64].
    """
    if not 0.0 <= en <= 8.0:
        raise ValueError(f"entropy {en!r} outside [0, 8]")
    return int(math.floor(en * en + 0.5))


def modified_entropies(entropies) -> list[int]:
    """``[modified_entropy(e) for e in entropies]`` without a call per value:
    the same IEEE product, sum and floor, and the same ``ValueError`` for the
    first entropy outside [0, 8], NaN too, which only that call makes."""
    return [math.floor(e * e + 0.5) if 0.0 <= e <= 8.0 else modified_entropy(e)
            for e in entropies]


def segmented_entropies(frame) -> array:
    """Entropy of each cell of the frame's 8x8 segment grid.

    Returns an ``array("d")`` of 64 values in row-major grid order, each
    segment's entropy over its own pixel count, from one
    ``kernels.segment_entropies`` call: rows and columns split into 8 runs of
    floor(n/8) pixels, the remainder in the last.  ``check_frame_size`` rules
    out other sizes.  Takes a ``Frame`` or a bare 2-D uint8 buffer.
    """
    px = _as_frame(frame).pixels
    check_frame_size(px.shape[1], px.shape[0])
    out = array("d", bytes(512))
    kernels.segment_entropies(px, px.shape[1], out)
    return out


def _doubles(values) -> memoryview:
    """values as a C-contiguous float64 memoryview of their shape: a
    contiguous float64 buffer viewed, anything else (a strided view, another
    item type, a list or a list of equal lists) converted value by value."""
    view = None if isinstance(values, list) else memoryview(values)
    if view is not None and view.format == "d" and view.c_contiguous:
        return view
    rows = values if view is None else view.tolist()
    if not (rows and isinstance(rows[0], list)):
        return memoryview(array("d", rows))
    flat = array("d", itertools.chain.from_iterable(rows))
    return memoryview(flat).cast("B").cast("d", (len(rows), len(rows[0])))


def dissimilarity(a, b) -> float | array:
    """Standard deviation of the per-segment entropy differences b - a.

    Zero means the two frames differ by at most a uniform entropy shift;
    larger values mean the local entropy structure diverges.  Symmetric in
    its arguments when both are 64-vectors.  ``a`` may also be a (k, 64)
    stack, giving an ``array("d")`` of the k SDs of b against each row, each
    bit-identical to the SD of that row alone.  One ``kernels.sd_rows`` call
    computes them all, with the bits of ``np.std(b - a, axis=-1)``.
    """
    a, b = _doubles(a), _doubles(b)
    if a.ndim not in (1, 2) or a.shape[-1] != 64 or b.shape != (64,):
        raise ValueError(f"expected a 64-vector or a (k, 64) stack and a 64-vector, "
                         f"got shapes {a.shape} and {b.shape}")
    sds = array("d", bytes(a.nbytes // 64))
    kernels.sd_rows(a, b, sds)
    return sds[0] if a.ndim == 1 else sds
