"""Shot segmentation by template-matching correlation of consecutive frames.

A cut is declared wherever the Pearson correlation of co-located pixels in two
consecutive frames drops below the threshold (0.9 by default).  Fades and
dissolves leave trails of very short shots; those are absorbed by a minimum
shot length rather than detected as boundaries of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import kernels
from .ingest import Frame

DEFAULT_CUT_THRESHOLD = 0.9
DEFAULT_MIN_SHOT_LEN = 10


@dataclass(frozen=True, order=True)
class Shot:
    """Half-open frame-index range [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"shot range [{self.start}, {self.end}) is empty")

    def __len__(self) -> int:
        return self.end - self.start

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.end


def _check_same_size(pa: np.ndarray, pb: np.ndarray) -> None:
    if pa.shape != pb.shape:
        ha, wa = pa.shape
        hb, wb = pb.shape
        raise ValueError(f"frame dimensions differ: {wa}x{ha} vs {wb}x{hb}")


def correlation(a: Frame, b: Frame) -> float:
    """Pearson correlation of co-located pixel intensities, in [-1, 1].

    Takes two ``Frame`` values or two 2-D uint8 arrays of one size.  Flat
    (zero-variance) frames make the quotient undefined; they count as the
    same shot (1.0) when their means are within one grey level, as a cut (0.0)
    otherwise, and a flat frame never matches a textured one (0.0).
    """
    a, b = (f if isinstance(f, Frame) else Frame(index=0, pixels=f) for f in (a, b))
    _check_same_size(a.pixels, b.pixels)
    sums = kernels.pearson_sums(a.counts, b.counts, a.pixels, b.pixels)
    return kernels.correlation_from_sums(a.pixels.size, sums)


def detect_cuts(frames: Iterable[Frame], threshold: float = DEFAULT_CUT_THRESHOLD) -> list[Shot]:
    """Split a frame stream into shots at every adjacent pair whose
    correlation (as ``correlation`` computes it) falls below the threshold.

    Only two frames are held at a time; the stream is never materialised.
    Each frame's histogram comes from ``Frame.counts``, and each frame is kept
    as the previous frame of the next pair.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"cut threshold must be in (0, 1], got {threshold}")
    it: Iterator[Frame] = iter(frames)
    try:
        prev = next(it)
    except StopIteration:
        raise ValueError("cannot segment an empty frame stream") from None
    shots: list[Shot] = []
    shot_start = prev.index
    for cur in it:
        _check_same_size(prev.pixels, cur.pixels)
        sums = kernels.pearson_sums(prev.counts, cur.counts, prev.pixels, cur.pixels)
        if kernels.correlation_from_sums(cur.pixels.size, sums) < threshold:
            shots.append(Shot(shot_start, cur.index))
            shot_start = cur.index
        prev = cur
    shots.append(Shot(shot_start, prev.index + 1))
    return shots


def merge_short_shots(shots: list[Shot], min_len: int = DEFAULT_MIN_SHOT_LEN) -> list[Shot]:
    """Absorb shots shorter than min_len into their successors.

    A short trailing shot merges backwards into its predecessor instead.  If
    the whole input is shorter than min_len, a single covering shot remains.
    The output tiles exactly the same range as the input.
    """
    if not shots:
        return []
    merged: list[Shot] = []
    carry_start: int | None = None
    for shot in shots:
        start = shot.start if carry_start is None else carry_start
        if shot.end - start < min_len:
            carry_start = start
        else:
            merged.append(Shot(start, shot.end))
            carry_start = None
    if carry_start is not None:
        end = shots[-1].end
        if merged:
            last = merged.pop()
            merged.append(Shot(last.start, end))
        else:
            merged.append(Shot(carry_start, end))
    return merged
