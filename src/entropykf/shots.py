"""Shot segmentation by template-matching correlation of consecutive frames.

A cut is declared wherever the Pearson correlation of co-located pixels in two
consecutive frames drops below the threshold (0.9 by default).  ``detect_cuts``
reads the series of ``kernels.analyse``, where ``correlations[i]`` is frame
i + 1 against frame i; ``correlation`` is that pass over two frames.  Fades
and dissolves leave trails of very short shots; those are absorbed by a
minimum shot length rather than detected as boundaries of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import kernels
from .ingest import Frame, _as_frame

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


def correlation(a: Frame, b: Frame) -> float:
    """Pearson correlation of co-located pixel intensities, in [-1, 1].

    Takes two ``Frame`` values or two 2-D uint8 buffers of one shape.  Flat
    (zero-variance) frames make the quotient undefined; they count as the
    same shot (1.0) when their means are within one grey level, as a cut (0.0)
    otherwise, and a flat frame never matches a textured one (0.0).  It is
    ``kernels.analyse`` over the two frames, with the pass's bits.
    """
    return kernels.analyse((_as_frame(a), _as_frame(b)))[1][0]


def detect_cuts(correlations: Sequence[float],
                threshold: float = DEFAULT_CUT_THRESHOLD) -> list[Shot]:
    """Shots from the series ``correlations[i]``, frame i + 1 against frame i:
    one starts at frame 0 and one after every entry below the threshold."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"cut threshold must be in (0, 1], got {threshold}")
    starts = [0] + [i + 1 for i, r in enumerate(correlations) if r < threshold]
    return [Shot(start, end) for start, end in zip(starts, starts[1:] + [len(correlations) + 1])]


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
    if carry_start is not None:  # a short tail joins the last shot, or is the only one
        start = merged.pop().start if merged else carry_start
        merged.append(Shot(start, shots[-1].end))
    return merged
