"""Per-shot key-frame extraction and cross-shot duplicate elimination.

Frames of a shot are classed into bins by their squared-entropy key; the
centre frame of every sufficiently populated bin becomes a key-frame
candidate.  Candidates from all shots are then compared pairwise on their
64-segment entropy vectors, and later near-duplicates of an earlier survivor
are dropped.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .entropy import dissimilarity
from .shots import Shot

DEFAULT_MIN_BIN_SIZE = 20
DEFAULT_SD_THRESHOLD = 0.15


@dataclass
class EntropyBin:
    """Frames of one shot sharing a squared-entropy key, in arrival order."""

    key: int
    members: list[int] = field(default_factory=list)

    def center_member(self) -> int:
        """The member at position floor(count / 2)."""
        return self.members[len(self.members) // 2]


@dataclass
class KeyFrame:
    """A selected representative frame with its extraction provenance."""

    frame_index: int
    shot: Shot
    bin_key: int
    global_entropy: float
    segments: array  # 64 per-segment entropies, an array("d")
    fallback: bool = False


@dataclass(frozen=True)
class Elimination:
    """A candidate dropped as a near-duplicate of an earlier survivor."""

    eliminated: int  # frame index removed
    kept: int        # earlier surviving frame index it duplicated
    sd: float        # dissimilarity between the two


def bin_indexed_keys(pairs: Iterable[tuple[int, int]]) -> list[EntropyBin]:
    """Group (frame index, bin key) pairs into bins, created on first use.

    Bins appear in creation order (first occurrence of their key) and every
    index lands in exactly one bin, so the member lists partition the input.
    """
    bins: dict[int, EntropyBin] = {}
    for index, key in pairs:
        b = bins.get(key)
        if b is None:
            bins[key] = b = EntropyBin(key=key)
        b.members.append(index)
    return list(bins.values())


def select_keyframes(bins: Sequence[EntropyBin],
                     min_bin_size: int = DEFAULT_MIN_BIN_SIZE) -> list[tuple[EntropyBin, int]]:
    """Pick the centre member of every bin strictly larger than min_bin_size.

    Returns (bin, frame index) picks in bin creation order.  Bins at or below
    the gate are neglected; a shot whose bins all fail yields nothing.
    """
    return [(b, b.center_member()) for b in bins if len(b.members) > min_bin_size]


def fallback_pick(bins: Sequence[EntropyBin]) -> tuple[EntropyBin, int]:
    """Centre of the most populated bin (earliest-created wins ties)."""
    best = max(bins, key=lambda b: len(b.members))
    return best, best.center_member()


def dedup_detailed(candidates: Sequence[KeyFrame],
                   sd_threshold: float = DEFAULT_SD_THRESHOLD,
                   ) -> tuple[list[KeyFrame], list[Elimination]]:
    """Keep-earliest duplicate elimination with a log of what was dropped.

    Candidates must be sorted by frame index.  Each candidate is compared
    against the earlier survivors; if any dissimilarity is at or below the
    threshold, the later frame is eliminated as a duplicate of the earliest
    such survivor, at that survivor's SD.  One ``dissimilarity`` call per
    candidate scores it against the whole survivor stack.  Comparing only
    against survivors makes the scan idempotent.
    """
    if not 0 <= sd_threshold < math.inf:
        raise ValueError(f"sd threshold must be finite and non-negative, got {sd_threshold}")
    survivors: list[KeyFrame] = []
    eliminations: list[Elimination] = []
    # row i holds survivors[i]'s segments; one row more than the candidates,
    # as a memoryview cannot be cast to a shape with a 0 in it
    kept = array("d", bytes(512 * (len(candidates) + 1)))
    stack = memoryview(kept).cast("B").cast("d", (len(candidates) + 1, 64))
    for cand in candidates:
        sds = dissimilarity(stack[:len(survivors)], cand.segments)
        first = next((i for i, sd in enumerate(sds) if sd <= sd_threshold), None)
        if first is not None:
            eliminations.append(Elimination(eliminated=cand.frame_index,
                                            kept=survivors[first].frame_index,
                                            sd=sds[first]))
        else:
            row = 64 * len(survivors)
            kept[row:row + 64] = array("d", cand.segments)
            survivors.append(cand)
    return survivors, eliminations
