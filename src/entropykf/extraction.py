"""Per-shot key-frame extraction and cross-shot duplicate elimination.

Frames of a shot are classed into bins by their squared-entropy key; the
centre frame of every sufficiently populated bin becomes a key-frame
candidate.  Candidates from all shots are then compared pairwise on their
64-segment entropy vectors, and later near-duplicates of an earlier survivor
are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

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
    segments: np.ndarray  # 64 per-segment entropies
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
    threshold, the later frame is eliminated.  Comparing only against
    survivors makes the scan idempotent.
    """
    if sd_threshold < 0:
        raise ValueError(f"sd threshold must be non-negative, got {sd_threshold}")
    survivors: list[KeyFrame] = []
    eliminations: list[Elimination] = []
    for cand in candidates:
        duplicate_of = None
        sd_found = 0.0
        for kept in survivors:
            sd = dissimilarity(kept.segments, cand.segments)
            if sd <= sd_threshold:
                duplicate_of, sd_found = kept, sd
                break
        if duplicate_of is None:
            survivors.append(cand)
        else:
            eliminations.append(Elimination(eliminated=cand.frame_index,
                                            kept=duplicate_of.frame_index,
                                            sd=sd_found))
    return survivors, eliminations
