"""Per-shot key-frame extraction and cross-shot duplicate elimination.

Frames of a shot are classed into bins by their squared-entropy key; the
centre frame of every sufficiently populated bin becomes a key-frame
candidate.  Each candidate, shot by shot in frame order, is then compared on
its 64-segment entropy vector with the survivors before it, and a later
near-duplicate of an earlier survivor is dropped.
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


@dataclass
class DedupScan:
    """What a keep-earliest scan has taken, kept and dropped, and as ``rows`` the
    kept segments' float64 bytes, 64 a row, and a spare row (a cast takes no 0 in a shape)."""

    candidates: list[KeyFrame] = field(default_factory=list)
    survivors: list[KeyFrame] = field(default_factory=list)
    eliminations: list[Elimination] = field(default_factory=list)
    rows: bytearray = field(default_factory=lambda: bytearray(512))


def dedup_detailed(candidates: Sequence[KeyFrame],
                   sd_threshold: float = DEFAULT_SD_THRESHOLD,
                   scan: DedupScan | None = None,
                   ) -> tuple[list[KeyFrame], list[Elimination]]:
    """Keep-earliest duplicate elimination with a log of what was dropped.

    Each candidate is compared against the earlier survivors; if any
    dissimilarity is at or below the threshold, the later frame is eliminated
    as a duplicate of the earliest such survivor, at that survivor's SD.  One
    ``dissimilarity`` call per candidate scores it against the whole survivor
    stack.  Comparing only against survivors makes the scan idempotent.
    The candidates continue ``scan`` (by default a new one), whose survivors and
    eliminations are returned: a list cut anywhere gives what one call gives.
    A frame index not above the one before, across calls too, raises ``ValueError``.
    """
    if not 0 <= sd_threshold < math.inf:
        raise ValueError(f"sd threshold must be finite and non-negative, got {sd_threshold}")
    scan = DedupScan() if scan is None else scan
    taken, survivors, rows = scan.candidates, scan.survivors, scan.rows
    for cand in candidates:
        if taken and cand.frame_index <= taken[-1].frame_index:
            raise ValueError(f"candidates must be in increasing frame order: frame "
                             f"{cand.frame_index} follows frame {taken[-1].frame_index}")
        sds = dissimilarity(memoryview(rows).cast("d", (len(rows) // 512, 64))[:-1], cand.segments)
        for first, sd in enumerate(sds):
            if sd <= sd_threshold:
                scan.eliminations.append(Elimination(eliminated=cand.frame_index,
                                                     kept=survivors[first].frame_index, sd=sd))
                break
        else:  # the segments fill the spare row, and a new spare row follows
            rows[-512:] = array("d", cand.segments)
            rows += bytes(512)
            survivors.append(cand)
        taken.append(cand)
    return survivors, scan.eliminations
