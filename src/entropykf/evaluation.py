"""Scoring detected key-frames against human-picked ground truth.

Counts follow the identified / redundant / missing scheme: every detected
frame is "identified", detections matched to a ground-truth frame within the
window are correct, the rest are redundant, and unmatched ground-truth frames
are missing.  Deviation is missing over the ground-truth count; compactness
is identified over total frames (smaller is better).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

DEFAULT_MATCH_WINDOW = 12

# a ground-truth line: one frame index, or the "total_frames=N" header; 18
# digits are more than any video needs and fewer than int() refuses, and a
# minus sign is read so that GroundTruth names the value as out of range
_GT_LINE = re.compile(r"(?P<header>total_frames\s*=\s*)?(?P<value>-?[0-9]{1,18})")


class EvaluationError(Exception):
    """Ground truth missing, malformed, or unusable."""


@dataclass(frozen=True)
class GroundTruth:
    """Human-selected key-frame indices for a video of total_frames frames."""

    keyframe_indices: tuple[int, ...]
    total_frames: int

    def __post_init__(self):
        if self.total_frames <= 0:
            raise EvaluationError("ground truth total_frames must be positive")
        if not self.keyframe_indices:
            raise EvaluationError("empty ground truth: it lists no key-frames, "
                                  "so deviation is undefined")
        prev = -1
        for idx in self.keyframe_indices:
            if not 0 <= idx < self.total_frames:
                raise EvaluationError(
                    f"ground-truth index {idx} is outside the video "
                    f"of {self.total_frames} frames")
            if idx <= prev:
                raise EvaluationError(
                    f"ground-truth indices must be strictly increasing (at {idx})")
            prev = idx


@dataclass(frozen=True)
class Matching:
    matched: tuple[tuple[int, int], ...]  # (ground-truth index, detected index)
    redundant: tuple[int, ...]            # detected frames left unmatched
    missing: tuple[int, ...]              # ground-truth frames left unmatched


@dataclass(frozen=True)
class EvalReport:
    identified: int
    matched: int
    redundant: int
    missing: int
    deviation: float    # missing / |ground truth|
    compactness: float  # identified / total frames


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Parse a ground-truth file: exactly one "total_frames=N" header and one
    frame index per line, both ASCII decimals.  Blank lines and
    #-comments are ignored; indices may appear in any order but must be unique
    and inside the video."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise EvaluationError(f"cannot read ground truth {path}: {exc}") from exc
    total_frames = None
    indices: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        entry = _GT_LINE.fullmatch(line)
        if entry is None:
            raise EvaluationError(f"{path}:{lineno}: expected a frame index or "
                                  f"'total_frames=N' in ASCII decimals, got {raw!r}")
        if entry["header"] is None:
            indices.append(int(entry["value"]))
        elif total_frames is None:
            total_frames = int(entry["value"])
        else:
            raise EvaluationError(f"{path}:{lineno}: a second 'total_frames' line {raw!r}")
    if total_frames is None:
        raise EvaluationError(f"{path}: missing required header line 'total_frames=N'")
    if len(set(indices)) != len(indices):
        raise EvaluationError(f"{path}: duplicate ground-truth indices")
    try:
        return GroundTruth(keyframe_indices=tuple(sorted(indices)), total_frames=total_frames)
    except EvaluationError as exc:
        raise EvaluationError(f"{path}: {exc}") from None


def match_keyframes(detected: Sequence[int], gt: GroundTruth,
                    window: int = DEFAULT_MATCH_WINDOW) -> Matching:
    """Greedy one-to-one matching of ground truth to detections.

    Ground-truth indices, in ascending order, each claim the nearest
    unclaimed detected frame within +/- window; distance ties go to the
    earlier detected frame.
    """
    if window < 0:
        raise ValueError(f"match window must be non-negative, got {window}")
    remaining = sorted(detected)
    matched: list[tuple[int, int]] = []
    missing: list[int] = []
    for g in gt.keyframe_indices:
        best = min((d for d in remaining if abs(d - g) <= window),
                   key=lambda d: (abs(d - g), d), default=None)
        if best is None:
            missing.append(g)
        else:
            matched.append((g, best))
            remaining.remove(best)
    return Matching(matched=tuple(matched), redundant=tuple(remaining),
                    missing=tuple(missing))


def evaluate(detected: Sequence[int], gt: GroundTruth,
             window: int = DEFAULT_MATCH_WINDOW) -> EvalReport:
    """Match detections to the ground truth and fold the matching into the
    identified / redundant / missing report, in which matched + redundant
    is identified: ``match_keyframes`` leaves each detection in one of them."""
    matching = match_keyframes(detected, gt, window)
    missing = len(matching.missing)
    return EvalReport(
        identified=len(detected),
        matched=len(matching.matched),
        redundant=len(matching.redundant),
        missing=missing,
        deviation=missing / len(gt.keyframe_indices),
        compactness=len(detected) / gt.total_frames,
    )
