"""Scoring detected key-frames against human-picked ground truth.

Counts follow the identified / redundant / missing scheme: every detected
frame is "identified", detections matched to a ground-truth frame within the
window are correct, the rest are redundant, and unmatched ground-truth frames
are missing.  Deviation is missing over the ground-truth count; compactness
is identified over total frames (smaller is better).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

DEFAULT_MATCH_WINDOW = 12


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
    """Parse a ground-truth file: a "total_frames=N" header, then one frame
    index per line.  Blank lines and #-comments are ignored; indices may
    appear in any order but must be unique and inside the video."""
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
        if line.startswith("total_frames"):
            _, _, value = line.partition("=")
            try:
                total_frames = int(value.strip())
            except ValueError:
                raise EvaluationError(f"{path}:{lineno}: bad total_frames line {raw!r}") from None
            continue
        try:
            indices.append(int(line))
        except ValueError:
            raise EvaluationError(f"{path}:{lineno}: expected a frame index, got {raw!r}") from None
    if total_frames is None:
        raise EvaluationError(f"{path}: missing required header line 'total_frames=N'")
    if len(set(indices)) != len(indices):
        raise EvaluationError(f"{path}: duplicate ground-truth indices")
    return GroundTruth(keyframe_indices=tuple(sorted(indices)), total_frames=total_frames)


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


def metrics(matching: Matching, gt: GroundTruth, detected_count: int) -> EvalReport:
    """Fold a matching into the identified / redundant / missing report."""
    if not gt.keyframe_indices:
        raise EvaluationError("cannot evaluate against empty ground truth "
                              "(deviation is undefined)")
    matched = len(matching.matched)
    redundant = len(matching.redundant)
    missing = len(matching.missing)
    if matched + redundant != detected_count:
        raise ValueError(f"matching covers {matched + redundant} detections, "
                         f"expected {detected_count}")
    return EvalReport(
        identified=detected_count,
        matched=matched,
        redundant=redundant,
        missing=missing,
        deviation=missing / len(gt.keyframe_indices),
        compactness=detected_count / gt.total_frames,
    )


def evaluate(detected: Sequence[int], gt: GroundTruth,
             window: int = DEFAULT_MATCH_WINDOW) -> EvalReport:
    """Match and score in one step."""
    return metrics(match_keyframes(detected, gt, window), gt, len(detected))
