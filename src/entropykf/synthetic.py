"""Deterministic synthetic test videos with planted cuts, fades, and repeats.

Each scene is a fixed texture built on the same 8x8 segment grid the
extractor analyses: a scene-specific pattern of flat cells and noise-filled
cells.  Distinct scenes differ in at least 8 grid cells, so their segmented
entropy profiles are far apart, while a repeated scene is carried verbatim
so its dissimilarity to the original is exactly zero.  Consecutive scene
segments are separated by short bursts of full-frame noise, which template
matching splits into single-frame shots that short-shot merging must absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .entropy import segment_bounds
from .ingest import MAX_DIMENSION, MIN_DIMENSION, write_pgm
from .pipeline import _writable_dir

DEFAULT_FADE_FRAMES = 4
_MIN_MASK_DISTANCE = 8  # grid cells two scene patterns must differ in


@dataclass(frozen=True)
class SyntheticLayout:
    """Everything a test needs to know about a generated sequence."""

    width: int
    height: int
    scenes: int
    frames_per_scene: int
    fade_frames: int
    repeat_first: bool
    seed: int
    total_frames: int
    segments: tuple[tuple[int, int, int], ...] = field(default=())  # (scene class, start, end)
    fades: tuple[tuple[int, int], ...] = field(default=())
    expected_shots: tuple[tuple[int, int], ...] = field(default=())
    gt_indices: tuple[int, ...] = field(default=())


def _draw_mask(rng: np.random.Generator, existing: list[np.ndarray]) -> np.ndarray:
    """A random 8x8 noisy-cell mask well separated from the existing ones."""
    while True:
        mask = rng.random((8, 8)) < 0.5
        pop = int(mask.sum())
        if not 16 <= pop <= 48:
            continue
        if all(int((mask ^ other).sum()) >= _MIN_MASK_DISTANCE for other in existing):
            return mask


def make_textures(rng: np.random.Generator, count: int,
                  width: int, height: int) -> list[np.ndarray]:
    """Build count scene textures with pairwise-distant entropy profiles."""
    rows = segment_bounds(height)
    cols = segment_bounds(width)
    masks: list[np.ndarray] = []
    textures = []
    for _ in range(count):
        mask = _draw_mask(rng, masks)
        masks.append(mask)
        flat_value = int(rng.integers(0, 256))
        px = np.full((height, width), flat_value, dtype=np.uint8)
        for sy in range(8):
            for sx in range(8):
                if mask[sy, sx]:
                    block = (rows[sy + 1] - rows[sy], cols[sx + 1] - cols[sx])
                    px[rows[sy]:rows[sy + 1], cols[sx]:cols[sx + 1]] = \
                        rng.integers(0, 256, block, dtype=np.uint8)
        textures.append(px)
    return textures


def plan_layout(scenes: int, frames_per_scene: int, width: int, height: int,
                seed: int, fade_frames: int = DEFAULT_FADE_FRAMES,
                repeat_first: bool = True) -> SyntheticLayout:
    """Compute the frame layout without generating any pixels."""
    if scenes < 1:
        raise ValueError("need at least one scene")
    if frames_per_scene < 1:
        raise ValueError("frames_per_scene must be positive")
    if fade_frames < 0:
        raise ValueError("fade_frames must be non-negative")
    classes = list(range(scenes)) + ([0] if repeat_first else [])
    n, f = frames_per_scene, fade_frames
    segments = tuple((cls, i * (n + f), i * (n + f) + n) for i, cls in enumerate(classes))
    fades = tuple((end, end + f) for _, _, end in segments[:-1]) if f else ()
    # fades are absorbed forward into the following scene's shot
    expected = tuple((max(start - f, 0), end) for _, start, end in segments)
    gt = tuple(start + n // 2 for cls, start, _ in segments[:scenes])
    return SyntheticLayout(
        width=width, height=height, scenes=scenes, frames_per_scene=n,
        fade_frames=f, repeat_first=repeat_first, seed=seed, total_frames=segments[-1][2],
        segments=segments, fades=fades, expected_shots=expected, gt_indices=gt)


def generate(out_dir: str | Path, gt_out: str | Path | None,
             scenes: int = 3, frames_per_scene: int = 997,
             width: int = 320, height: int = 240, seed: int = 0,
             fade_frames: int = DEFAULT_FADE_FRAMES,
             repeat_first: bool = True) -> SyntheticLayout:
    """Write the synthetic sequence as a PGM directory plus a ground-truth file.

    The sequence is scene_1 .. scene_K, optionally followed by scene_1 again,
    with fade_frames of noise between consecutive segments.  Ground truth
    holds the centre frame of each distinct scene (the repeat adds none).
    Every file in ``out_dir`` is read as a frame, so an ``out_dir`` that holds
    a file, or a ``gt_out`` inside it, is refused before anything is written.
    So are a ``gt_out`` that is or will be a directory, or whose parent is
    neither a directory nor made with ``out_dir``, and an ``out_dir`` that
    cannot be created and written.
    """
    if not MIN_DIMENSION <= min(width, height) <= max(width, height) <= MAX_DIMENSION:
        raise ValueError(f"frame sides must be in {MIN_DIMENSION}..{MAX_DIMENSION}, "
                         f"got {width}x{height}")
    layout = plan_layout(scenes, frames_per_scene, width, height, seed,
                         fade_frames, repeat_first)
    rng = np.random.default_rng(seed)
    textures = make_textures(rng, scenes, width, height)

    out_dir = Path(out_dir)
    if out_dir.is_file() or out_dir.is_dir() and any(p.is_file() for p in out_dir.iterdir()):
        raise ValueError(f"{out_dir} is a file or already holds files; "
                         "the frames need a new or empty directory")
    if gt_out is not None:
        gt, out = Path(gt_out).resolve(), out_dir.resolve()
        if gt.parent == out:
            raise ValueError(f"ground truth {gt_out} would be a frame file in {out_dir}")
        if gt.is_dir() or gt in (out, *out.parents):
            raise ValueError(f"ground truth {gt_out} is or will be a directory")
        if not (gt.parent.is_dir() or gt.parent in out.parents):
            raise ValueError(f"ground truth {gt_out} is not in a directory")
    out_dir = _writable_dir(out_dir)
    fade_starts = {start: end for start, end in layout.fades}
    for cls, start, end in layout.segments:
        for index in range(start, end):
            write_pgm(out_dir / f"frame_{index:06d}.pgm", textures[cls])
        if end in fade_starts:
            for index in range(end, fade_starts[end]):
                noise = rng.integers(0, 256, (height, width), dtype=np.uint8)
                write_pgm(out_dir / f"frame_{index:06d}.pgm", noise)

    if gt_out is not None:
        lines = [f"total_frames={layout.total_frames}",
                 "# centre frame of each distinct scene"]
        lines += [str(i) for i in layout.gt_indices]
        Path(gt_out).write_text("\n".join(lines) + "\n")
    return layout
