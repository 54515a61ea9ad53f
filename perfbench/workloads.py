"""Seeded inputs and planted oracles for the three benchmark workloads.

Every workload is built from the seed alone, before any timing starts, and
comes with an oracle derived from its generation plan, never from a pipeline
run.  The oracle rests on how the synthetic scenes are built: a scene is one
static texture (one entropy bin, so its bin centre is the shot's only
candidate), the noise frames between scenes are split off as one-frame shots
and merged forward into the next scene's shot, and a repeated texture has a
dissimilarity of exactly 0.0 to its first occurrence.

Workloads, and the layer each is there to load:

* ``paper-pgm``: the README's synthetic video (4,000 frames at 320x240,
  3 scenes plus a repeat of the first) read as a PGM directory.  Per-frame
  kernels dominate; extraction and dedup are nearly idle (4 candidates).
* ``hd-y4m-stdin``: the same generator at 640x480 (1,000 frames) written as
  Y4M and piped into the stdin path, like ``ffmpeg ... | entropykf``.  A frame
  pair's int64 working copies overflow a 2 MB L2, and ingest also writes the
  spool file that random access needs on a pipe.
* ``recurring-raw``: 400 short scenes at 160x120 drawn from 150 textures, so
  later occurrences repeat earlier ones, read as a raw file.  Cheap kernels
  let segment entropy, dedup, schema validation and random-access reads carry
  a real share of the time (400 candidates, 250 eliminations).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np

from entropykf import synthetic

# recurring-raw plan
RECURRING_TEXTURES = 150
RECURRING_SCENES = 400
RECURRING_SCENE_FRAMES = 24
RECURRING_GAP_FRAMES = 2
RECURRING_SIZE = (160, 120)

_Y4M_CHROMA = 128  # neutral chroma; the pipeline reads only the Y plane


def _layout_oracle(layout: synthetic.SyntheticLayout) -> dict:
    """Shots, candidates, survivors and eliminations of a synthetic.generate video."""
    centres = [start + layout.frames_per_scene // 2 for _, start, _ in layout.segments]
    first_centre: dict[int, int] = {}
    eliminations = []
    for (cls, _, _), centre in zip(layout.segments, centres):
        if cls in first_centre:
            eliminations.append([centre, first_centre[cls], 0.0])
        else:
            first_centre[cls] = centre
    return {
        "total_frames": layout.total_frames,
        "shots": [list(s) for s in layout.expected_shots],
        "candidates": centres,
        "keyframes": list(layout.gt_indices),
        "eliminations": eliminations,
    }


def _write_gt(path: Path, total_frames: int, indices: list[int]) -> None:
    lines = [f"total_frames={total_frames}"] + [str(i) for i in indices]
    path.write_text("\n".join(lines) + "\n")


def _paper_pgm(seed: int, work: Path) -> dict:
    layout = synthetic.generate(work / "frames", work / "gt.txt", seed=seed)
    return {
        "source": {"kind": "pgm-dir", "path": str(work / "frames")},
        "gt": str(work / "gt.txt"),
        "oracle": _layout_oracle(layout),
    }


def _hd_y4m_stdin(seed: int, work: Path) -> dict:
    width, height = 640, 480
    layout = synthetic.generate(work / "frames", work / "gt.txt", frames_per_scene=247,
                                width=width, height=height, seed=seed)
    chroma = bytes([_Y4M_CHROMA]) * (2 * (width // 2) * (height // 2))
    header_len = len(f"P5\n{width} {height}\n255\n")
    with open(work / "video.y4m", "wb") as out:
        out.write(f"YUV4MPEG2 W{width} H{height} F25:1 Ip A1:1 C420jpeg\n".encode("ascii"))
        for path in sorted((work / "frames").iterdir()):
            out.write(b"FRAME\n")
            out.write(path.read_bytes()[header_len:])
            out.write(chroma)
    shutil.rmtree(work / "frames")
    return {
        "source": {"kind": "y4m", "path": "-"},
        "stdin_file": str(work / "video.y4m"),
        "gt": str(work / "gt.txt"),
        "oracle": _layout_oracle(layout),
    }


def _recurring_raw(seed: int, work: Path) -> dict:
    width, height = RECURRING_SIZE
    rng = np.random.default_rng(seed)
    textures = synthetic.make_textures(rng, RECURRING_TEXTURES, width, height)
    # every texture appears once; the rest of the scenes repeat earlier ones
    repeats = rng.integers(0, RECURRING_TEXTURES, RECURRING_SCENES - RECURRING_TEXTURES)
    order = rng.permutation(np.concatenate([np.arange(RECURRING_TEXTURES), repeats]))

    n, gap = RECURRING_SCENE_FRAMES, RECURRING_GAP_FRAMES
    shots, candidates, keyframes, eliminations = [], [], [], []
    first_centre: dict[int, int] = {}
    pos = 0
    with open(work / "video.raw", "wb") as out:
        for i, texture in enumerate(int(t) for t in order):
            if i:
                for _ in range(gap):
                    out.write(rng.integers(0, 256, (height, width), dtype=np.uint8).tobytes())
                pos += gap
            out.write(textures[texture].tobytes() * n)
            shots.append([pos - gap if i else 0, pos + n])
            centre = pos + n // 2
            candidates.append(centre)
            if texture in first_centre:
                eliminations.append([centre, first_centre[texture], 0.0])
            else:
                first_centre[texture] = centre
                keyframes.append(centre)
            pos += n
    _write_gt(work / "gt.txt", pos, keyframes)
    return {
        "source": {"kind": "raw", "path": str(work / "video.raw"),
                   "width": width, "height": height},
        "gt": str(work / "gt.txt"),
        "oracle": {"total_frames": pos, "shots": shots, "candidates": candidates,
                   "keyframes": keyframes, "eliminations": eliminations},
    }


_BUILDERS = {
    "paper-pgm": _paper_pgm,
    "hd-y4m-stdin": _hd_y4m_stdin,
    "recurring-raw": _recurring_raw,
}


def build(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under work; return its source spec and oracle."""
    work.mkdir(parents=True, exist_ok=True)
    spec = _BUILDERS[workload](seed, work)
    # flush the fresh inputs now, so their writeback does not overlap timed calls
    for path in work.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    return spec


def check_report(report: dict, oracle: dict) -> list[str]:
    """Differences between a run_pipeline report and the planted oracle."""
    problems = []
    got = {
        "total_frames": report["total_frames"],
        "shots": [[s["start"], s["end"]] for s in report["shots"]],
        "candidates": [c["frame_index"] for c in report["candidates"]],
        "keyframes": [k["frame_index"] for k in report["keyframes"]],
        "eliminations": [[e["eliminated"], e["kept"], e["sd"]] for e in report["eliminations"]],
    }
    for key, want in oracle.items():
        if got[key] != want:
            problems.append(f"{key}: expected {_brief(want)}, got {_brief(got[key])}")
    evaluation = report.get("evaluation")
    if evaluation is None or evaluation["deviation"] != 0.0:
        problems.append(f"evaluation: expected deviation 0.0, got {evaluation}")
    return problems


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."
