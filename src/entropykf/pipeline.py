"""The extraction pipeline: ingest, segment, extract, dedup, evaluate, report.

The stream is consumed once.  During that pass the pipeline keeps only the
running per-frame entropies and the two frames the cut detector is comparing;
pixel data for the selected key-frames is fetched afterwards through the
source's ``read_frame`` (see ``ingest``: files are re-read in place, stdin
through a spool file).  Peak resident frame storage therefore stays constant
in the video length, which the ``peak_resident_frames`` counter in the report
verifies.
"""

from __future__ import annotations

import datetime
import itertools
import json
import re
import weakref
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator

import jsonschema

from . import kernels
from .evaluation import (DEFAULT_MATCH_WINDOW, EvaluationError, evaluate,
                         load_ground_truth)
from .extraction import (DEFAULT_MIN_BIN_SIZE, DEFAULT_SD_THRESHOLD, KeyFrame,
                         bin_indexed_keys, dedup_detailed, fallback_pick,
                         select_keyframes)
from .entropy import modified_entropy, segmented_entropies
from .ingest import Frame, IngestError, SourceSpec, write_pgm
from .ingest import open_source as _open_access  # perfbench wraps this binding
from .shots import (DEFAULT_CUT_THRESHOLD, DEFAULT_MIN_SHOT_LEN, Shot,
                    detect_cuts, merge_short_shots)

_KEYFRAME_NAME = re.compile(r"keyframe_\d{6}\.pgm$")


class ConfigError(ValueError):
    """The pipeline configuration is structurally invalid."""


@dataclass
class PipelineConfig:
    source: SourceSpec
    output_dir: Path
    cut_threshold: float = DEFAULT_CUT_THRESHOLD
    min_shot_len: int = DEFAULT_MIN_SHOT_LEN
    min_bin_size: int = DEFAULT_MIN_BIN_SIZE
    sd_threshold: float = DEFAULT_SD_THRESHOLD
    match_window: int = DEFAULT_MATCH_WINDOW
    fallback_keyframe: bool = False
    ground_truth: Path | None = None
    seed_report: bool = False  # omit volatile fields so report bytes reproduce

    def validate(self) -> None:
        if not 0.0 < self.cut_threshold <= 1.0:
            raise ConfigError(f"cut threshold must be in (0, 1], got {self.cut_threshold}")
        for name in ("min_shot_len", "min_bin_size", "match_window"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.sd_threshold < 0:
            raise ConfigError(f"sd threshold must be non-negative, got {self.sd_threshold}")


class _FrameWatermark:
    """High-water mark of simultaneously live Frame objects.

    CPython's refcounting drops a frame from the WeakSet the moment the
    pipeline lets go of it, so the peak reflects real residency.
    """

    def __init__(self):
        self._live: weakref.WeakSet = weakref.WeakSet()
        self.peak = 0

    def register(self, frame: Frame) -> None:
        self._live.add(frame)
        n = len(self._live)
        if n > self.peak:
            self.peak = n


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def _shot_dict(shot: Shot) -> dict:
    return {"start": shot.start, "end": shot.end}


def _candidate_dict(kf: KeyFrame) -> dict:
    return {
        "frame_index": kf.frame_index,
        "shot": _shot_dict(kf.shot),
        "bin_key": kf.bin_key,
        "global_entropy": kf.global_entropy,
        "fallback": kf.fallback,
    }


def load_report_schema() -> dict:
    return json.loads(resources.files("entropykf").joinpath("report_schema.json").read_text())


def run_pipeline(config: PipelineConfig) -> dict:
    """Run extraction end to end; returns the report written to output_dir.

    Raises ConfigError, IngestError, or EvaluationError; the CLI maps these
    to exit codes 2, 3, and 4.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} is not writable: {exc}") from exc

    tracker = _FrameWatermark()
    entropies: list[float] = []
    access = _open_access(config.source)
    try:
        def tapped() -> Iterator[Frame]:
            expected_shape = None
            for frame in access.frames():
                tracker.register(frame)
                if expected_shape is None:
                    if frame.width < 8 or frame.height < 8:
                        raise IngestError(f"frame size {frame.width}x{frame.height} "
                                          "is below the 8x8 minimum")
                    expected_shape = frame.pixels.shape
                elif frame.pixels.shape != expected_shape:
                    raise IngestError(
                        f"frame {frame.index} is {frame.width}x{frame.height}, "
                        f"expected {expected_shape[1]}x{expected_shape[0]}")
                counts = kernels.histogram256(frame.pixels)
                entropies.append(kernels.entropy_from_counts(counts, frame.pixels.size))
                yield frame

        stream = tapped()
        try:
            first = next(stream)
        except StopIteration:
            raise IngestError(f"source {config.source.path} yielded no frames") from None
        raw_shots = detect_cuts(itertools.chain([first], stream), config.cut_threshold)
        del first, stream
        shots = merge_short_shots(raw_shots, config.min_shot_len)
        total_frames = len(entropies)

        shot_details = []
        candidates: list[KeyFrame] = []
        for shot in shots:
            keyed = ((i, modified_entropy(entropies[i])) for i in range(shot.start, shot.end))
            bins = bin_indexed_keys(keyed)
            picks = select_keyframes(bins, config.min_bin_size)
            used_fallback = False
            if not picks and config.fallback_keyframe:
                picks = [fallback_pick(bins)]
                used_fallback = True
            chosen = {id(b): index for b, index in picks}
            shot_details.append({
                "shot": _shot_dict(shot),
                "bins": [{"key": b.key, "size": len(b.members),
                          "selected": chosen.get(id(b))} for b in bins],
            })
            for b, index in picks:
                frame = access.read_frame(index)
                tracker.register(frame)
                candidates.append(KeyFrame(
                    frame_index=index, shot=shot, bin_key=b.key,
                    global_entropy=entropies[index],
                    segments=segmented_entropies(frame.pixels),
                    fallback=used_fallback))
                del frame

        candidates.sort(key=lambda kf: kf.frame_index)
        survivors, eliminations = dedup_detailed(candidates, config.sd_threshold)

        evaluation = None
        if config.ground_truth is not None:
            gt = load_ground_truth(config.ground_truth)
            if not gt.keyframe_indices:
                raise EvaluationError(f"{config.ground_truth}: ground truth lists no key-frames")
            if gt.total_frames != total_frames:
                raise EvaluationError(f"{config.ground_truth}: ground truth is for "
                                      f"{gt.total_frames} frames, the video has {total_frames}")
            result = evaluate([kf.frame_index for kf in survivors], gt, config.match_window)
            evaluation = {
                "identified": result.identified,
                "matched": result.matched,
                "redundant": result.redundant,
                "missing": result.missing,
                "deviation": result.deviation,
                "compactness": result.compactness,
                "window": config.match_window,
                "gt_count": len(gt.keyframe_indices),
                "gt_total_frames": gt.total_frames,
            }

        # images for the survivors; stale key-frames from earlier runs go away
        for old in out_dir.iterdir():
            if _KEYFRAME_NAME.fullmatch(old.name):
                old.unlink()
        keyframe_entries = []
        for kf in survivors:
            name = f"keyframe_{kf.frame_index:06d}.pgm"
            frame = access.read_frame(kf.frame_index)
            tracker.register(frame)
            write_pgm(out_dir / name, frame.pixels)
            del frame
            entry = _candidate_dict(kf)
            entry["image"] = name
            entry["segments"] = [float(v) for v in kf.segments]
            keyframe_entries.append(entry)
    finally:
        access.close()

    report = {}
    if not config.seed_report:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report.update({
        "config": {
            "source": {
                "kind": str(config.source.kind),
                "path": str(config.source.path),
                "width": config.source.width,
                "height": config.source.height,
            },
            "cut_threshold": config.cut_threshold,
            "min_shot_len": config.min_shot_len,
            "min_bin_size": config.min_bin_size,
            "sd_threshold": config.sd_threshold,
            "match_window": config.match_window,
            "fallback_keyframe": config.fallback_keyframe,
            "output_dir": str(config.output_dir),
            "ground_truth": None if config.ground_truth is None else str(config.ground_truth),
        },
        "total_frames": total_frames,
        "shots": [_shot_dict(s) for s in shots],
        "shot_details": shot_details,
        "candidates": [_candidate_dict(kf) for kf in candidates],
        "keyframes": keyframe_entries,
        "eliminations": [{"eliminated": e.eliminated, "kept": e.kept, "sd": e.sd}
                         for e in eliminations],
    })
    if evaluation is not None:
        report["evaluation"] = evaluation
    report["stats"] = {
        "raw_shot_count": len(raw_shots),
        "peak_resident_frames": tracker.peak,
    }

    jsonschema.validate(report, load_report_schema())
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report
