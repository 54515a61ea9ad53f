"""The extraction pipeline: one call per stage, in the paper's order.

``run_pipeline`` runs ``analyse`` (one pass: each frame's entropy and the
Pearson cuts), ``merge_short_shots``, ``select_candidates`` (per shot: the
entropy bins, the gated bin centres and their segment entropies),
``dedup_detailed``, ``score`` (evaluation against ground truth),
``write_keyframes`` and ``write_report``.  A ground-truth file is read and
checked before the pass; only its frame count waits for ``score``.  Frame
geometry is ``ingest``'s contract.  During the pass the pipeline keeps only
the per-frame entropies and the two frames under correlation; picked frames
are fetched afterwards through the source's ``read_frame``.  Peak resident
frame storage therefore stays constant in the video length, which
``peak_resident_frames`` in the report verifies.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import re
import weakref
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator

import jsonschema

from .evaluation import (DEFAULT_MATCH_WINDOW, EvaluationError, GroundTruth, evaluate,
                         load_ground_truth)
from .extraction import (DEFAULT_MIN_BIN_SIZE, DEFAULT_SD_THRESHOLD, KeyFrame,
                         bin_indexed_keys, dedup_detailed, fallback_pick, select_keyframes)
from .entropy import frame_entropy, modified_entropy, segmented_entropies
from .ingest import Frame, SourceSpec, write_pgm
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
        if not (math.isfinite(self.sd_threshold) and self.sd_threshold >= 0):
            raise ConfigError(f"sd threshold must be finite and non-negative, "
                              f"got {self.sd_threshold}")


class _FrameWatermark:
    """High-water mark of simultaneously live Frame objects.

    CPython's refcounting drops a frame from the WeakSet the moment the
    pipeline lets go of it, so the peak reflects real residency.
    """

    def __init__(self):
        self._live: weakref.WeakSet = weakref.WeakSet()
        self.peak = 0

    def register(self, frame: Frame) -> Frame:
        self._live.add(frame)
        n = len(self._live)
        if n > self.peak:
            self.peak = n
        return frame


def _candidate_dict(kf: KeyFrame) -> dict:
    return {
        "frame_index": kf.frame_index,
        "shot": asdict(kf.shot),
        "bin_key": kf.bin_key,
        "global_entropy": kf.global_entropy,
        "fallback": kf.fallback,
    }


def load_report_schema() -> dict:
    return json.loads(resources.files("entropykf").joinpath("report_schema.json").read_text())


@functools.cache
def _report_validator() -> jsonschema.protocols.Validator:
    """The report schema's validator, built and meta-schema checked once per
    process, on first use rather than at import."""
    schema = load_report_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def analyse(source, cut_threshold: float,
            tracker: _FrameWatermark) -> tuple[list[float], list[Shot]]:
    """Stream the source once: every frame's entropy and the raw shot cuts."""
    entropies: list[float] = []

    def tapped() -> Iterator[Frame]:
        for frame in source.frames():
            tracker.register(frame)
            entropies.append(frame_entropy(frame))
            yield frame

    raw_shots = detect_cuts(tapped(), cut_threshold)
    return entropies, raw_shots


def select_candidates(shots: list[Shot], entropies: list[float], source,
                      config: PipelineConfig,
                      tracker: _FrameWatermark) -> tuple[list[dict], list[KeyFrame]]:
    """Per shot, the report's bin details and the gated bin centres, by frame index."""
    shot_details: list[dict] = []
    candidates: list[KeyFrame] = []
    for shot in shots:
        keyed = ((i, modified_entropy(entropies[i])) for i in range(shot.start, shot.end))
        bins = bin_indexed_keys(keyed)
        picks = select_keyframes(bins, config.min_bin_size)
        used_fallback = not picks and config.fallback_keyframe
        if used_fallback:
            picks = [fallback_pick(bins)]
        chosen = {id(b): index for b, index in picks}
        shot_details.append({
            "shot": asdict(shot),
            "bins": [{"key": b.key, "size": len(b.members),
                      "selected": chosen.get(id(b))} for b in bins],
        })
        for b, index in picks:
            candidates.append(KeyFrame(
                frame_index=index, shot=shot, bin_key=b.key,
                global_entropy=entropies[index],
                segments=segmented_entropies(tracker.register(source.read_frame(index))),
                fallback=used_fallback))
    candidates.sort(key=lambda kf: kf.frame_index)
    return shot_details, candidates


def score(survivors: list[KeyFrame], total_frames: int, gt: GroundTruth | None,
          config: PipelineConfig) -> dict | None:
    """The report's evaluation block, or None without ground truth."""
    if gt is None:
        return None
    if gt.total_frames != total_frames:
        raise EvaluationError(f"{config.ground_truth}: ground truth is for "
                              f"{gt.total_frames} frames, the video has {total_frames}")
    result = evaluate([kf.frame_index for kf in survivors], gt, config.match_window)
    return {**asdict(result), "window": config.match_window,
            "gt_count": len(gt.keyframe_indices), "gt_total_frames": gt.total_frames}


def write_keyframes(survivors: list[KeyFrame], source, out_dir: Path,
                    tracker: _FrameWatermark) -> list[dict]:
    """One PGM per survivor, replacing stale ones; returns the report entries."""
    for old in out_dir.iterdir():
        if _KEYFRAME_NAME.fullmatch(old.name):
            old.unlink()
    entries = []
    for kf in survivors:
        name = f"keyframe_{kf.frame_index:06d}.pgm"
        write_pgm(out_dir / name, tracker.register(source.read_frame(kf.frame_index)).pixels)
        entries.append({**_candidate_dict(kf), "image": name,
                        "segments": [float(v) for v in kf.segments]})
    return entries


def write_report(config: PipelineConfig, out_dir: Path, results: dict) -> dict:
    """Prefix the run's results with the config, check the schema, write report.json."""
    report = {}
    if not config.seed_report:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report["config"] = {
        "source": asdict(config.source),
        "cut_threshold": config.cut_threshold,
        "min_shot_len": config.min_shot_len,
        "min_bin_size": config.min_bin_size,
        "sd_threshold": config.sd_threshold,
        "match_window": config.match_window,
        "fallback_keyframe": config.fallback_keyframe,
        "output_dir": str(config.output_dir),
        "ground_truth": None if config.ground_truth is None else str(config.ground_truth),
    }
    report.update(results)
    _report_validator().validate(report)
    with open(out_dir / "report.json", "w") as out:
        # streamed: a string of the whole report would add about six times
        # its size to the peak memory of a run
        json.dump(report, out, indent=2)
        out.write("\n")
    return report


def _writable_dir(path: Path) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} is not writable: {exc}") from exc
    return out_dir


def run_pipeline(config: PipelineConfig) -> dict:
    """Run extraction end to end; returns the report written to output_dir.

    Raises ConfigError, IngestError, or EvaluationError; the CLI maps these
    to exit codes 2, 3, and 4.
    """
    config.validate()
    out_dir = _writable_dir(config.output_dir)
    # a bad ground-truth file fails before the pass, not after a full decode
    gt = None if config.ground_truth is None else load_ground_truth(config.ground_truth)
    tracker = _FrameWatermark()
    source = _open_access(config.source)
    try:
        entropies, raw_shots = analyse(source, config.cut_threshold, tracker)
        shots = merge_short_shots(raw_shots, config.min_shot_len)
        shot_details, candidates = select_candidates(shots, entropies, source, config, tracker)
        survivors, eliminations = dedup_detailed(candidates, config.sd_threshold)
        evaluation = score(survivors, len(entropies), gt, config)
        keyframes = write_keyframes(survivors, source, out_dir, tracker)
    finally:
        source.close()
    return write_report(config, out_dir, {
        "total_frames": len(entropies),
        "shots": [asdict(s) for s in shots],
        "shot_details": shot_details,
        "candidates": [_candidate_dict(kf) for kf in candidates],
        "keyframes": keyframes,
        "eliminations": [asdict(e) for e in eliminations],
        **({} if evaluation is None else {"evaluation": evaluation}),
        "stats": {"raw_shot_count": len(raw_shots), "peak_resident_frames": tracker.peak},
    })
