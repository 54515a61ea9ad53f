"""The extraction pipeline: one call per stage, in the paper's order.

``analyse`` makes the one pass over the frames, holding two at a time, and
returns two series: ``entropies[i]`` is frame i's entropy and
``correlations[i]`` frame i + 1 against frame i.  The stages follow:
``detect_cuts``, ``merge_short_shots``, ``select_candidates`` (per shot: the
entropy bins, the gated bin centres and their segment entropies),
``dedup_detailed``, ``score`` (evaluation against ground truth),
``write_keyframes`` and ``write_report``; they fetch picked frames through
the source's ``read_frame``.  Peak resident frame storage therefore stays
constant in the video length, which ``peak_resident_frames`` in the report
verifies.  A ground-truth file is read and checked before the pass; only its
frame count waits for ``score``.  Frame geometry is ``ingest``'s contract.
"""

from __future__ import annotations

import datetime
import json
import operator
import os
import re
import weakref
from array import array
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from . import kernels
from .evaluation import (DEFAULT_MATCH_WINDOW, EvaluationError, GroundTruth, evaluate,
                         load_ground_truth)
from .extraction import (DEFAULT_MIN_BIN_SIZE, DEFAULT_SD_THRESHOLD, KeyFrame,
                         bin_indexed_keys, dedup_detailed, fallback_pick, select_keyframes)
from .entropy import modified_entropy, segmented_entropies
from .ingest import Frame, SourceKind, SourceSpec, write_pgm
from .ingest import open_source as _open_access  # perfbench wraps this binding
from .shots import (DEFAULT_CUT_THRESHOLD, DEFAULT_MIN_SHOT_LEN, Shot, correlation,
                    detect_cuts, merge_short_shots)

_KEYFRAME_NAME = re.compile(r"keyframe_\d{6,}\.pgm$")
_ENTROPY_BLOCK = 64  # histograms per entropy call in analyse: 128 KB of int64
# the values each annotated field type admits; a bool only where the type is bool
_FIELD_KINDS = {"int": (int,), "float": (int, float), "bool": (bool,), "SourceSpec": (SourceSpec,),
                "Path": (str, os.PathLike), "Path | None": (str, os.PathLike, type(None))}


class ConfigError(ValueError):
    """The pipeline configuration is structurally invalid."""


@dataclass(kw_only=True)
class PipelineConfig:
    """A run's settings, in the order report.json's ``config`` block lists them;
    the block is every field but ``seed_report``, with the paths as strings."""
    source: SourceSpec
    cut_threshold: float = DEFAULT_CUT_THRESHOLD
    min_shot_len: int = DEFAULT_MIN_SHOT_LEN
    min_bin_size: int = DEFAULT_MIN_BIN_SIZE
    sd_threshold: float = DEFAULT_SD_THRESHOLD
    match_window: int = DEFAULT_MATCH_WINDOW
    fallback_keyframe: bool = False
    output_dir: Path
    ground_truth: Path | None = None
    seed_report: bool = False  # omit volatile fields so report bytes reproduce

    def validate(self) -> None:
        for field in fields(self):  # types first: a wrong type can pass a comparison
            value, kinds = getattr(self, field.name), _FIELD_KINDS[field.type]
            if (isinstance(value, bool) and bool not in kinds) or not isinstance(value, kinds):
                raise ConfigError(f"{field.name} must be of type {field.type}, got {value!r}")
            if field.type == "int" and value < 0:  # shot length, bin gate, match window
                raise ConfigError(f"{field.name} must be non-negative, got {value}")
        try:  # each stage checks its own threshold, here on empty input
            detect_cuts((), self.cut_threshold)
            dedup_detailed((), self.sd_threshold)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if (self.source.kind is SourceKind.PGM_DIR
                and Path(self.output_dir).resolve() == Path(self.source.path).resolve()):
            raise ConfigError(f"output directory {self.output_dir} is the input directory, "
                              "where key-frames and report.json would be read as frames")


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


class ReportError(ValueError):
    """A report value fails its schema rule, or the rule is one the check refuses."""


# the Python type of each JSON type but number and integer, which exclude bool
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
_BOUNDS = {"minimum": operator.ge, "maximum": operator.le, "exclusiveMinimum": operator.gt}
_COUNTS = {"minItems": operator.ge, "maxItems": operator.le}


def _has_type(value, name: str) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return name == "number" or name == "integer" and value % 1 == 0  # 1.0 is an integer
    return isinstance(value, _JSON_TYPES.get(name, ()))


def check_report(value, node: dict, defs: dict, path: str = "$",
                 refs: frozenset = frozenset()) -> None:
    """Raise ReportError, with the value's JSON path first, unless ``value`` meets
    the schema ``node`` by the Draft 2020-12 meaning of the 14 keywords
    report_schema.json uses; a ``$ref`` names an entry of ``defs``.  So that a
    schema edit cannot silently weaken the check, it refuses any other keyword, an
    ``additionalProperties`` other than false, and a ``$ref`` that is not a lone
    ``#/$defs/<name>`` of a definition.  ``refs`` holds the definitions followed
    on this value, since the walk last stepped into ``items`` or ``properties``; a
    ``$ref`` back to one of them would loop without end, and is refused too.
    NaN fails every bound."""
    for key, rule in node.items():
        bad = False
        if key == "type":
            bad = not any(_has_type(value, t) for t in ([rule] if isinstance(rule, str) else rule))
        elif key in _BOUNDS:
            bad = _has_type(value, "number") and not _BOUNDS[key](value, rule)
        elif key in _COUNTS:
            bad = isinstance(value, list) and not _COUNTS[key](len(value), rule)
        elif key == "required":
            bad = isinstance(value, dict) and not value.keys() >= set(rule)
        elif key == "additionalProperties" and rule is False:
            bad = isinstance(value, dict) and not value.keys() <= node.get("properties", {}).keys()
        elif key == "enum":
            bad = value not in rule
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                check_report(item, rule, defs, f"{path}[{i}]")
        elif key == "properties" and isinstance(value, dict):
            for name, sub in rule.items():
                if name in value:
                    check_report(value[name], sub, defs, f"{path}.{name}")
        elif key == "allOf":
            for sub in rule:
                check_report(value, sub, defs, path, refs)
        elif key == "$ref" and len(node) == 1 and rule.startswith("#/$defs/") and \
                rule[8:] in defs and rule[8:] not in refs:  # the name after "#/$defs/"
            check_report(value, defs[rule[8:]], defs, path, refs | {rule[8:]})
        elif key not in ("items", "properties", "$defs", "$schema", "title"):
            raise ReportError(f"{path}: the report check cannot apply {key!r}: {rule!r}")
        if bad:
            raise ReportError(f"{path}: {value!r:.80} fails {key} {rule!r}")


def analyse(frames: Iterable[Frame]) -> tuple[array, array]:
    """One pass over the frames: each frame's entropy, and as ``correlations[i]``
    the correlation of frame i + 1 against frame i; entropies by blocks of histograms."""
    entropies, correlations = array("d"), array("d")
    block = np.empty((_ENTROPY_BLOCK, 256), dtype=np.int64)
    n, prev = 0, None
    for frame in frames:
        block[n % _ENTROPY_BLOCK] = frame.counts
        n += 1
        if n % _ENTROPY_BLOCK == 0:
            entropies.extend(kernels.entropy_from_counts(block).tolist())
        if prev is not None:
            correlations.append(correlation(prev, frame))
        prev = frame
    if not n:
        raise ValueError("cannot analyse an empty frame stream")
    if n % _ENTROPY_BLOCK:
        entropies.extend(kernels.entropy_from_counts(block[:n % _ENTROPY_BLOCK]).tolist())
    return entropies, correlations


def select_candidates(shots: list[Shot], entropies: array, source,
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
    """One PGM per survivor, replacing stale ones and the report that named them;
    returns the report entries."""
    for old in out_dir.iterdir():
        if _KEYFRAME_NAME.fullmatch(old.name) or old.name == "report.json":
            old.unlink()
    entries = []
    for kf in survivors:
        name = f"keyframe_{kf.frame_index:06d}.pgm"
        write_pgm(out_dir / name, tracker.register(source.read_frame(kf.frame_index)).pixels)
        entries.append({**_candidate_dict(kf), "image": name, "segments": kf.segments.tolist()})
    return entries


def write_report(config: PipelineConfig, out_dir: Path, results: dict) -> dict:
    """Prefix the run's results with the config, check the schema, write report.json."""
    report = {}
    if not config.seed_report:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report["config"] = {**asdict(config), "output_dir": str(config.output_dir), "ground_truth":
                        None if config.ground_truth is None else str(config.ground_truth)}
    del report["config"]["seed_report"]
    report.update(results)
    schema = load_report_schema()
    check_report(report, schema, schema["$defs"])
    partial = out_dir / ".report.json.tmp"
    try:
        with open(partial, "w") as out:
            # streamed: a string of the whole report would add about six times
            # its size to the peak memory of a run
            json.dump(report, out, indent=2)
            out.write("\n")
        partial.replace(out_dir / "report.json")
    finally:
        partial.unlink(missing_ok=True)
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
        entropies, correlations = analyse(map(tracker.register, source.frames()))
        raw_shots = detect_cuts(correlations, config.cut_threshold)
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
