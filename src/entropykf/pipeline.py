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
import math
import operator
import os
import re
import weakref
from array import array
from dataclasses import asdict, dataclass, fields
from importlib import resources
from json.encoder import encode_basestring_ascii
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
from .shots import (DEFAULT_CUT_THRESHOLD, DEFAULT_MIN_SHOT_LEN, Shot, check_same_size,
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


def _record_dict(record) -> dict:
    """``dataclasses.asdict`` of a flat record (a Shot, an Elimination, an
    EvalReport) without its deep copy, at a tenth of its cost: a dataclass
    instance without slots holds its fields, in order, in its ``__dict__``."""
    return vars(record).copy()


def _candidate_dict(kf: KeyFrame) -> dict:
    return {
        "frame_index": kf.frame_index,
        "shot": _record_dict(kf.shot),
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
# the exact types that surely have a JSON type, for the check's fast path
_EXACT_TYPES = {"number": (int, float), "integer": (int,), **{
    name: (cls,) for name, cls in _JSON_TYPES.items()}}
_BOUNDS = {"minimum": operator.ge, "maximum": operator.le, "exclusiveMinimum": operator.gt}
_COUNTS = {"minItems": operator.ge, "maxItems": operator.le}


def _has_type(value, name: str) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return name == "number" or name == "integer" and value % 1 == 0  # 1.0 is an integer
    return isinstance(value, _JSON_TYPES.get(name, ()))


class _Failure(Exception):
    """A failed check on its way out: the message after the path, and the
    path's steps, appended innermost first as the failure unwinds."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail, self.steps = detail, []


def _fail(value, key: str, rule):
    raise _Failure(f"{value!r:.80} fails {key} {rule!r}")


def _refusal(what: str):
    def step(value):
        raise _Failure(f"the report check cannot apply {what}")
    return step


def _type_names(rule) -> list:
    return [rule] if isinstance(rule, str) else rule


def _exact_types(rule) -> frozenset:
    return frozenset(cls for name in _type_names(rule) for cls in _EXACT_TYPES.get(name, ()))


def _type_step(rule):
    names, exact = _type_names(rule), _exact_types(rule)

    def step(value):
        if type(value) not in exact and not any(_has_type(value, name) for name in names):
            _fail(value, "type", rule)
    return step


def _bound_step(key: str, rule):
    holds = _BOUNDS[key]

    def step(value):  # NaN holds no bound
        if isinstance(value, (int, float)) and not holds(value, rule) \
                and not isinstance(value, bool):
            _fail(value, key, rule)
    return step


def _count_step(key: str, rule):
    holds = _COUNTS[key]

    def step(value):
        if isinstance(value, list) and not holds(len(value), rule):
            _fail(value, key, rule)
    return step


def _required_step(rule):
    required = set(rule)

    def step(value):
        if isinstance(value, dict) and not value.keys() >= required:
            _fail(value, "required", rule)
    return step


def _closed_step(node: dict):
    allowed = set(node.get("properties", {}))

    def step(value):
        if isinstance(value, dict) and not value.keys() <= allowed:
            _fail(value, "additionalProperties", False)
    return step


def _enum_step(rule):
    def step(value):
        if value not in rule:
            _fail(value, "enum", rule)
    return step


def _items_step(check):
    def step(value):
        if isinstance(value, list):
            index = 0
            try:
                for index, item in enumerate(value):
                    check(item)
            except _Failure as failure:
                failure.steps.append(f"[{index}]")
                raise
    return step


def _properties_step(checks: tuple):
    def step(value):
        if isinstance(value, dict):
            name = ""
            try:
                for name, check in checks:
                    if name in value:
                        check(value[name])
            except _Failure as failure:
                failure.steps.append(f".{name}")
                raise
    return step


def _ref_step(name: str, defs: dict, refs: frozenset, memo: dict):
    """A step that compiles definition ``name`` the first time a value reaches
    it, once per set of definitions followed on the value before."""
    key = name, refs

    def step(value):
        check = memo.get(key)
        if check is None:
            check = memo[key] = _compile(defs[name], defs, refs | {name}, memo)
        check(value)
    return step


def _compile(node: dict, defs: dict, refs: frozenset, memo: dict):
    """One function that checks a value against ``node``, raising _Failure;
    ``refs`` are the definitions followed on the value, as in check_report."""
    if not isinstance(node, dict):  # a boolean schema, or no schema at all
        return _refusal(f"the schema {node!r}")
    steps = []
    for key, rule in node.items():
        if key == "type":
            steps.append(_type_step(rule))
        elif key in _BOUNDS:
            steps.append(_bound_step(key, rule))
        elif key in _COUNTS:
            steps.append(_count_step(key, rule))
        elif key == "required":
            steps.append(_required_step(rule))
        elif key == "additionalProperties" and rule is False:
            steps.append(_closed_step(node))
        elif key == "enum":
            steps.append(_enum_step(rule))
        elif key == "items":
            steps.append(_items_step(_compile(rule, defs, frozenset(), memo)))
        elif key == "properties":
            steps.append(_properties_step(tuple(
                (name, _compile(sub, defs, frozenset(), memo)) for name, sub in rule.items())))
        elif key == "allOf":
            steps.extend(_compile(sub, defs, refs, memo) for sub in rule)
        elif key == "$ref" and len(node) == 1 and isinstance(rule, str) and \
                rule.startswith("#/$defs/") and \
                rule[8:] in defs and rule[8:] not in refs:  # the name after "#/$defs/"
            steps.append(_ref_step(rule[8:], defs, refs, memo))
        elif key not in ("items", "properties", "$defs", "$schema", "title"):
            steps.append(_refusal(f"{key!r}: {rule!r}"))
    if "type" in node and node.keys() <= {"type", "minimum", "maximum"}:
        return _leaf_check(node, steps)
    if len(steps) == 1:
        return steps[0]

    def check(value):
        for step in steps:
            step(value)
    return check


def _leaf_check(node: dict, steps: list):
    """A node of ``type`` and inclusive bounds: a value of an exact type the
    type admits, within the bounds if a number, passes in one test; any other
    value runs the steps, which fail it or pass it."""
    exact = _exact_types(node["type"])
    numbers, others = exact & {int, float}, exact - {int, float}
    low, high = node.get("minimum", -math.inf), node.get("maximum", math.inf)

    def check(value):
        cls = type(value)
        if not (cls in others or cls in numbers and low <= value <= high):
            for step in steps:
                step(value)
    return check


def check_report(value, node: dict, defs: dict, path: str = "$",
                 refs: frozenset = frozenset()) -> None:
    """Raise ReportError, with the value's JSON path first, unless ``value`` meets
    the schema ``node`` by the Draft 2020-12 meaning of the 14 keywords
    report_schema.json uses; a ``$ref`` names an entry of ``defs``.  So that a
    schema edit cannot silently weaken the check, it refuses any other keyword, a
    boolean schema, an ``additionalProperties`` other than false, and a ``$ref``
    that is not a lone ``#/$defs/<name>`` string of a definition.  ``refs`` holds
    the definitions followed on this value, since the walk last stepped into
    ``items`` or ``properties``; a ``$ref`` back to one of them would loop
    without end, and is refused too.
    NaN fails every bound.

    The schema is first compiled into one function per node, each a sequence
    of steps, one per keyword; a step that refuses a keyword raises only when a
    value reaches it, and a definition is compiled when a value first reaches
    its ``$ref``.  The JSON path is put together only on failure."""
    try:
        _compile(node, defs, refs, {})(value)
    except _Failure as failure:
        raise ReportError(f"{path}{''.join(reversed(failure.steps))}: {failure.detail}") from None


def _json_scalar(value) -> str | None:
    """A str, number, bool or None as ``json.dumps`` writes it, else None."""
    if isinstance(value, float):  # NaN and the infinities as json writes them
        return float.__repr__(value) if math.isfinite(value) else \
            "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _json_key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    text = _json_scalar(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return f'"{text}"'


def _write_json(value, write, newline: str = "\n") -> None:
    """Write ``value`` in pieces to ``write`` exactly as ``json.dumps(value,
    indent=2)`` writes it, which for indent uses json's pure-Python encoder: a
    tuple as a list, and TypeError for what json refuses.  A container is
    written item by item, an array of scalars with one join."""
    scalar = _json_scalar(value)
    if scalar is not None:
        write(scalar)
        return
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        scalars = [*map(_json_scalar, value)]
        if not value:
            write("[]")
        elif None not in scalars:
            write(f"[{inner}{(',' + inner).join(scalars)}{newline}]")
        else:
            separator = "[" + inner
            for item, scalar in zip(value, scalars):
                if scalar is None:
                    write(separator)
                    _write_json(item, write, inner)
                else:
                    write(separator + scalar)
                separator = "," + inner
            write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        separator = "{" + inner
        for key, item in value.items():
            scalar = _json_scalar(item)
            if scalar is None:
                write(f"{separator}{_json_key(key)}: ")
                _write_json(item, write, inner)
            else:
                write(f"{separator}{_json_key(key)}: {scalar}")
            separator = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def analyse(frames: Iterable[Frame]) -> tuple[array, array]:
    """One pass over the frames: each frame's entropy, and as ``correlations[i]``
    the correlation of frame i + 1 against frame i.

    Each frame costs one ``kernels.frame_step`` call, which writes its
    histogram into the next row of a block of histograms and returns its
    correlation with the frame before, whose histogram is the row before; the
    first frame is stepped against itself and that 1.0 dropped.  Each full
    block of ``_ENTROPY_BLOCK`` rows, and the rest at the end, goes to one
    ``kernels.entropy_from_counts`` call.  The frame before stays held as a
    ``Frame``, so two frames are resident at a time.  Frames of two sizes
    raise ``ValueError`` naming both.
    """
    step = kernels.frame_step
    entropies, correlations = array("d"), array("d")
    block = np.empty((_ENTROPY_BLOCK, 256), dtype=np.int64)
    frames = iter(frames)
    prev = next(frames, None)
    if prev is None:
        raise ValueError("cannot analyse an empty frame stream")
    prev_pixels, row = np.ascontiguousarray(prev.pixels), 0
    step(prev_pixels, prev_pixels, block, row, row)
    n = 1
    for frame in frames:
        check_same_size(prev, frame)  # the C side sees only byte lengths
        pixels = np.ascontiguousarray(frame.pixels)
        prev_row, row = row, n % _ENTROPY_BLOCK
        correlations.append(step(pixels, prev_pixels, block, row, prev_row))
        n += 1
        if n % _ENTROPY_BLOCK == 0:
            entropies.extend(kernels.entropy_from_counts(block).tolist())
        prev, prev_pixels = frame, pixels
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
            "shot": _record_dict(shot),
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
    return {**_record_dict(result), "window": config.match_window,
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
            _write_json(report, out.write)
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
        "shots": [_record_dict(s) for s in shots],
        "shot_details": shot_details,
        "candidates": [_candidate_dict(kf) for kf in candidates],
        "keyframes": keyframes,
        "eliminations": [_record_dict(e) for e in eliminations],
        **({} if evaluation is None else {"evaluation": evaluation}),
        "stats": {"raw_shot_count": len(raw_shots), "peak_resident_frames": tracker.peak},
    })
