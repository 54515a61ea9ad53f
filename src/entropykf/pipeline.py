"""The extraction pipeline: one call per stage, in the paper's order.

``kernels.analyse`` makes the one pass over the frames, holding two at a
time, and returns two series: ``entropies[i]`` is frame i's entropy and
``correlations[i]`` frame i + 1 against frame i.  The stages follow:
``detect_cuts``, ``merge_short_shots``, ``close_shot`` per merged shot (the
entropy bins, the gated bin centres, their segment entropies, and in frame
order one ``dedup_detailed`` scan), ``score`` (evaluation against ground
truth), then ``write_report``, which checks the whole report before
``write_keyframes`` changes the output directory; picked frames are fetched
again through the source's ``read_frame``.  Peak resident frame storage stays
constant in the video length, which ``peak_resident_frames`` in the report
verifies.  A ground-truth file is read and checked before the pass; only its
frame count waits for ``score``.  Frame geometry is ``ingest``'s contract.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import math
import operator
import os
import re
import tempfile
import weakref
from array import array
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .evaluation import (DEFAULT_MATCH_WINDOW, EvaluationError, GroundTruth,
                         check_match_window, evaluate, load_ground_truth)
from .extraction import (DEFAULT_MIN_BIN_SIZE, DEFAULT_SD_THRESHOLD, DedupScan, KeyFrame,
                         bin_indexed_keys, dedup_detailed, fallback_pick, select_keyframes)
from .entropy import modified_entropies, segmented_entropies
from .ingest import Frame, SourceKind, SourceSpec, write_pgm
from .ingest import open_source as _open_access  # perfbench wraps this binding
from .kernels import analyse
from .shots import (DEFAULT_CUT_THRESHOLD, DEFAULT_MIN_SHOT_LEN, Shot, detect_cuts,
                    merge_short_shots)

_KEYFRAME_NAME = re.compile(r"keyframe_\d{6,}\.pgm$")
# the values each annotated field type admits, a number only of exactly these types
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
            if not isinstance(value, kinds) or \
                    isinstance(value, (int, float)) and type(value) not in kinds:
                raise ConfigError(f"{field.name} must be of type {field.type}, got {value!r}")
            if field.name in ("min_shot_len", "min_bin_size") and value < 0:
                raise ConfigError(f"{field.name} must be non-negative, got {value}")
        try:  # each stage checks its own setting, here on empty input
            detect_cuts((), self.cut_threshold)
            dedup_detailed((), self.sd_threshold)
            check_match_window(self.match_window)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if (self.source.kind is SourceKind.PGM_DIR
                and Path(self.output_dir).resolve() == Path(self.source.path).resolve()):
            raise ConfigError(f"output directory {self.output_dir} is the input directory, "
                              "where key-frames and report.json would be read as frames")


class _FrameWatermark:
    """High-water mark of simultaneously live Frame objects.

    A frame is held as a weak reference whose callback, the set's ``discard``,
    drops it the moment CPython's refcounting frees the frame, running no
    Python, so the peak reflects real residency; a frame registered twice
    equals its live reference and counts once.
    """

    def __init__(self):
        self._live: set[weakref.ref] = set()
        self.peak = 0

    def register(self, frame: Frame) -> Frame:
        live = self._live
        live.add(weakref.ref(frame, live.discard))
        n = len(live)
        if n > self.peak:
            self.peak = n
        return frame


def _record_dict(record) -> dict:
    """``dataclasses.asdict`` of a flat record (a Shot, an Elimination, an
    EvalReport) without its deep copy, at a tenth of its cost: a dataclass
    instance without slots holds its fields, in order, in its ``__dict__``."""
    return vars(record).copy()


def _candidate_dict(kf: KeyFrame) -> dict:  # a KeyFrame's fields but its segments
    return {name: _record_dict(value) if name == "shot" else value
            for name, value in vars(kf).items() if name != "segments"}


def load_report_schema() -> dict:
    return json.loads(Path(__file__).with_name("report_schema.json").read_text())


class ReportError(ValueError):
    """A report value fails its schema rule, or reaches a keyword the check does
    not apply; a run raises it before the output directory changes."""


# the Python type of each JSON type but number and integer, which exclude bool
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
# the exact types that surely have a JSON type, for the check's fast paths
_EXACT_TYPES = {"number": (int, float), "integer": (int,), **{
    name: (cls,) for name, cls in _JSON_TYPES.items()}}
_BOUNDS = {"minimum": operator.ge, "maximum": operator.le, "exclusiveMinimum": operator.gt}
_COUNTS = {"minItems": operator.ge, "maxItems": operator.le}


def _has_type(value, name: str) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return name == "number" or name == "integer" and value % 1 == 0  # 1.0 is an integer
    return isinstance(value, _JSON_TYPES.get(name, ()))


def _exact_types(rule) -> frozenset:
    return frozenset(cls for name in ([rule] if isinstance(rule, str) else rule)
                     for cls in _EXACT_TYPES.get(name, ()))


class _Failure(Exception):
    """A failed check on its way out: the message after the path, and the
    path's steps, appended innermost first as the failure unwinds."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail, self.steps = detail, []


def _fails(key: str, rule, node: dict):
    """Whether a value fails ``key``, a keyword on the value itself rather than
    on its items or properties; a keyword the check does not apply raises for
    every value that reaches it."""
    if key == "type":
        names, exact = [rule] if isinstance(rule, str) else rule, _exact_types(rule)
        return lambda value: type(value) not in exact and \
            not any(_has_type(value, name) for name in names)
    if key in _BOUNDS:  # NaN holds no bound
        holds = _BOUNDS[key]
        return lambda value: isinstance(value, (int, float)) and not holds(value, rule) \
            and not isinstance(value, bool)
    if key in _COUNTS:
        holds = _COUNTS[key]
        return lambda value: isinstance(value, list) and not holds(len(value), rule)
    if key == "required":
        return lambda value: isinstance(value, dict) and not value.keys() >= set(rule)
    if key == "additionalProperties" and rule is False:
        allowed = set(node.get("properties", ()))
        return lambda value: isinstance(value, dict) and not value.keys() <= allowed
    if key == "enum":
        return lambda value: value not in rule

    def refuse(value):
        raise _Failure(f"the report check cannot apply {key!r}: {rule!r}")
    return refuse


def _compile(node: dict, defs: dict):
    """The walk of a value that the schema ``node``, or the definition its lone
    ``$ref`` names, describes: a function ``emit(value, write, prefix, newline)``
    that checks the value, raising _Failure, and writes ``prefix`` and then the
    value as ``json.dumps(indent=2)`` writes it at the indent ``newline`` ends
    in, or raises json's TypeError at a value that is no list, dict or exact
    scalar; ``emit.check`` checks a scalar alone, or is None.  The value's own
    keywords are tested before the walks, compiled here, of its items and properties."""
    if node.keys() == {"$ref"}:
        return _compile(defs[node["$ref"][8:]], defs)  # after "#/$defs/"
    tests = [(key, rule, _fails(key, rule, node)) for key, rule in node.items()
             if key not in ("items", "properties", "$defs", "$schema", "title")]

    def check(value):
        for key, rule, fails in tests:
            if fails(value):
                raise _Failure(f"{value!r:.80} fails {key} {rule!r}")
    if "type" in node and node.keys() <= {"type", "minimum", "maximum"}:
        # one test passes a value of an exact type the type admits, in bounds
        exact = _exact_types(node["type"])
        numbers, others = exact & {int, float}, exact - {int, float}
        low, high = node.get("minimum", -math.inf), node.get("maximum", math.inf)

        def check(value, full=check):
            cls = type(value)
            if not (cls in others or cls in numbers and low <= value <= high):
                full(value)

    def emit(value, write, prefix, newline):
        if tests:
            check(value)
        inner = newline + "  "
        if isinstance(value, dict):
            if not value:
                write(prefix + "{}")
                return
            separator = prefix + "{" + inner
            try:
                for name, element in value.items():
                    key, member = keyed.get(name) or (encode_basestring_ascii(name) + ": ", _any)
                    text = _SCALAR_TEXT.get(type(element))
                    if text is None:  # a container, or no exact scalar type
                        member(element, write, separator + key, inner)
                    else:
                        if member.check is not None:
                            member.check(element)
                        write(separator + key + text(element))
                    separator = "," + inner
            except _Failure as failure:
                failure.steps.append(f".{name}")
                raise
            write(newline + "}")
        elif isinstance(value, list):
            if not value:
                write(prefix + "[]")
                return
            try:
                if set(map(type, value)) <= _SCALAR_TEXT.keys():  # json's C encoder
                    if item.check is not None:
                        for index, element in enumerate(value):
                            item.check(element)
                    write(f"{prefix}[{inner}{json.dumps(value, separators=(',' + inner, ''))[1:-1]}"
                          f"{newline}]")
                    return
                separator = prefix + "[" + inner
                for index, element in enumerate(value):
                    item(element, write, separator, inner)
                    separator = "," + inner
            except _Failure as failure:
                failure.steps.append(f"[{index}]")
                raise
            write(newline + "]")
        elif type(value) in _SCALAR_TEXT:
            write(prefix + _SCALAR_TEXT[type(value)](value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    # items no schema describes take _any's walk, which is this one while _any is made
    item = _compile(node["items"], defs) if "items" in node else _any if node else emit
    keyed = {name: (encode_basestring_ascii(name) + ": ", _compile(sub, defs))
             for name, sub in node.get("properties", {}).items()}
    emit.check = check if tests else None
    return emit


def _float_text(value: float) -> str:  # NaN and the infinities as json writes them
    return float.__repr__(value) if math.isfinite(value) else \
        "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# json.dumps's text of a value of each exact scalar type
_SCALAR_TEXT = {int: int.__repr__, float: _float_text, str: encode_basestring_ascii,
                bool: lambda value: "true" if value else "false", type(None): lambda value: "null"}


_any = _compile({}, {})  # the walk of a value no schema describes: json.dumps alone


def check_report(value, node: dict, defs: dict, write=lambda text: None) -> None:
    """Raise ReportError, with the value's JSON path first, unless ``value`` meets
    the schema ``node`` by the Draft 2020-12 meaning of the 13 keywords
    report_schema.json uses, every object of which is closed; a lone ``$ref``
    names an entry of ``defs``.  Any other keyword, a ``$ref`` beside another
    and an ``additionalProperties`` other than false fail every value that
    reaches them, so a schema edit cannot silently weaken the check.  NaN fails
    every bound.  The schema is compiled whole before the walk, which writes
    the value to ``write`` as ``json.dumps(indent=2)`` does.  A test holds the
    schema to the forms it reads: dict subschemas, local ``$ref``s, no cycle."""
    try:
        _compile(node, defs)(value, write, "", "\n")
    except _Failure as failure:
        raise ReportError(f"${''.join(reversed(failure.steps))}: {failure.detail}") from None


def close_shot(shot: Shot, keys: list[int], entropies: array, source, config: PipelineConfig,
               tracker: _FrameWatermark, scan: DedupScan) -> dict:
    """Bin a merged shot, pick its gated bin centres or the fallback, and continue
    the dedup scan with their key frames in frame order; returns its shot_details entry."""
    bins = bin_indexed_keys(zip(range(shot.start, shot.end), keys[shot.start:shot.end]))
    picks = select_keyframes(bins, config.min_bin_size)
    used_fallback = not picks and config.fallback_keyframe
    if used_fallback:
        picks = [fallback_pick(bins)]
    picks.sort(key=operator.itemgetter(1))
    dedup_detailed([KeyFrame(frame_index=index, shot=shot, bin_key=b.key,
                             global_entropy=entropies[index], fallback=used_fallback,
                             segments=segmented_entropies(
                                 tracker.register(source.read_frame(index))))
                    for b, index in picks], config.sd_threshold, scan)
    chosen = {id(b): index for b, index in picks}
    return {"shot": _record_dict(shot),
            "bins": [{"key": b.key, "size": len(b.members), "selected": chosen.get(id(b))}
                     for b in bins]}


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


@contextlib.contextmanager
def _writing(out_dir: Path):
    """Raise an ``OSError`` of the block, a write into out_dir, as ``ConfigError``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {out_dir}: {exc}") from exc


def write_keyframes(keyframes: list[dict], source, out_dir: Path) -> None:
    """The PGM each report entry names, replacing stale ones and the report that
    named them; one frame at a time, within the peak the report states."""
    for old in out_dir.iterdir():
        if _KEYFRAME_NAME.fullmatch(old.name) or old.name == "report.json":
            old.unlink()
    for entry in keyframes:
        pixels = source.read_frame(entry["frame_index"]).pixels  # its own errors
        with _writing(out_dir):
            write_pgm(out_dir / entry["image"], pixels)


def write_report(config: PipelineConfig, out_dir: Path, results: dict,
                 before_rename=lambda: None) -> dict:
    """Prefix the run's results with the config and write report.json through
    ``check_report`` into a temporary file of a fresh name; once the whole
    report has passed, ``before_rename`` runs and the file is renamed into place."""
    report = {}
    if not config.seed_report:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report["config"] = {**asdict(config), "output_dir": os.fspath(config.output_dir),
                        "ground_truth": config.ground_truth and os.fspath(config.ground_truth)}
    del report["config"]["seed_report"]
    report["config"]["source"]["kind"] = config.source.kind.value  # the walk writes no enum
    report.update(results)
    schema = load_report_schema()
    partial = out_dir / f".report.json.{os.urandom(8).hex()}.tmp"
    with _writing(out_dir):  # open()'s mode, as the images take
        out = open(partial, "x")
    try:
        with _writing(out_dir), out:
            # streamed: a string of the whole report would add about six times
            # its size to the peak memory of a run
            check_report(report, schema, schema["$defs"], out.write)
            out.write("\n")
        before_rename()
        with _writing(out_dir):
            os.replace(partial, out_dir / "report.json")
    finally:
        partial.unlink(missing_ok=True)
    return report


def _writable_dir(path: Path) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=out_dir).close()  # on Linux, a file with no name
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
        keys, scan = modified_entropies(entropies), DedupScan()
        shot_details = [close_shot(shot, keys, entropies, source, config, tracker, scan)
                        for shot in shots]
        evaluation = score(scan.survivors, len(entropies), gt, config)
        keyframes = [{**_candidate_dict(kf), "image": f"keyframe_{kf.frame_index:06d}.pgm",
                      "segments": kf.segments.tolist()} for kf in scan.survivors]
        # the whole report passes its check before out_dir loses a file
        return write_report(config, out_dir, {
            "total_frames": len(entropies),
            "shots": [_record_dict(s) for s in shots],
            "shot_details": shot_details,
            "candidates": [_candidate_dict(kf) for kf in scan.candidates],
            "keyframes": keyframes,
            "eliminations": [_record_dict(e) for e in scan.eliminations],
            **({} if evaluation is None else {"evaluation": evaluation}),
            "stats": {"raw_shot_count": len(raw_shots), "peak_resident_frames": tracker.peak},
        }, lambda: write_keyframes(keyframes, source, out_dir))
    finally:
        source.close()
