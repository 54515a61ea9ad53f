import copy
import dataclasses
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropykf
from conftest import check_report_oracle, dedup_oracle, make_y4m, segmented_oracle
from entropykf import kernels, pipeline, synthetic
from entropykf.cli import build_parser
from entropykf.evaluation import EvaluationError
from entropykf.ingest import IngestError, SourceKind, SourceSpec, write_pgm
from entropykf.pipeline import (ConfigError, PipelineConfig, ReportError,
                                load_report_schema, run_pipeline, write_report)


def _config(src_dir, out_dir, **kwargs):
    spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(src_dir))
    return PipelineConfig(source=spec, output_dir=out_dir, **kwargs)


def _write_run(tmp_path, texture, count):
    src = tmp_path / "frames"
    src.mkdir(exist_ok=True)
    for i in range(count):
        write_pgm(src / f"frame_{i:06d}.pgm", texture)
    return src


class TestSyntheticLayout:
    def test_plan_arithmetic(self):
        layout = synthetic.plan_layout(scenes=3, frames_per_scene=60, width=64,
                                       height=48, seed=1, fade_frames=4)
        assert layout.total_frames == 4 * 60 + 3 * 4
        assert layout.segments == ((0, 0, 60), (1, 64, 124), (2, 128, 188), (0, 192, 252))
        assert layout.fades == ((60, 64), (124, 128), (188, 192))
        assert layout.expected_shots == ((0, 60), (60, 124), (124, 188), (188, 252))
        assert layout.gt_indices == (30, 94, 158)

    def test_no_repeat_no_fade(self):
        layout = synthetic.plan_layout(scenes=2, frames_per_scene=30, width=64,
                                       height=48, seed=1, fade_frames=0,
                                       repeat_first=False)
        assert layout.total_frames == 60
        assert layout.fades == ()
        assert layout.expected_shots == ((0, 30), (30, 60))

    def test_textures_are_deterministic_and_distinct(self):
        a = synthetic.make_textures(np.random.default_rng(5), 3, 64, 48)
        b = synthetic.make_textures(np.random.default_rng(5), 3, 64, 48)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta, tb)
        from entropykf.entropy import dissimilarity, segmented_entropies
        profiles = [segmented_entropies(t) for t in a]
        for i in range(3):
            for j in range(i + 1, 3):
                assert dissimilarity(profiles[i], profiles[j]) > 0.5

    def test_generate_writes_frames_and_gt(self, tmp_path):
        # the ground truth's directory may be one that making the frame directory makes
        new = tmp_path / "new"
        layout = synthetic.generate(new / "v", new / "gt.txt",
                                    scenes=2, frames_per_scene=12, width=32,
                                    height=24, seed=3, fade_frames=2)
        files = sorted((new / "v").iterdir())
        assert len(files) == layout.total_frames == 3 * 12 + 2 * 2
        from entropykf.evaluation import load_ground_truth
        gt = load_ground_truth(new / "gt.txt")
        assert gt.total_frames == layout.total_frames
        assert gt.keyframe_indices == layout.gt_indices

    def test_generate_is_reproducible(self, tmp_path):
        kwargs = dict(scenes=2, frames_per_scene=8, width=32, height=24,
                      seed=11, fade_frames=2)
        synthetic.generate(tmp_path / "a", None, **kwargs)
        synthetic.generate(tmp_path / "b", None, **kwargs)
        for pa, pb in zip(sorted((tmp_path / "a").iterdir()),
                          sorted((tmp_path / "b").iterdir())):
            assert pa.read_bytes() == pb.read_bytes()

    def test_generate_refuses_a_file_or_a_directory_holding_files(self, tmp_path):
        # every file in the directory is read as a frame, so stale frames of
        # an earlier, longer video would lengthen this one
        kwargs = dict(scenes=1, frames_per_scene=6, width=16, height=16, seed=1,
                      fade_frames=0, repeat_first=False)
        (tmp_path / "empty" / "subdir").mkdir(parents=True)
        synthetic.generate(tmp_path / "empty", None, **kwargs)
        synthetic.generate(tmp_path / "v", None, **{**kwargs, "frames_per_scene": 9})
        before = {p.name: p.read_bytes() for p in (tmp_path / "v").iterdir()}
        (tmp_path / "file").write_bytes(b"")
        for out_dir in (tmp_path / "v", tmp_path / "file"):
            with pytest.raises(ValueError, match="already holds files"):
                synthetic.generate(out_dir, tmp_path / "gt.txt", **kwargs)
        assert {p.name: p.read_bytes() for p in (tmp_path / "v").iterdir()} == before
        assert not (tmp_path / "gt.txt").exists()

    def test_generate_refuses_ground_truth_inside_the_frame_directory(self, tmp_path):
        with pytest.raises(ValueError, match="would be a frame file"):
            synthetic.generate(tmp_path / "v", tmp_path / "v" / ".." / "v" / "gt.txt",
                               scenes=1, frames_per_scene=6, width=16, height=16)
        assert not (tmp_path / "v").exists()


@pytest.fixture(scope="module")
def small_video(tmp_path_factory):
    """252-frame synthetic sequence: 3 scenes + repeat, 4-frame fades."""
    root = tmp_path_factory.mktemp("video")
    layout = synthetic.generate(root / "frames", root / "gt.txt", scenes=3,
                                frames_per_scene=60, width=64, height=48,
                                seed=7, fade_frames=4)
    return root, layout


class TestRunPipeline:
    def test_single_static_scene(self, tmp_path):
        texture = synthetic.make_textures(np.random.default_rng(2), 1, 64, 48)[0]
        src = _write_run(tmp_path, texture, 100)
        report = run_pipeline(_config(src, tmp_path / "out"))
        assert report["shots"] == [{"start": 0, "end": 100}]
        assert report["shot_details"][0]["bins"] == [
            {"key": report["candidates"][0]["bin_key"], "size": 100, "selected": 50}]
        assert [k["frame_index"] for k in report["keyframes"]] == [50]
        assert report["eliminations"] == []
        assert (tmp_path / "out" / "keyframe_000050.pgm").exists()
        assert "evaluation" not in report
        assert report["config"]["ground_truth"] is None

    def test_config_block_is_the_config_fields_in_order(self, small_video, tmp_path):
        root, _ = small_video
        report = run_pipeline(_config(root / "frames", tmp_path / "out",
                                      ground_truth=root / "gt.txt", seed_report=True))
        names = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert list(report["config"]) == [name for name in names if name != "seed_report"]
        assert report["config"]["output_dir"] == str(tmp_path / "out")
        assert report["config"]["ground_truth"] == str(root / "gt.txt")
        written = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        assert written == report["config"]

    def test_multi_scene_with_dedup_and_eval(self, small_video, tmp_path):
        root, layout = small_video
        config = _config(root / "frames", tmp_path / "out",
                         ground_truth=root / "gt.txt")
        report = run_pipeline(config)
        assert [(s["start"], s["end"]) for s in report["shots"]] == \
            list(layout.expected_shots)
        assert [k["frame_index"] for k in report["keyframes"]] == list(layout.gt_indices)
        assert len(report["eliminations"]) == 1
        elim = report["eliminations"][0]
        assert elim["sd"] == 0.0
        assert elim["kept"] == layout.gt_indices[0]
        ev = report["evaluation"]
        assert ev["matched"] == 3 and ev["missing"] == 0 and ev["redundant"] == 0
        assert ev["deviation"] == 0.0

    def test_keyframe_images_match_report_exactly(self, small_video, tmp_path):
        root, _ = small_video
        out = tmp_path / "out"
        out.mkdir()
        (out / "keyframe_999999.pgm").write_bytes(b"stale")
        (out / "keyframe_1000000.pgm").write_bytes(b"stale")
        report = run_pipeline(_config(root / "frames", out))
        on_disk = {p.name for p in out.glob("keyframe_*.pgm")}
        assert on_disk == {k["image"] for k in report["keyframes"]}

    def test_deterministic_reports(self, small_video, tmp_path):
        root, _ = small_video
        out = tmp_path / "out"
        reports = []
        for _ in range(2):
            run_pipeline(_config(root / "frames", out, seed_report=True))
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_timestamp_present_unless_seed_report(self, small_video, tmp_path):
        root, _ = small_video
        with_ts = run_pipeline(_config(root / "frames", tmp_path / "t1"))
        without = run_pipeline(_config(root / "frames", tmp_path / "t2",
                                       seed_report=True))
        assert "generated_at" in with_ts
        assert "generated_at" not in without

    def test_memory_stays_constant_in_video_length(self, small_video, tmp_path):
        root, layout = small_video
        report = run_pipeline(_config(root / "frames", tmp_path / "out"))
        peak = report["stats"]["peak_resident_frames"]
        largest_shot = max(e - s for s, e in layout.expected_shots)
        assert peak == 2  # the two frames under correlation
        assert peak < largest_shot

    def test_fallback_keyframe_flag(self, tmp_path):
        textures = synthetic.make_textures(np.random.default_rng(9), 2, 64, 48)
        src = tmp_path / "frames"
        src.mkdir()
        for i in range(15):
            write_pgm(src / f"a_{i:03d}.pgm", textures[0])
        for i in range(15):
            write_pgm(src / f"b_{i:03d}.pgm", textures[1])
        base = dict(min_shot_len=5)
        report = run_pipeline(_config(src, tmp_path / "none", **base))
        assert report["keyframes"] == []
        report = run_pipeline(_config(src, tmp_path / "fb", fallback_keyframe=True, **base))
        assert [k["frame_index"] for k in report["keyframes"]] == [7, 22]
        assert all(k["fallback"] for k in report["keyframes"])

    def test_report_validates_against_shipped_schema(self, small_video, tmp_path):
        root, _ = small_video
        report = run_pipeline(_config(root / "frames", tmp_path / "out"))
        schema = load_report_schema()
        jsonschema.validate(report, schema)
        broken = dict(report)
        del broken["shots"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, schema)

    def test_missing_source_is_ingest_error(self, tmp_path):
        with pytest.raises(IngestError):
            run_pipeline(_config(tmp_path / "nope", tmp_path / "out"))

    def test_empty_ground_truth_is_evaluation_error(self, small_video, tmp_path):
        root, _ = small_video
        gt = tmp_path / "empty_gt.txt"
        gt.write_text("total_frames=252\n# no picks\n")
        with pytest.raises(EvaluationError, match="no key-frames"):
            run_pipeline(_config(root / "frames", tmp_path / "out", ground_truth=gt))

    def test_ground_truth_for_another_video_is_evaluation_error(self, small_video, tmp_path):
        root, _ = small_video
        gt = tmp_path / "short_gt.txt"
        gt.write_text("total_frames=10\n5\n")
        with pytest.raises(EvaluationError, match="10 frames.*252"):
            run_pipeline(_config(root / "frames", tmp_path / "out", ground_truth=gt))

    def test_ground_truth_is_checked_before_the_pass(self, tmp_path):
        # the truncated video would be an IngestError, had any frame been read
        video = tmp_path / "video.raw"
        video.write_bytes(bytes(100))
        gt = tmp_path / "gt.txt"
        gt.write_text("total_frames=abc\n5\n")
        with pytest.raises(EvaluationError, match="gt.txt"):
            run_pipeline(PipelineConfig(
                source=SourceSpec(kind=SourceKind.RAW, path=str(video), width=8, height=8),
                output_dir=tmp_path / "out", ground_truth=gt))
        assert not (tmp_path / "out" / "report.json").exists()

    def test_every_stream_format_gives_the_same_result(self, tmp_path, monkeypatch):
        textures = synthetic.make_textures(np.random.default_rng(31), 2, 32, 16)
        planes = [textures[t] for t in (0, 1, 0) for _ in range(25)]
        raw = b"".join(px.tobytes() for px in planes)
        y4m = make_y4m(32, 16, planes)
        (tmp_path / "video.raw").write_bytes(raw)
        (tmp_path / "video.y4m").write_bytes(y4m)
        cases = [("raw", str(tmp_path / "video.raw"), None),
                 ("raw", "-", raw),
                 ("y4m", str(tmp_path / "video.y4m"), None),
                 ("y4m", "-", y4m)]
        results = []
        for i, (kind, path, stdin) in enumerate(cases):
            if stdin is not None:
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
            size = dict(width=32, height=16) if kind == "raw" else {}
            report = run_pipeline(PipelineConfig(
                source=SourceSpec(kind=kind, path=path, **size),
                output_dir=tmp_path / f"out{i}"))
            results.append({k: report[k] for k in
                            ("shots", "candidates", "keyframes", "eliminations")})
        assert [(s["start"], s["end"]) for s in results[0]["shots"]] == \
            [(0, 25), (25, 50), (50, 75)]
        assert len(results[0]["keyframes"]) == 2
        assert len(results[0]["eliminations"]) == 1
        assert all(r == results[0] for r in results[1:])

    def test_one_kernel_call_per_frame_pair_and_candidate(self, tmp_path, monkeypatch):
        # counters rebind the module attributes, as the benchmark's tracer does,
        # so they also check that every caller looks the kernels up at call time
        textures = synthetic.make_textures(np.random.default_rng(41), 3, 32, 16)
        planes = [textures[t] for t in (0, 1, 2, 0) for _ in range(12)]
        (tmp_path / "video.raw").write_bytes(b"".join(px.tobytes() for px in planes))
        calls = {name: 0 for name in ("frame_step", "histogram256", "pearson_sums",
                                      "segment_histograms")}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
        # 12-frame shots miss the bin gate, so the fallback gives each shot a candidate
        report = run_pipeline(PipelineConfig(
            source=SourceSpec(kind="raw", path=str(tmp_path / "video.raw"), width=32, height=16),
            output_dir=tmp_path / "out", fallback_keyframe=True))
        total = report["total_frames"]
        assert total == len(planes)
        assert len(report["shots"]) == 4
        assert len(report["candidates"]) == 4
        # one crossing per frame gives its histogram and its correlation with
        # the frame before; the three-step kernels stay off the pass
        assert calls == {"frame_step": total, "histogram256": 0, "pearson_sums": 0,
                         "segment_histograms": len(report["candidates"])}

    def test_bad_threshold_is_config_error(self, small_video, tmp_path):
        root, _ = small_video
        with pytest.raises(ConfigError):
            run_pipeline(_config(root / "frames", tmp_path / "out", cut_threshold=0.0))

    @pytest.mark.parametrize("sd_threshold", [float("nan"), float("inf")])
    def test_non_finite_sd_threshold_is_config_error(self, small_video, tmp_path, sd_threshold):
        root, _ = small_video
        with pytest.raises(ConfigError, match="finite"):
            run_pipeline(_config(root / "frames", tmp_path / "out", sd_threshold=sd_threshold))

    def test_tiny_frames_rejected(self, tmp_path):
        src = tmp_path / "frames"
        src.mkdir()
        write_pgm(src / "f.pgm", np.zeros((4, 4), dtype=np.uint8))
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(src))
        with pytest.raises(IngestError, match="8x8"):
            run_pipeline(PipelineConfig(source=spec, output_dir=tmp_path / "out"))

    def test_inconsistent_frame_sizes_rejected(self, tmp_path):
        src = tmp_path / "frames"
        src.mkdir()
        write_pgm(src / "a.pgm", np.zeros((16, 16), dtype=np.uint8))
        write_pgm(src / "b.pgm", np.zeros((16, 24), dtype=np.uint8))
        with pytest.raises(IngestError, match="expected 16x16"):
            run_pipeline(_config(src, tmp_path / "out"))

    # a value of a wrong type can pass the range checks and fail only after the
    # pass has written key-frame images, or fail them with a TypeError
    @pytest.mark.parametrize("field, value", [
        ("min_shot_len", 10.0), ("min_bin_size", 2.5), ("min_bin_size", True),
        ("match_window", "5"), ("match_window", np.int64(5)), ("cut_threshold", True),
        ("cut_threshold", "0.9"), ("sd_threshold", None), ("fallback_keyframe", 1),
        ("width", 16.0), ("height", np.int64(16)), ("source", "frames"), ("output_dir", 5),
        ("ground_truth", 7)])
    def test_wrong_type_is_refused_before_any_output(self, field, value, tmp_path):
        textures = synthetic.make_textures(np.random.default_rng(7), 2, 16, 16)
        video = tmp_path / "video.raw"
        video.write_bytes(b"".join(t.tobytes() * 30 for t in textures))
        out = tmp_path / "out"
        sides = {"width": 16, "height": 16}
        if field in sides:
            with pytest.raises(IngestError, match="is not two integers"):
                SourceSpec(kind="raw", path=str(video), **{**sides, field: value})
        else:
            spec = SourceSpec(kind="raw", path=str(video), **sides)
            with pytest.raises(ConfigError, match=f"^{field} must be of type "):
                run_pipeline(PipelineConfig(**{"source": spec, "output_dir": out, field: value}))
        assert list(out.glob("*")) == []


def _recurring_raw(path: Path, width: int = 64, height: int = 48) -> SourceSpec:
    """30 scenes of 24 frames from 10 textures, each texture at least once,
    with 2 noise frames between scenes, as one raw file."""
    rng = np.random.default_rng(3)
    textures = synthetic.make_textures(rng, 10, width, height)
    order = [*range(10), *(int(t) for t in rng.integers(0, 10, 20))]
    rng.shuffle(order)
    with open(path, "wb") as out:
        for i, texture in enumerate(order):
            if i:
                out.write(rng.integers(0, 256, (2, height, width), dtype=np.uint8).tobytes())
            out.write(textures[texture].tobytes() * 24)
    return SourceSpec(kind=SourceKind.RAW, path=str(path), width=width, height=height)


class TestReportExactness:
    def test_report_bytes_equal_the_scalar_oracles(self, tmp_path, monkeypatch):
        # a performance change to the candidate stage must leave every byte as it was
        config = PipelineConfig(source=_recurring_raw(tmp_path / "video.raw"),
                                output_dir=tmp_path / "out", seed_report=True)
        report = run_pipeline(config)
        assert len(report["candidates"]) >= 20 and len(report["eliminations"]) >= 10
        shipped = (tmp_path / "out" / "report.json").read_bytes()
        assert shipped == (json.dumps(report, indent=2) + "\n").encode()
        monkeypatch.setattr(pipeline, "segmented_entropies",
                            lambda frame: segmented_oracle(frame.pixels))
        monkeypatch.setattr(pipeline, "dedup_detailed", dedup_oracle)
        run_pipeline(config)
        assert (tmp_path / "out" / "report.json").read_bytes() == shipped

    def test_no_negative_zero_in_the_report(self, tmp_path):
        report = run_pipeline(PipelineConfig(source=_recurring_raw(tmp_path / "video.raw"),
                                             output_dir=tmp_path / "out", seed_report=True))
        values = [v for kf in report["keyframes"] for v in (kf["global_entropy"], *kf["segments"])]
        assert 0.0 in values
        assert all(math.copysign(1.0, v) == 1.0 for v in values)


class TestReportValidator:
    def test_shipped_schema_passes_its_meta_schema(self):
        schema = load_report_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_invalid_report_raises_and_writes_nothing(self, small_video, tmp_path):
        root, _ = small_video
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ReportError, match=r"^\$: "):
            write_report(_config(root / "frames", out), out, {"total_frames": -1})
        assert not (out / "report.json").exists()

    def test_failed_write_leaves_no_report(self, small_video, tmp_path, monkeypatch):
        root, layout = small_video
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("{}\n")  # an earlier run's

        def write_then_fail(value, write, newline="\n"):
            write('{\n  "config": {')
            raise OSError("no space left on device")

        monkeypatch.setattr(pipeline, "_write_json", write_then_fail)
        with pytest.raises(OSError, match="no space"):
            run_pipeline(_config(root / "frames", out))
        # the new images, and neither the old report nor a part of the new one
        assert {p.name for p in out.iterdir()} == \
            {f"keyframe_{i:06d}.pgm" for i in layout.gt_indices}

    def test_runtime_check_rejects_what_the_schema_rejects(self, small_video, tmp_path):
        # one mutation per rule the shipped schema states, so a rule added later
        # is covered too; the runtime check must agree with the full validator
        root, _ = small_video
        config = _config(root / "frames", tmp_path / "run", ground_truth=root / "gt.txt")
        report = run_pipeline(config)
        schema = load_report_schema()
        cases = list(_rule_violations(schema, schema, report))
        assert len(cases) > 100

        def nest(doc):  # each segment number wrapped in a list
            for kf in doc["keyframes"]:
                kf["segments"] = [[v] for v in kf["segments"]]
        cases.append(("keyframes.*.segments", "items nested", nest))
        for rule in ("minimum", "maximum", "minItems", "maxItems"):
            assert any(where.startswith("keyframes.0.segments") and kw == rule
                       for where, kw, _ in cases)
        write_config = dataclasses.replace(config, seed_report=True)  # adds only "config"
        out = tmp_path / "out"
        out.mkdir()
        disagree = []
        for where, rule, mutate in cases:
            mutated = copy.deepcopy(report)
            mutate(mutated)
            if _full_check_rejects({"config": report["config"], **mutated}) != \
                    _runtime_check_rejects(write_config, out, mutated):
                disagree.append(f"{where}: {rule}")
        assert disagree == []

    def test_random_mutations_agree_with_a_plain_validator(self, tmp_path):
        # seeded single-leaf mutations of a report with an evaluation, a fallback
        # pick and an elimination: a value replaced, a key or item deleted, or a
        # key added.  The check is stricter in one way, pinned here: it refuses
        # NaN, which the plain validator's bounds let through.
        report = _fallback_report(tmp_path)
        schema = load_report_schema()
        verdicts = {}
        for edit, path, value, mutated in _random_mutations(report):
            try:
                pipeline.check_report(mutated, schema, schema["$defs"])
                rejected = False
            except ReportError:
                rejected = True
            if edit == "value" and value != value:  # NaN
                assert rejected, path
            else:
                assert rejected == _full_check_rejects(mutated), (path, edit)
            verdicts[edit, rejected] = verdicts.get((edit, rejected), 0) + 1
        assert all(verdicts.get((edit, rejected)) for edit in ("value", "delete", "add")
                   for rejected in (False, True)), verdicts

    def test_compiled_check_agrees_with_the_recursive_oracle(self, small_video, tmp_path):
        # in verdict and in message, on every per-rule mutation of a report
        # with an evaluation block and on the 600 random ones, and on the
        # refused and recursive $refs
        root, _ = small_video
        report = run_pipeline(_config(root / "frames", tmp_path / "run",
                                      ground_truth=root / "gt.txt"))
        schema = load_report_schema()
        cases = [(schema, report)]
        for _, _, mutate in _rule_violations(schema, schema, report):
            mutated = copy.deepcopy(report)
            mutate(mutated)
            cases.append((schema, mutated))
        cases += [(schema, mutated)
                  for *_, mutated in _random_mutations(_fallback_report(tmp_path))]
        defs = {"leaf": {"type": "integer"}, "loop": {"$ref": "#/$defs/loop"},
                "nest": {"items": {"$ref": "#/$defs/nest"}},
                "all": {"allOf": [{"$ref": "#/$defs/all"}]}}
        for name in defs:
            node = {"$defs": defs, "items": {"$ref": f"#/$defs/{name}"}}
            cases += [(node, [[[]], 1]), (node, [[[1], ["2"]]]), (node, ["1"])]
        # schemas outside the dict form: boolean subschemas and a $ref that is no string
        for node in ({"items": True}, {"items": {"$ref": 5}}, {"properties": {"x": False}},
                     {"items": {"$ref": "#/$defs/yes"}}, {"allOf": [True]}):
            node = {"$defs": {"yes": True}, **node}
            cases += [(node, []), (node, [1]), (node, {"x": 1}), (node, 1)]
        messages = set()
        for node, value in cases:
            verdicts = []
            for check in (pipeline.check_report, check_report_oracle):
                try:
                    check(value, node, node["$defs"])
                    verdicts.append(None)
                except ReportError as exc:
                    verdicts.append(str(exc))
            assert verdicts[0] == verdicts[1]
            messages.add(verdicts[0])
        assert len(messages) > 100

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_segments_are_rejected(self, small_video, tmp_path, value):
        # stricter than the schema for NaN, which passes jsonschema's minimum
        # and maximum and would be written as the non-JSON token NaN; the last
        # key-frame's last segment shows that the check sees every number, and
        # NaN fails every bound, not only a segment's
        root, _ = small_video
        config = _config(root / "frames", tmp_path / "out", seed_report=True)
        report = run_pipeline(config)
        (tmp_path / "out" / "report.json").unlink()
        last = len(report["keyframes"]) - 1
        assert last > 1 and report["eliminations"]
        for path in [("keyframes", 1, "segments", 5), ("keyframes", last, "segments", 63),
                     ("candidates", 0, "global_entropy"), ("eliminations", 0, "sd")]:
            mutated = copy.deepcopy(report)
            _at(mutated, path[:-1])[path[-1]] = value
            valid = path[-1] == "sd" and value == math.inf  # sd has no maximum
            assert _full_check_rejects(mutated) == (not valid and not math.isnan(value))
            if valid:
                continue
            where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
            with pytest.raises(ReportError) as raised:
                write_report(config, tmp_path / "out", mutated)
            assert str(raised.value).startswith(f"{where}: ")
            assert not (tmp_path / "out" / "report.json").exists()

    def test_keyword_the_check_cannot_apply_is_refused(self, small_video, tmp_path,
                                                       monkeypatch):
        root, _ = small_video
        config = _config(root / "frames", tmp_path / "out", seed_report=True)
        report = run_pipeline(config)
        (tmp_path / "out" / "report.json").unlink()
        schema = load_report_schema()
        schema["properties"]["keyframes"]["items"]["properties"]["segments"]["items"][
            "multipleOf"] = 0.5
        monkeypatch.setattr(pipeline, "load_report_schema", lambda: schema)
        with pytest.raises(ReportError, match=r"^\$\.keyframes\[0\]\.segments\[0\]: .*multipleOf"):
            write_report(config, tmp_path / "out", report)
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("ref", [
        {"$ref": "other.json#/$defs/leaf"},          # not local
        {"$ref": "#/$defs/missing"},                 # names no definition
        {"$ref": "#/$defs/leaf", "type": "object"},  # sibling keyword
        {"$ref": "#/$defs/loop"},                    # cyclic
        {"$ref": "#/$defs/all"},                     # cyclic through allOf
        {"$ref": "#/$defs/pair"},                    # cyclic through a second definition
    ])
    def test_refs_that_cannot_be_inlined_are_refused(self, ref):
        # a ref cycle that passes through items ends with the instance; one that
        # stays on the same value would never end
        defs = {"leaf": {"type": "integer"}, "loop": {"$ref": "#/$defs/loop"},
                "nest": {"items": {"$ref": "#/$defs/nest"}},
                "all": {"allOf": [{"$ref": "#/$defs/all"}]},
                "pair": {"allOf": [{"$ref": "#/$defs/chain"}]}, "chain": {"$ref": "#/$defs/pair"},
                "to_leaf": {"$ref": "#/$defs/leaf"}}
        pipeline.check_report([[[]], 1], {"items": {"$ref": "#/$defs/nest"}}, defs)
        pipeline.check_report({"x": 1, "y": [2]}, {"properties": {
            "x": {"allOf": [{"$ref": "#/$defs/leaf"}, {"$ref": "#/$defs/leaf"}]},
            "y": {"items": {"$ref": "#/$defs/to_leaf"}}}}, defs)
        with pytest.raises(ReportError, match=r"^\$: '1' fails type 'integer'"):
            pipeline.check_report("1", {"$ref": "#/$defs/leaf"}, defs)
        with pytest.raises(ReportError, match=r"^\$\.y\[0\]: '2' fails type 'integer'"):
            pipeline.check_report({"y": ["2"]}, {"properties": {
                "y": {"items": {"$ref": "#/$defs/to_leaf"}}}}, defs)
        with pytest.raises(ReportError, match=r"^\$\.x: the report check cannot apply '\$ref'"):
            pipeline.check_report({"x": 1}, {"properties": {"x": ref}}, defs)

    @pytest.mark.parametrize("value,node,message", [
        ([1], {"items": True}, r"^\$\[0\]: the report check cannot apply the schema True$"),
        ({"x": 1}, {"properties": {"x": False}},
         r"^\$\.x: the report check cannot apply the schema False$"),
        (1, {"$ref": 5}, r"^\$: the report check cannot apply '\$ref': 5$"),
    ], ids=["items-true", "property-false", "ref-not-a-string"])
    def test_schemas_outside_the_dict_form_are_refused(self, value, node, message):
        # valid Draft 2020-12, but outside the forms of the 14 keywords the
        # check applies; a value that never reaches the subschema passes
        with pytest.raises(ReportError, match=message):
            pipeline.check_report(value, node, {})
        if "items" in node:
            pipeline.check_report([], node, {})

    def test_extract_runs_with_jsonschema_unimportable(self, small_video, tmp_path):
        root, _ = small_video
        code = ("import sys\n"
                "sys.modules['jsonschema'] = None  # any import of it raises ImportError\n"
                "from entropykf import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        done = subprocess.run(
            [sys.executable, "-c", code, "extract", "--input", str(root / "frames"),
             "--format", "pgm-dir", "--out", str(tmp_path / "out"),
             "--gt", str(root / "gt.txt"), "--fallback-keyframe"],
            env=_src_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads((tmp_path / "out" / "report.json").read_text())["evaluation"]


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2 ** 64, -2 ** 100, 10 ** 300, *SourceKind]),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e300, math.nan, math.inf, -math.inf]),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e300, math.nan, math.inf, -math.inf]).map(np.float64),
    st.text(), st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aé\u2028\U0001f600')))
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
                       st.sampled_from(list(SourceKind)))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_JSON_KEYS, children, max_size=4)), max_leaves=24)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_writer_writes_what_json_dumps_writes(self, value):
        out = io.StringIO()
        pipeline._write_json(value, out.write)
        assert out.getvalue() == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [np.int64(1), Path("report.json"), [1, {"a": [np.int64(2)]}],
                                       {"a": 1, (1, 2): 2}, {"a": {Path("x"): 1}}])
    def test_writer_refuses_what_json_refuses(self, value):
        with pytest.raises(TypeError) as refused:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError, match=f"^{re.escape(str(refused.value))}$"):
            pipeline._write_json(value, io.StringIO().write)

    def test_report_is_streamed_to_its_file(self, tmp_path):
        # a writer that joined the whole report into one string before writing
        # it would peak at more than the file's size; the key-frames are
        # repeated so that the report, about 500 KB like the benchmark's
        # recurring-raw one, outweighs the check's fixed 0.1 MB
        config = PipelineConfig(source=_recurring_raw(tmp_path / "video.raw"),
                                output_dir=tmp_path / "out", seed_report=True)
        results = run_pipeline(config)
        results["keyframes"] *= 32
        tracemalloc.start()
        try:
            write_report(config, tmp_path / "out", results)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "out" / "report.json").stat().st_size / 2


# the keywords _rule_violations can violate or descend through; a new one fails it
_SCHEMA_KEYWORDS = {"$schema", "title", "$defs", "$ref", "allOf", "properties", "items",
                    "required", "additionalProperties", "type", "enum", "minimum",
                    "exclusiveMinimum", "maximum", "minItems", "maxItems"}


def _rule_violations(schema, node, report, path=()):
    """Yield (where, rule, mutate) for each rule of the schema node at ``path``:
    ``mutate`` breaks that one rule in a copy of ``report``.  Arrays are
    entered at their first item; every property must be present."""
    assert set(node) <= _SCHEMA_KEYWORDS, set(node) - _SCHEMA_KEYWORDS
    instance = report
    for key in path:
        instance = instance[key]
    where = ".".join(map(str, path))

    def replace(value):
        def mutate(doc):
            for key in path[:-1]:
                doc = doc[key]
            doc[path[-1]] = value
        return mutate

    def at(edit):
        def mutate(doc):
            for key in path:
                doc = doc[key]
            edit(doc)
        return mutate

    if "$ref" in node:
        yield from _rule_violations(schema, schema["$defs"][node["$ref"].split("/")[-1]],
                                    report, path)
    for sub in node.get("allOf", []):
        yield from _rule_violations(schema, sub, report, path)
    types = node.get("type", [])
    types = [types] if isinstance(types, str) else types
    step = 1 if "integer" in types else 1e-9
    if types and path:  # write_report builds the top-level object itself
        yield where, "type", replace(0 if "string" in types else "x")
    if "enum" in node:
        yield where, "enum", replace("x" + "".join(map(str, node["enum"])))
    if "minimum" in node:
        yield where, "minimum", replace(node["minimum"] - step)
    if "exclusiveMinimum" in node:
        yield where, "exclusiveMinimum", replace(node["exclusiveMinimum"])
    if "maximum" in node:
        yield where, "maximum", replace(node["maximum"] + step)
    if "minItems" in node:
        yield where, "minItems", replace(instance[:node["minItems"] - 1])
    if "maxItems" in node:
        yield where, "maxItems", replace(instance + instance[:1] * (node["maxItems"] + 1
                                                                     - len(instance)))
    for key in node.get("required", []):
        yield where, f"required {key}", at(lambda doc, key=key: doc.pop(key))
    if node.get("additionalProperties") is False:
        yield where, "additionalProperties", at(lambda doc: doc.update(unexpected=0))
    for key, sub in node.get("properties", {}).items():
        assert key in instance, f"the report has no {where}.{key} to mutate"
        yield from _rule_violations(schema, sub, report, (*path, key))
    if "items" in node:
        assert instance, f"the report has no {where}[0] to mutate"
        yield from _rule_violations(schema, node["items"], report, (*path, 0))


@functools.cache
def _full_validator():
    # jsonschema.validate(report, load_report_schema()) without its
    # meta-schema check on every call
    schema = load_report_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def _full_check_rejects(report: dict) -> bool:
    return not _full_validator().is_valid(report)


def _runtime_check_rejects(config, out: Path, report: dict) -> bool:
    try:
        write_report(config, out, report)
    except ReportError:
        assert list(out.iterdir()) == []
        return True
    (out / "report.json").unlink()
    return False


def _random_mutations(report: dict):
    """600 seeded single-place mutations of ``report``, as (edit, path,
    value, mutated): a value replaced (by ``value``), a key or item deleted, or
    a key added."""
    rng = random.Random(19)
    values = [None, True, False, 0, -1, 1, 1.0, 1.5, -0.5, 8.0, 8.5, 64, 65.0, 1e-9,
              math.inf, -math.inf, math.nan, "x", "pgm-dir", [], [1], {}, {"start": 0}]
    # paths grouped by schema position, so that the 192 segment numbers
    # weigh as one place, like the one source kind
    places, objects = {}, {(): [()]}
    for path in _value_paths(report):
        place = tuple("*" if isinstance(key, int) else key for key in path)
        places.setdefault(place, []).append(path)
        if isinstance(_at(report, path), dict):
            objects.setdefault(place, []).append(path)
    for _ in range(600):
        mutated, value = copy.deepcopy(report), None
        edit = rng.choice(["value", "delete", "add"])
        path = rng.choice(rng.choice(list((objects if edit == "add" else places).values())))
        if edit == "value":
            _at(mutated, path[:-1])[path[-1]] = value = rng.choice(values)
        elif edit == "delete":
            del _at(mutated, path[:-1])[path[-1]]
        else:
            _at(mutated, path)["unexpected"] = 0
        yield edit, path, value, mutated


def _value_paths(doc, path=()):
    """The path of every value below ``doc``, through objects and arrays."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield (*path, key)
            yield from _value_paths(value, (*path, key))


def _at(doc, path):
    return functools.reduce(lambda node, key: node[key], path, doc)


def _fallback_report(tmp_path: Path) -> dict:
    """The seed report of a small raw video: a 30-frame shot whose bin passes
    the gate, a 12-frame shot that only the fallback picks from, and the first
    shot again, eliminated as its duplicate; evaluated against ground truth."""
    textures = synthetic.make_textures(np.random.default_rng(5), 2, 16, 16)
    video = tmp_path / "video.raw"
    video.write_bytes(b"".join(textures[t].tobytes() * n for t, n in ((0, 30), (1, 12), (0, 30))))
    gt = tmp_path / "gt.txt"
    gt.write_text("total_frames=72\n15\n36\n")
    report = run_pipeline(PipelineConfig(
        source=SourceSpec(kind=SourceKind.RAW, path=str(video), width=16, height=16),
        output_dir=tmp_path / "out", fallback_keyframe=True, ground_truth=gt, seed_report=True))
    assert [c["fallback"] for c in report["candidates"]] == [False, True, False]
    assert report["eliminations"] and report["evaluation"]
    return report


def _src_env() -> dict:
    # a child process imports the same entropykf as this one, however that was found
    src = str(Path(entropykf.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "entropykf.cli", *args],
                          capture_output=True, env=_src_env(), **kwargs)


class TestCli:
    def test_extract_pgm_dir(self, small_video, tmp_path):
        root, layout = small_video
        out = tmp_path / "out"
        result = _cli("extract", "--input", str(root / "frames"),
                      "--format", "pgm-dir", "--out", str(out),
                      "--gt", str(root / "gt.txt"), "--seed-report")
        assert result.returncode == 0, result.stderr
        assert b"keyframes: 3" in result.stdout
        report = json.loads((out / "report.json").read_text())
        assert [k["frame_index"] for k in report["keyframes"]] == list(layout.gt_indices)

    def test_extract_raw_from_stdin(self, tmp_path):
        textures = synthetic.make_textures(np.random.default_rng(21), 2, 32, 16)
        raw = b"".join(t.tobytes() for t in textures for _ in range(30))
        out = tmp_path / "out"
        result = _cli("extract", "--input", "-", "--format", "raw",
                      "--width", "32", "--height", "16", "--out", str(out),
                      input=raw)
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "report.json").read_text())
        assert [(s["start"], s["end"]) for s in report["shots"]] == [(0, 30), (30, 60)]
        assert len(report["keyframes"]) == 2

    def test_extract_raw_file(self, tmp_path):
        textures = synthetic.make_textures(np.random.default_rng(23), 2, 32, 16)
        raw_path = tmp_path / "video.raw"
        raw_path.write_bytes(b"".join(t.tobytes() for t in textures for _ in range(25)))
        out = tmp_path / "out"
        result = _cli("extract", "--input", str(raw_path), "--format", "raw",
                      "--width", "32", "--height", "16", "--out", str(out))
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "report.json").read_text())
        assert len(report["keyframes"]) == 2

    def test_extract_y4m_file(self, tmp_path):
        textures = synthetic.make_textures(np.random.default_rng(27), 2, 32, 16)
        planes = [t for t in textures for _ in range(25)]
        y4m_path = tmp_path / "video.y4m"
        y4m_path.write_bytes(make_y4m(32, 16, planes))
        out = tmp_path / "out"
        result = _cli("extract", "--input", str(y4m_path), "--format", "y4m",
                      "--out", str(out))
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["total_frames"] == 50
        assert len(report["keyframes"]) == 2

    def test_bad_config_exits_2(self, small_video, tmp_path):
        root, _ = small_video
        result = _cli("extract", "--input", str(root / "frames"),
                      "--format", "pgm-dir", "--out", str(tmp_path / "o"),
                      "--cut-threshold", "0")
        assert result.returncode == 2
        assert b"bad configuration" in result.stderr

    def test_non_finite_sd_threshold_exits_2(self, small_video, tmp_path):
        root, _ = small_video
        result = _cli("extract", "--input", str(root / "frames"),
                      "--format", "pgm-dir", "--out", str(tmp_path / "o"),
                      "--sd-threshold", "nan")
        assert result.returncode == 2
        assert b"bad configuration" in result.stderr
        assert not (tmp_path / "o" / "report.json").exists()

    def test_extract_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["extract", "--input", "-", "--format", "y4m",
                                          "--out", "o"])
        for f in dataclasses.fields(PipelineConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(args, f.name) == f.default, f.name

    def test_every_config_field_but_source_is_an_extract_option(self):
        # _cmd_extract passes each field by name, so a field without an option
        # fails here rather than in a run
        args = build_parser().parse_args(["extract", "--input", "-", "--format", "y4m",
                                          "--out", "o", "--gt", "gt.txt"])
        names = {f.name for f in dataclasses.fields(PipelineConfig)} - {"source"}
        assert names <= set(vars(args))
        assert (args.output_dir, args.ground_truth) == (Path("o"), Path("gt.txt"))

    def test_raw_without_dimensions_exits_2(self, tmp_path):
        result = _cli("extract", "--input", "-", "--format", "raw",
                      "--out", str(tmp_path / "o"), input=b"")
        assert result.returncode == 2

    @pytest.mark.parametrize("fmt,size", [("y4m", "999x777"), ("raw", "100000000x100000000")])
    def test_bad_frame_size_options_exit_2(self, fmt, size, tmp_path):
        # --width/--height belong to raw input only, and a raw side is capped
        video = tmp_path / "video"
        video.write_bytes(make_y4m(32, 16, [np.zeros((16, 32), dtype=np.uint8)] * 2)
                          if fmt == "y4m" else bytes(4096))
        width, height = size.split("x")
        result = _cli("extract", "--input", str(video), "--format", fmt,
                      "--width", width, "--height", height, "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert b"bad configuration" in result.stderr
        assert b"Traceback" not in result.stderr
        assert not (tmp_path / "o" / "report.json").exists()

    def test_missing_input_exits_3(self, tmp_path):
        result = _cli("extract", "--input", str(tmp_path / "absent"),
                      "--format", "pgm-dir", "--out", str(tmp_path / "o"))
        assert result.returncode == 3
        assert b"ingest error" in result.stderr

    @pytest.mark.parametrize("case", ["empty-raw-file", "header-only-y4m-file",
                                      "empty-raw-stdin", "y4m-4x4-stdin"])
    def test_empty_or_undersized_source_exits_3(self, case, tmp_path):
        video = tmp_path / "video"
        stdin = None
        if case == "empty-raw-file":
            video.write_bytes(b"")
            args = ["--input", str(video), "--format", "raw", "--width", "8", "--height", "8"]
        elif case == "header-only-y4m-file":
            video.write_bytes(make_y4m(8, 8, []))
            args = ["--input", str(video), "--format", "y4m"]
        elif case == "empty-raw-stdin":
            stdin = b""
            args = ["--input", "-", "--format", "raw", "--width", "8", "--height", "8"]
        else:
            stdin = make_y4m(4, 4, [np.zeros((4, 4), dtype=np.uint8)] * 3)
            args = ["--input", "-", "--format", "y4m"]
        result = _cli("extract", *args, "--out", str(tmp_path / "o"), input=stdin)
        assert result.returncode == 3
        assert b"ingest error" in result.stderr
        assert b"Traceback" not in result.stderr

    def test_unreadable_gt_exits_4(self, small_video, tmp_path):
        root, _ = small_video
        gt = tmp_path / "gt.txt"
        gt.write_bytes(b"\xff\xfe total_frames=5\n")
        result = _cli("extract", "--input", str(root / "frames"),
                      "--format", "pgm-dir", "--out", str(tmp_path / "o"),
                      "--gt", str(gt))
        assert result.returncode == 4
        assert b"evaluation error" in result.stderr
        assert b"Traceback" not in result.stderr

    def test_empty_gt_exits_4(self, small_video, tmp_path):
        root, _ = small_video
        gt = tmp_path / "gt.txt"
        gt.write_text("total_frames=252\n")
        result = _cli("extract", "--input", str(root / "frames"),
                      "--format", "pgm-dir", "--out", str(tmp_path / "o"),
                      "--gt", str(gt))
        assert result.returncode == 4
        assert b"evaluation error" in result.stderr

    def test_oversized_pgm_frame_exits_3(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "f0.pgm").write_bytes(b"P5 20000 8 255\n" + bytes(20000 * 8))
        result = _cli("extract", "--input", str(frames), "--format", "pgm-dir",
                      "--out", str(tmp_path / "o"))
        assert result.returncode == 3
        assert b"ingest error" in result.stderr and b"20000x8" in result.stderr
        assert b"Traceback" not in result.stderr
        assert not (tmp_path / "o" / "report.json").exists()

    def test_bad_y4m_dimensions_exit_3(self, tmp_path):
        result = _cli("extract", "--input", "-", "--format", "y4m",
                      "--out", str(tmp_path / "o"),
                      input=b"YUV4MPEG2 Wabc H16 C420\nFRAME\n" + bytes(64))
        assert result.returncode == 3
        assert b"ingest error" in result.stderr
        assert b"Traceback" not in result.stderr

    @pytest.mark.parametrize("case", ["empty-line-between-frames", "empty-line-at-end",
                                      "junk-signature"])
    def test_malformed_y4m_exits_3(self, case, tmp_path):
        frame = b"FRAME\n" + bytes(64)
        data = {"empty-line-between-frames": b"YUV4MPEG2 W8 H8 Cmono\n" + frame + b"\n" + frame,
                "empty-line-at-end": b"YUV4MPEG2 W8 H8 Cmono\n" + frame + b"\n",
                "junk-signature": b"YUV4MPEG2junk W8 H8 Cmono\n" + frame}[case]
        result = _cli("extract", "--input", "-", "--format", "y4m",
                      "--out", str(tmp_path / "o"), input=data)
        assert result.returncode == 3
        assert b"ingest error" in result.stderr
        assert (b"FRAME marker" if case.startswith("empty") else b"YUV4MPEG2") in result.stderr
        assert b"Traceback" not in result.stderr
        assert not (tmp_path / "o" / "report.json").exists()

    def test_pgm_with_two_images_exits_3(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        image = b"P5 8 8 255\n" + bytes(64)
        (frames / "f0.pgm").write_bytes(image * 2)
        result = _cli("extract", "--input", str(frames), "--format", "pgm-dir",
                      "--out", str(tmp_path / "o"))
        assert result.returncode == 3
        assert b"f0.pgm" in result.stderr and b"raster holds 139 bytes" in result.stderr
        assert b"Traceback" not in result.stderr

    def test_y4m_through_a_pipe_equals_the_file(self, tmp_path):
        # a child writes the video in 4,096-byte pieces, so each 76,800-byte
        # Y plane, larger than a pipe's buffer, arrives over many short reads
        textures = synthetic.make_textures(np.random.default_rng(37), 2, 320, 240)
        y4m_path = tmp_path / "video.y4m"
        y4m_path.write_bytes(make_y4m(320, 240, [t for t in textures for _ in range(25)]))
        feed = ("import sys\n"
                "data = open(sys.argv[1], 'rb').read()\n"
                "for i in range(0, len(data), 4096):\n"
                "    sys.stdout.buffer.write(data[i:i + 4096])\n"
                "    sys.stdout.buffer.flush()\n")
        with subprocess.Popen([sys.executable, "-c", feed, str(y4m_path)],
                              stdout=subprocess.PIPE) as feeder:
            piped = _cli("extract", "--input", "-", "--format", "y4m", "--seed-report",
                         "--out", str(tmp_path / "piped"), stdin=feeder.stdout)
        assert piped.returncode == 0, piped.stderr
        assert feeder.returncode == 0
        from_file = _cli("extract", "--input", str(y4m_path), "--format", "y4m",
                         "--seed-report", "--out", str(tmp_path / "file"))
        assert from_file.returncode == 0, from_file.stderr
        reports = [json.loads((tmp_path / out / "report.json").read_text())
                   for out in ("piped", "file")]
        for report in reports:
            del report["config"]  # input path and output directory differ
        assert reports[0] == reports[1]
        assert reports[0]["total_frames"] == 50 and len(reports[0]["keyframes"]) == 2

    def test_ground_truth_for_another_video_exits_4(self, small_video, tmp_path):
        root, _ = small_video
        gt = tmp_path / "gt.txt"
        gt.write_text("total_frames=10\n5\n")
        result = _cli("extract", "--input", str(root / "frames"),
                      "--format", "pgm-dir", "--out", str(tmp_path / "o"),
                      "--gt", str(gt))
        assert result.returncode == 4
        assert b"evaluation error" in result.stderr

    def test_generate_synthetic_cli(self, tmp_path):
        result = _cli("generate-synthetic", "--scenes", "2",
                      "--frames-per-scene", "10", "--size", "32x24",
                      "--seed", "5", "--fade-frames", "2",
                      "--out", str(tmp_path / "v"), "--gt-out", str(tmp_path / "gt.txt"))
        assert result.returncode == 0, result.stderr
        assert len(list((tmp_path / "v").iterdir())) == 3 * 10 + 2 * 2
        assert (tmp_path / "gt.txt").read_text().startswith("total_frames=34")

    def test_generate_synthetic_into_a_used_directory_exits_2(self, tmp_path):
        args = ["generate-synthetic", "--scenes", "1", "--size", "16x16",
                "--out", str(tmp_path / "v"), "--gt-out", str(tmp_path / "gt.txt")]
        assert _cli(*args, "--frames-per-scene", "12").returncode == 0
        result = _cli(*args, "--frames-per-scene", "10")
        assert result.returncode == 2
        assert b"bad configuration" in result.stderr and b"already holds files" in result.stderr
        assert len(list((tmp_path / "v").iterdir())) == 2 * 12 + 4
        assert (tmp_path / "gt.txt").read_text().startswith("total_frames=28")

    @pytest.mark.parametrize("case", ["gt-out is out", "gt-out is a directory",
                                      "gt-out in no directory", "out below a file"])
    def test_generate_synthetic_unusable_output_paths_exit_2(self, case, tmp_path):
        # each is refused before any frame is written, not by a traceback after
        d = tmp_path / "d"
        (d / "dir").mkdir(parents=True)
        (d / "file").write_bytes(b"")
        out, gt = {"gt-out is out": (d / "v", d / "v"),
                   "gt-out is a directory": (d / "v", d / "dir"),
                   "gt-out in no directory": (d / "v", d / "nodir" / "gt.txt"),
                   "out below a file": (d / "file" / "v", d / "gt.txt")}[case]
        result = _cli("generate-synthetic", "--scenes", "1", "--frames-per-scene", "8",
                      "--size", "16x16", "--out", str(out), "--gt-out", str(gt))
        assert result.returncode == 2, result.stderr
        assert b"bad configuration" in result.stderr and b"Traceback" not in result.stderr
        assert [p for p in d.rglob("*") if p.is_file()] == [d / "file"]

    @pytest.mark.parametrize("alias", ["same path", "symlink"])
    def test_extract_out_set_to_the_pgm_input_exits_2(self, alias, tmp_path):
        # a first run would write key-frames and report.json into the video,
        # and every later run would read them as frames
        texture = synthetic.make_textures(np.random.default_rng(31), 1, 16, 16)[0]
        src = _write_run(tmp_path, texture, 12)
        out = src
        if alias == "symlink":
            out = tmp_path / "link"
            out.symlink_to(src, target_is_directory=True)
        before = sorted(p.name for p in src.iterdir())
        result = _cli("extract", "--input", str(src), "--format", "pgm-dir",
                      "--out", str(out))
        assert result.returncode == 2
        assert b"bad configuration" in result.stderr and b"input directory" in result.stderr
        assert sorted(p.name for p in src.iterdir()) == before

    @pytest.mark.parametrize("flag", ["--min-shot-len", "--min-bin-size", "--match-window"])
    def test_negative_count_option_exits_2(self, flag, tmp_path):
        video = tmp_path / "video.y4m"
        video.write_bytes(make_y4m(8, 8, [np.zeros((8, 8), dtype=np.uint8)] * 2))
        result = _cli("extract", "--input", str(video), "--format", "y4m",
                      "--out", str(tmp_path / "o"), flag, "-1")
        assert result.returncode == 2
        assert result.stderr.startswith(b"entropykf: bad configuration: ")
        assert b"must be non-negative, got -1" in result.stderr
        assert b"Traceback" not in result.stderr
        assert not (tmp_path / "o").exists()

    def test_out_below_a_regular_file_exits_2(self, tmp_path):
        video = tmp_path / "video.y4m"
        video.write_bytes(make_y4m(8, 8, [np.zeros((8, 8), dtype=np.uint8)] * 2))
        (tmp_path / "file").write_bytes(b"")
        result = _cli("extract", "--input", str(video), "--format", "y4m",
                      "--out", str(tmp_path / "file" / "o"))
        assert result.returncode == 2
        assert result.stderr.startswith(b"entropykf: bad configuration: output directory ")
        assert b"is not writable" in result.stderr
        assert b"Traceback" not in result.stderr

    def test_y4m_cut_off_inside_chroma_exits_3(self, tmp_path):
        # the Y plane is whole; the 4:2:0 chroma of 32 bytes stops after 10
        video = tmp_path / "video.y4m"
        video.write_bytes(make_y4m(8, 8, [np.zeros((8, 8), dtype=np.uint8)])[:-22])
        result = _cli("extract", "--input", str(video), "--format", "y4m",
                      "--out", str(tmp_path / "o"))
        assert result.returncode == 3
        assert result.stderr.startswith(b"entropykf: ingest error: Y4M stream truncated")
        assert b"chroma has 10 of 32 bytes" in result.stderr
        assert b"Traceback" not in result.stderr
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("flag,value", [("--scenes", "0"), ("--frames-per-scene", "0"),
                                            ("--fade-frames", "-1")])
    def test_generate_synthetic_empty_layout_exits_2(self, flag, value, tmp_path):
        result = _cli("generate-synthetic", "--size", "16x16", "--frames-per-scene", "2",
                      flag, value, "--out", str(tmp_path / "v"))
        assert result.returncode == 2
        assert result.stderr.startswith(b"entropykf: bad configuration: ")
        assert b"Traceback" not in result.stderr
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("size", ["16385x8", "8x16385"])
    def test_generate_synthetic_size_outside_frame_range_exits_2(self, size, tmp_path):
        # extract would refuse such frames; the check runs before any pixels exist
        result = _cli("generate-synthetic", "--size", size, "--frames-per-scene", "1",
                      "--out", str(tmp_path / "v"), "--gt-out", str(tmp_path / "gt.txt"))
        assert result.returncode == 2
        assert b"bad configuration" in result.stderr and b"8..16384" in result.stderr
        assert not (tmp_path / "v").exists() and not (tmp_path / "gt.txt").exists()
