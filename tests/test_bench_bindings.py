"""The bindings the benchmark's tracer wraps must exist in the program, and
the program must call them.

``perfbench/spans.py`` replaces module attributes for one traced call and
reports a missing one only as "binding missing" on stderr; a binding the
program no longer calls reads 0 with no warning at all.  These tests turn a
refactor that drops or bypasses a traced binding into a failure.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from entropykf import synthetic
from entropykf.ingest import SourceKind, SourceSpec
from entropykf.pipeline import PipelineConfig, run_pipeline

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# already missing, and the tracer has not followed yet: PGM reads moved into
# ``entropykf.ingest``, the three kernels below are deleted, replaced by
# kernels.frame_step, kernels.segment_histograms is deleted, replaced by
# kernels.segment_entropies, and kernels.entropy_from_counts is deleted, each
# frame's entropy now coming back from its kernels.frame_step call; the tracer
# spans neither replacement yet (the entropy.segmented_entropies span still
# times the whole candidate step)
KNOWN_MISSING = {"entropykf.pipeline.read_pgm", "entropykf.kernels.histogram256",
                 "entropykf.kernels.pearson_sums", "entropykf.kernels.correlation_from_sums",
                 "entropykf.kernels.segment_histograms", "entropykf.kernels.entropy_from_counts"}
# bound but not called: pipeline.check_report checks the report, and the
# program no longer imports jsonschema
KNOWN_UNCALLED = {"jsonschema.validate"}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    spans = _load_spans()
    targets = [(m, a) for m, a, _ in spans.SPANNED + spans.COUNTED] + [spans.ACCESS]
    assert len(targets) > 10
    missing = {f"{m}.{a}" for m, a in targets
               if not hasattr(importlib.import_module(m), a)}
    assert missing <= KNOWN_MISSING


def test_every_traced_binding_records_a_span(tmp_path):
    spans = _load_spans()
    # a 30-frame shot whose bin passes the gate of 20, then a 12-frame shot
    # that only the fallback picks from
    textures = synthetic.make_textures(np.random.default_rng(5), 2, 16, 16)
    video = tmp_path / "video.raw"
    video.write_bytes(b"".join(t.tobytes() * n for t, n in zip(textures, (30, 12))))
    gt = tmp_path / "gt.txt"
    gt.write_text("total_frames=42\n15\n36\n")
    config = PipelineConfig(source=SourceSpec(kind=SourceKind.RAW, path=str(video),
                                              width=16, height=16),
                            output_dir=tmp_path / "out", fallback_keyframe=True,
                            ground_truth=gt, seed_report=True)
    tracer = spans.Tracer()
    with tracer.installed(1, spool=False):
        report = run_pipeline(config)
    assert [c["fallback"] for c in report["candidates"]] == [False, True]
    expected = {name for module, attr, name in spans.SPANNED
                if f"{module}.{attr}" not in KNOWN_MISSING | KNOWN_UNCALLED}
    assert expected - set(tracer.summary(1)) == set()
