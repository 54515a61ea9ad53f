"""One workload's closed loop: a single caller making sequential run_pipeline calls.

run.py starts this in a process of its own, so the peak resident memory it
reports is the pipeline's and not the input generator's:

    python3 perfbench/worker.py SPEC.json

SPEC.json (written by run.py) names the source, ground truth, output and
scratch directories, the oracle, the seconds to measure and whether to trace.
The last line on stdout is the result as JSON.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import entropykf  # noqa: E402
from entropykf import kernels, pipeline  # noqa: E402
from entropykf.ingest import SourceSpec  # noqa: E402
from calibrate import host_rate, scale  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import check_report  # noqa: E402

MIN_CALLS = 3        # timed calls per end-to-end run, however long a call takes
MIN_TRACED_PAIRS = 2  # (untraced, traced) pairs per traced run; two for the count self-check

# counts that two traced calls on the same input must reproduce exactly
EXACT = ("ingest.read_frame_calls", "ingest.spool_bytes", "kernels.pearson_sums_bytes",
         "shots.raw_shots", "shots.shots", "extraction.candidates",
         "extraction.dissimilarity_calls", "entropy.segmented_entropies_calls",
         "pipeline.keyframes_written", "pipeline.report_bytes",
         "pipeline.peak_resident_frames") + tuple(
    f"kernels.{k}_calls" for k in ("pearson_sums", "histogram256", "entropy_from_counts",
                                   "segment_histograms", "correlation_from_sums"))


class Caller:
    """Makes checked run_pipeline calls and keeps the tally."""

    def __init__(self, spec: dict):
        self.config = pipeline.PipelineConfig(
            source=SourceSpec(**spec["source"]), output_dir=Path(spec["out"]),
            ground_truth=Path(spec["gt"]), seed_report=True)
        self.stdin_file = spec.get("stdin_file")
        self.oracle = spec["oracle"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_digest: str | None = None
        self.report_size = 0

    def call(self, run=None):
        """One checked call; returns (seconds, report) or None if it failed.

        ``run`` replaces pipeline.run_pipeline (the traced run passes a span
        around it).  Only the run_pipeline call itself is timed.
        """
        run = run or pipeline.run_pipeline
        self.attempted += 1
        try:
            seconds, report = self._timed(run)
            problems = check_report(report, self.oracle)
            report_bytes = (self.config.output_dir / "report.json").read_bytes()
        except Exception as exc:  # a call that raises is a failed call, not a crash
            traceback.print_exc()
            problems, report = [f"{type(exc).__name__}: {exc}"], None
        else:
            self.report_size = len(report_bytes)
            digest = hashlib.sha256(report_bytes).hexdigest()
            self.report_digest = self.report_digest or digest
            if digest != self.report_digest:
                problems.append("--seed-report bytes differ from the run's first call")
        if problems:
            self.failed += 1
            self.problems += [f"call {self.attempted}: {p}" for p in problems]
            return None
        return seconds, report

    def _timed(self, run):
        if self.stdin_file is None:
            start = perf_counter()
            report = run(self.config)
            return perf_counter() - start, report
        # the stdin path: an upstream process pipes the Y4M file in, as a
        # decoder would in `ffmpeg ... | entropykf extract --input -`
        feeder = subprocess.Popen(["cat", self.stdin_file], stdout=subprocess.PIPE)
        saved, sys.stdin = sys.stdin, io.TextIOWrapper(feeder.stdout)
        try:
            start = perf_counter()
            report = run(self.config)
            return perf_counter() - start, report
        finally:
            sys.stdin.close()  # a feeder still writing gets EPIPE and exits
            sys.stdin = saved
            feeder.wait()

    def fps(self, seconds: float, report: dict) -> float:
        return report["total_frames"] / seconds


def end_to_end(caller: Caller, seconds: float) -> dict:
    """Timed calls for about ``seconds``; each call's frames/s is scaled by the
    host speed measured just before and just after it."""
    caller.call()  # warm-up, untimed: the first call in a process is slower
    rates = [host_rate()]
    raw: list[float] = []
    scaled: list[float] = []
    timed, last = 0, 0.0
    start = perf_counter()
    while timed < MIN_CALLS or perf_counter() - start + last <= seconds:
        step_start = perf_counter()
        result = caller.call()
        rates.append(host_rate())
        timed += 1
        last = perf_counter() - step_start
        if result is not None:
            raw.append(caller.fps(*result))
            scaled.append(raw[-1] / scale(rates[-2:]))
    return {
        "frames_per_s": scaled,
        "raw_frames_per_s": raw,
        "host_rates": rates,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """This process's resident high-water mark.  Not ru_maxrss: Linux carries
    that over from the parent across fork and exec."""
    with open("/proc/self/status") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kib / 1024


def traced(caller: Caller, seconds: float, spans_out: Path) -> dict:
    """Alternate untraced and traced calls; per-layer metrics per traced call."""
    tracer = Tracer()
    spool = caller.config.source.path == "-"
    run_pipeline = tracer.spanned("pipeline.run_pipeline", pipeline.run_pipeline)
    caller.call()  # warm-up
    untraced: list[float] = []
    traced_fps: list[float] = []
    runs: list[dict] = []
    pairs, last = 0, 0.0
    start = perf_counter()
    while pairs < MIN_TRACED_PAIRS or perf_counter() - start + last <= seconds:
        pair_start = perf_counter()
        pairs += 1
        result = caller.call()
        if result is not None:
            untraced.append(caller.fps(*result))
        tracer.first_args.clear()
        with tracer.installed(pairs, spool):
            result = caller.call(run_pipeline)
        if result is not None:
            traced_fps.append(caller.fps(*result))
            runs.append(layer_metrics(tracer, pairs, result[1], caller.report_size))
        last = perf_counter() - pair_start
    tracer.write(spans_out)

    mismatches = [f"{key}: {[r[key] for r in runs]}" for key in EXACT
                  if len({r[key] for r in runs}) > 1]
    layers = {key: statistics.median_low(r[key] for r in runs) for key in runs[0]} if runs else {}
    if untraced and traced_fps:
        layers["trace.overhead_ratio"] = statistics.median(traced_fps) / statistics.median(untraced)
    return {"layers": layers, "traced_calls": len(runs), "untraced_calls": len(untraced),
            "mismatches": mismatches, "missing_bindings": tracer.missing}


def layer_metrics(tracer: Tracer, run_id: int, report: dict, report_size: int) -> dict:
    spans = tracer.summary(run_id)
    counts = tracer.counts[run_id]

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def total_s(*names):
        return sum(spans[n]["s"] for n in names if n in spans)

    def mean_us(name):
        return 1e6 * total_s(name) / calls(name) if calls(name) else 0.0

    run_s = total_s("pipeline.run_pipeline")
    m = {
        "ingest.next_frame_us": mean_us("ingest.next_frame"),
        "ingest.read_pgm_us": mean_us("ingest.read_pgm"),
        "ingest.read_frame_us": mean_us("ingest.read_frame"),
        "ingest.read_frame_calls": calls("ingest.read_frame"),
        "ingest.spool_bytes": counts["ingest.spool_bytes"],
    }
    for k in ("pearson_sums", "histogram256", "entropy_from_counts", "segment_histograms",
              "correlation_from_sums"):
        m[f"kernels.{k}_us"] = mean_us(f"kernels.{k}")
        m[f"kernels.{k}_calls"] = calls(f"kernels.{k}")
    pair = tracer.first_args.get("kernels.pearson_sums")
    m["kernels.pearson_sums_bytes"] = computed_bytes(kernels.pearson_sums, pair) if pair else 0
    m.update({
        "shots.detect_cuts_self_s": spans.get("shots.detect_cuts", {}).get("self_s", 0.0),
        "shots.raw_shots": report["stats"]["raw_shot_count"],
        "shots.shots": len(report["shots"]),
        "extraction.bin_select_s": total_s("extraction.bin_indexed_keys", "extraction.select_keyframes",
                                           "extraction.fallback_pick"),
        "extraction.candidates": len(report["candidates"]),
        "extraction.dedup_s": total_s("extraction.dedup_detailed"),
        "extraction.dissimilarity_calls": counts["extraction.dissimilarity"],
        "extraction.survivor_ratio": len(report["keyframes"]) / len(report["candidates"]),
        "entropy.segmented_entropies_us": mean_us("entropy.segmented_entropies"),
        "entropy.segmented_entropies_calls": calls("entropy.segmented_entropies"),
        "evaluation.s": total_s("evaluation.load_ground_truth", "evaluation.evaluate"),
        "pipeline.schema_validate_s": total_s("pipeline.schema_validate"),
        "pipeline.keyframe_write_s": total_s("pipeline.write_pgm"),
        "pipeline.keyframes_written": calls("pipeline.write_pgm"),
        "pipeline.report_bytes": report_size,
        "pipeline.self_s": spans["pipeline.run_pipeline"]["self_s"],
        "pipeline.peak_resident_frames": report["stats"]["peak_resident_frames"],
        "pipeline.run_s": run_s,
    })
    # shares of the run_pipeline span that the workloads were chosen to load
    m["kernels.pearson_histogram_share"] = total_s("kernels.pearson_sums", "kernels.histogram256") / run_s
    m["pipeline.segment_dedup_schema_share"] = (total_s("entropy.segmented_entropies", "extraction.dedup_detailed",
                                               "pipeline.schema_validate") / run_s)
    return m


def computed_bytes(kernel, args) -> int:
    """Bytes of the array arguments plus the peak of the temporaries the call
    allocates.  Computed from array sizes, not measured cache traffic."""
    tracemalloc.start()
    try:
        kernel(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sum(a.nbytes for a in args) + peak


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = (ROOT / "src").resolve()
    if src not in Path(entropykf.__file__).resolve().parents:
        print(f"entropykf was imported from {entropykf.__file__}, not from {src}", file=sys.stderr)
        return 2
    tempfile.tempdir = spec["tmp"]  # the stdin spool file stays inside the checkout
    caller = Caller(spec)
    if spec["trace"]:
        result = traced(caller, spec["seconds"], Path(spec["spans"]))
    else:
        result = end_to_end(caller, spec["seconds"])
    result.update({
        "attempted": caller.attempted,
        "failed": caller.failed,
        "problems": caller.problems,
        "numpy": np.__version__,
        "numba_kernels": bool(getattr(kernels, "USING_NUMBA", False)),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
