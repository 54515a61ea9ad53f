"""Spans around the calls into each entropykf layer, recorded from outside src/.

The pipeline looks its collaborators up at call time (``kernels.histogram256``,
the names imported into ``entropykf.pipeline``, ``jsonschema.validate``, the
frame-access object), so replacing those bindings for the length of one call
puts a span around every call into a layer without editing the program.
Spans stay in memory, each with its parent span and its run id, and are
written out once at the end.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); the span name's prefix is the layer
SPANNED = (
    ("entropykf.kernels", "pearson_sums", "kernels.pearson_sums"),
    ("entropykf.kernels", "histogram256", "kernels.histogram256"),
    ("entropykf.kernels", "entropy_from_counts", "kernels.entropy_from_counts"),
    ("entropykf.kernels", "segment_histograms", "kernels.segment_histograms"),
    ("entropykf.kernels", "correlation_from_sums", "kernels.correlation_from_sums"),
    ("entropykf.pipeline", "read_pgm", "ingest.read_pgm"),
    ("entropykf.pipeline", "detect_cuts", "shots.detect_cuts"),
    ("entropykf.pipeline", "merge_short_shots", "shots.merge_short_shots"),
    ("entropykf.pipeline", "bin_indexed_keys", "extraction.bin_indexed_keys"),
    ("entropykf.pipeline", "select_keyframes", "extraction.select_keyframes"),
    ("entropykf.pipeline", "fallback_pick", "extraction.fallback_pick"),
    ("entropykf.pipeline", "dedup_detailed", "extraction.dedup_detailed"),
    ("entropykf.pipeline", "segmented_entropies", "entropy.segmented_entropies"),
    ("entropykf.pipeline", "load_ground_truth", "evaluation.load_ground_truth"),
    ("entropykf.pipeline", "evaluate", "evaluation.evaluate"),
    ("entropykf.pipeline", "write_pgm", "pipeline.write_pgm"),
    ("jsonschema", "validate", "pipeline.schema_validate"),
)
# called ~30k times per run on recurring-raw: counted, not spanned
COUNTED = (("entropykf.extraction", "dissimilarity", "extraction.dissimilarity"),)
ACCESS = ("entropykf.pipeline", "_open_access")


class Tracer:
    """In-memory span recorder; one run id per traced pipeline call."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.missing: list[str] = []
        self.first_args: dict[str, tuple] = {}  # per span name, to size a kernel call
        self.run_id = 0
        self._stack = [0]
        self._next_id = 1

    def call(self, name, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.run_id, name, start, end))

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            self.first_args.setdefault(name, args)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.run_id][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self, run_id: int, spool: bool):
        """Wrap every layer binding for one pipeline call, then restore them."""
        self.run_id = run_id
        wraps, missing = [], []
        targets = ([(m, a, partial(self.spanned, n)) for m, a, n in SPANNED]
                   + [(m, a, partial(self.counted, n)) for m, a, n in COUNTED]
                   + [(*ACCESS, partial(self._access_opener, spool))])
        for module, attr, make in targets:
            mod = importlib.import_module(module)
            original = getattr(mod, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
            else:
                wraps.append((mod, attr, original, make(original)))
        self.missing = missing
        try:
            for mod, attr, _, wrapper in wraps:
                setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original, _ in wraps:
                setattr(mod, attr, original)

    def _access_opener(self, spool: bool, open_access):
        def wrapper(spec):
            return _TracedAccess(self, open_access(spec), spool)
        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["run_id", "span_id", "parent_id", "name", "start_s", "end_s"])
            for span_id, parent, run_id, name, start, end in self.spans:
                out.writerow([run_id, span_id, parent, name, f"{start:.9f}", f"{end:.9f}"])

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds for one run.

        Self time is a span's duration minus that of its direct children; calls
        in one thread nest, so the children never overlap.
        """
        spans = [s for s in self.spans if s[2] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span_id, _, _, name, start, end in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return out


class _TracedAccess:
    """Frame access whose pulls and random reads are spans.

    ``spool`` marks a source that is tee'd to a spool file as it streams; the
    bytes spooled are computed from the frames pulled.
    """

    def __init__(self, tracer: Tracer, access, spool: bool):
        self._tracer = tracer
        self._access = access
        self._spool = spool

    def frames(self):
        it = iter(self._access.frames())
        counts = self._tracer.counts[self._tracer.run_id]
        while True:
            frame = self._tracer.call("ingest.next_frame", next, it, None)
            if frame is None:
                return
            if self._spool:
                counts["ingest.spool_bytes"] += frame.pixels.nbytes
            yield frame

    def read_frame(self, index):
        return self._tracer.call("ingest.read_frame", self._access.read_frame, index)

    def close(self):
        self._access.close()

