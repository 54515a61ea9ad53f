"""Acceptance suite: every release criterion as one test with its stated
tolerance and time budget.  Each prints a `[criterion N] PASS/FAIL` line;
run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from conftest import segmented_oracle
from entropykf import synthetic
from entropykf.entropy import (dissimilarity, frame_entropy, modified_entropy,
                               segmented_entropies)
from entropykf.extraction import (KeyFrame, bin_indexed_keys, dedup_detailed,
                                  select_keyframes)
from entropykf.ingest import Frame, SourceKind, SourceSpec
from entropykf.pipeline import PipelineConfig, run_pipeline
from entropykf.shots import Shot


class _criterion:
    """Context manager printing one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.number}] {status} ({elapsed:.2f}s) {self.description}")
        return False


def _entropy_summation_oracle(pixels) -> float:
    """Independent second code path: stdlib byte counting + math.log2."""
    total = pixels.nbytes
    en = 0.0
    for count in Counter(pixels.tobytes()).values():
        p = count / total
        en -= p * math.log2(p)
    return en


def test_criterion_1_entropy_oracle_equivalence():
    with _criterion(1, "entropy matches independent summation on 1,000 frames"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for _ in range(1000):
            w = int(rng.integers(8, 129))
            h = int(rng.integers(8, 129))
            levels = int(rng.integers(2, 257))
            px = rng.integers(0, levels, (h, w), dtype=np.uint8)
            produced = frame_entropy(px)
            assert abs(produced - _entropy_summation_oracle(px)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


# (video, manual count, entropy-difference missing, published ED deviation,
#  proposed-algorithm missing, published proposed deviation)
_DEVIATION_TABLE = [
    ("english news", 22, 8, 0.37, 2, 0.09),
    ("star trek", 29, 11, 0.38, 1, 0.03),
    ("lotr trailer", 119, 21, 0.17, 17, 0.14),
    ("lotr movie", 67, 22, 0.33, 6, 0.08),
    ("hindi news", 36, 22, 0.61, 17, 0.47),
]


def test_criterion_2_deviation_table_consistency():
    with _criterion(2, "deviation = missing/manual reproduces all ten table cells"):
        start = time.perf_counter()
        for video, manual, ed_missing, ed_dev, pr_missing, pr_dev in _DEVIATION_TABLE:
            assert abs(ed_missing / manual - ed_dev) <= 0.01, (video, "entropy difference")
            assert abs(pr_missing / manual - pr_dev) <= 0.01, (video, "proposed")
        assert time.perf_counter() - start < 1.0


def test_criterion_3_binning_partition_property():
    with _criterion(3, "bins partition 200 random shots; key = round(entropy^2); "
                       "selection picks floor(count/2)"):
        rng = np.random.default_rng(3003)
        start = time.perf_counter()
        min_bin_size = 20
        for _ in range(200):
            # a few textures per shot, one repeated enough to clear the gate
            textures = [rng.integers(0, int(rng.integers(2, 40)), (16, 16), dtype=np.uint8)
                        for _ in range(int(rng.integers(1, 4)))]
            frames = []
            for i in range(int(rng.integers(25, 70))):
                t = 0 if i % 3 else int(rng.integers(0, len(textures)))
                frames.append(Frame(index=i, pixels=textures[t]))
            bins = bin_indexed_keys((f.index, modified_entropy(frame_entropy(f)))
                                    for f in frames)

            members = sorted(m for b in bins for m in b.members)
            assert members == [f.index for f in frames]
            for b in bins:
                assert b.members == sorted(b.members)
                for m in b.members:
                    en = _entropy_summation_oracle(frames[m].pixels)
                    assert b.key == int(math.floor(en * en + 0.5))
            for b, picked in select_keyframes(bins, min_bin_size):
                assert len(b.members) > min_bin_size
                assert picked == b.members[len(b.members) // 2]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_4_segmented_entropy_oracle():
    with _criterion(4, "segment entropies equal materialise-and-recompute oracle "
                       "exactly on 100 frames"):
        rng = np.random.default_rng(4004)
        sizes = [(100, 60), (60, 100), (37, 41), (8, 8), (128, 128), (320, 240)]
        start = time.perf_counter()
        for i in range(100):
            w, h = sizes[i % len(sizes)]
            px = rng.integers(0, 256, (h, w), dtype=np.uint8)
            assert np.array_equal(segmented_entropies(px), segmented_oracle(px))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_5_dissimilarity_analytic_cases():
    with _criterion(5, "dissimilarity: identical -> 0, constant offset -> 0, "
                       "single-hot -> 0.12402"):
        rng = np.random.default_rng(5005)
        a = rng.uniform(0, 8, 64)
        assert dissimilarity(a, a.copy()) == 0.0
        lattice = rng.integers(0, 60, 64) / 8.0  # exact eighth-steps
        assert dissimilarity(lattice, lattice + 0.25) == 0.0
        hot = np.zeros(64)
        hot[17] = 1.0
        assert abs(dissimilarity(np.zeros(64), hot) - 0.12402) <= 1e-6


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    """Generate the 4,000-frame acceptance video and run the pipeline twice."""
    root = tmp_path_factory.mktemp("acceptance")
    layout = synthetic.generate(root / "frames", root / "gt.txt", scenes=3,
                                frames_per_scene=997, width=320, height=240,
                                seed=20260810, fade_frames=4, repeat_first=True)
    assert layout.total_frames == 4000

    out = root / "run"
    config = PipelineConfig(
        source=SourceSpec(kind=SourceKind.PGM_DIR, path=str(root / "frames")),
        output_dir=out,
        ground_truth=root / "gt.txt",
        seed_report=True)

    def run():
        started = time.perf_counter()
        report = run_pipeline(config)
        elapsed = time.perf_counter() - started
        images = {p.name: p.read_bytes() for p in out.glob("keyframe_*.pgm")}
        return report, (out / "report.json").read_bytes(), images, elapsed

    report_a, bytes_a, images_a, elapsed_a = run()
    _, bytes_b, images_b, _ = run()
    return {"layout": layout, "report": report_a, "elapsed": elapsed_a,
            "bytes_a": bytes_a, "bytes_b": bytes_b,
            "images_a": images_a, "images_b": images_b}


def test_criterion_6_end_to_end_synthetic_video(synthetic_run):
    with _criterion(6, "4,000-frame synthetic: boundaries recovered, one key-frame "
                       "per scene class, repeat eliminated at SD 0, wall < 30s"):
        layout = synthetic_run["layout"]
        report = synthetic_run["report"]

        got_shots = [(s["start"], s["end"]) for s in report["shots"]]
        assert got_shots == list(layout.expected_shots)

        survivors = [k["frame_index"] for k in report["keyframes"]]
        for scene_class in range(layout.scenes):
            spans = [(s, e) for cls, s, e in layout.segments if cls == scene_class]
            assert any(s <= idx < e for idx in survivors for s, e in spans), \
                f"scene class {scene_class} has no surviving key-frame"

        repeat_spans = [(s, e) for cls, s, e in layout.segments[layout.scenes:]]
        assert len(repeat_spans) == 1
        eliminated = [e for e in report["eliminations"]
                      if repeat_spans[0][0] <= e["eliminated"] < repeat_spans[0][1]]
        assert len(eliminated) == 1
        assert eliminated[0]["sd"] == 0.0

        assert synthetic_run["elapsed"] < 30.0, \
            f"pipeline took {synthetic_run['elapsed']:.2f}s, budget 30s"


def test_criterion_7_determinism(synthetic_run):
    with _criterion(7, "two runs produce byte-identical reports and images"):
        assert synthetic_run["bytes_a"] == synthetic_run["bytes_b"]
        assert synthetic_run["images_a"]
        assert synthetic_run["images_a"] == synthetic_run["images_b"]


def test_criterion_8_compactness(synthetic_run):
    with _criterion(8, "identified / total frames <= 0.01"):
        report = synthetic_run["report"]
        ev = report["evaluation"]
        assert ev["identified"] / report["total_frames"] <= 0.01


def test_criterion_9_dedup_idempotence_and_order():
    with _criterion(9, "dedup is idempotent with strictly increasing survivors "
                       "over 300 random candidate sets"):
        rng = np.random.default_rng(9009)
        for _ in range(300):
            count = int(rng.integers(1, 25))
            pool = [rng.uniform(0, 8, 64) for _ in range(max(1, count // 2))]
            candidates = []
            for i in range(count):
                seg = pool[int(rng.integers(0, len(pool)))]
                if rng.random() < 0.5:
                    seg = seg + rng.uniform(-0.1, 0.1, 64)
                candidates.append(KeyFrame(frame_index=i * 2, shot=Shot(i * 2, i * 2 + 1),
                                           bin_key=0, global_entropy=0.0, segments=seg))
            threshold = float(rng.uniform(0.0, 0.3))
            once, _ = dedup_detailed(candidates, threshold)
            twice, _ = dedup_detailed(once, threshold)
            assert [k.frame_index for k in twice] == [k.frame_index for k in once]
            survivors = [k.frame_index for k in once]
            assert all(a < b for a, b in zip(survivors, survivors[1:]))
            assert set(survivors) <= {k.frame_index for k in candidates}
