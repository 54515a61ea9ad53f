import numpy as np
import pytest

from conftest import dedup_oracle, entropy_oracle, frame, rand_pixels, uniform_level_pixels
from entropykf import extraction
from entropykf.entropy import frame_entropy, modified_entropy
from entropykf.extraction import (EntropyBin, KeyFrame, bin_indexed_keys,
                                  dedup_detailed, fallback_pick, select_keyframes)
from entropykf.ingest import SourceKind, SourceSpec, write_pgm
from entropykf.pipeline import PipelineConfig, run_pipeline
from entropykf.shots import Shot


def _entropy_level_frame(levels: int) -> np.ndarray:
    """16x16 frame with entropy exactly log2(levels)."""
    return uniform_level_pixels(16, levels)


def _bin(frames):
    """Bin a shot's frames the way run_pipeline does: by squared-entropy key."""
    return bin_indexed_keys((f.index, modified_entropy(frame_entropy(f))) for f in frames)


class TestBinFrames:
    def test_identical_frames_single_bin(self):
        px = _entropy_level_frame(8)
        frames = [frame(i, px) for i in range(30)]
        bins = _bin(frames)
        assert len(bins) == 1
        assert bins[0].members == list(range(30))

    def test_interleaved_entropy_levels(self):
        # entropy 3.0 -> key 9, entropy 2.0 -> key 4
        three_bits = _entropy_level_frame(8)
        two_bits = _entropy_level_frame(4)
        frames = []
        for i in range(35):
            px = two_bits if i % 3 == 2 and i < 30 else three_bits
            frames.append(frame(i, px))
        assert sum(1 for f in frames if f.pixels is two_bits) == 10
        bins = _bin(frames)
        assert [(b.key, len(b.members)) for b in bins] == [(9, 25), (4, 10)]

    def test_creation_order_is_first_occurrence(self):
        frames = [frame(0, _entropy_level_frame(4)),
                  frame(1, _entropy_level_frame(8)),
                  frame(2, _entropy_level_frame(4))]
        bins = _bin(frames)
        assert [b.key for b in bins] == [4, 9]
        assert bins[0].members == [0, 2]

    def test_partition_matches_grouping_oracle(self):
        rng = np.random.default_rng(211)
        frames = []
        for i in range(500):
            levels = int(rng.integers(2, 40))
            frames.append(frame(i, rand_pixels(rng, 16, 16, levels=levels)))
        bins = _bin(frames)
        # oracle: group indices by independently computed round(entropy^2)
        expected: dict[int, list[int]] = {}
        for f in frames:
            en = entropy_oracle(f.pixels)
            key = int(np.floor(en * en + 0.5))
            expected.setdefault(key, []).append(f.index)
        assert {b.key: b.members for b in bins} == expected
        all_members = sorted(m for b in bins for m in b.members)
        assert all_members == list(range(500))

    def test_empty_shot_rejected(self):
        # the pipeline bins the frame range of a Shot, and a Shot is never empty
        with pytest.raises(ValueError):
            Shot(5, 5)
        assert bin_indexed_keys([]) == []


class TestSelectKeyframes:
    def test_centre_of_25_member_bin(self):
        b = EntropyBin(key=3, members=list(range(100, 125)))
        picks = select_keyframes([b], 20)
        assert picks == [(b, 112)]  # position floor(25/2) = 12

    def test_gate_is_strict(self):
        b = EntropyBin(key=3, members=list(range(20)))
        assert select_keyframes([b], 20) == []
        b21 = EntropyBin(key=3, members=list(range(21)))
        assert len(select_keyframes([b21], 20)) == 1

    def test_mixed_sizes(self):
        bins = [EntropyBin(key=1, members=list(range(5))),
                EntropyBin(key=2, members=list(range(100, 130))),
                EntropyBin(key=3, members=list(range(200, 221)))]
        picks = select_keyframes(bins, 20)
        assert [(b.key, idx) for b, idx in picks] == [(2, 115), (3, 210)]

    def test_fallback_prefers_largest_then_earliest(self):
        bins = [EntropyBin(key=1, members=[0, 1, 2]),
                EntropyBin(key=2, members=[3, 4, 5]),
                EntropyBin(key=3, members=[6, 7])]
        b, idx = fallback_pick(bins)
        assert b.key == 1 and idx == 1


def _run_shot(tmp_path, px, count, **kwargs) -> dict:
    """run_pipeline over one static shot of ``count`` copies of ``px``."""
    src = tmp_path / "frames"
    src.mkdir(parents=True)
    for i in range(count):
        write_pgm(src / f"f{i:03d}.pgm", px)
    spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(src))
    return run_pipeline(PipelineConfig(source=spec, output_dir=tmp_path / "out", **kwargs))


class TestExtractShotKeyframes:
    def test_full_records(self, tmp_path):
        report = _run_shot(tmp_path, _entropy_level_frame(8), 25, min_bin_size=20)
        assert len(report["candidates"]) == 1
        kf = report["keyframes"][0]
        assert kf["frame_index"] == 12
        assert kf["bin_key"] == 9
        assert kf["global_entropy"] == 3.0
        assert kf["shot"] == {"start": 0, "end": 25}
        assert len(kf["segments"]) == 64
        assert not kf["fallback"]

    def test_gated_shot_yields_nothing_without_fallback(self, tmp_path):
        px = _entropy_level_frame(8)
        assert _run_shot(tmp_path / "a", px, 10)["candidates"] == []
        kfs = _run_shot(tmp_path / "b", px, 10, fallback_keyframe=True)["candidates"]
        assert len(kfs) == 1
        assert kfs[0]["frame_index"] == 5
        assert kfs[0]["fallback"]


def _keyframe(index: int, segments: np.ndarray) -> KeyFrame:
    return KeyFrame(frame_index=index, shot=Shot(index, index + 1),
                    bin_key=0, global_entropy=0.0, segments=segments)


class TestDedup:
    def test_identical_pair_drops_second(self):
        rng = np.random.default_rng(223)
        seg = rng.uniform(0, 8, 64)
        survivors, eliminations = dedup_detailed(
            [_keyframe(10, seg), _keyframe(50, seg.copy())], 0.0)
        assert [k.frame_index for k in survivors] == [10]
        assert len(eliminations) == 1
        assert eliminations[0].eliminated == 50
        assert eliminations[0].kept == 10
        assert eliminations[0].sd == 0.0

    def test_all_distinct_unchanged(self):
        rng = np.random.default_rng(227)
        cands = [_keyframe(i * 10, rng.uniform(0, 8, 64)) for i in range(6)]
        assert dedup_detailed(cands, 0.05) == (cands, [])

    def test_keep_earliest_of_triple(self):
        rng = np.random.default_rng(229)
        base = rng.uniform(0, 8, 64)
        cands = [_keyframe(1, base),
                 _keyframe(2, base + rng.uniform(-0.001, 0.001, 64)),
                 _keyframe(3, base + rng.uniform(-0.001, 0.001, 64))]
        survivors, _ = dedup_detailed(cands, 0.01)
        assert [k.frame_index for k in survivors] == [1]

    def test_zero_threshold_removes_only_exact(self):
        rng = np.random.default_rng(233)
        base = rng.uniform(0, 8, 64)
        near = base.copy()
        near[0] += 1e-9
        cands = [_keyframe(1, base), _keyframe(2, base.copy()), _keyframe(3, near)]
        survivors, _ = dedup_detailed(cands, 0.0)
        assert [k.frame_index for k in survivors] == [1, 3]

    def test_idempotent_and_increasing(self):
        rng = np.random.default_rng(239)
        for _ in range(50):
            count = int(rng.integers(1, 20))
            pool = [rng.uniform(0, 8, 64) for _ in range(max(1, count // 2))]
            cands = []
            for i in range(count):
                seg = pool[int(rng.integers(0, len(pool)))]
                jitter = rng.uniform(-0.05, 0.05, 64) if rng.random() < 0.5 else 0.0
                cands.append(_keyframe(i * 3, seg + jitter))
            threshold = float(rng.uniform(0, 0.3))
            once, _ = dedup_detailed(cands, threshold)
            twice, _ = dedup_detailed(once, threshold)
            assert [k.frame_index for k in twice] == [k.frame_index for k in once]
            indices = [k.frame_index for k in once]
            assert indices == sorted(set(indices))
            assert set(indices) <= {k.frame_index for k in cands}

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            dedup_detailed([], -0.1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_rejects_non_finite_threshold(self, threshold):
        # nan compares false with every SD, so without the check three
        # identical candidates would all survive
        seg = np.random.default_rng(241).uniform(0, 8, 64)
        with pytest.raises(ValueError, match="finite"):
            dedup_detailed([_keyframe(i, seg.copy()) for i in range(3)], threshold)


def _assert_dedup_matches_oracle(cands, threshold):
    """Same survivors (the very objects), same eliminations, same SD bits."""
    survivors, eliminations = dedup_detailed(cands, threshold)
    want_survivors, want_eliminations = dedup_oracle(cands, threshold)
    assert [id(k) for k in survivors] == [id(k) for k in want_survivors]
    assert [(e.eliminated, e.kept) for e in eliminations] == \
        [(e.eliminated, e.kept) for e in want_eliminations]
    assert [np.float64(e.sd).tobytes() for e in eliminations] == \
        [np.float64(e.sd).tobytes() for e in want_eliminations]
    return survivors, eliminations


class TestDedupMatchesScalarOracle:
    def test_zero_one_and_many_survivors(self):
        rng = np.random.default_rng(241)
        assert _assert_dedup_matches_oracle([], 0.15) == ([], [])
        one = [_keyframe(0, rng.uniform(0, 8, 64))]
        assert _assert_dedup_matches_oracle(one, 0.15) == (one, [])
        distinct = [_keyframe(i, rng.uniform(0, 8, 64)) for i in range(80)]
        survivors, _ = _assert_dedup_matches_oracle(distinct, 0.15)
        assert len(survivors) == 80
        # eighth-steps keep every shift exact, so each copy is at SD exactly 0
        base = rng.integers(0, 60, 64) / 8.0
        copies = [_keyframe(i, base + i / 8) for i in range(20)]
        survivors, eliminations = _assert_dedup_matches_oracle(copies, 0.0)
        assert len(survivors) == 1 and len(eliminations) == 19

    def test_ties_at_the_threshold_are_eliminated(self):
        rng = np.random.default_rng(251)
        ties = 0
        for _ in range(60):
            pool = [rng.uniform(0, 8, 64) for _ in range(int(rng.integers(1, 8)))]
            cands = []
            for i in range(int(rng.integers(2, 40))):
                seg = pool[int(rng.integers(0, len(pool)))]
                if rng.random() < 0.6:
                    seg = seg + rng.uniform(-0.2, 0.2, 64)
                cands.append(_keyframe(i, seg))
            # the threshold is the exact SD of one candidate pair, so that pair ties
            i, j = (int(v) for v in rng.choice(len(cands), 2, replace=False))
            threshold = float(np.std(cands[j].segments - cands[i].segments))
            _, eliminations = _assert_dedup_matches_oracle(cands, threshold)
            ties += sum(e.sd == threshold for e in eliminations)
        assert ties > 0

    def test_zero_threshold(self):
        rng = np.random.default_rng(257)
        for _ in range(30):
            pool = [rng.uniform(0, 8, 64) for _ in range(3)]
            cands = []
            for i in range(25):
                seg = pool[int(rng.integers(0, 3))].copy()
                if rng.random() < 0.3:
                    seg[int(rng.integers(0, 64))] += 1e-9
                cands.append(_keyframe(i, seg))
            _, eliminations = _assert_dedup_matches_oracle(cands, 0.0)
            assert all(e.sd == 0.0 for e in eliminations)

    def test_one_dissimilarity_call_per_candidate(self, monkeypatch):
        # the scan looks dissimilarity up at call time, where a tracer can wrap it
        rng = np.random.default_rng(263)
        calls = []
        real = extraction.dissimilarity
        monkeypatch.setattr(extraction, "dissimilarity",
                            lambda a, b: calls.append(len(a)) or real(a, b))
        seg = rng.uniform(0, 8, 64)
        cands = [_keyframe(i, seg + (i % 3) * rng.uniform(0, 1, 64)) for i in range(9)]
        dedup_detailed(cands, 0.15)
        assert len(calls) == 9
        assert calls[0] == 0  # the first candidate meets an empty stack


class TestBinIndexedKeys:
    def test_groups_pairs(self):
        bins = bin_indexed_keys([(0, 5), (1, 7), (2, 5), (3, 7), (4, 5)])
        assert [(b.key, b.members) for b in bins] == [(5, [0, 2, 4]), (7, [1, 3])]
