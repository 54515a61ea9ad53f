import numpy as np
import pytest

from conftest import correlation_oracle, frame, rand_pixels
from entropykf.entropy import frame_entropy
from entropykf.pipeline import analyse
from entropykf.shots import Shot, correlation, detect_cuts, merge_short_shots


class TestShot:
    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Shot(5, 5)

    def test_len_and_contains(self):
        s = Shot(10, 14)
        assert len(s) == 4
        assert 10 in s and 13 in s
        assert 9 not in s and 14 not in s


class TestCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(61)
        f = frame(0, rand_pixels(rng, 32, 32))
        assert correlation(f, f) == 1.0

    def test_inversion_is_minus_one(self):
        rng = np.random.default_rng(67)
        px = rand_pixels(rng, 32, 32)
        assert correlation(frame(0, px), frame(1, 255 - px)) == -1.0

    def test_flat_pair_equal_value(self):
        a = frame(0, np.full((8, 8), 42, dtype=np.uint8))
        b = frame(1, np.full((8, 8), 42, dtype=np.uint8))
        assert correlation(a, b) == 1.0

    def test_flat_pair_distant_values(self):
        a = frame(0, np.full((8, 8), 10, dtype=np.uint8))
        b = frame(1, np.full((8, 8), 100, dtype=np.uint8))
        assert correlation(a, b) == 0.0

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            a = rand_pixels(rng, 32, 32)
            b = rand_pixels(rng, 32, 32)
            assert correlation(frame(0, a), frame(1, b)) == \
                pytest.approx(correlation_oracle(a, b), abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(73)
        a = frame(0, rand_pixels(rng, 16, 16))
        b = frame(1, rand_pixels(rng, 16, 16))
        assert correlation(a, b) == correlation(b, a)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(79)
        a = rng.integers(0, 200, (16, 16), dtype=np.uint8)
        b = rng.integers(0, 200, (16, 16), dtype=np.uint8)
        shifted = (b + 50).astype(np.uint8)  # no wraparound: values < 200
        assert correlation(frame(0, a), frame(1, shifted)) == \
            correlation(frame(0, a), frame(1, b))

    def test_frames_and_arrays_agree_bit_for_bit(self):
        # a Frame brings its cached histogram, a bare array is histogrammed here
        rng = np.random.default_rng(137)
        for width, height in [(9, 13), (32, 32), (64, 48)]:
            a = rand_pixels(rng, width, height)
            noise = rng.integers(-40, 41, a.shape)
            b = np.clip(a.astype(np.int16) + noise, 0, 255).astype(np.uint8)
            r = correlation(frame(0, a), frame(1, b))
            assert r.hex() == correlation(a, b).hex()

    def test_dimension_mismatch_names_both(self):
        a = frame(0, np.zeros((24, 32), dtype=np.uint8))
        b = frame(1, np.zeros((16, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"32x24.*16x16"):
            correlation(a, b)
        with pytest.raises(ValueError, match=r"32x24.*16x16"):
            analyse(iter([a, b]))

    def test_arrays_must_be_8_bit(self):
        # the kernels read 256-level histograms, so wider samples are refused
        a = np.zeros((8, 8), dtype=np.int16)
        with pytest.raises(ValueError, match="uint8"):
            correlation(a, a)


def _texture_stream(blocks):
    """Frames from a list of (pixels, count) runs, indices assigned in order."""
    index = 0
    for px, count in blocks:
        for _ in range(count):
            yield frame(index, px)
            index += 1


class TestDetectCuts:
    def test_identical_frames_one_shot(self):
        rng = np.random.default_rng(83)
        px = rand_pixels(rng, 16, 16)
        shots = detect_cuts(analyse(_texture_stream([(px, 100)]))[1], 0.9)
        assert shots == [Shot(0, 100)]

    def test_two_textures_two_shots(self):
        rng = np.random.default_rng(89)
        a = rand_pixels(rng, 32, 32)
        b = rand_pixels(rng, 32, 32)
        # seam correlation must be below threshold for the planted cut to exist
        assert correlation_oracle(a, b) < 0.9
        shots = detect_cuts(analyse(_texture_stream([(a, 50), (b, 50)]))[1], 0.9)
        assert shots == [Shot(0, 50), Shot(50, 100)]

    def test_alternating_textures_all_singletons(self):
        rng = np.random.default_rng(97)
        a = rand_pixels(rng, 16, 16)
        b = rand_pixels(rng, 16, 16)
        frames = [frame(i, a if i % 2 == 0 else b) for i in range(8)]
        shots = detect_cuts(analyse(iter(frames))[1], 0.9)
        assert shots == [Shot(i, i + 1) for i in range(8)]

    def test_single_frame_stream(self):
        shots = detect_cuts(analyse(iter([frame(0, np.zeros((8, 8), dtype=np.uint8))]))[1], 0.9)
        assert shots == [Shot(0, 1)]

    def test_empty_series_is_one_frame(self):
        assert detect_cuts([], 0.9) == [Shot(0, 1)]

    @pytest.mark.parametrize("threshold", [0.9, 0.5, 1.0, np.nextafter(0.0, 1.0)])
    def test_correlation_equal_to_threshold_is_not_a_cut(self, threshold):
        below = np.nextafter(threshold, 0.0)
        assert detect_cuts([threshold, below, threshold], threshold) == \
            [Shot(0, 2), Shot(2, 4)]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            detect_cuts([1.0], 0.0)
        with pytest.raises(ValueError):
            detect_cuts([1.0], 1.1)

    def test_output_tiles_stream_range(self):
        rng = np.random.default_rng(99)
        textures = [rand_pixels(rng, 16, 16) for _ in range(4)]
        runs = [(textures[int(rng.integers(0, 4))], int(rng.integers(1, 12)))
                for _ in range(10)]
        n = sum(c for _, c in runs)
        shots = detect_cuts(analyse(_texture_stream(runs))[1], 0.9)
        assert shots[0].start == 0 and shots[-1].end == n
        for prev, cur in zip(shots, shots[1:]):
            assert prev.end == cur.start


class TestAnalyse:
    def test_empty_stream_errors(self):
        with pytest.raises(ValueError, match="empty"):
            analyse(iter([]))

    # 64 histograms make one entropy block in analyse
    @pytest.mark.parametrize("count", [1, 10, 63, 64, 65, 130])
    def test_series_equal_the_per_frame_calls_bit_for_bit(self, count):
        rng = np.random.default_rng(101)
        a = rand_pixels(rng, 24, 16)
        frames = [frame(i, rand_pixels(rng, 24, 16) if i % 3 else a) for i in range(count)]
        entropies, correlations = analyse(iter(frames))
        assert len(correlations) == len(entropies) - 1 == count - 1
        assert [c.hex() for c in correlations] == \
            [correlation(p, q).hex() for p, q in zip(frames, frames[1:])]
        assert [e.hex() for e in entropies] == [frame_entropy(f).hex() for f in frames]


class TestMergeShortShots:
    def test_leading_short_merges_forward(self):
        assert merge_short_shots([Shot(0, 3), Shot(3, 100)], 10) == [Shot(0, 100)]

    def test_long_shots_unchanged(self):
        shots = [Shot(0, 50), Shot(50, 100)]
        assert merge_short_shots(shots, 10) == shots

    def test_chained_short_runs_merge_forward(self):
        shots = [Shot(0, 40), Shot(40, 44), Shot(44, 48), Shot(48, 90)]
        assert merge_short_shots(shots, 10) == [Shot(0, 40), Shot(40, 90)]

    def test_trailing_short_merges_backward(self):
        assert merge_short_shots([Shot(0, 50), Shot(50, 55)], 10) == [Shot(0, 55)]

    def test_whole_video_shorter_than_min(self):
        assert merge_short_shots([Shot(0, 2), Shot(2, 5)], 10) == [Shot(0, 5)]

    def test_empty_input(self):
        assert merge_short_shots([], 10) == []

    def test_tiling_and_min_length_property(self):
        rng = np.random.default_rng(111)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(0, 8))
            cuts = sorted({int(c) for c in rng.integers(1, n, size=k)}) if n > 1 else []
            bounds = [0] + cuts + [n]
            shots = [Shot(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
            min_len = int(rng.integers(1, 20))
            merged = merge_short_shots(shots, min_len)
            assert merged[0].start == 0 and merged[-1].end == n
            for prev, cur in zip(merged, merged[1:]):
                assert prev.end == cur.start
            if len(merged) > 1 or n >= min_len:
                assert all(len(s) >= min_len for s in merged)
