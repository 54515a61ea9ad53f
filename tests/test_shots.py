import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analyse_oracle, correlation_oracle, frame, rand_pixels
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


@st.composite
def _videos(draw):
    """Frames of up to 64x48 pixels in up to five runs of up to 40 frames.  A
    run holds one texture, dissolves between two or ramps one's brightness,
    and every frame gets its own noise, so the correlations sit away from +-1
    and the histograms change from frame to frame."""
    width, height = draw(st.integers(8, 64)), draw(st.integers(8, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    textures = [rand_pixels(rng, width, height).astype(np.float64) for _ in range(3)]
    frames = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["still", "dissolve", "ramp"]))
        length = draw(st.integers(1, 40))
        a, b = (textures[draw(st.integers(0, 2))] for _ in range(2))
        sigma = draw(st.sampled_from([0.5, 4.0, 30.0]))
        for t in range(length):
            base = {"still": a, "dissolve": a + (b - a) * t / length,
                    "ramp": a + 6.0 * t - 60.0}[kind]
            noisy = base + rng.normal(0.0, sigma, base.shape)
            frames.append(frame(len(frames), np.clip(np.rint(noisy), 0, 255).astype(np.uint8)))
    return frames


@st.composite
def _repeating_videos(draw):
    """Frames of up to 96x64 pixels, some longer than the 4,096-byte blocks
    ``frame_step`` compares by, that repeat the frame before byte for byte, as
    a copy or as the same array, in each of these runs in a drawn order: a run
    of repeats, a cut to a new texture repeated at once, a repeated flat
    frame, and a frame that differs from the one before only in its last byte;
    noisy frames then fill the video up to frame 63, which frame 64 repeats
    across the wrap of ``analyse``'s 64-row block."""
    width, height = draw(st.integers(1, 96)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = [rand_pixels(rng, width, height)]

    def repeat(count):
        for _ in range(count):
            frames.append(frames[-1] if draw(st.booleans()) else frames[-1].copy())

    for run in draw(st.permutations(["repeats", "cut", "flat", "last-byte"])):
        if run == "repeats":
            repeat(draw(st.integers(1, 20)))
        elif run == "cut":
            frames.append(rand_pixels(rng, width, height))
            repeat(draw(st.integers(1, 3)))
        elif run == "flat":
            frames.append(np.full((height, width), draw(st.integers(0, 255)), dtype=np.uint8))
            repeat(draw(st.integers(1, 5)))
        else:
            changed = frames[-1].copy()
            changed.flat[-1] ^= draw(st.integers(1, 255))
            frames.append(changed)
            repeat(draw(st.integers(0, 2)))
    while len(frames) < 64:
        noise = rng.integers(-3, 4, (height, width))
        frames.append(np.clip(frames[-1] + noise, 0, 255).astype(np.uint8))
    frames.insert(64, frames[63].copy())
    return [frame(i, px) for i, px in enumerate(frames)]


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

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_videos(), _repeating_videos()))
    def test_series_equal_the_three_kernel_oracle_bit_for_bit(self, frames):
        entropies, correlations = analyse(iter(frames))
        oracle_entropies, oracle_correlations = analyse_oracle(frames)
        assert [e.hex() for e in entropies] == [e.hex() for e in oracle_entropies]
        assert [c.hex() for c in correlations] == [c.hex() for c in oracle_correlations]

    @pytest.mark.parametrize("view", {
        "every-other-column": lambda a: a[:, ::2],
        "every-other-row": lambda a: a[::2],
        "transposed": lambda a: a.T,
    }.items(), ids=lambda item: item[0])
    def test_non_contiguous_frames_give_the_series_of_contiguous_copies(self, view):
        _, make = view
        rng = np.random.default_rng(139)
        a = rand_pixels(rng, 48, 48)
        planes = [make(rand_pixels(rng, 48, 48) if i % 4 == 3 else a // (1 + i % 3))
                  for i in range(70)]
        assert not planes[0].flags.c_contiguous
        views = analyse(frame(i, px) for i, px in enumerate(planes))
        copies = analyse(frame(i, np.ascontiguousarray(px)) for i, px in enumerate(planes))
        assert [[v.hex() for v in series] for series in views] == \
            [[v.hex() for v in series] for series in copies]


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
