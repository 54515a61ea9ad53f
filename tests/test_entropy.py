import math

import numpy as np
import pytest

from conftest import (entropy_oracle, histogram_oracle, rand_pixels,
                      segmented_oracle, uniform_level_pixels)
from entropykf import kernels
from entropykf.entropy import (dissimilarity, frame_entropy, modified_entropy,
                               segment_bounds, segmented_entropies)


class TestHistogram:
    def test_all_zero_frame(self):
        counts = kernels.histogram256(np.zeros((4, 4), dtype=np.uint8))
        assert counts[0] == 16
        assert counts[1:].sum() == 0
        assert counts.sum() == 16

    def test_two_level_frame(self):
        counts = kernels.histogram256(np.array([[0, 0], [255, 255]], dtype=np.uint8))
        assert counts[0] == 2
        assert counts[255] == 2
        assert counts[1:255].sum() == 0
        assert counts.sum() == 4

    def test_matches_per_pixel_counting_oracle(self):
        rng = np.random.default_rng(42)
        px = rand_pixels(rng, 64, 64)
        assert kernels.histogram256(px).tolist() == histogram_oracle(px)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            px = rand_pixels(rng, int(rng.integers(8, 50)), int(rng.integers(8, 50)))
            assert int(kernels.histogram256(px).sum()) == px.size


class TestEntropy:
    def test_single_level_is_zero(self):
        px = np.full((6, 6), 7, dtype=np.uint8)
        assert frame_entropy(px) == 0.0

    def test_fair_binary_source_is_one_bit(self):
        px = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        assert frame_entropy(px) == 1.0

    def test_uniform_256_levels_is_eight_bits(self):
        px = uniform_level_pixels(16, 256)
        assert frame_entropy(px) == 8.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(7)
        px = rand_pixels(rng, 32, 32)
        assert abs(frame_entropy(px) - entropy_oracle(px)) < 1e-12

    def test_bounds_hold_for_random_frames(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            px = rand_pixels(rng, 16, 16, levels=int(rng.integers(2, 257)))
            assert 0.0 <= frame_entropy(px) <= 8.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        px = rand_pixels(rng, 24, 24)
        shuffled = px.ravel().copy()
        rng.shuffle(shuffled)
        shuffled = shuffled.reshape(px.shape)
        assert frame_entropy(px) == frame_entropy(shuffled)
        assert modified_entropy(frame_entropy(px)) == modified_entropy(frame_entropy(shuffled))

    def test_frame_entropy_equals_composition(self):
        rng = np.random.default_rng(5)
        px = rand_pixels(rng, 20, 30)
        counts = kernels.histogram256(px)
        assert frame_entropy(px) == kernels.entropy_from_counts(counts, px.size)


class TestModifiedEntropy:
    @pytest.mark.parametrize("en,expected", [
        (0.0, 0),
        (2.3, 5),     # round(5.29)
        (3.0, 9),
        (2.0, 4),
        (7.99, 64),   # round(63.8401)
        (8.0, 64),
        (0.7071067811865476, 1),  # squares to 0.5000000000000001 -> rounds up
    ])
    def test_values(self, en, expected):
        assert modified_entropy(en) == expected

    def test_monotone_non_decreasing(self):
        grid = np.linspace(0.0, 8.0, 4001)
        keys = [modified_entropy(float(en)) for en in grid]
        assert all(a <= b for a, b in zip(keys, keys[1:]))
        assert keys[0] == 0 and keys[-1] == 64

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            modified_entropy(-0.01)
        with pytest.raises(ValueError):
            modified_entropy(8.01)


class TestSegmentedEntropies:
    def test_all_zero_frame(self):
        seg = segmented_entropies(np.zeros((16, 16), dtype=np.uint8))
        assert seg.shape == (64,)
        assert np.all(seg == 0.0)

    def test_single_hot_segment(self):
        px = np.full((16, 16), 7, dtype=np.uint8)
        # segment row 2, column 3 of a 16x16 frame is the 2x2 block at (4, 6)
        px[4:6, 6:8] = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        seg = segmented_entropies(px)
        assert seg[2 * 8 + 3] == 1.0
        mask = np.ones(64, dtype=bool)
        mask[2 * 8 + 3] = False
        assert np.all(seg[mask] == 0.0)

    def test_matches_materialised_segment_oracle(self):
        rng = np.random.default_rng(13)
        px = rand_pixels(rng, 100, 60)
        assert np.array_equal(segmented_entropies(px), segmented_oracle(px))

    def test_non_divisible_dimensions_remainder_goes_last(self):
        bounds = segment_bounds(60)
        assert bounds.tolist() == [0, 7, 14, 21, 28, 35, 42, 49, 60]
        bounds = segment_bounds(64)
        assert bounds.tolist() == [0, 8, 16, 24, 32, 40, 48, 56, 64]

    def test_rejects_frames_below_grid_minimum(self):
        with pytest.raises(ValueError, match="8x8"):
            segmented_entropies(np.zeros((7, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="8x8"):
            segmented_entropies(np.zeros((16, 7), dtype=np.uint8))


class TestDissimilarity:
    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0, 8, 64)
        assert dissimilarity(a, a) == 0.0

    def test_constant_offset_zero(self):
        rng = np.random.default_rng(19)
        # eighth-steps keep every addition exact, so the SD is exactly zero
        a = rng.integers(0, 60, 64) / 8.0
        assert dissimilarity(a, a + 0.25) == 0.0

    def test_single_hot_case(self):
        a = np.zeros(64)
        b = np.zeros(64)
        b[5] = 1.0
        sd = dissimilarity(a, b)
        assert abs(sd - math.sqrt(63) / 64) < 1e-12
        assert abs(sd - 0.12402) < 1e-6

    def test_symmetric_and_non_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.uniform(0, 8, 64)
            b = rng.uniform(0, 8, 64)
            sd = dissimilarity(a, b)
            assert sd >= 0.0
            assert sd == dissimilarity(b, a)

    def test_zero_only_for_constant_difference(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = rng.uniform(0, 8, 64)
            b = rng.uniform(0, 8, 64)
            if not np.allclose(b - a, (b - a)[0]):
                assert dissimilarity(a, b) > 0.0

    def test_common_shift_invariance(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(0, 8, 64)
        b = rng.uniform(0, 8, 64)
        shift = rng.uniform(-4, 4, 64)
        assert dissimilarity(a + shift, b + shift) == pytest.approx(dissimilarity(a, b), abs=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            dissimilarity(np.zeros(63), np.zeros(64))
