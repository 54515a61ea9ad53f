import math

import numpy as np
import pytest

from conftest import (entropy_oracle, histogram_oracle, numpy_entropy_from_counts,
                      rand_pixels, segmented_oracle, uniform_level_pixels)
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

    def test_flat_frame_is_positive_zero(self):
        # the single non-zero term is 0.0, so the raw sum negates to -0.0
        for level in (0, 7, 255):
            en = frame_entropy(np.full((9, 11), level, dtype=np.uint8))
            assert en == 0.0 and math.copysign(1.0, en) == 1.0

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
        assert frame_entropy(px) == kernels.entropy_from_counts(counts[np.newaxis])[0]

    def test_stacked_rows_equal_each_row_alone_and_the_oracle(self):
        rng = np.random.default_rng(43)
        skewed = rand_pixels(rng, 64, 48)
        skewed.flat[:256] = np.arange(256)
        # 1, 2, 255 and 256 non-zero levels, over different totals
        frames = [np.full((9, 8), 200, dtype=np.uint8),
                  np.array([[0] * 10 + [255] * 30], dtype=np.uint8),
                  np.repeat(np.arange(255, dtype=np.uint8), 3).reshape(15, 51),
                  skewed,
                  uniform_level_pixels(32, 256)]
        assert [int(np.count_nonzero(kernels.histogram256(px))) for px in frames] == \
            [1, 2, 255, 256, 256]
        stack = np.stack([kernels.histogram256(px) for px in frames])
        assert len(set(stack.sum(axis=1).tolist())) == len(frames)
        rows = kernels.entropy_from_counts(stack)
        assert rows.shape == (len(frames),) and rows.dtype == np.float64
        assert [en.hex() for en in rows.tolist()] == \
            [en.hex() for en in numpy_entropy_from_counts(stack).tolist()]
        for px, row, en in zip(frames, stack, rows.tolist()):
            assert en.hex() == kernels.entropy_from_counts(row[np.newaxis])[0].hex()
            assert abs(en - entropy_oracle(px)) < 1e-12
        assert rows[0] == 0.0 and math.copysign(1.0, rows[0]) == 1.0

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_stacks_equal_the_numpy_oracle_bitwise(self, seed):
        # one row for each number of non-zero levels, 0 (an all-zero row) to
        # 256, so every run length meets the pairwise sum's steps at 8 and 128
        # values; counts of up to 2**20 give totals from 1 to 2**28
        rng = np.random.default_rng(seed)
        stack = np.zeros((257, 256), dtype=np.int64)
        for levels, row in enumerate(stack):
            at = rng.choice(256, levels, replace=False)
            row[at] = rng.integers(1, 2 ** int(rng.integers(0, 21)) + 1, levels)
        stack[1, :] = 0
        stack[1, 17] = 1
        stack[256, :] = 2 ** 20
        totals = stack.sum(axis=1)
        assert totals[0] == 0 and totals[1] == 1 and totals.max() == 2 ** 28
        for order in (stack, stack[::-1].copy()):
            assert [en.hex() for en in kernels.entropy_from_counts(order).tolist()] == \
                [en.hex() for en in numpy_entropy_from_counts(order).tolist()]

    @pytest.mark.parametrize("bad", {
        "int32": lambda s: s.astype(np.int32),
        "float64": lambda s: s.astype(np.float64),
        "one-row": lambda s: s[0],
        "255-levels": lambda s: s[:, :255].copy(),
        "3-D": lambda s: s[np.newaxis],
        "every-other-row": lambda s: s[::2],
        "fortran-order": np.asfortranarray,
    }.items(), ids=lambda item: item[0])
    def test_refuses_stacks_the_c_side_cannot_read(self, bad):
        _, make = bad
        stack = np.ones((4, 256), dtype=np.int64)
        with pytest.raises(ValueError, match=r"int64 counts of shape \(k, 256\)"):
            kernels.entropy_from_counts(make(stack))


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

    def test_flat_frame_segments_are_positive_zero(self):
        seg = segmented_entropies(np.full((17, 23), 200, dtype=np.uint8))
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in seg.tolist())

    @pytest.mark.parametrize("height,width", [(8, 8), (9, 8), (8, 15), (13, 21), (61, 45),
                                              (120, 160), (255, 63)])
    def test_bitwise_equal_to_oracle(self, height, width):
        rng = np.random.default_rng(height * 1000 + width)
        for levels in (1, 2, 5, 256):
            px = rand_pixels(rng, width, height, levels=levels)
            assert segmented_entropies(px).tobytes() == segmented_oracle(px).tobytes()

    def test_bitwise_equal_to_oracle_with_flat_cells(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            h, w = (int(v) for v in rng.integers(8, 70, 2))
            px = rand_pixels(rng, w, h, levels=int(rng.integers(2, 257)))
            # flatten a random block of rows and columns, covering whole and part cells
            y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            px[y0:y0 + int(rng.integers(1, h)), x0:x0 + int(rng.integers(1, w))] = \
                int(rng.integers(0, 256))
            seg = segmented_entropies(px)
            assert seg.tobytes() == segmented_oracle(px).tobytes()
            assert np.all(seg >= 0.0) and np.all(seg <= 8.0)

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

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((64,), (63,)), ((3, 63), (64,)), ((64,), (3, 64)), ((2, 3, 64), (64,)),
        ((), (64,)), ((64, 3), (64,)), ((3, 64), (3, 64))])
    def test_rejects_bad_shapes(self, a_shape, b_shape):
        with pytest.raises(ValueError):
            dissimilarity(np.zeros(a_shape), np.zeros(b_shape))

    def test_stack_rows_equal_pairwise_calls_bitwise(self):
        rng = np.random.default_rng(37)
        for k in (1, 2, 7, 64, 400):
            stack = rng.uniform(0, 8, (k, 64))
            b = rng.uniform(0, 8, 64)
            row = dissimilarity(stack, b)
            assert row.shape == (k,) and row.dtype == np.float64
            for i in range(k):
                assert row[i].tobytes() == np.float64(dissimilarity(stack[i], b)).tobytes()

    def test_empty_stack_gives_empty_row(self):
        assert dissimilarity(np.empty((0, 64)), np.zeros(64)).shape == (0,)

    def test_one_dimensional_pair_returns_float(self):
        assert type(dissimilarity(np.zeros(64), np.ones(64))) is float
