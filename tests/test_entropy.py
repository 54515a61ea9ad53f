import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bincount_histogram, counts_frame, entropy_oracle,
                      exact_entropy_from_counts, histogram_oracle, numpy_entropy_from_counts,
                      pinned_entropy_stack, rand_pixels, segmented_oracle, uniform_level_pixels)
from entropykf import kernels
from entropykf.entropy import (dissimilarity, frame_entropy, modified_entropies,
                               modified_entropy, segmented_entropies)

# the two ends of the entropy range, subnormals, the smallest normal, and -0.0
_SPECIAL = np.array([0.0, 8.0, 5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -0.0, 4.0])


@st.composite
def _stacks(draw):
    """A (k, 64) stack of 0 to 200 rows and a 64-vector: random rows, rows
    equal to the vector or a uniform shift of it, rows a hair from it, and
    rows of the special values, which the vector may hold too."""
    k = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.choice(_SPECIAL, 64) if draw(st.booleans()) else rng.uniform(0.0, 8.0, 64)
    stack = rng.uniform(0.0, 8.0, (k, 64))
    kinds = rng.integers(0, 5, k)
    stack[kinds == 1] = b
    stack[kinds == 2] = b + rng.uniform(-1.0, 1.0, ((kinds == 2).sum(), 1))
    stack[kinds == 3] = b + rng.uniform(-1e-12, 1e-12, ((kinds == 3).sum(), 64))
    stack[kinds == 4] = rng.choice(_SPECIAL, ((kinds == 4).sum(), 64))
    return stack, b


def _key_series():
    """Entropies at each key's rounding point sqrt(k + 0.5), one ulp either
    side of it, and anywhere in [0, 8]."""
    points = [math.sqrt(k + 0.5) for k in range(64)]
    edges = [v for p in points for v in (math.nextafter(p, 0.0), p, math.nextafter(p, 9.0))]
    return st.lists(st.one_of(st.sampled_from(edges + [0.0, -0.0, 8.0, 5e-324]),
                              st.floats(0.0, 8.0)), max_size=300)


def _histogram(px):
    """The histogram ``kernels.frame_step`` counts for a frame stepped against itself."""
    block = np.empty((1, 256), dtype=np.int64)
    kernels.frame_step(px, px, block, 0, 0)
    return block[0]


class TestHistogram:
    """The one histogram route, a ``kernels.frame_step`` row."""

    def test_all_zero_frame(self):
        counts = _histogram(np.zeros((4, 4), dtype=np.uint8))
        assert counts[0] == 16
        assert counts[1:].sum() == 0
        assert counts.sum() == 16

    def test_two_level_frame(self):
        counts = _histogram(np.array([[0, 0], [255, 255]], dtype=np.uint8))
        assert counts[0] == 2
        assert counts[255] == 2
        assert counts[1:255].sum() == 0
        assert counts.sum() == 4

    def test_matches_per_pixel_counting_oracle(self):
        rng = np.random.default_rng(42)
        px = rand_pixels(rng, 64, 64)
        assert _histogram(px).tolist() == histogram_oracle(px)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            px = rand_pixels(rng, int(rng.integers(8, 50)), int(rng.integers(8, 50)))
            assert int(_histogram(px).sum()) == px.size


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
        counts = bincount_histogram(px)
        assert frame_entropy(px).hex() == exact_entropy_from_counts(counts)[0].hex() == \
            kernels.frame_step(px, px, np.empty((1, 256), dtype=np.int64), 0, 0)[1].hex()

    def test_stacked_rows_equal_each_row_alone_and_the_oracle(self):
        # each row's entropy, taken alone from a 1-row frame of its counts,
        # has the bits the frame itself gets and the exact oracle gives
        rng = np.random.default_rng(43)
        skewed = rand_pixels(rng, 64, 48)
        skewed.flat[:256] = np.arange(256)
        # 1, 2, 255 and 256 non-zero levels, over different totals
        frames = [np.full((9, 8), 200, dtype=np.uint8),
                  np.array([[0] * 10 + [255] * 30], dtype=np.uint8),
                  np.repeat(np.arange(255, dtype=np.uint8), 3).reshape(15, 51),
                  skewed,
                  uniform_level_pixels(32, 256)]
        assert [int(np.count_nonzero(bincount_histogram(px))) for px in frames] == \
            [1, 2, 255, 256, 256]
        stack = np.stack([bincount_histogram(px) for px in frames])
        assert len(set(stack.sum(axis=1).tolist())) == len(frames)
        rows = np.array([frame_entropy(counts_frame(row)) for row in stack])
        assert [en.hex() for en in rows.tolist()] == \
            [en.hex() for en in exact_entropy_from_counts(stack).tolist()]
        assert np.abs(rows - numpy_entropy_from_counts(stack)).max() <= 1e-12
        for px, en in zip(frames, rows.tolist()):
            assert en.hex() == frame_entropy(px).hex()
            assert abs(en - entropy_oracle(px)) < 1e-12
        assert rows[0] == 0.0 and math.copysign(1.0, rows[0]) == 1.0

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_stacks_equal_the_exact_oracle_bitwise(self, seed):
        # one row for each number of non-zero levels, 0 (an all-zero row) to
        # 256, so every run length meets the pairwise sum's steps at 8 and 128
        # values; counts of up to 2**20 give totals from 1 to 2**28, the
        # largest frame's pixels
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
        rows = np.array([frame_entropy(counts_frame(row)) for row in stack])
        assert [en.hex() for en in rows.tolist()] == \
            [en.hex() for en in exact_entropy_from_counts(stack).tolist()]
        assert np.abs(rows - numpy_entropy_from_counts(stack)).max() <= 1e-12

    def test_an_all_zero_row_gives_zero(self):
        # a frame with no pixels counts an all-zero row
        for px in (counts_frame(np.zeros(256, dtype=np.int64)), np.zeros((0, 5), dtype=np.uint8),
                   np.zeros((5, 0), dtype=np.uint8)):
            en = frame_entropy(px)
            assert en == 0.0 and math.copysign(1.0, en) == 1.0

    @pytest.mark.parametrize("counts", [[2**24 - 1, 1], [4095, 4096, 4097], [2**24 - 1, 4096],
                                        [2**27, 3, 2**27 - 3], [2**27 + 1, 2**27 - 1]])
    def test_counts_above_the_table_take_the_series(self, counts):
        # the kernel reads log2 of counts below 4,096 from a table filled at
        # import; above it, and for every total here, it runs the series,
        # which the exact oracle runs for every count; the last two fill the
        # largest frame, 2**28 pixels
        row = np.zeros(256, dtype=np.int64)
        row[7:7 + len(counts)] = counts
        assert frame_entropy(counts_frame(row)).hex() == exact_entropy_from_counts(row)[0].hex()


# the .hex() of the entropy of each row of conftest.pinned_entropy_stack, as
# the kernel gives it on any host; the last three rows are 2**k equally
# filled levels
_PINNED_BITS = [
    "0x1.fffb564ed6e8fp+2", "0x1.f5d78053ebc34p+2", "0x1.27e47f09b6895p+1",
    "0x1.ffa29ea080858p+2", "0x1.fe2cc570e6ac2p+2",  # frames
    "0x1.d6fddd9dc7f0fp+2", "0x1.da4f0aa53435ep+2", "0x1.db44448a75f02p+2",
    "0x1.d6fddd9dc7f10p+2", "0x1.d6fddd9dc7f0fp+2", "0x0.0p+0",
    "0x1.36efa0804500dp+2", "0x1.36efa0804500cp+2",  # grid cells
    "0x1.ae052378d85b4p-8", "0x1.eeb8a536a92b2p+2",
    "0x1.ef91114bd5fccp+2",  # large counts
    "0x1.0000000000000p+0", "0x1.8000000000000p+1", "0x1.0000000000000p+3",
]


def _pinned_bits(env: dict) -> list[str]:
    """The entropies of the pinned stack's rows, each taken from a 1-row frame
    of its counts in a fresh interpreter."""
    tests, src = Path(__file__).parent, Path(kernels.__file__).parents[1]
    code = ("from conftest import counts_frame, pinned_entropy_stack\n"
            "from entropykf.entropy import frame_entropy\n"
            "print(*(frame_entropy(counts_frame(row)).hex() for row in pinned_entropy_stack()))")
    path = os.pathsep.join(filter(None, [str(tests), str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=path), check=True)
    return done.stdout.split()


class TestEntropyBits:
    """Entropy bits depend on no numpy build, libm or CPU dispatch: the kernel's
    log2 is its own."""

    def test_the_pinned_table_is_the_exact_oracle_s(self):
        stack = pinned_entropy_stack()
        assert [frame_entropy(counts_frame(row)).hex() for row in stack] == _PINNED_BITS
        assert [v.hex() for v in exact_entropy_from_counts(stack).tolist()] == _PINNED_BITS
        assert _PINNED_BITS[-3:] == [v.hex() for v in (1.0, 3.0, 8.0)]

    @pytest.mark.parametrize("disabled", [None, "X86_V4 AVX512_ICL AVX512_SPR"],
                             ids=["default", "avx512-off"])
    def test_the_pinned_table_holds_whichever_loops_numpy_takes(self, disabled):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        assert _pinned_bits(env) == _PINNED_BITS


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

    @settings(max_examples=300, deadline=None)
    @given(_key_series())
    def test_one_pass_keys_equal_the_scalar_keys(self, entropies):
        keys = modified_entropies(entropies)
        assert keys == [modified_entropy(e) for e in entropies]
        assert all(type(key) is int for key in keys)

    def test_one_pass_keys_at_every_rounding_point(self):
        points = np.sqrt(np.arange(64) + 0.5)
        series = np.concatenate([np.nextafter(points, 0.0), points, np.nextafter(points, 9.0)])
        assert modified_entropies(series) == [modified_entropy(float(e)) for e in series]

    @pytest.mark.parametrize("bad", [-0.01, 8.01, -5e-324, math.inf, math.nan])
    def test_one_pass_keys_refuse_as_the_scalar_key_does(self, bad):
        with pytest.raises(ValueError) as scalar:
            modified_entropy(bad)
        # the first entropy outside [0, 8] is the one named
        with pytest.raises(ValueError) as batch:
            modified_entropies([1.0, bad, 9.0, 2.0])
        assert str(batch.value) == str(scalar.value)


class TestSegmentedEntropies:
    def test_all_zero_frame(self):
        seg = np.asarray(segmented_entropies(np.zeros((16, 16), dtype=np.uint8)))
        assert seg.shape == (64,)
        assert np.all(seg == 0.0)

    def test_single_hot_segment(self):
        px = np.full((16, 16), 7, dtype=np.uint8)
        # segment row 2, column 3 of a 16x16 frame is the 2x2 block at (4, 6)
        px[4:6, 6:8] = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        seg = np.asarray(segmented_entropies(px))
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
            seg = np.asarray(segmented_entropies(px))
            assert seg.tobytes() == segmented_oracle(px).tobytes()
            assert np.all(seg >= 0.0) and np.all(seg <= 8.0)

    def test_non_divisible_dimensions_remainder_goes_last(self):
        # 60 rows split 7 each but the last run, rows 49-59, whose 11 levels
        # 1..11 fill each cell of the last grid row with 8 pixels apiece; the
        # same frame transposed does so for the last grid column
        px = np.zeros((60, 64), dtype=np.uint8)
        px[49:] = np.arange(1, 12, dtype=np.uint8)[:, np.newaxis]
        hot = exact_entropy_from_counts(np.bincount(np.repeat(np.arange(1, 12), 8),
                                                    minlength=256)[np.newaxis])[0]
        for frame, cells in ((px, slice(56, 64)), (px.T, slice(7, 64, 8))):
            seg = np.asarray(segmented_entropies(frame))
            assert (seg[cells] == hot).all() and math.isclose(hot, math.log2(11))
            seg[cells] = 0.0
            assert not seg.any()

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
            row = np.asarray(dissimilarity(stack, b))
            assert row.shape == (k,) and row.dtype == np.float64
            for i in range(k):
                assert row[i].tobytes() == np.float64(dissimilarity(stack[i], b)).tobytes()

    def test_empty_stack_gives_empty_row(self):
        assert np.asarray(dissimilarity(np.empty((0, 64)), np.zeros(64))).shape == (0,)

    def test_one_dimensional_pair_returns_float(self):
        assert type(dissimilarity(np.zeros(64), np.ones(64))) is float

    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_stack_equals_numpy_std_bitwise(self, pair):
        stack, b = pair
        got = np.asarray(dissimilarity(stack, b))
        want = np.std(b - stack, axis=-1)
        assert got.shape == want.shape == (len(stack),)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        if len(stack):  # a row alone, as a 64-vector, gives a float of the same bits
            row = dissimilarity(stack[-1], b)
            assert type(row) is float and row.hex() == float(np.std(b - stack[-1])).hex()

    def test_stacks_that_are_views_or_another_dtype(self):
        rng = np.random.default_rng(71)
        wide = rng.uniform(0.0, 8.0, (12, 128))
        b = rng.uniform(0.0, 8.0, 64)
        view, as_float32 = wide[::2, ::2], wide[:, :64].astype(np.float32)
        for stack in (view, as_float32, wide[:, :64].tolist()):
            want = np.std(b - np.asarray(stack, dtype=np.float64), axis=-1)
            assert dissimilarity(stack, b).tobytes() == want.tobytes()
