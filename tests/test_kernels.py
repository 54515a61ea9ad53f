"""The C kernels against independent oracles, and the degenerate and clamped
cases of the correlation quotient.

Each C kernel is compared with the numpy body it replaced (kept in conftest as
an oracle), and ``pearson_sums`` also with sums in Python ints, on odd shapes,
non-contiguous views, flat 0 and 255 frames, an all-255 megapixel frame and
hypothesis-drawn frames.  The entropy kernel is checked bit for bit against
its former numpy body in test_entropy.py.
At the C boundary, arrays the C side cannot read as they are raise
``ValueError`` rather than give a number, and every C entry point lets other
Python threads run while it loops."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bincount_histogram, blockwise_segment_histograms, int64_sums, rand_pixels
from entropykf import kernels
from entropykf.entropy import segment_bounds

SHAPES = [(1, 1), (9, 13), (13, 9), (17, 31)]  # (width, height)
VIEWS = {
    "contiguous": lambda a: a,
    "every-other-column": lambda a: a[:, ::2],
    "transposed": lambda a: a.T,
}


def _sums(a, b):
    """pearson_sums over the arguments the pipeline passes for frames a and b."""
    return kernels.pearson_sums(kernels.histogram256(a), kernels.histogram256(b), a, b)


def _python_sums(a, b):
    """The five moments in Python ints, pixel by pixel."""
    x, y = a.ravel().tolist(), b.ravel().tolist()
    return (sum(x), sum(y), sum(p * p for p in x), sum(q * q for q in y),
            sum(p * q for p, q in zip(x, y)))


def _grid(px):
    return segment_bounds(px.shape[0]), segment_bounds(px.shape[1])


@st.composite
def _frames(draw, max_side=64):
    """An arbitrary uint8 frame of 1..max_side pixels a side."""
    height, width = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    data = draw(st.binary(min_size=width * height, max_size=width * height))
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width)


class TestHistogram256:
    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_matches_bincount(self, width, height, view):
        rng = np.random.default_rng(height * 100 + width)
        for _ in range(5):
            px = VIEWS[view](rand_pixels(rng, width, height))
            assert np.array_equal(kernels.histogram256(px), bincount_histogram(px))

    @pytest.mark.parametrize("level", [0, 255])
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_flat_frames(self, width, height, level):
        px = np.full((height, width), level, dtype=np.uint8)
        assert np.array_equal(kernels.histogram256(px), bincount_histogram(px))

    def test_all_255_megapixel_frame(self):
        px = np.full((1024, 1024), 255, dtype=np.uint8)
        counts = kernels.histogram256(px)
        assert counts[255] == 1024 * 1024
        assert np.array_equal(counts, bincount_histogram(px))

    def test_rejects_wider_pixels(self):
        with pytest.raises(ValueError, match="uint8"):
            kernels.histogram256(np.zeros((8, 8), dtype=np.uint16))

    @settings(max_examples=200, deadline=None)
    @given(_frames())
    def test_matches_bincount_on_arbitrary_frames(self, px):
        assert np.array_equal(kernels.histogram256(px), bincount_histogram(px))


class TestSegmentHistograms:
    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_matches_blockwise_bincount(self, width, height, view):
        rng = np.random.default_rng(height * 100 + width)
        for _ in range(5):
            px = VIEWS[view](rand_pixels(rng, width, height))
            assert np.array_equal(kernels.segment_histograms(px),
                                  blockwise_segment_histograms(px, *_grid(px)))

    @pytest.mark.parametrize("level", [0, 255])
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_flat_frames(self, width, height, level):
        px = np.full((height, width), level, dtype=np.uint8)
        assert np.array_equal(kernels.segment_histograms(px),
                              blockwise_segment_histograms(px, *_grid(px)))

    def test_all_255_megapixel_frame(self):
        px = np.full((1024, 1024), 255, dtype=np.uint8)
        counts = kernels.segment_histograms(px)
        assert (counts[:, 255] == 128 * 128).all()
        assert np.array_equal(counts, blockwise_segment_histograms(px, *_grid(px)))

    @settings(max_examples=200, deadline=None)
    @given(_frames())
    def test_matches_blockwise_bincount_on_arbitrary_frames(self, px):
        assert np.array_equal(kernels.segment_histograms(px),
                              blockwise_segment_histograms(px, *_grid(px)))

    def test_rejects_a_frame_that_is_not_2d(self):
        with pytest.raises(ValueError, match="2-D frame"):
            kernels.segment_histograms(np.zeros(64, dtype=np.uint8))


class TestCorrelationFromSums:
    def test_both_flat_equal_means(self):
        a = np.full((8, 8), 50, dtype=np.uint8)
        assert kernels.correlation_from_sums(a.size, _sums(a, a)) == 1.0

    def test_both_flat_one_level_apart(self):
        a = np.full((8, 8), 50, dtype=np.uint8)
        b = np.full((8, 8), 51, dtype=np.uint8)
        assert kernels.correlation_from_sums(a.size, _sums(a, b)) == 1.0

    def test_both_flat_far_apart(self):
        a = np.full((8, 8), 10, dtype=np.uint8)
        b = np.full((8, 8), 200, dtype=np.uint8)
        assert kernels.correlation_from_sums(a.size, _sums(a, b)) == 0.0

    def test_one_flat_one_textured(self):
        rng = np.random.default_rng(113)
        a = np.full((8, 8), 99, dtype=np.uint8)
        b = rand_pixels(rng, 8, 8)
        assert kernels.correlation_from_sums(a.size, _sums(a, b)) == 0.0

    def test_result_clamped_to_unit_interval(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            a = rand_pixels(rng, 16, 16)
            noise = rng.integers(-3, 4, a.shape)
            b = np.clip(a.astype(np.int16) + noise, 0, 255).astype(np.uint8)
            r = kernels.correlation_from_sums(a.size, _sums(a, b))
            assert -1.0 <= r <= 1.0


class TestPearsonSums:
    @pytest.mark.parametrize("width,height", [(9, 13), (13, 9), (1, 1), (17, 31), (64, 3)])
    def test_random_pairs_match_python_ints(self, width, height):
        rng = np.random.default_rng(width * 100 + height)
        for _ in range(5):
            a = rand_pixels(rng, width, height)
            b = rand_pixels(rng, width, height)
            assert _sums(a, b) == _python_sums(a, b)

    @pytest.mark.parametrize("view", [v for v in VIEWS if v != "contiguous"])
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_views_match_python_ints(self, width, height, view):
        rng = np.random.default_rng(width * 100 + height)
        for _ in range(5):
            a = VIEWS[view](rand_pixels(rng, width, height))
            b = VIEWS[view](rand_pixels(rng, width, height))
            assert _sums(a, b) == _python_sums(a, b)

    @pytest.mark.parametrize("va,vb", [(0, 0), (255, 255), (0, 255), (255, 0)])
    def test_flat_extremes_match_python_ints(self, va, vb):
        a = np.full((9, 13), va, dtype=np.uint8)
        b = np.full((9, 13), vb, dtype=np.uint8)
        assert _sums(a, b) == _python_sums(a, b)

    def test_all_255_megapixel_pair_is_exact(self):
        # the largest product per pixel, over a million pixels: sixteen of the
        # 65,536-product blocks in which Σab is summed
        a = np.full((1024, 1024), 255, dtype=np.uint8)
        expected = int64_sums(a, a)
        assert expected[4] == 255 * 255 * 1024 * 1024
        assert _sums(a, a) == expected

    @pytest.mark.parametrize("width,height", [(256, 256), (257, 256), (255, 256)])
    def test_all_255_pairs_at_a_block_edge_are_exact(self, width, height):
        # exactly one block of Σab, one block and a tail, one block short
        a = np.full((height, width), 255, dtype=np.uint8)
        assert _sums(a, a) == int64_sums(a, a)

    def test_large_random_pair_matches_int64(self):
        rng = np.random.default_rng(131)
        a = rand_pixels(rng, 640, 480)
        b = rand_pixels(rng, 640, 480)
        assert _sums(a, b) == int64_sums(a, b)

    def test_rejects_frames_of_different_sizes(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.zeros((8, 9), dtype=np.uint8)
        with pytest.raises(ValueError, match="differ in size"):
            kernels.pearson_sums(kernels.histogram256(a), kernels.histogram256(b), a, b)

    @pytest.mark.parametrize("bad", {
        "int32": lambda c: c.astype(np.int32),
        # the same 2,048 bytes as the int64 counts, so only the dtype tells
        "int32-view": lambda c: c.view(np.int32),
        "length-255": lambda c: c[:255].copy(),
        "strided": lambda c: np.repeat(c, 2)[::2],
        "2-D": lambda c: c.reshape(16, 16),
    }.items(), ids=lambda item: item[0])
    def test_rejects_counts_the_c_side_cannot_read(self, bad):
        _, make = bad
        a = np.arange(64, dtype=np.uint8).reshape(8, 8)
        counts = kernels.histogram256(a)
        with pytest.raises(ValueError, match="int64 counts of shape"):
            kernels.pearson_sums(make(counts), counts, a, a)
        with pytest.raises(ValueError, match="int64 counts of shape"):
            kernels.pearson_sums(counts, make(counts), a, a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.data())
    def test_exact_on_arbitrary_frames(self, width, height, data):
        frame_bytes = st.binary(min_size=width * height, max_size=width * height)
        a, b = (np.frombuffer(data.draw(frame_bytes), dtype=np.uint8).reshape(height, width)
                for _ in range(2))
        assert _sums(a, b) == _python_sums(a, b)


def _stepped(a, b, rows=2, row=1, prev_row=0):
    """frame_step of frame a, then of b against it, in a block of rows rows:
    the two correlations and the block."""
    block = np.zeros((rows, 256), dtype=np.int64)
    first = kernels.frame_step(a, a, block, prev_row, prev_row)
    return first, kernels.frame_step(b, a, block, row, prev_row), block


def _three_step(a, b):
    """The correlation of b against a by the kernels frame_step fuses."""
    sums = kernels.pearson_sums(kernels.histogram256(a), kernels.histogram256(b), a, b)
    return kernels.correlation_from_sums(a.size, sums)


def _flat(level, width=13, height=9):
    return np.full((height, width), level, dtype=np.uint8)


def _changed_at(a, index):
    """A copy of frame a with the byte at flat index ``index`` changed."""
    b = a.copy()
    b.flat[index] ^= 1
    return b


_RNG = np.random.default_rng(149)
_TEXTURE = rand_pixels(_RNG, 31, 17)
_STEP_PAIRS = {
    "random": (_TEXTURE, rand_pixels(_RNG, 31, 17)),
    "noisy": (_TEXTURE, np.clip(_TEXTURE + _RNG.integers(-9, 10, _TEXTURE.shape), 0,
                                255).astype(np.uint8)),
    "flat-equal": (_flat(50), _flat(50)),
    "flat-one-level-apart": (_flat(50), _flat(51)),
    "flat-one-level-down": (_flat(51), _flat(50)),
    "flat-two-levels-apart": (_flat(50), _flat(52)),
    "flat-against-textured": (_flat(99, 31, 17), _TEXTURE),
    "textured-against-flat": (_TEXTURE, _flat(99, 31, 17)),
    "equal": (_TEXTURE, _TEXTURE.copy()),
    "same-buffer": (_TEXTURE, _TEXTURE),
    "first-byte-differs": (_TEXTURE, _changed_at(_TEXTURE, 0)),
    "last-byte-differs": (_TEXTURE, _changed_at(_TEXTURE, -1)),
    "flat-last-byte-differs": (_flat(50), _changed_at(_flat(50), -1)),
    "negated": (_TEXTURE, 255 - _TEXTURE),
    "near-collinear": (_TEXTURE, _TEXTURE // 2 * 2),
    "one-pixel": (_flat(3, 1, 1), _flat(200, 1, 1)),
}


class TestFrameStep:
    """``frame_step`` against the three kernels it fuses, bit for bit."""

    @pytest.mark.parametrize("pair", _STEP_PAIRS.items(), ids=lambda item: item[0])
    def test_matches_the_three_kernels(self, pair):
        _, (a, b) = pair
        first, r, block = _stepped(a, b)
        assert r.hex() == _three_step(a, b).hex()
        assert first.hex() == _three_step(a, a).hex()
        assert np.array_equal(block, np.stack([kernels.histogram256(a),
                                               kernels.histogram256(b)]))

    def test_degenerate_values(self):
        assert _stepped(_flat(50), _flat(51))[1] == 1.0
        assert _stepped(_flat(50), _flat(52))[1] == 0.0
        assert _stepped(_flat(99, 31, 17), _TEXTURE)[1] == 0.0
        assert _stepped(_TEXTURE, 255 - _TEXTURE)[1] == -1.0
        assert _stepped(_TEXTURE, _TEXTURE // 2 * 2)[1] < 1.0

    @pytest.mark.parametrize("kind", ["random", "negated", "one-bright-pixel"])
    def test_tall_pair_matches_the_three_kernels(self, kind):
        # 16384x1024: sums where va, vb and num pass 2**53, so both
        # conversions to float round
        rng = np.random.default_rng(151)
        a = rand_pixels(rng, 1024, 16384)
        if kind == "one-bright-pixel":
            a = np.zeros((16384, 1024), dtype=np.uint8)
            a[5, 7] = 255
        b = {"random": lambda: rand_pixels(rng, 1024, 16384), "negated": lambda: 255 - a,
             "one-bright-pixel": lambda: a // 255 * 254 + rand_pixels(rng, 1024, 16384, 2)}[kind]()
        _, r, block = _stepped(a, b)
        assert r.hex() == _three_step(a, b).hex()
        assert np.array_equal(block[1], kernels.histogram256(b))

    def test_the_first_frame_is_counted_though_it_equals_itself(self):
        # row == prev_row: the row holds no histogram yet, so the pair, equal
        # byte for byte, must not be copied from the row onto itself
        block = np.random.default_rng(157).integers(-2**62, 2**62, (2, 256))
        r = kernels.frame_step(_TEXTURE, _TEXTURE.copy(), block, 1, 1)
        assert np.array_equal(block[1], kernels.histogram256(_TEXTURE))
        assert r.hex() == _three_step(_TEXTURE, _TEXTURE).hex()

    @pytest.mark.parametrize("index", [0, 4095, 4096, 4097, 8191, 10000, 19198, 19199])
    def test_pairs_that_start_with_a_run_of_equal_bytes(self, index):
        # a 160x120 pair equal up to byte index, in the middle of or at the
        # edges of the 4,096-byte blocks that the compare steps by: Σab over
        # the equal run comes from its histogram, the dot covers the rest
        a = rand_pixels(np.random.default_rng(163), 160, 120)
        b = _changed_at(a, index)
        _, r, block = _stepped(a, b)
        assert r.hex() == _three_step(a, b).hex()
        assert np.array_equal(block[1], kernels.histogram256(b))
        b.flat[index:] = rand_pixels(np.random.default_rng(167), 160, 120).flat[index:]
        _, r, block = _stepped(a, b)
        assert r.hex() == _three_step(a, b).hex()
        assert np.array_equal(block[1], kernels.histogram256(b))

    def test_an_equal_frame_in_another_row_copies_the_previous_row(self):
        # the previous row is trusted to be the previous frame's histogram,
        # beyond the check that it is a histogram of as many pixels: handed
        # another frame's, an equal pair copies it, and a pair that differs,
        # if only in its last byte, is counted
        a, other = _STEP_PAIRS["random"]
        block = np.stack([kernels.histogram256(other), np.zeros(256, dtype=np.int64)])
        assert kernels.frame_step(a, a.copy(), block, 1, 0) == 1.0
        assert np.array_equal(block[1], block[0])
        b = _changed_at(a, -1)
        kernels.frame_step(b, a, block, 1, 0)
        assert np.array_equal(block[1], kernels.histogram256(b))

    def test_rows_wrap_around_the_block(self):
        # the pass writes row 0 of a block against row 63 of the block before
        a, b = _STEP_PAIRS["noisy"]
        _, r, block = _stepped(a, b, rows=64, row=0, prev_row=63)
        assert r.hex() == _three_step(a, b).hex()
        assert np.array_equal(block[0], kernels.histogram256(b))
        assert not block[1:63].any()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 48), st.integers(1, 48), st.data())
    def test_matches_the_three_kernels_on_arbitrary_pairs(self, width, height, data):
        levels = data.draw(st.sampled_from([2, 3, 16, 256]))
        frame_bytes = st.binary(min_size=width * height, max_size=width * height)
        a, b = ((np.frombuffer(data.draw(frame_bytes), dtype=np.uint8).astype(np.int16) % levels)
                .astype(np.uint8).reshape(height, width) for _ in range(2))
        if data.draw(st.booleans()):
            b = np.clip(a.astype(np.int16) * data.draw(st.sampled_from([-1, 1, 2])) +
                        b % 3, 0, 255).astype(np.uint8)
        assert _stepped(a, b)[1].hex() == _three_step(a, b).hex()


class TestCBoundary:
    """The entry points of the compiled module check the buffers they get on
    their own, whatever the Python wrappers let through."""

    def test_wrong_byte_lengths_raise(self):
        px = np.zeros((8, 8), dtype=np.uint8)
        counts = np.zeros(256, dtype=np.int64)
        cuts = segment_bounds(8)
        with pytest.raises(ValueError, match="bytes, expected 2048"):
            kernels._C.histogram256(px, np.zeros(255, dtype=np.int64))
        with pytest.raises(ValueError, match="bytes, expected 2048"):
            kernels._C.pearson_sums(counts, counts[:255].copy(), px, px)
        with pytest.raises(ValueError, match="bytes, expected 72"):
            kernels._C.segment_histograms(px, cuts[:8].copy(), cuts,
                                          np.zeros((64, 256), dtype=np.int64), 8)
        with pytest.raises(ValueError, match="bytes, expected 131072"):
            kernels._C.segment_histograms(px, cuts, cuts,
                                          np.zeros((63, 256), dtype=np.int64), 8)

    @pytest.mark.parametrize("cuts,message", [
        ([0, 1, 2, 3, 4, 5, 6, 7], "bytes, expected 72"),  # eight cut points, not nine
        ([0, 1, 2, 3, 5, 4, 6, 7, 8], "cut points"),       # decreasing
        ([0, 1, 2, 3, 4, 5, 6, 7, 9], "cut points"),       # past the last row or column
        ([-1, 1, 2, 3, 4, 5, 6, 7, 8], "cut points"),      # before the first
    ], ids=["eight-cuts", "decreasing", "past-the-end", "below-zero"])
    def test_rejects_cut_points_outside_the_frame(self, cuts, message):
        # a frame of 8x8 bytes, whose histograms the C side would otherwise
        # count from memory outside it
        px = np.zeros((8, 8), dtype=np.uint8)
        out = np.zeros((64, 256), dtype=np.int64)
        cuts, grid = np.array(cuts, dtype=np.int64), segment_bounds(8)
        with pytest.raises(ValueError, match=message):
            kernels._C.segment_histograms(px, cuts, grid, out, 8)
        with pytest.raises(ValueError, match=message):
            kernels._C.segment_histograms(px, grid, cuts, out, 8)

    def test_rows_are_whole_rows_of_the_buffer(self):
        # 8 rows of width 8 hold 64 bytes; 68 bytes still hold only 8 whole rows
        grid, out = segment_bounds(8), np.zeros((64, 256), dtype=np.int64)
        kernels._C.segment_histograms(np.zeros(68, dtype=np.uint8), grid, grid, out, 8)
        assert out.sum() == 64
        with pytest.raises(ValueError, match="cut points"):
            kernels._C.segment_histograms(np.zeros(63, dtype=np.uint8), grid, grid, out, 8)

    @pytest.mark.parametrize("width", [0, -8])
    def test_rejects_a_width_that_is_not_positive(self, width):
        grid = segment_bounds(8)
        with pytest.raises(ValueError, match="width"):
            kernels._C.segment_histograms(np.zeros(64, dtype=np.uint8), grid, grid,
                                          np.zeros((64, 256), dtype=np.int64), width)

    def test_pixels_of_different_sizes_raise(self):
        counts = np.zeros(256, dtype=np.int64)
        with pytest.raises(ValueError, match="differ in size"):
            kernels._C.pearson_sums(counts, counts, np.zeros(64, dtype=np.uint8),
                                    np.zeros(65, dtype=np.uint8))

    def test_non_contiguous_and_read_only_buffers_raise(self):
        px = np.zeros((8, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="contiguous"):
            kernels._C.histogram256(px[:, ::2], np.zeros(256, dtype=np.int64))
        frozen = np.zeros(256, dtype=np.int64)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            kernels._C.histogram256(px, frozen)

    def test_entropy_steps_refuse_wrong_byte_lengths(self):
        counts = np.ones((2, 256), dtype=np.int64)
        p, levels = np.empty(512), np.empty(2, dtype=np.int64)
        with pytest.raises(ValueError, match="bytes, not a multiple of 2048"):
            kernels._C.probabilities(counts.ravel()[:255].copy(), p, levels)
        with pytest.raises(ValueError, match="argument 2 has 4088 bytes, expected 4096"):
            kernels._C.probabilities(counts, p[:511].copy(), levels)
        with pytest.raises(ValueError, match="argument 3 has 8 bytes, expected 16"):
            kernels._C.probabilities(counts, p, levels[:1].copy())
        assert kernels._C.probabilities(counts, p, levels) == 512
        terms, out = np.ones(512), np.empty(2)
        with pytest.raises(ValueError, match="argument 1 has 3 bytes, not a multiple of 8"):
            kernels._C.row_sums(np.zeros(3, dtype=np.uint8), levels, out)
        with pytest.raises(ValueError, match="argument 2 has 12 bytes, not a multiple of 8"):
            kernels._C.row_sums(terms, np.zeros(3, dtype=np.int32), out)
        with pytest.raises(ValueError, match="argument 3 has 24 bytes, expected 16"):
            kernels._C.row_sums(terms, levels, np.empty(3))

    @pytest.mark.parametrize("levels", [[256, 255], [256, 257], [-1, 513]],
                             ids=["short", "long", "negative"])
    def test_row_sums_refuses_runs_that_do_not_cover_the_terms(self, levels):
        with pytest.raises(ValueError, match="run lengths do not cover the 512 terms"):
            kernels._C.row_sums(np.ones(512), np.array(levels, dtype=np.int64), np.empty(2))

    def test_wrong_argument_counts_raise(self):
        with pytest.raises(TypeError, match="takes 2 arguments, got 1"):
            kernels._C.histogram256(np.zeros(8, dtype=np.uint8))
        px, block = np.zeros(8, dtype=np.uint8), np.zeros((2, 256), dtype=np.int64)
        with pytest.raises(TypeError, match="takes 5 arguments, got 4"):
            kernels.frame_step(px, px, block, 0)
        with pytest.raises(TypeError, match="takes 5 arguments, got 6"):
            kernels.frame_step(px, px, block, 0, 0, 0)


def _frozen(array):
    array.flags.writeable = False
    return array


class TestFrameStepBoundary:
    """Every call ``frame_step`` cannot serve as it is raises, and writes nothing."""

    PX = np.arange(64, dtype=np.uint8).reshape(8, 8)

    @pytest.mark.parametrize("args,error,message", [
        ((PX.astype(np.int16), PX, np.zeros((2, 256), dtype=np.int64), 1, 0),
         ValueError, "argument 1 has format 'h', expected 'B'"),
        ((PX, PX.astype(np.int16), np.zeros((2, 256), dtype=np.int64), 1, 0),
         ValueError, "argument 2 has format 'h', expected 'B'"),
        ((np.zeros((8, 16), dtype=np.uint8)[:, ::2], PX, np.zeros((2, 256), dtype=np.int64), 1,
          0), ValueError, "contiguous"),
        ((PX, PX.T, np.zeros((2, 256), dtype=np.int64), 1, 0), ValueError, "contiguous"),
        ((PX, PX, _frozen(np.zeros((2, 256), dtype=np.int64)), 1, 0), ValueError, "read-only"),
        ((PX, PX, bytes(4096), 1, 0), BufferError, "not writable"),
        ((PX, PX, np.zeros(511, dtype=np.int64), 1, 0), ValueError,
         "argument 3 has 4088 bytes, not a multiple of 2048"),
        ((PX, PX, np.zeros((2, 256), dtype=np.int64), 2, 0), ValueError, "not both in 0..1"),
        ((PX, PX, np.zeros((2, 256), dtype=np.int64), -1, 0), ValueError, "not both in 0..1"),
        ((PX, PX, np.zeros((2, 256), dtype=np.int64), 1, 2), ValueError, "not both in 0..1"),
        ((PX, PX, np.zeros((2, 256), dtype=np.int64), 1, -1), ValueError, "not both in 0..1"),
        ((PX, PX.ravel()[:63].copy(), np.zeros((2, 256), dtype=np.int64), 1, 0), ValueError,
         "differ in size: 63 vs 64"),
        ((PX, np.zeros(65, dtype=np.uint8), np.zeros((2, 256), dtype=np.int64), 1, 0),
         ValueError, "differ in size: 65 vs 64"),
    ], ids=["int16-pixels", "int16-prev-pixels", "strided-pixels", "transposed-prev-pixels",
            "read-only-block", "bytes-block", "partial-row", "row-past-the-end", "row-below-0",
            "prev-row-past-the-end", "prev-row-below-0", "shorter-prev-pixels",
            "longer-prev-pixels"])
    def test_refuses(self, args, error, message):
        block = args[2]
        before = bytes(block)
        with pytest.raises(error, match=message):
            kernels.frame_step(*args)
        assert bytes(block) == before

    @pytest.mark.parametrize("changes", {
        "zeros": {level: -1 for level in range(64)},
        "short-total": {3: -1},
        "negative-count": {0: -2, 9: 2},
        "wrapping-total": {level: 2**56 for level in range(256)},  # adds up to 2**64
    }.items(), ids=lambda item: item[0])
    def test_refuses_a_previous_row_that_is_no_histogram_of_the_frame(self, changes):
        # a row of another frame size, or of no frame, whose moments would not
        # be those of a frame of 64 pixels
        block = np.zeros((2, 256), dtype=np.int64)
        block[0, :64] = 1  # the histogram of PX, one pixel at each of levels 0..63
        for level, change in changes[1].items():
            block[0, level] += change
        with pytest.raises(ValueError, match="row 0 is not the histogram of 64 pixels"):
            kernels.frame_step(self.PX, self.PX, block, 1, 0)
        assert not block[1].any()

    def test_arguments_that_are_not_integers_raise(self):
        block = np.zeros((2, 256), dtype=np.int64)
        with pytest.raises(TypeError):
            kernels.frame_step(self.PX, self.PX, block, 1.0, 0)
        with pytest.raises(TypeError):
            kernels.frame_step(self.PX, self.PX, block, 1, None)


def _counter_advances_during(call) -> bool:
    """Whether a Python loop in this thread advances while ``call`` runs in a
    second thread.

    The switch interval is raised far beyond the call's length, so the
    interpreter never forces the second thread to hand over the GIL: this
    thread runs during the call only if the C code releases the GIL.  The
    call repeats a few times, so one late wake-up of this thread cannot fail
    the test."""
    counter = [0]
    done = threading.Event()
    advanced = []

    def second():
        try:
            before = counter[0]
            for _ in range(8):
                call()
                if counter[0] != before:
                    break
            advanced.append(counter[0] != before)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(5.0)
    try:
        thread = threading.Thread(target=second)
        thread.start()
        deadline = time.monotonic() + 60
        while not done.is_set() and time.monotonic() < deadline:
            counter[0] += 1
            time.sleep(0)  # hands the GIL back once the second thread wants it
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    return advanced == [True]


@pytest.fixture(scope="module")
def tall_frame():
    return np.full((16384, 1024), 7, dtype=np.uint8)


class TestGilRelease:
    """Threads that run the pass over frame ranges need every C entry point to
    release the GIL while it loops."""

    def test_histogram256(self, tall_frame):
        assert _counter_advances_during(lambda: kernels.histogram256(tall_frame))

    def test_pearson_sums(self, tall_frame):
        counts = kernels.histogram256(tall_frame)
        assert _counter_advances_during(
            lambda: kernels.pearson_sums(counts, counts, tall_frame, tall_frame))

    def test_frame_step(self, tall_frame):
        # only the last pixel differs, so the call compares the whole pair,
        # then counts the frame
        other = _changed_at(tall_frame, -1)
        block = np.zeros((2, 256), dtype=np.int64)
        kernels.frame_step(tall_frame, tall_frame, block, 0, 0)
        assert _counter_advances_during(
            lambda: kernels.frame_step(other, tall_frame, block, 1, 0))

    def test_frame_step_on_an_equal_pair(self, tall_frame):
        # equal byte for byte: the call only compares the pair and copies a row
        other = tall_frame.copy()
        block = np.zeros((2, 256), dtype=np.int64)
        kernels.frame_step(tall_frame, tall_frame, block, 0, 0)
        assert _counter_advances_during(
            lambda: kernels.frame_step(other, tall_frame, block, 1, 0))

    def test_segment_histograms(self, tall_frame):
        assert _counter_advances_during(
            lambda: kernels.segment_histograms(tall_frame))

    # the entropy steps are called on the compiled module, because the
    # wrapper's np.log2 may release the GIL on its own over a large array

    def test_probabilities(self):
        counts = np.ones((8192, 256), dtype=np.int64)
        p, levels = np.empty(counts.size), np.empty(8192, dtype=np.int64)
        assert _counter_advances_during(lambda: kernels._C.probabilities(counts, p, levels))

    def test_row_sums(self):
        terms, levels = np.ones(8192 * 256), np.full(8192, 256, dtype=np.int64)
        out = np.empty(8192)
        assert _counter_advances_during(lambda: kernels._C.row_sums(terms, levels, out))
