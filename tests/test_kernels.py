"""The C kernels against independent oracles, and the degenerate and clamped
cases of the correlation quotient.

Each C kernel is compared with the numpy body it replaced (kept in conftest as
an oracle).  ``frame_step``, the one histogram and correlation route, is
compared with the three steps it fuses, taken one by one in conftest: the
``np.bincount`` histogram, the five moments in integers, and their quotient in
Python integers.  It is called directly and through ``shots.correlation`` and
``entropy.frame_entropy``, on odd shapes, non-contiguous views, flat 0 and 255
frames, all-255 pairs up to a megapixel and hypothesis-drawn frames.  The
entropy kernel is checked bit for bit against conftest's exact oracle, a
Python transcription of its steps, here and in test_entropy.py.
At the C boundary, arrays the C side cannot read as they are raise
``ValueError`` rather than give a number, every C entry point lets other
Python threads run while it loops, and the compiled module has no entry point
that nothing in ``src/`` calls."""

import array
import ctypes
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bincount_histogram, correlation_from_sums, exact_entropy_from_counts,
                      int64_sums, rand_pixels, segmented_oracle)
from entropykf import kernels
from entropykf.entropy import frame_entropy, segmented_entropies
from entropykf.shots import correlation

SHAPES = [(1, 1), (9, 13), (13, 9), (17, 31)]  # (width, height)
VIEWS = {
    "contiguous": lambda a: a,
    "every-other-column": lambda a: a[:, ::2],
    "transposed": lambda a: a.T,
}


def _python_sums(a, b):
    """The five moments in Python ints, pixel by pixel."""
    x, y = a.ravel().tolist(), b.ravel().tolist()
    return (sum(x), sum(y), sum(p * p for p in x), sum(q * q for q in y),
            sum(p * q for p, q in zip(x, y)))


def _oracle(a, b, sums=int64_sums):
    """The correlation of b against a, the quotient of their five moments in
    Python integers."""
    return correlation_from_sums(a.size, sums(a, b))


def _exact_correlation(a, b):
    """``shots.correlation`` of the pair, which must equal the quotient of its
    moments summed in Python ints, by ``.hex()``."""
    r = correlation(a, b)
    assert r.hex() == _oracle(a, b, _python_sums).hex()
    return r


def _histogram(px):
    """The row ``frame_step`` counts for the frame, made contiguous, stepped
    against itself."""
    px = np.ascontiguousarray(px)
    block = np.empty((1, 256), dtype=np.int64)
    kernels.frame_step(px, px, block, 0, 0)
    return block[0]


def _entropy(counts):
    return exact_entropy_from_counts(counts[np.newaxis])[0]


def _segment_entropies(px):
    """``kernels.segment_entropies`` of the frame, made contiguous as ``Frame``
    makes it, into 64 doubles."""
    view = kernels.frame_view(px)
    out = array.array("d", bytes(512))
    kernels.segment_entropies(view, view.shape[1], out)
    return out


@st.composite
def _frames(draw, max_side=64):
    """An arbitrary uint8 frame of 1..max_side pixels a side."""
    height, width = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    data = draw(st.binary(min_size=width * height, max_size=width * height))
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width)


class TestHistogram256:
    """The 256-bin histogram of the one route: the row ``frame_step`` writes,
    and ``frame_entropy``, which makes views contiguous and steps them."""

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_matches_bincount(self, width, height, view):
        rng = np.random.default_rng(height * 100 + width)
        for _ in range(5):
            px = VIEWS[view](rand_pixels(rng, width, height))
            counts = bincount_histogram(px)
            assert np.array_equal(_histogram(px), counts)
            assert frame_entropy(px).hex() == _entropy(counts).hex()

    @pytest.mark.parametrize("level", [0, 255])
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_flat_frames(self, width, height, level):
        px = np.full((height, width), level, dtype=np.uint8)
        assert np.array_equal(_histogram(px), bincount_histogram(px))
        assert frame_entropy(px) == 0.0

    def test_all_255_megapixel_frame(self):
        px = np.full((1024, 1024), 255, dtype=np.uint8)
        counts = _histogram(px)
        assert counts[255] == 1024 * 1024
        assert np.array_equal(counts, bincount_histogram(px))

    def test_rejects_wider_pixels(self):
        with pytest.raises(ValueError, match="uint8"):
            frame_entropy(np.zeros((8, 8), dtype=np.uint16))

    @settings(max_examples=200, deadline=None)
    @given(_frames())
    def test_matches_bincount_on_arbitrary_frames(self, px):
        assert np.array_equal(_histogram(px), bincount_histogram(px))


class TestSegmentHistograms:
    """The 8x8 cell histograms ``segment_entropies`` counts, seen through the
    64 entropies it writes, bit for bit against conftest's ``segmented_oracle``:
    each cell of its own grid counted alone, and its entropy in Python floats."""

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_matches_blockwise_bincount(self, width, height, view):
        rng = np.random.default_rng(height * 100 + width)
        for _ in range(5):
            px = VIEWS[view](rand_pixels(rng, width, height))
            assert _segment_entropies(px).tobytes() == segmented_oracle(px).tobytes()

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("width,height", [(17, 31), (31, 17)])  # each view 8x8 or more
    def test_views_through_segmented_entropies(self, width, height, view):
        rng = np.random.default_rng(height * 100 + width)
        px = VIEWS[view](rand_pixels(rng, width, height))
        assert segmented_entropies(px).tobytes() == segmented_oracle(px).tobytes()

    @pytest.mark.parametrize("level", [0, 255])
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_flat_frames(self, width, height, level):
        px = np.full((height, width), level, dtype=np.uint8)
        assert _segment_entropies(px).tobytes() == segmented_oracle(px).tobytes() == bytes(512)

    def test_all_255_megapixel_frame(self):
        px = np.full((1024, 1024), 255, dtype=np.uint8)
        assert _segment_entropies(px).tobytes() == segmented_oracle(px).tobytes() == bytes(512)

    def test_one_pixel_per_cell_of_a_4096_frame(self):
        # each cell holds 262,143 equal pixels: above 2**16, so a narrower
        # count wraps, and above the kernel's log2 table of small counts
        px = np.full((4096, 4096), 9, dtype=np.uint8)
        px[::512, ::512] = np.arange(64, dtype=np.uint8).reshape(8, 8) * 3 + 10
        seg = _segment_entropies(px)
        assert seg.tobytes() == segmented_oracle(px).tobytes()
        assert set(seg) == {exact_entropy_from_counts(
            np.bincount([9] * 262143 + [10], minlength=256)[np.newaxis])[0]}

    @settings(max_examples=200, deadline=None)
    @given(_frames())
    def test_matches_blockwise_bincount_on_arbitrary_frames(self, px):
        assert _segment_entropies(px).tobytes() == segmented_oracle(px).tobytes()

    def test_rejects_a_frame_that_is_not_2d(self):
        with pytest.raises(ValueError, match="2-D frame"):
            segmented_entropies(np.zeros(64, dtype=np.uint8))


class TestCorrelationFromSums:
    """The quotient's degenerate and clamped cases, through ``shots.correlation``."""

    def test_both_flat_equal_means(self):
        a = np.full((8, 8), 50, dtype=np.uint8)
        assert _exact_correlation(a, a) == 1.0

    def test_both_flat_one_level_apart(self):
        a = np.full((8, 8), 50, dtype=np.uint8)
        b = np.full((8, 8), 51, dtype=np.uint8)
        assert _exact_correlation(a, b) == 1.0

    def test_both_flat_far_apart(self):
        a = np.full((8, 8), 10, dtype=np.uint8)
        b = np.full((8, 8), 200, dtype=np.uint8)
        assert _exact_correlation(a, b) == 0.0

    def test_one_flat_one_textured(self):
        rng = np.random.default_rng(113)
        a = np.full((8, 8), 99, dtype=np.uint8)
        b = rand_pixels(rng, 8, 8)
        assert _exact_correlation(a, b) == 0.0

    def test_result_clamped_to_unit_interval(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            a = rand_pixels(rng, 16, 16)
            noise = rng.integers(-3, 4, a.shape)
            b = np.clip(a.astype(np.int16) + noise, 0, 255).astype(np.uint8)
            assert -1.0 <= _exact_correlation(a, b) <= 1.0


def _all_255_pair(width, height):
    """Two frames of 255 but for a's first byte, 254, and b's last, 0: neither
    is flat, the pair differs from its first byte on, so the dot runs over
    every pixel, and nearly every product is the largest, 255 * 255."""
    a = np.full((height, width), 255, dtype=np.uint8)
    b = a.copy()
    a.flat[0], b.flat[-1] = 254, 0
    return a, b


class TestPearsonSums:
    """The five exact moments behind the correlation, which only ``frame_step``
    sums, seen in the correlation it gives directly and through
    ``shots.correlation``: the quotient of the moments in Python ints, by
    ``.hex()``.  An all-255 pair correlates about -1/n, so an error of any
    size in one of its sums changes the bits."""

    @pytest.mark.parametrize("width,height", [(9, 13), (13, 9), (1, 1), (17, 31), (64, 3)])
    def test_random_pairs_match_python_ints(self, width, height):
        rng = np.random.default_rng(width * 100 + height)
        for _ in range(5):
            a = rand_pixels(rng, width, height)
            b = rand_pixels(rng, width, height)
            assert _exact_correlation(a, b).hex() == _stepped(a, b)[1].hex()

    @pytest.mark.parametrize("view", [v for v in VIEWS if v != "contiguous"])
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_views_match_python_ints(self, width, height, view):
        rng = np.random.default_rng(width * 100 + height)
        for _ in range(5):
            a = VIEWS[view](rand_pixels(rng, width, height))
            b = VIEWS[view](rand_pixels(rng, width, height))
            _exact_correlation(a, b)

    @pytest.mark.parametrize("va,vb", [(0, 0), (255, 255), (0, 255), (255, 0)])
    def test_flat_extremes_match_python_ints(self, va, vb):
        a = np.full((9, 13), va, dtype=np.uint8)
        b = np.full((9, 13), vb, dtype=np.uint8)
        _exact_correlation(a, b)
        _, _, block = _stepped(a, b)
        assert np.array_equal(block, np.stack([bincount_histogram(a), bincount_histogram(b)]))

    def test_all_255_megapixel_pair_is_exact(self):
        # sixteen of the 65,536-product blocks in which Σab is summed, each
        # sum near 255² * 65536, just below 2**32
        a, b = _all_255_pair(1024, 1024)
        sums = int64_sums(a, b)
        assert sums[4] == 255 * 255 * (1024 * 1024 - 2) + 254 * 255
        expected = correlation_from_sums(a.size, sums).hex()
        assert _stepped(a, b)[1].hex() == correlation(a, b).hex() == expected
        flat = np.full((1024, 1024), 255, dtype=np.uint8)
        assert _stepped(flat, flat.copy())[1].hex() == _oracle(flat, flat).hex()

    @pytest.mark.parametrize("width,height", [(256, 256), (257, 256), (255, 256)])
    def test_all_255_pairs_at_a_block_edge_are_exact(self, width, height):
        # exactly one block of Σab, one block and a tail, one block short
        a, b = _all_255_pair(width, height)
        assert _stepped(a, b)[1].hex() == _exact_correlation(a, b).hex()

    def test_large_random_pair_matches_int64(self):
        rng = np.random.default_rng(131)
        a = rand_pixels(rng, 640, 480)
        b = rand_pixels(rng, 640, 480)
        assert correlation(a, b).hex() == _oracle(a, b).hex()

    def test_rejects_frames_of_different_sizes(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.zeros((8, 9), dtype=np.uint8)
        with pytest.raises(ValueError, match="frame dimensions differ"):
            correlation(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.data())
    def test_exact_on_arbitrary_frames(self, width, height, data):
        frame_bytes = st.binary(min_size=width * height, max_size=width * height)
        a, b = (np.frombuffer(data.draw(frame_bytes), dtype=np.uint8).reshape(height, width)
                for _ in range(2))
        assert _exact_correlation(a, b).hex() == _stepped(a, b)[1].hex()


def _step(pixels, prev_pixels, block, row, prev_row):
    """frame_step's correlation, once its entropy is held by ``.hex()`` to the
    exact oracle's of the row the call wrote."""
    r, en = kernels.frame_step(pixels, prev_pixels, block, row, prev_row)
    assert en.hex() == _entropy(np.asarray(block)[row]).hex()
    return r


def _stepped(a, b, rows=2, row=1, prev_row=0):
    """frame_step of frame a, then of b against it, in a block of rows rows:
    the two correlations and the block."""
    block = np.zeros((rows, 256), dtype=np.int64)
    first = _step(a, a, block, prev_row, prev_row)
    return first, _step(b, a, block, row, prev_row), block


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
    """``frame_step`` against the three steps it fuses, taken one by one in
    conftest, and its entropy against the exact oracle's of the row it wrote,
    bit for bit."""

    @pytest.mark.parametrize("pair", _STEP_PAIRS.items(), ids=lambda item: item[0])
    def test_matches_the_three_kernels(self, pair):
        _, (a, b) = pair
        first, r, block = _stepped(a, b)
        assert r.hex() == _oracle(a, b).hex()
        assert first.hex() == _oracle(a, a).hex()
        assert np.array_equal(block, np.stack([bincount_histogram(a),
                                               bincount_histogram(b)]))

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
        assert r.hex() == _oracle(a, b).hex()
        assert np.array_equal(block[1], bincount_histogram(b))

    def test_the_first_frame_is_counted_though_it_equals_itself(self):
        # row == prev_row: the row holds no histogram yet, so the pair, equal
        # byte for byte, must not be copied from the row onto itself
        block = np.random.default_rng(157).integers(-2**62, 2**62, (2, 256))
        r = _step(_TEXTURE, _TEXTURE.copy(), block, 1, 1)
        assert np.array_equal(block[1], bincount_histogram(_TEXTURE))
        assert r.hex() == _oracle(_TEXTURE, _TEXTURE).hex()

    @pytest.mark.parametrize("index", [0, 4095, 4096, 4097, 8191, 10000, 19198, 19199])
    def test_pairs_that_start_with_a_run_of_equal_bytes(self, index):
        # a 160x120 pair equal up to byte index, in the middle of or at the
        # edges of the 4,096-byte blocks that the compare steps by: Σab over
        # the equal run comes from its histogram, the dot covers the rest
        a = rand_pixels(np.random.default_rng(163), 160, 120)
        b = _changed_at(a, index)
        _, r, block = _stepped(a, b)
        assert r.hex() == _oracle(a, b).hex()
        assert np.array_equal(block[1], bincount_histogram(b))
        b.flat[index:] = rand_pixels(np.random.default_rng(167), 160, 120).flat[index:]
        _, r, block = _stepped(a, b)
        assert r.hex() == _oracle(a, b).hex()
        assert np.array_equal(block[1], bincount_histogram(b))

    def test_an_equal_frame_in_another_row_copies_the_previous_row(self):
        # the previous row is trusted to be the previous frame's histogram,
        # beyond the check that it is a histogram of as many pixels: handed
        # another frame's, an equal pair copies it, and a pair that differs,
        # if only in its last byte, is counted
        a, other = _STEP_PAIRS["random"]
        block = np.stack([bincount_histogram(other), np.zeros(256, dtype=np.int64)])
        assert _step(a, a.copy(), block, 1, 0) == 1.0
        assert np.array_equal(block[1], block[0])
        b = _changed_at(a, -1)
        _step(b, a, block, 1, 0)
        assert np.array_equal(block[1], bincount_histogram(b))

    def test_rows_wrap_around_the_block(self):
        # a row below the previous frame's, as when the pass's two rows take
        # turns and it writes row 0 against row 1
        a, b = _STEP_PAIRS["noisy"]
        _, r, block = _stepped(a, b, rows=64, row=0, prev_row=63)
        assert r.hex() == _oracle(a, b).hex()
        assert np.array_equal(block[0], bincount_histogram(b))
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
        assert _stepped(a, b)[1].hex() == _oracle(a, b).hex()


class TestCBoundary:
    """The entry points of the compiled module check the buffers they get on
    their own, whatever the Python wrappers let through."""

    def test_wrong_byte_lengths_raise(self):
        out = np.full(63, np.nan)
        with pytest.raises(ValueError, match="argument 3 has 504 bytes, expected 512"):
            kernels.segment_entropies(np.zeros(64, dtype=np.uint8), 8, out)
        assert np.isnan(out).all()

    def test_rows_are_whole_rows_of_the_buffer(self):
        # 64 bytes are 8 rows of width 8; 63 and 68 are not whole rows
        out = np.full(64, np.nan)
        for size in (63, 68):
            with pytest.raises(ValueError, match=f"{size} bytes are not whole rows of width 8"):
                kernels.segment_entropies(np.zeros(size, dtype=np.uint8), 8, out)
        assert np.isnan(out).all()
        kernels.segment_entropies(np.zeros(64, dtype=np.uint8), 8, out)
        assert out.tolist() == [0.0] * 64

    @pytest.mark.parametrize("width", [0, -8])
    def test_rejects_a_width_that_is_not_positive(self, width):
        out = np.full(64, np.nan)
        with pytest.raises(ValueError, match=f"not whole rows of width {width}"):
            kernels.segment_entropies(np.zeros(64, dtype=np.uint8), width, out)
        assert np.isnan(out).all()

    def test_sd_rows_refuses_wrong_byte_lengths(self):
        stack, b, out = np.ones((3, 64)), np.ones(64), np.empty(3)
        with pytest.raises(ValueError, match="argument 1 has 1528 bytes, not a multiple of 512"):
            kernels.sd_rows(stack.ravel()[:-1].copy(), b, out)
        with pytest.raises(ValueError, match="argument 2 has 504 bytes, expected 512"):
            kernels.sd_rows(stack, b[:63].copy(), out)
        with pytest.raises(ValueError, match="argument 3 has 16 bytes, expected 24"):
            kernels.sd_rows(stack, b, out[:2].copy())
        with pytest.raises(ValueError, match="read-only"):
            kernels.sd_rows(stack, b, _frozen(out))
        with pytest.raises(TypeError, match="takes 3 arguments, got 2"):
            kernels.sd_rows(stack, b)
        out = np.full(3, np.nan)
        kernels.sd_rows(stack, b, out)
        assert out.tolist() == [0.0, 0.0, 0.0]
        kernels.sd_rows(np.empty((0, 64)), b, np.empty(0))  # no rows, nothing to write

    # a buffer of the right byte length and the wrong format: the entry point
    # names the argument and both formats, and writes nothing
    @pytest.mark.parametrize("case", {
        "frame_step-int32-block": lambda px: (
            kernels.frame_step, (px, px, np.zeros((2, 512), dtype=np.int32), 0, 0),
            "frame_step: argument 3 has format 'i', expected 'q'"),
        "frame_step-float64-block": lambda px: (
            kernels.frame_step, (px, px, np.zeros((2, 256)), 0, 0),
            "frame_step: argument 3 has format 'd', expected 'q'"),
        "frame_step-big-endian-block": lambda px: (
            kernels.frame_step, (px, px, np.zeros((2, 256), dtype=">i8"), 0, 0),
            "frame_step: argument 3 has format '>q', expected 'q'"),
        "segment_entropies-float32-out": lambda px: (
            kernels.segment_entropies, (px, 8, np.zeros(128, dtype=np.float32)),
            "segment_entropies: argument 3 has format 'f', expected 'd'"),
        "segment_entropies-int64-pixels": lambda px: (
            kernels.segment_entropies, (px.astype(np.int64), 64, np.zeros(64)),
            "segment_entropies: argument 1 has format 'l', expected 'B'"),
        "sd_rows-float32-stack": lambda px: (
            kernels.sd_rows, (np.ones((1, 128), dtype=np.float32), np.ones(64), np.zeros(1)),
            "sd_rows: argument 1 has format 'f', expected 'd'"),
    }.items(), ids=lambda item: item[0])
    def test_refuses_a_buffer_of_the_right_length_and_the_wrong_format(self, case):
        call, args, message = case[1](np.zeros((8, 8), dtype=np.uint8))
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        before = [(a.tobytes(), sys.getrefcount(a)) for a in arrays]
        with pytest.raises(ValueError, match=message):
            call(*args)
        # the bytes unchanged, and no buffer left held by a reference
        assert [(a.tobytes(), sys.getrefcount(a)) for a in arrays] == before

    def test_native_formats_of_other_exporters_are_read(self):
        # array's 'q' and ctypes' '<q' (on a little-endian host) are int64 in
        # native byte order, as numpy's 'l' is
        px = np.arange(64, dtype=np.uint8)
        blocks = [array.array("q", bytes(2048))]
        if sys.byteorder == "little":
            blocks.append((ctypes.c_int64 * 256)())
        for block in blocks:
            assert kernels.frame_step(px, px, block, 0, 0) == (1.0, 6.0)
            assert list(block[:65]) == [1] * 64 + [0]

    def test_wrong_argument_counts_raise(self):
        px, block = np.zeros(8, dtype=np.uint8), np.zeros((2, 256), dtype=np.int64)
        with pytest.raises(TypeError, match="takes 5 arguments, got 4"):
            kernels.frame_step(px, px, block, 0)
        with pytest.raises(TypeError, match="takes 5 arguments, got 6"):
            kernels.frame_step(px, px, block, 0, 0, 0)

    def test_the_entry_points_are_the_kernels_src_calls(self):
        # a C kernel that the program stops calling fails here, so it cannot linger
        assert {name for name in dir(kernels._C) if not name.startswith("_")} == {
            "frame_step", "segment_entropies", "sd_rows"}


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

    def test_segment_entropies(self, tall_frame):
        out = np.empty(64)
        assert _counter_advances_during(
            lambda: kernels.segment_entropies(tall_frame, 1024, out))

    def test_sd_rows(self):
        stack, b, out = np.ones((32768, 64)), np.zeros(64), np.empty(32768)
        assert _counter_advances_during(lambda: kernels.sd_rows(stack, b, out))
