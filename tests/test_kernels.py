"""The C kernels against independent oracles, and the degenerate and clamped
cases of the correlation quotient.

Each C kernel is compared with the numpy body it replaced (kept in conftest as
an oracle), and ``pearson_sums`` also with sums in Python ints, on odd shapes,
non-contiguous views, flat 0 and 255 frames, an all-255 megapixel frame and
hypothesis-drawn frames.  The entropy kernel is checked in test_entropy.py.
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
            assert np.array_equal(kernels.segment_histograms(px, *_grid(px)),
                                  blockwise_segment_histograms(px, *_grid(px)))

    @pytest.mark.parametrize("level", [0, 255])
    @pytest.mark.parametrize("width,height", SHAPES)
    def test_flat_frames(self, width, height, level):
        px = np.full((height, width), level, dtype=np.uint8)
        assert np.array_equal(kernels.segment_histograms(px, *_grid(px)),
                              blockwise_segment_histograms(px, *_grid(px)))

    def test_all_255_megapixel_frame(self):
        px = np.full((1024, 1024), 255, dtype=np.uint8)
        counts = kernels.segment_histograms(px, *_grid(px))
        assert (counts[:, 255] == 128 * 128).all()
        assert np.array_equal(counts, blockwise_segment_histograms(px, *_grid(px)))

    @pytest.mark.parametrize("rows", [
        [0, 1, 2, 3, 4, 5, 6, 7],            # eight cut points, not nine
        [0, 1, 2, 3, 5, 4, 6, 7, 8],         # decreasing
        [0, 1, 2, 3, 4, 5, 6, 7, 9],         # past the last row
        [-1, 1, 2, 3, 4, 5, 6, 7, 8],        # before the first row
    ])
    def test_rejects_cut_points_outside_the_frame(self, rows):
        px = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="cut points"):
            kernels.segment_histograms(px, np.array(rows), segment_bounds(8))
        with pytest.raises(ValueError, match="cut points"):
            kernels.segment_histograms(px, segment_bounds(8), np.array(rows))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_blockwise_bincount_on_arbitrary_grids(self, data):
        px = data.draw(_frames())
        rows, cols = (np.array(sorted(data.draw(st.lists(st.integers(0, n), min_size=9,
                                                         max_size=9))))
                      for n in px.shape)
        assert np.array_equal(kernels.segment_histograms(px, rows, cols),
                              blockwise_segment_histograms(px, rows, cols))


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

    def test_wrong_argument_counts_raise(self):
        with pytest.raises(TypeError, match="takes 2 arguments, got 1"):
            kernels._C.histogram256(np.zeros(8, dtype=np.uint8))


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

    def test_segment_histograms(self, tall_frame):
        assert _counter_advances_during(
            lambda: kernels.segment_histograms(tall_frame, *_grid(tall_frame)))
