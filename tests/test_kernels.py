"""The correlation kernels: degenerate and clamped cases of the quotient, and
the exact moments of ``pearson_sums`` against sums taken without the kernels;
the other kernels are checked against independent oracles in test_entropy.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_pixels
from entropykf import kernels


def _sums(a, b):
    """pearson_sums over the arguments the pipeline passes for frames a and b."""
    return kernels.pearson_sums(kernels.histogram256(a), kernels.histogram256(b),
                                kernels.widen(a), kernels.widen(b))


def _python_sums(a, b):
    """The five moments in Python ints, pixel by pixel."""
    x, y = a.ravel().tolist(), b.ravel().tolist()
    return (sum(x), sum(y), sum(p * p for p in x), sum(q * q for q in y),
            sum(p * q for p, q in zip(x, y)))


def _int64_sums(a, b):
    """The five moments in int64 numpy, for frames too large for Python loops."""
    x = a.ravel().astype(np.int64)
    y = b.ravel().astype(np.int64)
    return (int(x.sum()), int(y.sum()), int((x * x).sum()), int((y * y).sum()),
            int((x * y).sum()))


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

    @pytest.mark.parametrize("va,vb", [(0, 0), (255, 255), (0, 255), (255, 0)])
    def test_flat_extremes_match_python_ints(self, va, vb):
        a = np.full((9, 13), va, dtype=np.uint8)
        b = np.full((9, 13), vb, dtype=np.uint8)
        assert _sums(a, b) == _python_sums(a, b)

    def test_all_255_megapixel_pair_is_exact(self):
        # the largest product per pixel, over a million pixels
        a = np.full((1024, 1024), 255, dtype=np.uint8)
        expected = _int64_sums(a, a)
        assert expected[4] == 255 * 255 * 1024 * 1024
        assert _sums(a, a) == expected

    def test_large_random_pair_matches_int64(self):
        rng = np.random.default_rng(131)
        a = rand_pixels(rng, 640, 480)
        b = rand_pixels(rng, 640, 480)
        assert _sums(a, b) == _int64_sums(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.data())
    def test_exact_on_arbitrary_frames(self, width, height, data):
        frame_bytes = st.binary(min_size=width * height, max_size=width * height)
        a, b = (np.frombuffer(data.draw(frame_bytes), dtype=np.uint8).reshape(height, width)
                for _ in range(2))
        assert _sums(a, b) == _python_sums(a, b)
