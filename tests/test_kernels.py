"""Degenerate and clamped cases of the correlation kernel; the other kernels
are checked against independent oracles in test_entropy.py."""

import numpy as np

from conftest import rand_pixels
from entropykf import kernels


class TestCorrelationFromSums:
    def test_both_flat_equal_means(self):
        a = np.full((8, 8), 50, dtype=np.uint8)
        assert kernels.correlation_from_sums(a.size, kernels.pearson_sums(a, a)) == 1.0

    def test_both_flat_one_level_apart(self):
        a = np.full((8, 8), 50, dtype=np.uint8)
        b = np.full((8, 8), 51, dtype=np.uint8)
        assert kernels.correlation_from_sums(a.size, kernels.pearson_sums(a, b)) == 1.0

    def test_both_flat_far_apart(self):
        a = np.full((8, 8), 10, dtype=np.uint8)
        b = np.full((8, 8), 200, dtype=np.uint8)
        assert kernels.correlation_from_sums(a.size, kernels.pearson_sums(a, b)) == 0.0

    def test_one_flat_one_textured(self):
        rng = np.random.default_rng(113)
        a = np.full((8, 8), 99, dtype=np.uint8)
        b = rand_pixels(rng, 8, 8)
        assert kernels.correlation_from_sums(a.size, kernels.pearson_sums(a, b)) == 0.0

    def test_result_clamped_to_unit_interval(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            a = rand_pixels(rng, 16, 16)
            noise = rng.integers(-3, 4, a.shape)
            b = np.clip(a.astype(np.int16) + noise, 0, 255).astype(np.uint8)
            r = kernels.correlation_from_sums(a.size, kernels.pearson_sums(a, b))
            assert -1.0 <= r <= 1.0
