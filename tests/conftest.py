"""Shared test helpers: independent oracles and frame builders.

The oracles deliberately avoid the library's kernels: counting is done
per-pixel in Python, entropy by direct summation with math.log2, correlation
by the textbook two-pass covariance quotient, and segmented entropy by
materialising each segment as its own little image.  The numpy kernels the
library had before its C kernels are kept here as oracles for frames too
large for Python loops.
"""

from __future__ import annotations

import math

import numpy as np

from entropykf.ingest import Frame


def histogram_oracle(pixels: np.ndarray) -> list[int]:
    counts = [0] * 256
    for v in pixels.ravel().tolist():
        counts[v] += 1
    return counts


def bincount_histogram(pixels: np.ndarray) -> np.ndarray:
    """``kernels.histogram256`` in numpy."""
    return np.bincount(pixels.ravel(), minlength=256).astype(np.int64)


def blockwise_segment_histograms(pixels: np.ndarray, row_bounds, col_bounds) -> np.ndarray:
    """``kernels.segment_histograms`` in numpy, one ``bincount`` per grid cell."""
    counts = np.zeros((64, 256), dtype=np.int64)
    for sy in range(8):
        for sx in range(8):
            block = pixels[row_bounds[sy]:row_bounds[sy + 1],
                           col_bounds[sx]:col_bounds[sx + 1]]
            counts[sy * 8 + sx] = np.bincount(block.ravel(), minlength=256)
    return counts


def int64_sums(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int, int, int]:
    """``kernels.pearson_sums`` in int64 numpy: the five moments of a frame pair."""
    x = a.ravel().astype(np.int64)
    y = b.ravel().astype(np.int64)
    return (int(x.sum()), int(y.sum()), int((x * x).sum()), int((y * y).sum()),
            int(x @ y))


def entropy_oracle(pixels: np.ndarray) -> float:
    counts = histogram_oracle(pixels)
    total = pixels.size
    en = 0.0
    for c in counts:
        if c:
            p = c / total
            en -= p * math.log2(p)
    return en


def segment_slices(n: int) -> list[slice]:
    step = n // 8
    return [slice(i * step, n if i == 7 else (i + 1) * step) for i in range(8)]


def segmented_oracle(pixels: np.ndarray) -> np.ndarray:
    """Materialise every grid segment as its own frame and recompute."""
    from entropykf.entropy import frame_entropy
    rows = segment_slices(pixels.shape[0])
    cols = segment_slices(pixels.shape[1])
    out = np.empty(64)
    for sy in range(8):
        for sx in range(8):
            block = np.ascontiguousarray(pixels[rows[sy], cols[sx]])
            out[sy * 8 + sx] = frame_entropy(block)
    return out


def correlation_oracle(a: np.ndarray, b: np.ndarray) -> float:
    x = a.ravel().astype(np.float64)
    y = b.ravel().astype(np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).mean() / (x.std() * y.std()))


def rand_pixels(rng: np.random.Generator, width: int, height: int,
                levels: int = 256) -> np.ndarray:
    return rng.integers(0, levels, (height, width), dtype=np.uint8)


def frame(index: int, pixels: np.ndarray) -> Frame:
    return Frame(index=index, pixels=pixels)


def uniform_level_pixels(side: int, levels: int) -> np.ndarray:
    """A side x side frame whose histogram is exactly uniform over `levels`
    grey values, giving entropy exactly log2(levels)."""
    n = side * side
    assert n % levels == 0
    values = np.repeat(np.arange(levels, dtype=np.uint8), n // levels)
    return values.reshape(side, side)


def make_y4m(width: int, height: int, frames, colorspace: str = "420",
             frame_params=lambda index: "") -> bytes:
    """Assemble a YUV4MPEG2 byte stream from Y planes, chroma filled flat.

    ``frame_params(i)`` gives the parameters of frame i's FRAME line, if any.
    """
    chroma = {"420": (width // 2) * (height // 2) * 2,
              "422": (width // 2) * height * 2,
              "444": width * height * 2,
              "mono": 0}[colorspace]
    buf = bytearray(f"YUV4MPEG2 W{width} H{height} F25:1 Ip A1:1 C{colorspace}\n".encode())
    for index, px in enumerate(frames):
        params = frame_params(index)
        buf += f"FRAME {params}\n".encode() if params else b"FRAME\n"
        buf += px.tobytes()
        buf += bytes([128]) * chroma
    return bytes(buf)
