"""Shared test helpers: independent oracles and frame builders.

The oracles deliberately avoid the library's kernels: counting is done
per-pixel in Python, entropy by direct summation with math.log2, correlation
by the textbook two-pass covariance quotient, segmented entropy by
materialising each segment as its own little image, and dedup by one
scalar SD per candidate-survivor pair.  The numpy kernels the library had
before its C kernels are kept here as oracles for frames too large for Python
loops, and for bits: ``numpy_entropy_from_counts`` is the entropy arithmetic
before its C steps, so the segmented oracle, which counts with
``np.bincount`` and takes its entropies from it, is bit-identical to
``segmented_entropies`` without calling the code under test.
``analyse_oracle`` is the other kind: the pass of ``pipeline.analyse`` built
from the three kernels ``kernels.frame_step`` fuses, called one by one, which
the fused call must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from entropykf import kernels
from entropykf.extraction import Elimination
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


def numpy_entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    """``kernels.entropy_from_counts`` in numpy: one division and one ``log2``
    over the non-zero levels of all rows, each row's run of terms summed by its
    own ``np.add.reduce``, then negated and clamped to [0, 8]."""
    present = counts > 0
    levels = np.count_nonzero(present, axis=1)
    p = np.extract(present, counts) / np.repeat(counts.sum(axis=1), levels)
    terms = p * np.log2(p)
    ends = np.cumsum(levels).tolist()
    out = -np.array([np.add.reduce(terms[start:end]) for start, end in zip([0, *ends], ends)])
    out[out <= 0.0] = 0.0
    out[out > 8.0] = 8.0
    return out


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
    """Materialise every grid segment as its own frame, count it with
    ``np.bincount`` and take the entropies of the stack in numpy."""
    rows = segment_slices(pixels.shape[0])
    cols = segment_slices(pixels.shape[1])
    return numpy_entropy_from_counts(np.stack([bincount_histogram(pixels[r, c])
                                               for r in rows for c in cols]))


def dedup_oracle(candidates, sd_threshold: float):
    """``extraction.dedup_detailed`` as one scalar SD per pair: each candidate
    against each earlier survivor in turn, stopping at the first within the
    threshold."""
    survivors, eliminations = [], []
    for cand in candidates:
        for kept in survivors:
            sd = float(np.std(np.asarray(cand.segments) - np.asarray(kept.segments)))
            if sd <= sd_threshold:
                eliminations.append(Elimination(eliminated=cand.frame_index,
                                                kept=kept.frame_index, sd=sd))
                break
        else:
            survivors.append(cand)
    return survivors, eliminations


def correlation_oracle(a: np.ndarray, b: np.ndarray) -> float:
    x = a.ravel().astype(np.float64)
    y = b.ravel().astype(np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).mean() / (x.std() * y.std()))


def analyse_oracle(frames) -> tuple[list[float], list[float]]:
    """``pipeline.analyse`` from ``histogram256``, ``pearson_sums`` and
    ``correlation_from_sums``: every frame's histogram, the entropies of their
    stack, and each adjacent pair's correlation from its five exact sums."""
    pixels = [f.pixels for f in frames]
    counts = [kernels.histogram256(px) for px in pixels]
    correlations = [kernels.correlation_from_sums(b.size, kernels.pearson_sums(ca, cb, a, b))
                    for ca, cb, a, b in zip(counts, counts[1:], pixels, pixels[1:])]
    return kernels.entropy_from_counts(np.stack(counts)).tolist(), correlations


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
