"""Shared test helpers: independent oracles and frame builders.

The oracles deliberately avoid the library's kernels: counting is done
per-pixel in Python, entropy by direct summation with math.log2, correlation
by the textbook two-pass covariance quotient, segmented entropy by
materialising each segment as its own little image, and dedup by one
scalar SD per candidate-survivor pair.  The numpy kernels the library had
before its C kernels are kept here as oracles for frames too large for Python
loops.  Entropy has two: ``exact_entropy_from_counts`` transcribes the C
entropy's steps into Python floats (its log2 from ``math.frexp`` and the
same series, its sum in the same pairwise order), so it gives the kernel's
bits without calling it, and ``numpy_entropy_from_counts``, the entropy
arithmetic before its C steps, with numpy's ``log2``, is the independent
reference that every entropy must lie within 1e-12 of.  The segmented
oracle counts with ``np.bincount`` and takes its entropies from the exact
oracle, so it is bit-identical to ``segmented_entropies``.
``analyse_oracle`` is the other kind: the pass of ``pipeline.analyse`` built
from the three steps ``kernels.frame_step`` fuses, taken one by one here
(``bincount_histogram``, ``int64_sums`` and ``correlation_from_sums``), which
the fused call must match bit for bit.  ``check_report_oracle`` is the
report check as one recursive walk over the schema and the value together,
building each value's JSON path on the way down; ``pipeline.check_report``,
which compiles the schema first, must give the same verdict and message.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from entropykf.extraction import Elimination
from entropykf.ingest import Frame
from entropykf.pipeline import ReportError


def histogram_oracle(pixels) -> list[int]:
    counts = [0] * 256
    for v in np.asarray(pixels).ravel().tolist():
        counts[v] += 1
    return counts


def bincount_histogram(pixels: np.ndarray) -> np.ndarray:
    """A frame's 256-bin histogram, as ``kernels.frame_step`` writes it, in numpy."""
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
    """The five moments (Σa, Σb, Σa², Σb², Σab) of a frame pair in int64 numpy:
    the first four from the ``bincount_histogram`` of each frame, Σab a block
    of 2**20 pixels at a time, so a frame of 16M pixels needs no 128 MB copy."""
    levels = np.arange(256, dtype=np.int64)
    ca, cb = bincount_histogram(a), bincount_histogram(b)
    x, y = a.ravel(), b.ravel()
    sab = sum(int(x[i:i + 2**20].astype(np.int64) @ y[i:i + 2**20].astype(np.int64))
              for i in range(0, x.size, 2**20))
    return (int(levels @ ca), int(levels @ cb), int(levels * levels @ ca),
            int(levels * levels @ cb), sab)


def correlation_from_sums(n: int, sums: tuple[int, int, int, int, int]) -> float:
    """Pearson correlation from exact integer moments of two images of n pixels,
    in Python integers: the quotient ``kernels.frame_step`` takes in C.

    Degenerate cases (zero-variance frames) follow the shot-segmentation rule:
    two flat frames correlate 1.0 when their means differ by at most one grey
    level, else 0.0; a flat frame never correlates with a textured one.
    """
    sa, sb, saa, sbb, sab = (int(v) for v in sums)
    va = n * saa - sa * sa
    vb = n * sbb - sb * sb
    if va == 0 and vb == 0:
        return 1.0 if abs(sa - sb) <= n else 0.0
    if va == 0 or vb == 0:
        return 0.0
    num = n * sab - sa * sb
    if num * num == va * vb:
        # Cauchy-Schwarz equality: exact +/-1 without float noise
        return 1.0 if num > 0 else -1.0
    r = num / math.sqrt(float(va) * float(vb))
    return max(-1.0, min(1.0, r))


def numpy_entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    """Each row's entropy in numpy: one division and one ``np.log2`` over the
    non-zero levels of all rows, each row's run of terms summed by its own
    ``np.add.reduce``, then negated and clamped to [0, 8].  Its last bits can
    follow numpy's build and CPU dispatch."""
    counts = np.asarray(counts)
    present = counts > 0
    levels = np.count_nonzero(present, axis=1)
    p = np.extract(present, counts) / np.repeat(counts.sum(axis=1), levels)
    terms = p * np.log2(p)
    ends = np.cumsum(levels).tolist()
    out = -np.array([np.add.reduce(terms[start:end]) for start, end in zip([0, *ends], ends)])
    out[out <= 0.0] = 0.0
    out[out > 8.0] = 8.0
    return out


_TWO_LOG2_E = float.fromhex("0x1.71547652b82fep+1")  # 2 / ln 2, as _kernels.c rounds it
_SQRT2 = float.fromhex("0x1.6a09e667f3bcdp+0")


@functools.lru_cache(maxsize=None)
def log2_parts(x: float) -> tuple[float, float]:
    """log2 x = e + f for x >= 1, in the steps ``_kernels.c``'s ``log2_parts``
    takes: the exponent from ``math.frexp``, with the mantissa m taken in
    [sqrt(1/2), sqrt(2)), and f = (2 / ln 2) atanh((m - 1) / (m + 1)) from the
    odd series to s**21 in Horner's order, one Python float operation each."""
    m, e = math.frexp(x)  # m in [0.5, 1)
    m, e = m * 2.0, e - 1
    if m >= _SQRT2:
        m, e = m * 0.5, e + 1
    s = (m - 1.0) / (m + 1.0)
    s2 = s * s
    q = 0.0
    for k in range(21, 0, -2):
        q = q * s2 + 1.0 / k
    return float(e), _TWO_LOG2_E * (s * q)


def pairwise_sum(a: list[float]) -> float:
    """numpy's pairwise summation order for float64, which ``_kernels.c``
    repeats: in sequence below 8 values, in eight interleaved partial sums up
    to 128, and split in two halves at a multiple of 8 above.  (Python's
    ``sum`` of floats compensates, so it is not used.)"""
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(a[:half]) + pairwise_sum(a[half:])
    res = 0.0
    if n >= 8:
        r = a[:8]
        for i in range(8, n - n % 8, 8):
            for k in range(8):
                r[k] += a[i + k]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        a = a[n - n % 8:]
    for v in a:
        res += v
    return res


def exact_entropy_from_counts(counts) -> np.ndarray:
    """``kernels.entropy_from_counts`` in Python floats, with no kernel call:
    per row, each non-zero count c over the total T, times
    ``(e_c - e_T) + (f_c - f_T)`` from ``log2_parts``; the terms' pairwise sum
    negated and clamped to [0, 8].  Each value is also held to within 1e-12
    of ``numpy_entropy_from_counts``, the independent reference."""
    counts = np.asarray(counts, dtype=np.int64).reshape(-1, 256)
    out = []
    for row in counts.tolist():
        if min(row) < 0:
            raise ValueError("negative count")
        total = sum(row)
        if total == 0:
            out.append(0.0)
            continue
        t = float(total)
        et, ft = log2_parts(t)
        terms = []
        for c in row:
            if c:
                e, f = log2_parts(float(c))
                terms.append(c / t * ((e - et) + (f - ft)))
        h = -pairwise_sum(terms)
        out.append(0.0 if h <= 0.0 else min(h, 8.0))
    out = np.array(out, dtype=np.float64)
    assert np.abs(out - numpy_entropy_from_counts(counts)).max(initial=0.0) <= 1e-12
    return out


def pinned_entropy_stack() -> np.ndarray:
    """A (20, 256) stack whose entropies test_entropy pins by ``.hex()``, built
    by integer arithmetic alone: the histograms of five frames and of eight
    grid cells, four rows of large counts and three rows of 2**k equally
    filled levels (k = 1, 3, 8).  Rows 15 and 16 are two of the few whose
    numpy entropy (``numpy_entropy_from_counts``) moves when numpy's AVX-512
    loops are off."""
    def scrambled(n, seed=12345):  # an LCG's high bits
        return (np.arange(n, dtype=np.int64) * 1103515245 + seed) % 2**31 >> 16

    noise = (scrambled(120 * 160) % 256).astype(np.uint8).reshape(120, 160)
    ramp = (np.add.outer(np.arange(120), np.arange(160)) % 256).astype(np.uint8)
    flat = noise.copy()
    flat[:, 32:] = 128  # one flat level of 15,360 pixels beside a band of noise
    frames = [noise, ramp, flat, noise[:48, :64],
              (scrambled(480 * 640) % 251).astype(np.uint8).reshape(480, 640)]
    rows, cols = segment_slices(120), segment_slices(160)
    stack = np.zeros((20, 256), dtype=np.int64)
    stack[:5] = [bincount_histogram(px) for px in frames]
    stack[5:13] = [bincount_histogram(px[rows[i // 8], cols[i % 8]])
                   for px, cells in ((noise, (0, 9, 36, 63)), (flat, (0, 63)), (ramp, (0, 63)))
                   for i in cells]
    stack[13, :4] = [2**24 - 1, 4096, 4095, 1]
    stack[14, :3] = [2**40, 3, 2**33 + 1]
    stack[15] = scrambled(256, 601845) % 5000 + 1  # about a fifth of them above 4,096
    stack[16] = scrambled(256, 380113) % 300 + 1
    stack[17, [0, 255]] = 4096
    stack[18, 8:16] = 5
    stack[19] = 4097
    return stack


def entropy_oracle(pixels) -> float:
    counts = histogram_oracle(pixels)
    total = np.asarray(pixels).size
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
    ``np.bincount`` and take the entropies of the stack in Python floats."""
    pixels = np.asarray(pixels)
    rows = segment_slices(pixels.shape[0])
    cols = segment_slices(pixels.shape[1])
    return exact_entropy_from_counts(np.stack([bincount_histogram(pixels[r, c])
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
    """``pipeline.analyse`` from ``bincount_histogram``, ``int64_sums`` and
    ``correlation_from_sums``: every frame's histogram, the entropies of their
    stack in Python floats, and each adjacent pair's correlation from its five
    exact sums."""
    pixels = [np.asarray(f.pixels) for f in frames]
    correlations = [correlation_from_sums(b.size, int64_sums(a, b))
                    for a, b in zip(pixels, pixels[1:])]
    counts = np.stack([bincount_histogram(px) for px in pixels])
    return exact_entropy_from_counts(counts).tolist(), correlations


# the Python type of each JSON type but number and integer, which exclude bool
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
_BOUNDS = {"minimum": operator.ge, "maximum": operator.le, "exclusiveMinimum": operator.gt}
_COUNTS = {"minItems": operator.ge, "maxItems": operator.le}


def _has_type(value, name: str) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return name == "number" or name == "integer" and value % 1 == 0  # 1.0 is an integer
    return isinstance(value, _JSON_TYPES.get(name, ()))


def _well_formed(key: str, rule) -> bool:
    """Whether a keyword's value has the form Draft 2020-12 gives it."""
    if key == "type":
        rule = [rule] if isinstance(rule, str) else rule
    if key in ("type", "required"):
        return isinstance(rule, list) and all(isinstance(name, str) for name in rule)
    if key in _BOUNDS:
        return _has_type(rule, "number")
    if key in _COUNTS:
        return _has_type(rule, "integer") and isinstance(rule, int) and rule >= 0
    return isinstance(rule, {"enum": list, "allOf": list, "properties": dict}.get(key, object))


def check_report_oracle(value, node: dict, defs: dict, path: str = "$",
                        refs: frozenset = frozenset()) -> None:
    """``pipeline.check_report`` as one recursive walk: each keyword of ``node``
    in order on ``value``, ``items`` and ``properties`` recursing with the
    value's path, ``allOf`` and ``$ref`` on the same value, where ``refs`` holds
    the definitions followed since the walk last stepped into ``items`` or
    ``properties``."""
    if not isinstance(node, dict):
        raise ReportError(f"{path}: the report check cannot apply the schema {node!r}")
    for key, rule in node.items():
        bad = False
        if not _well_formed(key, rule):
            raise ReportError(f"{path}: the report check cannot apply {key!r}: {rule!r}")
        if key == "type":
            bad = not any(_has_type(value, t) for t in ([rule] if isinstance(rule, str) else rule))
        elif key in _BOUNDS:
            bad = _has_type(value, "number") and not _BOUNDS[key](value, rule)
        elif key in _COUNTS:
            bad = isinstance(value, list) and not _COUNTS[key](len(value), rule)
        elif key == "required":
            bad = isinstance(value, dict) and not value.keys() >= set(rule)
        elif key == "additionalProperties" and rule is False:
            allowed = node.get("properties")
            bad = isinstance(value, dict) and not value.keys() <= (
                allowed.keys() if isinstance(allowed, dict) else set())
        elif key == "enum":
            bad = value not in rule
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                check_report_oracle(item, rule, defs, f"{path}[{i}]")
        elif key == "properties" and isinstance(value, dict):
            for name, sub in rule.items():
                if name in value:
                    check_report_oracle(value[name], sub, defs, f"{path}.{name}")
        elif key == "allOf":
            for sub in rule:
                check_report_oracle(value, sub, defs, path, refs)
        elif key == "$ref" and len(node) == 1 and isinstance(rule, str) and \
                rule.startswith("#/$defs/") and \
                rule[8:] in defs and rule[8:] not in refs:  # the name after "#/$defs/"
            check_report_oracle(value, defs[rule[8:]], defs, path, refs | {rule[8:]})
        elif key not in ("items", "properties", "$defs", "$schema", "title"):
            raise ReportError(f"{path}: the report check cannot apply {key!r}: {rule!r}")
        if bad:
            raise ReportError(f"{path}: {value!r:.80} fails {key} {rule!r}")


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
