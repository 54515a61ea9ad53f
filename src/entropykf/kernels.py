"""Hot per-frame kernels: histogram, entropy, segment histograms, pixel correlation.

The three loops over a frame's bytes, ``histogram256``, the Σab dot inside
``pearson_sums`` and ``segment_histograms``, are C functions in
``_kernels.c``, called through ``ctypes`` (which releases the GIL for the
call); the Python functions here check dtype, sizes and bounds and make the
pixels contiguous before passing pointers.  ``perfbench/`` times every kernel
inside a pipeline run.  A frame's 256-bin histogram is computed once and
serves both its entropy and the correlation of the pairs it belongs to: the
per-frame moments Σa and Σa² follow exactly from it, so a pair costs one pass
for Σab over the two frames' uint8 bytes.  Integer results (histogram counts,
correlation sums) are exact; entropy uses numpy's pairwise summation and is
deterministic.

The first import compiles ``_kernels.c`` with ``cc -O3 -shared -fPIC`` into
the ``__pycache__`` directory beside it, under a name keyed by a CRC of the
source and the command; later imports load that library.  With no cached
library and no ``cc`` on PATH, importing this module raises ``ImportError``.
"""

from __future__ import annotations

import ctypes
import math
import os
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")


def _library_path() -> Path:
    """Where the compiled kernels are cached; an edit to the source or the
    command names a new file."""
    key = zlib.crc32(" ".join(_COMPILE).encode(), zlib.crc32(_SOURCE.read_bytes()))
    return _SOURCE.parent / "__pycache__" / f"_kernels-{key:08x}.so"


def _compile(lib: Path) -> None:
    """Build the library into a temporary file and move it into place, so
    processes importing concurrently each see a whole library or none."""
    import subprocess  # only a first import compiles

    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        lib.parent.mkdir(exist_ok=True)
        done = subprocess.run([*_COMPILE, "-o", str(tmp), str(_SOURCE)],
                              capture_output=True, text=True)
    except FileNotFoundError:
        raise ImportError(f"entropykf builds its kernels with the C compiler '{_COMPILE[0]}' on "
                          f"first import, and none was found on PATH; no compiled kernels are "
                          f"cached at {lib}") from None
    except OSError as exc:
        raise ImportError(f"cannot build the entropykf kernels into {lib}: {exc}") from None
    if done.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise ImportError(f"compiling {_SOURCE} with '{' '.join(_COMPILE)}' failed:\n{done.stderr}")
    os.replace(tmp, lib)


def _load() -> ctypes.CDLL:
    lib = _library_path()
    if not lib.exists():
        _compile(lib)
    c = ctypes.CDLL(str(lib))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    c.histogram256.argtypes = (ptr, i64, ptr)
    c.histogram256.restype = None
    c.dot_u8.argtypes = (ptr, ptr, i64)
    c.dot_u8.restype = ctypes.c_uint64
    c.segment_histograms.argtypes = (ptr, i64, ptr, ptr, ptr)
    c.segment_histograms.restype = None
    return c


_C = _load()


def _bytes_of(pixels: np.ndarray) -> np.ndarray:
    """The pixels as a C-contiguous uint8 array, copied only when they are not one."""
    if pixels.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got dtype {pixels.dtype}")
    return np.ascontiguousarray(pixels)


def histogram256(pixels: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram of an 8-bit image, as int64 counts."""
    px = _bytes_of(pixels)
    counts = np.empty(256, dtype=np.int64)
    _C.histogram256(px.ctypes.data, px.size, counts.ctypes.data)
    return counts


def entropy_from_counts(counts: np.ndarray, total: int) -> float:
    """Shannon entropy in bits of the distribution counts/total.

    Zero-count levels contribute nothing; the result is clamped to [0, 8] to
    absorb last-ulp summation noise at the boundaries, and a single-level
    histogram, whose one term is 0.0, gives 0.0 rather than -0.0.
    """
    p = counts[counts > 0] / total
    en = float(-np.sum(p * np.log2(p)))
    if en <= 0.0:
        return 0.0
    if en > 8.0:
        return 8.0
    return en


def _cut_points(bounds: np.ndarray, n: int) -> np.ndarray:
    cuts = np.ascontiguousarray(bounds, dtype=np.int64)
    if cuts.shape != (9,) or cuts[0] < 0 or cuts[8] > n or np.any(cuts[1:] < cuts[:-1]):
        raise ValueError(f"expected 9 non-decreasing cut points in 0..{n}, got {bounds}")
    return cuts


def segment_histograms(pixels: np.ndarray, row_bounds: np.ndarray,
                       col_bounds: np.ndarray) -> np.ndarray:
    """Histogram of each cell of the 8x8 segment grid, as a (64, 256) array.

    Cell (sy, sx) covers rows ``row_bounds[sy]:row_bounds[sy + 1]`` and
    columns ``col_bounds[sx]:col_bounds[sx + 1]``.
    """
    px = _bytes_of(pixels)
    if px.ndim != 2:
        raise ValueError(f"expected a 2-D frame, got shape {px.shape}")
    rows = _cut_points(row_bounds, px.shape[0])
    cols = _cut_points(col_bounds, px.shape[1])
    counts = np.empty((64, 256), dtype=np.int64)
    _C.segment_histograms(px.ctypes.data, px.shape[1], rows.ctypes.data, cols.ctypes.data,
                          counts.ctypes.data)
    return counts


_LEVELS = np.arange(256, dtype=np.int64)
_LEVELS_SQ = _LEVELS * _LEVELS


def pearson_sums(counts_a: np.ndarray, counts_b: np.ndarray,
                 pixels_a: np.ndarray, pixels_b: np.ndarray) -> tuple[int, int, int, int, int]:
    """Exact integer moments (sum a, sum b, sum a^2, sum b^2, sum ab) of two
    equal-size 8-bit frames, from their ``histogram256`` counts and their pixels.

    Σa and Σa² are Σk·c_k and Σk²·c_k over the histogram, in int64.  Σab is
    summed over co-located pixels in row-major order, in uint32 partials of at
    most 65,536 products (each below 255²·65536 < 2**32) added in uint64: the
    total is at most 255²·n, about 1.8e13 for n = ``ingest.MAX_DIMENSION``²
    pixels, far below 2**64, so nothing wraps.
    """
    a, b = _bytes_of(pixels_a), _bytes_of(pixels_b)
    if a.size != b.size:
        raise ValueError(f"frames differ in size: {a.size} vs {b.size} pixels")
    return (int(counts_a @ _LEVELS), int(counts_b @ _LEVELS),
            int(counts_a @ _LEVELS_SQ), int(counts_b @ _LEVELS_SQ),
            _C.dot_u8(a.ctypes.data, b.ctypes.data, a.size))


def correlation_from_sums(n: int, sums: tuple[int, int, int, int, int]) -> float:
    """Pearson correlation from exact integer moments of two equal-size images.

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
