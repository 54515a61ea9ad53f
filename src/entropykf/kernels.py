"""Hot per-frame kernels: histogram, entropy, segment histograms, pixel correlation.

The loops over a frame's bytes, the histogram, the sum Σab of a frame pair
and the segment histograms, are C functions in ``_kernels.c``, built as a
CPython extension module whose ``METH_FASTCALL`` entry points take the arrays
through the buffer protocol and release the GIL around their loops.
``perfbench/`` times every kernel inside a pipeline run.  A frame's 256-bin
histogram is computed once and serves both its entropy and the correlation
of the pairs it belongs to: the per-frame moments Σa and Σa² follow exactly
from it.  ``frame_step``, the C entry point itself with no Python wrapper, is
the pass's one call per frame: it writes the frame's histogram into a row of
a block of histograms and returns the frame's correlation with the previous
one, from the moments of the two rows and Σab over the two frames' uint8
bytes, with ``correlation_from_sums``'s arithmetic done exactly in C (see
``correlation_from_sums``).  It checks its buffers itself: bytes of one
length for the frames, whole 256-int64 rows for the writable block, both rows
in range, and the previous row a histogram of as many pixels.  A ``memcmp``
first finds the run of bytes the two frames start with in common; Σab over
that run is its Σb², taken from its histogram, so the dot runs over the rest
alone.  The caller guarantees more than the check on the previous row: it is
the histogram of the previous frame itself, as ``pipeline.analyse`` keeps it.
On that promise a frame equal byte for byte to the one before, in another
row, costs the ``memcmp`` alone: its row is a copy of the previous one, and
Σab is that row's Σa².  These are the integers the loops would give, so the
correlation keeps its bits.  The first frame, stepped against itself in one
row, is always counted.  A frame that differs pays the compare up to its
first difference in place of the dot over those bytes: at worst, when only
its last byte differs, one pass at ``memcmp`` speed in place of one at the
dot's.
``histogram256``, ``pearson_sums`` and ``correlation_from_sums`` do the same
work in three steps; ``shots.correlation`` uses them, and the tests hold
``frame_step`` to them bit for bit.  Their Python wrappers check dtype,
shape and contiguity of every array the C side reads or writes, and make the
pixels contiguous, before the call.  Counts and sums are exact;
``entropy_from_counts`` gives each row of a stack of histograms, frames' or
one frame's segments', the bits it would get alone.  Its two loops over a
stack are C as well: ``probabilities`` packs each row's non-zero counts over
the row's total, and ``row_sums`` adds up each row's terms in the pairwise
order of ``np.add.reduce``.  ``np.log2`` between them stays in numpy, so the
entropies keep the bits of the numpy arithmetic they replaced.

The first import compiles ``_kernels.c`` with ``cc -O3 -shared -fPIC`` and
the interpreter's include directory into the ``__pycache__`` directory beside
it, under a name keyed by a CRC of the source and of the compile flags and
ending in the interpreter's extension suffix
(``.cpython-311-x86_64-linux-gnu.so``), so interpreters of different ABIs
sharing a checkout each build and load their own; a build deletes the
older builds of its ABI, and later imports load it.  With no cached module
and no ``cc`` on PATH, importing this module raises ``ImportError``.
"""

from __future__ import annotations

import math
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path
from types import ModuleType

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")
_MODULE = "entropykf._kernels"  # the C file's PyInit__kernels names the last part


def _compile_command() -> tuple[str, ...]:
    """The compile command, with the interpreter's ``Python.h`` on the include path."""
    import sysconfig  # only a first import compiles

    return (*_COMPILE, f"-I{sysconfig.get_paths()['include']}")


def _library_path() -> Path:
    """Where the compiled kernels are cached; an edit to the source or the
    flags names a new file, and so does another interpreter ABI."""
    key = zlib.crc32(" ".join(_COMPILE).encode(), zlib.crc32(_SOURCE.read_bytes()))
    return _SOURCE.parent / "__pycache__" / f"_kernels-{key:08x}{EXTENSION_SUFFIXES[0]}"


def _compile(lib: Path) -> None:
    """Build the module into a temporary file and move it into place, so
    processes importing concurrently each see a whole module or none, then
    delete the builds it replaces."""
    import subprocess  # only a first import compiles

    command = _compile_command()
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        lib.parent.mkdir(exist_ok=True)
        done = subprocess.run([*command, "-o", str(tmp), str(_SOURCE)],
                              capture_output=True, text=True)
    except FileNotFoundError:
        raise ImportError(f"entropykf builds its kernels with the C compiler '{_COMPILE[0]}' on "
                          f"first import, and none was found on PATH; no compiled kernels are "
                          f"cached at {lib}") from None
    except OSError as exc:
        raise ImportError(f"cannot build the entropykf kernels into {lib}: {exc}") from None
    if done.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise ImportError(f"compiling {_SOURCE} with '{' '.join(command)}' failed:\n{done.stderr}")
    os.replace(tmp, lib)
    # older builds for this ABI, and the ABI-less builds of the former ctypes loader
    for old in lib.parent.glob("_kernels-*.so"):
        if old != lib and (old.name.endswith(EXTENSION_SUFFIXES[0]) or old.suffixes == [".so"]):
            old.unlink(missing_ok=True)


def _load() -> ModuleType:
    lib = _library_path()
    if not lib.exists():
        _compile(lib)
    loader = ExtensionFileLoader(_MODULE, str(lib))
    module = module_from_spec(spec_from_loader(_MODULE, loader))
    loader.exec_module(module)
    return module


_C = _load()
frame_step = _C.frame_step


def _bytes_of(pixels: np.ndarray) -> np.ndarray:
    """The pixels as a C-contiguous uint8 array, copied only when they are not one."""
    if pixels.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got dtype {pixels.dtype}")
    return np.ascontiguousarray(pixels)


def histogram256(pixels: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram of an 8-bit image, as int64 counts."""
    px = _bytes_of(pixels)
    counts = np.empty(256, dtype=np.int64)
    _C.histogram256(px, counts)
    return counts


def entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a (k, 256) stack of histograms.

    Each row is taken over its own total.  A C call packs every row's non-zero
    counts, divided by the row's total, into one array; ``np.log2`` and the
    products run over that array in numpy; a second C call sums each row's run
    of terms in numpy's pairwise order, as ``np.add.reduce`` of the run alone
    would, so a row's bits do not depend on k.  Results are clamped to [0, 8]
    against last-ulp noise; a single-level row gives 0.0, not -0.0.
    """
    _check_counts(counts, stack=True)
    p = np.empty(counts.size)
    levels = np.empty(len(counts), dtype=np.int64)
    p = p[:_C.probabilities(counts, p, levels)]
    sums = np.empty(len(counts))
    _C.row_sums(p * np.log2(p), levels, sums)
    out = -sums
    out[out <= 0.0] = 0.0
    out[out > 8.0] = 8.0
    return out


SEGMENT_GRID = 8  # frames are split into an 8x8 grid, 64 segments


def segment_bounds(n: int) -> np.ndarray:
    """Nine cut points splitting n pixels into 8 runs of floor(n/8), with the
    remainder folded into the last run."""
    step = n // SEGMENT_GRID
    bounds = np.arange(SEGMENT_GRID + 1, dtype=np.int64) * step
    bounds[SEGMENT_GRID] = n
    return bounds


def segment_histograms(pixels: np.ndarray) -> np.ndarray:
    """Histogram of each cell of the 8x8 segment grid, as a (64, 256) array.

    Cell (sy, sx) covers rows ``segment_bounds(height)[sy:sy + 2]`` and
    columns ``segment_bounds(width)[sx:sx + 2]``, as half-open ranges.
    """
    px = _bytes_of(pixels)
    if px.ndim != 2:
        raise ValueError(f"expected a 2-D frame, got shape {px.shape}")
    h, w = px.shape
    counts = np.empty((64, 256), dtype=np.int64)
    _C.segment_histograms(px, segment_bounds(h), segment_bounds(w), counts, w)
    return counts


def _check_counts(counts: np.ndarray, stack: bool = False) -> None:
    """Refuse counts the C side cannot read: anything but one C-contiguous
    int64 histogram of shape (256,), or with ``stack`` a (k, 256) stack of them."""
    if counts.dtype != np.int64 or counts.ndim != 1 + stack or counts.shape[-1] != 256 or \
            not counts.flags.c_contiguous:
        raise ValueError(f"expected C-contiguous int64 counts of shape "
                         f"{'(k, 256)' if stack else '(256,)'}, got {counts.dtype} of shape "
                         f"{counts.shape}")


def pearson_sums(counts_a: np.ndarray, counts_b: np.ndarray,
                 pixels_a: np.ndarray, pixels_b: np.ndarray) -> tuple[int, int, int, int, int]:
    """Exact integer moments (sum a, sum b, sum a^2, sum b^2, sum ab) of two
    equal-size 8-bit frames, from their ``histogram256`` counts and their pixels.

    All five come from one C call, which refuses frames of unequal size.  Σa
    and Σa² are Σk·c_k and Σk²·c_k over the histogram, in int64.  Σab is
    summed over co-located pixels in row-major order, in uint32 partials of
    at most 65,536 products (each below 255²·65536 < 2**32) added in uint64:
    the total is at most 255²·n, about 1.8e13 for n = ``ingest.MAX_DIMENSION``²
    pixels, far below 2**64, so nothing wraps.
    """
    a, b = _bytes_of(pixels_a), _bytes_of(pixels_b)
    _check_counts(counts_a)
    _check_counts(counts_b)
    return _C.pearson_sums(counts_a, counts_b, a, b)


def correlation_from_sums(n: int, sums: tuple[int, int, int, int, int]) -> float:
    """Pearson correlation from exact integer moments of two equal-size images.

    Degenerate cases (zero-variance frames) follow the shot-segmentation rule:
    two flat frames correlate 1.0 when their means differ by at most one grey
    level, else 0.0; a flat frame never correlates with a textured one.

    ``frame_step`` repeats this in C bit for bit.  There ``va``, ``vb`` and
    ``num`` are ``__int128``: each is at most 255²·n² in magnitude, as are the
    products they are made of (n·Σa² ≤ 255²·n², (Σa)² ≤ 255²·n²), below 2**72
    for the largest allowed frame, n = 2**28 pixels.  ``num * num == va * vb``
    compares two exact 256-bit products, and both int-to-float conversions
    round to nearest, as ``float()`` of an int does.
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
