"""Hot per-frame kernels: histogram, entropy, segment histograms, pixel correlation.

The loops over a frame's bytes, the histogram, the sum Σab of a frame pair
and the segment histograms, are C functions in ``_kernels.c``, built as a
CPython extension module whose ``METH_FASTCALL`` entry points take the arrays
through the buffer protocol and release the GIL around their loops.
``perfbench/`` times every kernel inside a pipeline run.  A frame's 256-bin
histogram is computed once and serves both its entropy and the correlation
of the pairs it belongs to: the per-frame moments Σa and Σa² follow exactly
from it.  ``frame_step``, the C entry point itself with no Python wrapper, is
the one histogram and correlation route: the pass's one call per frame, and
the step that ``shots.correlation`` and ``entropy.frame_entropy`` take.  It
writes the frame's histogram into a row of a block of histograms and returns
the frame's correlation with the previous one, from the exact integer
moments of the two rows and Σab over the two frames' uint8 bytes.  It checks
its buffers itself: bytes of one length for the frames, whole 256-int64 rows
for the writable block, both rows in range, and the previous row a histogram
of as many pixels.  A ``memcmp`` first finds the run of bytes the two frames
start with in common; Σab over that run is its Σb², taken from its
histogram, so the dot runs over the rest alone.  The caller guarantees more
than the check on the previous row: it is the histogram of the previous
frame itself, as ``pipeline.analyse`` keeps it.  On that promise a frame
equal byte for byte to the one before, in another row, costs the ``memcmp``
alone: its row is a copy of the previous one, and Σab is that row's Σa².
These are the integers the loops would give, so the correlation keeps its
bits.  The first frame, stepped against itself in one row, is always
counted.  A frame that differs pays the compare up to its first difference
in place of the dot over those bytes: at worst, when only its last byte
differs, one pass at ``memcmp`` speed in place of one at the dot's.
The other kernels' Python wrappers check dtype, shape and contiguity of every
array the C side reads or writes, and make the pixels contiguous, before the
call.  Counts and sums are exact; ``entropy_from_counts`` gives each row of a
stack of histograms, frames' or one frame's segments', the bits it would get
alone.  Its two loops over a stack are C as well: ``probabilities`` packs
each row's non-zero counts over the row's total, and ``row_sums`` adds up
each row's terms in the pairwise order of ``np.add.reduce``.  ``np.log2``
between them stays in numpy, so the entropies keep the bits of the numpy
arithmetic they replaced.  ``sd_rows``, the C entry point itself like
``frame_step``, is ``entropy.dissimilarity``'s one call: the standard
deviation of a 64-vector minus each row of a stack, in ``np.std``'s steps
and ``pairwise_sum``'s order, so with numpy's bits.

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
sd_rows = _C.sd_rows


def _bytes_of(pixels: np.ndarray) -> np.ndarray:
    """The pixels as a C-contiguous uint8 array, copied only when they are not one."""
    if pixels.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got dtype {pixels.dtype}")
    return np.ascontiguousarray(pixels)


def entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a (k, 256) stack of histograms.

    Each row is taken over its own total.  A C call packs every row's non-zero
    counts, divided by the row's total, into one array; ``np.log2`` and the
    products run over that array in numpy; a second C call sums each row's run
    of terms in numpy's pairwise order, as ``np.add.reduce`` of the run alone
    would, so a row's bits do not depend on k.  Results are clamped to [0, 8]
    against last-ulp noise; a single-level row gives 0.0, not -0.0.
    """
    _check_counts(counts)
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


def _check_counts(counts: np.ndarray) -> None:
    """Refuse counts the C side cannot read: anything but a C-contiguous
    (k, 256) stack of int64 histograms."""
    if counts.dtype != np.int64 or counts.ndim != 2 or counts.shape[1] != 256 or \
            not counts.flags.c_contiguous:
        raise ValueError(f"expected C-contiguous int64 counts of shape (k, 256), got "
                         f"{counts.dtype} of shape {counts.shape}")
