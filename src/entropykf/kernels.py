"""Hot per-frame kernels: histogram, entropy, segment entropies, pixel correlation.

The loops over a frame's bytes are C functions in ``_kernels.c``, built as a
CPython extension module whose three ``METH_FASTCALL`` entry points take
Python buffers, numpy arrays among them, and release the GIL around their
loops.  Each is bound here as the C function itself, with no Python wrapper.
Each declares its arguments in one list and checks every buffer against it,
its format, writability and byte length, and the buffer protocol refuses a
non-contiguous buffer, so a wrong buffer raises ``ValueError`` and nothing is
written.  Python keeps only what C cannot see, shapes, and allocation, with
no numpy: 2-D memoryviews of pixels (``frame_view``), the pass's two-row
int64 block of histograms and ``array("d")`` outputs.

``frame_step`` is the one histogram, entropy and correlation route, and
``analyse``, the pass, its one caller.  It writes the frame's histogram into
a row of a block of histograms and returns the pair (correlation with the
previous row's frame, from exact integer moments; entropy of the row just
written).  It has two paths.  A frame equal byte for byte to the previous
one, in another row, costs one ``memcmp`` and a row copy and returns
``(1.0, None)``: the caller keeps the previous row the previous frame's
histogram, and already holds that row's entropy.  Every other pair, and a
frame stepped against itself into one row, is counted whole.  The entropy's
log2 is C's own, from exponent bits and IEEE arithmetic compiled with
``-ffp-contract=off``, so entropy bits depend on no libm, numpy build or
CPU.  ``segment_entropies`` owns the paper's 8x8 grid:
``entropy.segmented_entropies``'s one call, it writes each cell's entropy
with the bits ``frame_step`` gives a frame of the cell's histogram.
``sd_rows`` is ``entropy.dissimilarity``'s one call: ``np.std(b - a,
axis=-1)`` of a stack, with numpy's bits.  ``perfbench/`` spans none of the
three: ``segment_entropies`` and ``sd_rows`` run inside its spans of
``segmented_entropies`` and ``dedup_detailed``, and ``frame_step``, through
``analyse``, inside ``pipeline.run_pipeline``'s own time.

The first import compiles ``_kernels.c`` with ``cc -O3 -ffp-contract=off
-shared -fPIC`` and the interpreter's include directory into the
``__pycache__`` directory beside it, under a name keyed by a CRC of the
source and of the compile flags and ending in the interpreter's extension
suffix (``.cpython-311-x86_64-linux-gnu.so``), so interpreters of different
ABIs sharing a checkout each build and load their own; a build deletes the
older builds of its ABI, and later imports load it.  With no cached module
and no ``cc`` on PATH, importing this module raises ``ImportError``.
"""

from __future__ import annotations

import os
import zlib
from array import array
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path
from types import ModuleType

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMPILE = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")
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
    for old in lib.parent.glob(f"_kernels-*{EXTENSION_SUFFIXES[0]}"):  # older builds, this ABI
        if old != lib:
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
segment_entropies = _C.segment_entropies
sd_rows = _C.sd_rows


def frame_view(pixels) -> memoryview:
    """pixels, a 2-D buffer of bytes, as a C-contiguous memoryview of its shape:
    viewed, or copied once if it is not contiguous.  Any other buffer raises
    ``ValueError`` naming its format and shape."""
    view = memoryview(pixels)
    if view.ndim != 2 or view.format != "B":
        raise ValueError(f"expected a 2-D frame of uint8 pixels, got format "
                         f"'{view.format}' of shape {view.shape}")
    return view if view.c_contiguous else memoryview(view.tobytes()).cast("B", view.shape)


def analyse(frames) -> tuple[array, array]:
    """The pass over ``ingest.Frame`` values: each frame's entropy, and as
    ``correlations[i]`` frame i + 1 against frame i; ``entropy.frame_entropy``
    is the pass over one frame and ``shots.correlation`` over two.  Each frame
    is one ``frame_step`` into the row of a two-row block that the frame
    before did not write, the first against itself, that 1.0 dropped.  The
    frame before stays held, so two are resident at a time, and frames of two
    shapes raise ``ValueError`` naming both sizes."""
    step = frame_step  # looked up per call, so a rebinding of it is seen
    block = memoryview(bytearray(4096)).cast("q", (2, 256))
    frames = iter(frames)
    prev = next(frames, None)
    if prev is None:
        raise ValueError("cannot analyse an empty frame stream")
    prev_pixels, row = prev.pixels, 0
    en = step(prev_pixels, prev_pixels, block, row, row)[1]
    entropies, correlations = array("d", [en]), array("d")
    for frame in frames:
        pixels = frame.pixels
        if pixels.shape != prev_pixels.shape:  # frame_step sees only byte lengths
            raise ValueError(f"frame dimensions differ: {prev.width}x{prev.height} "
                             f"vs {frame.width}x{frame.height}")
        row ^= 1
        r, h = step(pixels, prev_pixels, block, row, row ^ 1)
        en = en if h is None else h  # None: the frame equals the one before
        correlations.append(r)
        entropies.append(en)
        prev, prev_pixels = frame, pixels
    return entropies, correlations


SEGMENT_GRID = 8  # _kernels.c splits frames into an 8x8 grid, 64 segments
