"""Frame sources: PGM directories, raw 8-bit luma streams, and Y4M streams.

``open_source(spec)`` returns one source object per format.  Its ``frames()``
is a single-pass stream of 8-bit grayscale ``Frame`` values with consecutive
zero-based indices; ``read_frame(i)`` fetches frame i again once the stream
has passed it, and ``close()`` releases the files.  Frame geometry is decided
here: ``frames()`` yields at least one frame, all of one size and each
side in ``MIN_DIMENSION..MAX_DIMENSION`` pixels, or raises ``IngestError``.
``check_frame_size`` is that range's one test: a size declared up front, by
a raw ``SourceSpec`` or a Y4M header, meets it before any frame is read.  A PGM file holds exactly one image: its header may hold "#"
comments, each running through its line end, between its fields and after
maxval; exactly one whitespace byte then precedes the raster, and the
raster ends the file.  A Y4M header starts with the word ``YUV4MPEG2`` and
names an 8-bit colorspace (``_CHROMA``); each frame opens with a line that
is ``FRAME`` alone or ``FRAME``, a space and parameters, so an empty line
where a frame belongs is an error, not the end of the input.  Streams are
buffered binary files (``open(path, "rb")``, ``sys.stdin.buffer``, a
temporary file), whose ``read(n)`` returns fewer than n bytes only at end
of input, so each plane is one ``read``.  A PGM directory re-reads the i-th
file.  Raw and Y4M streams share one random-access path: the parser records
each frame's Y-plane byte offset, and ``read_frame`` seeks there in the
input file, or, for stdin, in a spool file of the Y planes written as they
stream.  Container decoding is out of scope; compressed video is piped in
as raw gray or Y4M (see README for the ffmpeg recipes).
"""

from __future__ import annotations

import enum
import itertools
import re
import sys
import tempfile
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from . import kernels


class IngestError(ValueError):
    """A frame source could not be opened or decoded, or its frame size is out of range."""


# smallest frame width or height: the 8x8 segment grid needs a pixel per cell
MIN_DIMENSION = kernels.SEGMENT_GRID
# largest frame width or height; bounds the bytes read per frame and keeps
# every pixel-product sum of a frame pair far below 2**64 (kernels.pearson_sums)
MAX_DIMENSION = 16384


def check_frame_size(width: int, height: int, where: str = "") -> None:
    """Raise ``IngestError``, its message prefixed by where, unless both sides are ints in range."""
    if not (isinstance(width, int) and isinstance(height, int)):
        raise IngestError(f"{where}frame size {width!r}x{height!r} is not two integers")
    if not MIN_DIMENSION <= min(width, height) <= max(width, height) <= MAX_DIMENSION:
        raise IngestError(f"{where}frame size {width}x{height} is outside "
                          f"{MIN_DIMENSION}x{MIN_DIMENSION}..{MAX_DIMENSION}x{MAX_DIMENSION}")


class SourceKind(str, enum.Enum):
    PGM_DIR = "pgm-dir"       # directory of binary PGM (P5) files
    RAW = "raw"               # tightly packed 8-bit luma, frame-major
    Y4M = "y4m"               # YUV4MPEG2; only the Y plane is consumed

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SourceSpec:
    """Where frames come from and, for raw streams, their dimensions."""

    kind: SourceKind
    path: str  # filesystem path, or "-" for stdin (raw / y4m only)
    width: int | None = None
    height: int | None = None

    def __post_init__(self):
        kind = SourceKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is not SourceKind.RAW:
            if self.width is not None or self.height is not None:
                raise ValueError(f"--width/--height apply to raw input only; "
                                 f"{kind} carries its own frame size")
        elif self.width is None or self.height is None:
            raise ValueError("raw sources need explicit --width and --height")
        else:
            check_frame_size(self.width, self.height)
        if self.path == "-" and kind is SourceKind.PGM_DIR:
            raise ValueError("a PGM directory cannot be read from stdin")


@dataclass(frozen=True, eq=False)
class Frame:
    """One 8-bit grayscale frame with its position in the stream."""

    index: int
    pixels: np.ndarray  # (height, width) uint8, row-major

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("frame index must be non-negative")
        if self.pixels.ndim != 2 or self.pixels.dtype != np.uint8:
            raise ValueError("pixels must be a 2-D uint8 array")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @cached_property
    def counts(self) -> np.ndarray:
        """The 256-bin histogram, computed once and shared by entropy and cut detection."""
        return kernels.histogram256(self.pixels)


def _as_frame(frame: Frame | np.ndarray) -> Frame:
    """frame itself, or a bare pixel array wrapped as frame 0, so that
    ``Frame`` makes the one 2-D uint8 check."""
    return frame if isinstance(frame, Frame) else Frame(index=0, pixels=np.asarray(frame))


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

# header gaps are whitespace and "#" comments that run through their line end;
# numbers have at most 18 digits, more than any frame needs and fewer than
# int() refuses
_PGM_GAP = rb"(?:\s|#[^\n\r]*[\n\r])+"
_PGM_NUMBER = rb"([0-9]{1,18})"
_PGM_HEADER = re.compile(rb"P5" + (_PGM_GAP + _PGM_NUMBER) * 3 + rb"(?:#[^\n\r]*[\n\r])*\s")


def _parse_pgm(data: bytes, name: str) -> np.ndarray:
    """Decode a binary P5 PGM.  Its header is the magic, then width, height
    and maxval as ASCII decimals, separated by whitespace and comments; more
    comments may follow maxval, then exactly one whitespace byte, then a
    raster of exactly width * height bytes."""
    header = _PGM_HEADER.match(data)
    if header is None:
        problem = ("malformed PGM header" if data.startswith(b"P5") else
                   f"expected binary PGM magic P5, found {data[:2]!r}")
        raise IngestError(f"unsupported image file: {name} ({problem})")
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise IngestError(f"unsupported image file: {name} (maxval {maxval}, only 255 supported)")
    if width <= 0 or height <= 0:
        raise IngestError(f"unsupported image file: {name} (bad dimensions {width}x{height})")
    if len(data) - header.end() != width * height:
        raise IngestError(f"unsupported image file: {name} (raster holds "
                          f"{len(data) - header.end()} bytes, expected {width * height})")
    return np.frombuffer(data, np.uint8, offset=header.end()).reshape(height, width)


def read_pgm(path: str | Path) -> np.ndarray:
    """Read one binary PGM file into a (height, width) uint8 array, in one
    unbuffered read of the whole file."""
    if not isinstance(path, Path):
        path = Path(path)  # a str is named in messages as its Path
    try:
        with open(path, "rb", buffering=0) as file:
            data = file.readall()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    return _parse_pgm(data, str(path))


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a (height, width) uint8 array as a binary PGM with maxval 255."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {pixels.shape}")
    h, w = pixels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def list_pgm_dir(path: str | Path) -> list[Path]:
    """Files of a frame directory in strict lexicographic filename order."""
    path = Path(path)
    if not path.is_dir():
        raise IngestError(f"not a readable directory: {path}")
    files = sorted((p for p in path.iterdir() if p.is_file()), key=lambda p: p.name)
    if not files:
        raise IngestError(f"no frame files in directory: {path}")
    return files


class _PgmDirSource:
    def __init__(self, spec: SourceSpec):
        self._paths = list_pgm_dir(spec.path)

    def frames(self) -> Iterator[Frame]:
        shape = None
        for index, path in enumerate(self._paths):
            pixels = read_pgm(path)
            if shape is None:  # later frames must match the first, so only it is range-checked
                shape = pixels.shape
                check_frame_size(shape[1], shape[0], f"{path}: ")
            elif pixels.shape != shape:
                raise IngestError(f"{path}: frame {index} is {pixels.shape[1]}x{pixels.shape[0]}, "
                                  f"expected {shape[1]}x{shape[0]}")
            yield Frame(index=index, pixels=pixels)

    def read_frame(self, index: int) -> Frame:
        return Frame(index=index, pixels=read_pgm(self._paths[index]))

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# raw 8-bit luma stream
# ---------------------------------------------------------------------------

def _iter_raw(stream: BinaryIO, width: int, height: int) -> Iterator[tuple[int, Frame]]:
    """(byte offset, frame) for each frame of a raw stream."""
    frame_size = width * height
    for index in itertools.count():
        data = stream.read(frame_size)
        if not data:
            return
        offset = index * frame_size
        if len(data) != frame_size:
            raise IngestError(
                f"raw stream truncated at byte offset {offset}: frame {index} "
                f"has {len(data)} of {frame_size} bytes "
                f"(stream length is not a multiple of {width}x{height})")
        yield offset, Frame(index=index,
                            pixels=np.frombuffer(data, dtype=np.uint8).reshape(height, width))


# ---------------------------------------------------------------------------
# YUV4MPEG2
# ---------------------------------------------------------------------------

_DECIMAL = re.compile(rb"[0-9]+")
_MAX_LINE = 1024  # bytes a Y4M header or FRAME line may not reach, newline excluded
# the 8-bit colorspaces: (chroma planes, horizontal and vertical subsampling);
# any other name, such as 420p10, 444alpha or 411, is refused
_CHROMA = {"420": (2, 2, 2), "420jpeg": (2, 2, 2), "420paldv": (2, 2, 2),
           "420mpeg2": (2, 2, 2), "422": (2, 2, 1), "444": (2, 1, 1), "mono": (0, 1, 1)}


def _read_line(stream: BinaryIO) -> bytes | None:
    """The next line without its newline, possibly empty, or None at end of
    input; bounded to catch garbage."""
    line = stream.readline(_MAX_LINE + 1)
    if not line:
        return None
    line = line.removesuffix(b"\n")
    if len(line) >= _MAX_LINE:
        raise IngestError(f"Y4M header line exceeds {_MAX_LINE} bytes; not a Y4M stream?")
    return line


def _y4m_dimension(param: bytes) -> int:
    if not _DECIMAL.fullmatch(param[1:]):
        raise IngestError(f"Y4M header parameter {param.decode('ascii', 'replace')!r} "
                          "is not a dimension")
    return int(param[1:])


def _iter_y4m(stream: BinaryIO) -> Iterator[tuple[int, Frame]]:
    """(Y-plane byte offset, frame) for each frame of a Y4M stream."""
    header = _read_line(stream) or b""
    signature, *params = header.split(b" ")
    if signature != b"YUV4MPEG2":
        raise IngestError("missing YUV4MPEG2 signature at byte offset 0")
    width = height = None
    colorspace = "420"
    for param in params:
        tag = param[:1]
        if tag == b"W":
            width = _y4m_dimension(param)
        elif tag == b"H":
            height = _y4m_dimension(param)
        elif tag == b"C":
            colorspace = param[1:].decode("ascii", "replace")
    if width is None or height is None:
        raise IngestError("Y4M header lacks W/H dimensions")
    check_frame_size(width, height, "Y4M header: ")
    if colorspace not in _CHROMA:
        raise IngestError(f"unsupported Y4M colorspace C{colorspace} "
                          f"(8-bit {', '.join(_CHROMA)} only)")
    planes, sub_w, sub_h = _CHROMA[colorspace]
    y_size = width * height
    skip = planes * -(-width // sub_w) * -(-height // sub_h)
    offset = len(header) + 1
    for index in itertools.count():
        marker = _read_line(stream)
        if marker is None:
            return
        if marker.partition(b" ")[0] != b"FRAME":  # FRAME, then parameters after a space
            raise IngestError(f"expected FRAME marker at byte offset {offset}, "
                              f"found {marker[:16]!r}")
        offset += len(marker) + 1
        data = stream.read(y_size)
        if len(data) != y_size:
            raise IngestError(f"Y4M stream truncated at byte offset {offset}: "
                              f"frame {index} Y plane has {len(data)} of {y_size} bytes")
        chroma = stream.read(skip)
        if len(chroma) != skip:
            raise IngestError(f"Y4M stream truncated at byte offset {offset + y_size}: "
                              f"frame {index} chroma has {len(chroma)} of {skip} bytes")
        yield offset, Frame(index=index,
                            pixels=np.frombuffer(data, dtype=np.uint8).reshape(height, width))
        offset += y_size + skip


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _open_binary(path: str) -> BinaryIO:
    if path == "-":
        return sys.stdin.buffer
    try:
        return open(path, "rb")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc


class _StreamSource:
    """A raw or Y4M stream, re-read at the Y-plane offsets its parser records."""

    def __init__(self, spec: SourceSpec):
        self._spec = spec
        self._input = _open_binary(spec.path)
        # stdin cannot seek, so its Y planes are copied aside as they stream
        self._spool = (tempfile.TemporaryFile(prefix="entropykf_spool_")
                       if spec.path == "-" else None)
        self._offsets = array("q")  # 8 bytes per frame
        self._shape: tuple[int, int] | None = None

    def frames(self) -> Iterator[Frame]:
        if self._spec.kind is SourceKind.RAW:
            parsed = _iter_raw(self._input, self._spec.width, self._spec.height)
        else:
            parsed = _iter_y4m(self._input)
        for offset, frame in parsed:
            self._shape = frame.pixels.shape
            if self._spool is not None:
                offset = self._spool.tell()
                self._spool.write(frame.pixels)
            self._offsets.append(offset)
            yield frame
        if not self._offsets:
            raise IngestError(f"source {self._spec.path} yielded no frames")

    def read_frame(self, index: int) -> Frame:
        height, width = self._shape
        stream = self._input if self._spool is None else self._spool
        resume = stream.tell()  # where frames() goes on parsing or spooling
        stream.seek(self._offsets[index])
        data = stream.read(height * width)
        stream.seek(resume)
        if len(data) != height * width:
            raise IngestError(f"{self._spec.path} ended before frame {index}")
        return Frame(index=index,
                     pixels=np.frombuffer(data, dtype=np.uint8).reshape(height, width))

    def close(self) -> None:
        if self._spool is not None:
            self._spool.close()
        else:
            self._input.close()


def open_source(spec: SourceSpec) -> _PgmDirSource | _StreamSource:
    """The source object for spec's format (see the module docstring).

    Opening the same file or directory source twice yields byte-identical
    frame sequences; stdin sources are consumed once by nature.
    """
    if spec.kind is SourceKind.PGM_DIR:
        return _PgmDirSource(spec)
    return _StreamSource(spec)
