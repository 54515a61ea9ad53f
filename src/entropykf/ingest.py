"""Frame sources: PGM directories, raw 8-bit luma streams, and Y4M streams.

``open_source(spec)`` returns one source object per format.  Its ``frames()``
is a single-pass stream of 8-bit grayscale ``Frame`` values with consecutive
zero-based indices; ``read_frame(i)`` fetches frame i again once the stream
has passed it, and ``close()`` releases the files.  Frame geometry is decided
here: ``frames()`` yields at least one frame, all of one size and each
side in ``MIN_DIMENSION..MAX_DIMENSION`` pixels, or raises ``IngestError``.
A size declared up front, by a raw ``SourceSpec`` or a Y4M header, is
checked against the same range before any frame is read; only raw specs
take one.  Y4M input must have 8-bit samples.  A PGM
directory re-reads the i-th file.  Raw and Y4M streams share one
random-access path: the parser records each frame's Y-plane byte offset, and
``read_frame`` seeks there in the input file, or, for stdin, in a spool file
of the Y planes written as they stream.  Container decoding is out of scope;
compressed video is piped in as raw gray or Y4M (see README for the ffmpeg
recipes).
"""

from __future__ import annotations

import enum
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


class IngestError(Exception):
    """A frame source could not be opened or decoded."""


# smallest frame width or height the 8x8 segment grid can split
MIN_DIMENSION = 8
# largest frame width or height; bounds the bytes read per frame and keeps
# every pixel-product sum of a frame pair far below 2**64 (kernels.pearson_sums)
MAX_DIMENSION = 16384


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
        for name, value in (("width", self.width), ("height", self.height)):
            if value is not None and not MIN_DIMENSION <= value <= MAX_DIMENSION:
                raise ValueError(f"{name} must be in {MIN_DIMENSION}..{MAX_DIMENSION} (at least "
                                 f"{MIN_DIMENSION} to fill the segment grid), got {value}")
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


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

def _parse_pgm(data: bytes, name: str) -> np.ndarray:
    """Decode a binary P5 PGM.  Comments are allowed anywhere in the header."""
    pos = 0
    tokens: list[bytes] = []
    while len(tokens) < 4:
        if pos >= len(data):
            raise IngestError(f"unsupported image file: {name} (truncated PGM header)")
        c = data[pos:pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace() and data[end:end + 1] != b"#":
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if tokens[0] != b"P5":
        raise IngestError(f"unsupported image file: {name} "
                          f"(expected binary PGM magic P5, found {tokens[0]!r})")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise IngestError(f"unsupported image file: {name} (malformed PGM header)") from None
    if maxval != 255:
        raise IngestError(f"unsupported image file: {name} (maxval {maxval}, only 255 supported)")
    if width <= 0 or height <= 0:
        raise IngestError(f"unsupported image file: {name} (bad dimensions {width}x{height})")
    pos += 1  # single whitespace byte separates maxval from the raster
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise IngestError(f"unsupported image file: {name} "
                          f"(raster holds {len(raster)} bytes, expected {width * height})")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def read_pgm(path: str | Path) -> np.ndarray:
    """Read one binary PGM file into a (height, width) uint8 array."""
    path = Path(path)
    try:
        data = path.read_bytes()
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
            height, width = pixels.shape
            if not MIN_DIMENSION <= min(height, width) <= max(height, width) <= MAX_DIMENSION:
                raise IngestError(f"{path}: frame size {width}x{height} is not within the "
                                  f"{MIN_DIMENSION}x{MIN_DIMENSION} minimum and the "
                                  f"{MAX_DIMENSION}x{MAX_DIMENSION} maximum")
            if shape is not None and pixels.shape != shape:
                raise IngestError(f"{path}: frame {index} is {width}x{height}, "
                                  f"expected {shape[1]}x{shape[0]}")
            shape = pixels.shape
            yield Frame(index=index, pixels=pixels)

    def read_frame(self, index: int) -> Frame:
        return Frame(index=index, pixels=read_pgm(self._paths[index]))

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# raw 8-bit luma stream
# ---------------------------------------------------------------------------

def _read_exact(stream: BinaryIO, n: int) -> bytes:
    """Read exactly n bytes, tolerating the short reads pipes produce."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _iter_raw(stream: BinaryIO, width: int, height: int) -> Iterator[tuple[int, Frame]]:
    """(byte offset, frame) for each frame of a raw stream."""
    frame_size = width * height
    index = 0
    while True:
        data = _read_exact(stream, frame_size)
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
        index += 1


# ---------------------------------------------------------------------------
# YUV4MPEG2
# ---------------------------------------------------------------------------

_DECIMAL = re.compile(rb"[0-9]+")
_HIGH_BIT_DEPTH = re.compile(r"(420|422|444)p[0-9]+")


def _chroma_bytes(colorspace: str, w: int, h: int) -> int:
    """Plane bytes per frame beyond the Y plane; 8-bit colorspaces only."""
    if _HIGH_BIT_DEPTH.fullmatch(colorspace):
        raise IngestError(f"unsupported Y4M colorspace C{colorspace} "
                          "(more than 8 bits per sample)")
    if colorspace.startswith("420"):
        return 2 * ((w + 1) // 2) * ((h + 1) // 2)
    if colorspace.startswith("422"):
        return 2 * ((w + 1) // 2) * h
    if colorspace.startswith("444") and colorspace != "444alpha":
        return 2 * w * h
    if colorspace == "mono":
        return 0
    raise IngestError(f"unsupported Y4M colorspace C{colorspace}")


def _read_line(stream: BinaryIO, limit: int = 1024) -> bytes:
    """Read bytes up to and excluding a newline; bounded to catch garbage."""
    out = bytearray()
    while len(out) < limit:
        c = stream.read(1)
        if not c:
            return bytes(out)
        if c == b"\n":
            return bytes(out)
        out += c
    raise IngestError("Y4M header line exceeds 1024 bytes; not a Y4M stream?")


def _y4m_dimension(param: bytes) -> int:
    value = param[1:]
    if not _DECIMAL.fullmatch(value) or not MIN_DIMENSION <= int(value) <= MAX_DIMENSION:
        raise IngestError(f"Y4M header parameter {param.decode('ascii', 'replace')!r} "
                          f"is not a dimension in {MIN_DIMENSION}..{MAX_DIMENSION}")
    return int(value)


def _iter_y4m(stream: BinaryIO) -> Iterator[tuple[int, Frame]]:
    """(Y-plane byte offset, frame) for each frame of a Y4M stream."""
    header = _read_line(stream)
    if not header.startswith(b"YUV4MPEG2"):
        raise IngestError("missing YUV4MPEG2 signature at byte offset 0")
    width = height = None
    colorspace = "420"
    for param in header.split(b" ")[1:]:
        if not param:
            continue
        tag = param[:1]
        if tag == b"W":
            width = _y4m_dimension(param)
        elif tag == b"H":
            height = _y4m_dimension(param)
        elif tag == b"C":
            colorspace = param[1:].decode("ascii", "replace")
    if not width or not height:
        raise IngestError("Y4M header lacks W/H dimensions")
    y_size = width * height
    skip = _chroma_bytes(colorspace, width, height)
    offset = len(header) + 1
    index = 0
    while True:
        marker = _read_line(stream)
        if not marker:
            return
        if not marker.startswith(b"FRAME"):
            raise IngestError(f"expected FRAME marker at byte offset {offset}, "
                              f"found {marker[:16]!r}")
        offset += len(marker) + 1
        data = _read_exact(stream, y_size)
        if len(data) != y_size:
            raise IngestError(f"Y4M stream truncated at byte offset {offset}: "
                              f"frame {index} Y plane has {len(data)} of {y_size} bytes")
        if skip:
            chroma = _read_exact(stream, skip)
            if len(chroma) != skip:
                raise IngestError(f"Y4M stream truncated at byte offset {offset + y_size}: "
                                  f"frame {index} chroma has {len(chroma)} of {skip} bytes")
        yield offset, Frame(index=index,
                            pixels=np.frombuffer(data, dtype=np.uint8).reshape(height, width))
        offset += y_size + skip
        index += 1


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
                self._spool.write(frame.pixels.tobytes())
            self._offsets.append(offset)
            yield frame
        if not self._offsets:
            raise IngestError(f"source {self._spec.path} yielded no frames")

    def read_frame(self, index: int) -> Frame:
        height, width = self._shape
        stream = self._input if self._spool is None else self._spool
        resume = stream.tell()  # where frames() goes on parsing or spooling
        stream.seek(self._offsets[index])
        data = _read_exact(stream, height * width)
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
