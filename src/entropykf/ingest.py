"""Frame sources: PGM directories, raw 8-bit luma streams, and Y4M streams.

``open_source(spec)`` returns one source object per format.  Its ``frames()``
is a single-pass stream of 8-bit grayscale ``Frame`` values with consecutive
zero-based indices; ``read_frame(i)`` fetches frame i again once the stream
has passed it, and ``close()`` releases the files.  Frame geometry is decided
here: ``frames()`` yields at least one frame, all of one size and each
side in ``MIN_DIMENSION..MAX_DIMENSION`` pixels, or raises ``IngestError``.
``check_frame_size`` is that range's one test: a size declared up front, by
a raw ``SourceSpec`` or a Y4M header, meets it before any frame is read.  A
PGM file holds exactly one image: its header may hold "#" comments, each
running through its line end, between its fields and after maxval; exactly
one whitespace byte then precedes the raster, and the raster ends the file.
A Y4M header starts with the word ``YUV4MPEG2`` and names an 8-bit
colorspace (``_CHROMA``); each frame opens with a line that is ``FRAME``
alone or ``FRAME``, a space and parameters, so an empty line where a frame
belongs is an error, not the end of the input.  A raw regular file is read
in windows of whole frames, 512 KiB or one frame if a frame is larger, each
window one unbuffered read, and a frame's pixels are a slice of its
window's ``bytes``, so a pass that holds two frames holds at most two
windows.  A read shorter than its window is the end of the file as it
stands: frames appended since are read by the next, a trailing partial frame
is the truncation error, and a file that an ``fstat`` then finds shorter
than the frames already given is an ``IngestError``.  Any other raw or Y4M
input, a pipe say, is read through a buffer, a plane to a ``read``, so the
spool compares planes as ``bytes``: a buffered ``read(n)``
returns fewer than n bytes only at end of input.  Y4M chroma is
read into one ``bytearray`` per stream and dropped.  A PGM directory is
listed once, with one ``os.scandir``, and ``read_frame`` re-reads the i-th
file, an ``IngestError`` if it no longer holds a frame of the first frame's
size.  A PGM file is read with ``os.open``, one ``os.read`` of one byte
more than the first file's length, and ``os.close``; a later file of the
first's length whose leading bytes are the first's header is that header's
raster with no parse, and any other file is parsed in full, so it gives
the frame or the message it would alone.
Raw and Y4M streams share one random-access path: the parser records
each frame's Y-plane byte offset, and ``read_frame`` reads the plane there
with one ``os.pread`` of the input file, or, for an input that cannot seek
(stdin, a named pipe, ``/dev/fd/N`` of a process substitution), of a spool
file of the Y planes written as they stream, flushed first; ``pread`` leaves
the stream's position where it was.  The spool holds one plane per run of
equal planes: a plane equal byte for byte to the one before is not
written again, and its frame takes the earlier offset.  ``read_frame``
serves only the frames a source can: a stream's frames read so far, a
directory's listed files; any other index, a negative one too, is an
``IngestError`` naming it and the count.  Frames made here skip
``Frame``'s checks, which their parsed planes meet by construction.
Container decoding is out of scope; compressed video is piped in as raw gray
or Y4M (see README for the ffmpeg recipes).
"""

from __future__ import annotations

import enum
import errno
import itertools
import os
import re
import stat
import sys
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from . import kernels


class IngestError(ValueError):
    """A frame source could not be opened or decoded, or its frame size is out of range."""


# smallest frame width or height: the 8x8 segment grid needs a pixel per cell
MIN_DIMENSION = kernels.SEGMENT_GRID
# largest frame width or height; bounds the bytes read per frame and keeps
# the pixel-product sum Σab of a frame pair far below 2**64 (kernels.frame_step)
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
        if not isinstance(self.path, (str, os.PathLike)):
            raise ValueError(f"source path must be a str or an os.PathLike, got {self.path!r}")
        object.__setattr__(self, "path", os.fspath(self.path))
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
    pixels: memoryview  # (height, width) bytes, row-major (kernels.frame_view)

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("frame index must be non-negative")
        object.__setattr__(self, "pixels", kernels.frame_view(self.pixels))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _as_frame(frame) -> Frame:
    """frame itself, or a bare 2-D pixel buffer wrapped as frame 0, so that
    ``Frame`` makes the one 2-D uint8 check."""
    return frame if isinstance(frame, Frame) else Frame(index=0, pixels=frame)


def _frame(index: int, pixels: memoryview) -> Frame:
    """``Frame(index=index, pixels=pixels)`` without the dataclass ``__init__``
    and its checks, for the frames ingest makes: their parsed 2-D memoryviews
    of bytes and indices of 0 or more meet the checks by construction."""
    frame = object.__new__(Frame)
    fields = frame.__dict__
    fields["index"], fields["pixels"] = index, pixels
    return frame


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

# header gaps are whitespace and "#" comments that run through their line end;
# numbers have at most 18 digits, more than any frame needs and fewer than
# int() refuses
_PGM_GAP = rb"(?:\s|#[^\n\r]*[\n\r])+"
_PGM_NUMBER = rb"([0-9]{1,18})"
_PGM_HEADER = re.compile(rb"P5" + (_PGM_GAP + _PGM_NUMBER) * 3 + rb"(?:#[^\n\r]*[\n\r])*\s")


def _parse_pgm(data: bytes, name: str) -> memoryview:
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
    return memoryview(data)[header.end():].cast("B", (height, width))


def read_pgm(path: str | Path) -> memoryview:
    """Read one binary PGM file into a (height, width) memoryview of its raster
    bytes, in one ``os.read`` of the whole file (see ``_read_file``)."""
    name = str(Path(path))  # a str is named in messages as its Path
    return _parse_pgm(_read_file(name), name)


def _read_file(name: str, size: int | None = None) -> bytes:
    """The bytes of the file at name, in one ``os.read`` of size + 1 bytes;
    size is the file's length from ``os.fstat`` unless given.  Only a read
    that returns another count than size, from a file that grew, shrank or
    holds another length, goes on to the end of the file."""
    try:
        fd = os.open(name, os.O_RDONLY)
    except OSError as exc:
        raise IngestError(f"cannot read {name}: {exc}") from exc
    try:
        if size is None:
            size = os.fstat(fd).st_size
        data = os.read(fd, size + 1)
        if len(data) != size:  # read on to the end, 1 MiB at a time
            data += b"".join(iter(lambda: os.read(fd, 1 << 20), b""))
    except OSError as exc:  # os.read names no file: "[Errno 21] Is a directory"
        named = OSError(exc.errno, exc.strerror, name)
        raise IngestError(f"cannot read {name}: {named}") from exc
    finally:
        os.close(fd)
    return data


def write_pgm(path: str | Path, pixels) -> None:
    """Write a (height, width) uint8 buffer as a binary PGM with maxval 255; refuse
    what ``read_pgm`` could not read back, another item format or a side of 0."""
    view = kernels.frame_view(pixels)
    if 0 in view.shape:
        raise ValueError(f"expected a frame with no side of 0, got shape {view.shape}")
    h, w = view.shape
    with open(path, "wb") as file:  # the raster is written from the view, not copied
        file.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        file.write(view)


# the errors of following a symlink that Path.is_file reads as "not a file":
# a dangling symlink, a symlink through a file, a symlink loop
_NOT_A_FILE = {errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP}


def _is_file(entry: os.DirEntry, prefix: str) -> bool:
    """Whether entry is a regular file once symlinks are followed."""
    try:
        return entry.is_file()
    except OSError as exc:
        if exc.errno in _NOT_A_FILE:
            return False
        raise IngestError(f"cannot read {prefix}{entry.name}: {exc}") from exc


def list_pgm_dir(path: str | Path) -> list[str]:
    """Paths of a frame directory's files in strict code-point filename order,
    each the string ``Path(path) / name`` gives.  One ``os.scandir`` lists
    them; an entry's file type comes from the directory entry, so most file
    systems need no ``stat`` per file."""
    root = str(Path(path))
    prefix = "" if root == "." else os.path.join(root, "")  # Path(".") / name is name
    try:
        with os.scandir(root) as entries:
            names = sorted(entry.name for entry in entries if _is_file(entry, prefix))
    except OSError as exc:
        raise IngestError(f"not a readable directory: {root}") from exc
    if not names:
        raise IngestError(f"no frame files in directory: {root}")
    return [prefix + name for name in names]


class _PgmDirSource:
    def __init__(self, spec: SourceSpec):
        self._paths = list_pgm_dir(spec.path)
        # once frames() reads the first file: its length, its header (the
        # bytes before the raster) and its frame's (height, width)
        self._size = self._header = self._shape = None

    def frames(self) -> Iterator[Frame]:
        first = self._paths[0]
        data = _read_file(first)
        pixels = _parse_pgm(data, first)
        # later frames must match the first, so only it is range-checked
        check_frame_size(pixels.shape[1], pixels.shape[0], f"{first}: ")
        self._size, self._shape = len(data), pixels.shape
        self._header = data[:len(data) - pixels.nbytes]
        yield _frame(0, pixels)
        for index in range(1, len(self._paths)):
            yield self._read(index)

    def read_frame(self, index: int) -> Frame:
        if not 0 <= index < len(self._paths):
            raise IngestError(f"frame {index} is outside the {len(self._paths)} frames listed")
        return self._read(index)

    def _read(self, index: int) -> Frame:
        """Frame index, unless the first frame's size is known and the file,
        since read again or replaced, holds another.  A file of the first's
        length that starts with its header is that header's raster without a
        parse: the header regex matches the same bytes, as none of its paths
        reads past the whitespace byte that ends the first file's match."""
        path = self._paths[index]
        data = _read_file(path, self._size)
        if len(data) == self._size and data.startswith(self._header):
            return _frame(index, memoryview(data)[len(self._header):].cast("B", self._shape))
        pixels = _parse_pgm(data, path)
        if self._shape not in (None, pixels.shape):
            raise IngestError(f"{path}: frame {index} is {pixels.shape[1]}x{pixels.shape[0]}, "
                              f"expected {self._shape[1]}x{self._shape[0]}")
        return _frame(index, pixels)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# raw 8-bit luma stream
# ---------------------------------------------------------------------------

def _plane_frame(index: int, plane: bytes, shape: tuple[int, int]) -> Frame:
    """Frame index over a Y plane of shape (height, width), whose height *
    width bytes stay its pixels' ``obj``, so the spool can compare
    planes as bytes."""
    return _frame(index, memoryview(plane).cast("B", shape))


def _raw_truncated(index: int, got: int, width: int, height: int) -> IngestError:
    """The error of a raw stream whose frame index has only got bytes."""
    return IngestError(f"raw stream truncated at byte offset {index * width * height}: frame "
                       f"{index} has {got} of {width * height} bytes "
                       f"(stream length is not a multiple of {width}x{height})")


# bytes of whole frames a raw file is read in at a time, or one frame if larger
_WINDOW = 512 * 1024


def _iter_raw(stream: BinaryIO, width: int, height: int, per_read: int = 1,
              name: str | None = None) -> Iterator[tuple[int, Frame]]:
    """(byte offset, frame) for each frame of a raw stream, read per_read
    frames at a time; each frame's pixels are a slice of its read's bytes.  A
    read shorter than asked is the end of the input as it stands, and the next
    read finds what was appended since.  Where name is given, stream is that
    file read unbuffered, and an ``fstat`` at a short read tells a file that
    shrank below the frames already given from a trailing partial frame."""
    frame_size, shape = width * height, (height, width)
    offset = 0
    while True:
        data = stream.read(per_read * frame_size)
        if name is not None and len(data) < per_read * frame_size:
            st = os.fstat(stream.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size < offset:
                raise IngestError(f"{name} shrank to {st.st_size} bytes while it was read: frame "
                                  f"{st.st_size // frame_size} and those after it are gone")
        window = memoryview(data)
        for at in range(0, len(data) - frame_size + 1, frame_size):
            yield offset, _frame(offset // frame_size, window[at:at + frame_size].cast("B", shape))
            offset += frame_size
        if len(data) % frame_size:
            raise _raw_truncated(offset // frame_size, len(data) % frame_size, width, height)
        if not data:
            return


# ---------------------------------------------------------------------------
# YUV4MPEG2
# ---------------------------------------------------------------------------

_DECIMAL = re.compile(rb"[0-9]+")
_MAX_LINE = 1024  # bytes a Y4M header or FRAME line may not reach, newline excluded
# the 8-bit colorspaces: (chroma planes, horizontal and vertical subsampling);
# any other name, such as 420p10, 444alpha or 411, is refused
_CHROMA = {"420": (2, 2, 2), "420jpeg": (2, 2, 2), "420paldv": (2, 2, 2),
           "420mpeg2": (2, 2, 2), "422": (2, 2, 1), "444": (2, 1, 1), "mono": (0, 1, 1)}


def _read_line(stream: BinaryIO, offset: int) -> bytes | None:
    """The next line, which starts at byte ``offset``, without its newline,
    possibly empty, or None at end of input; bounded to catch garbage."""
    line = stream.readline(_MAX_LINE + 1)
    if not line:
        return None
    line = line.removesuffix(b"\n")
    if len(line) >= _MAX_LINE:
        raise IngestError(f"Y4M line at byte offset {offset} exceeds {_MAX_LINE} bytes; "
                          "not a Y4M stream?")
    return line


def _y4m_dimension(param: bytes) -> int:
    if not _DECIMAL.fullmatch(param[1:]):
        raise IngestError(f"Y4M header parameter {param.decode('ascii', 'replace')!r} "
                          "is not a dimension")
    return int(param[1:])


def _iter_y4m(stream: BinaryIO) -> Iterator[tuple[int, Frame]]:
    """(Y-plane byte offset, frame) for each frame of a Y4M stream."""
    header = _read_line(stream, 0) or b""
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
    y_size, shape = width * height, (height, width)
    skip = planes * -(-width // sub_w) * -(-height // sub_h)
    chroma = bytearray(skip)  # each frame's chroma is read into it and dropped
    offset = len(header) + 1
    for index in itertools.count():
        marker = _read_line(stream, offset)
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
        got = stream.readinto(chroma)
        if got != skip:
            raise IngestError(f"Y4M stream truncated at byte offset {offset + y_size}: "
                              f"frame {index} chroma has {got} of {skip} bytes")
        yield offset, _plane_frame(index, data, shape)
        offset += y_size + skip


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _open_binary(spec: SourceSpec) -> BinaryIO:
    if spec.path == "-":
        return sys.stdin.buffer
    try:
        return open(spec.path, "rb")
    except OSError as exc:
        raise IngestError(f"cannot read {spec.path}: {exc}") from exc


class _StreamSource:
    """A raw or Y4M stream, re-read at the Y-plane offsets its parser records."""

    def __init__(self, spec: SourceSpec):
        self._spec = spec
        self._input = _open_binary(spec)
        # stdin and pipes cannot seek, so their Y planes are copied aside as
        # they stream, each run of equal planes once
        self._spool = (tempfile.TemporaryFile(prefix="entropykf_spool_")
                       if spec.path == "-" or not self._input.seekable() else None)
        self._offsets = array("q")  # 8 bytes per frame
        self._shape: tuple[int, int] | None = None

    def frames(self) -> Iterator[Frame]:
        spec = self._spec
        if spec.kind is SourceKind.RAW and self._spool is None:  # a file: windows, unbuffered
            per_read = max(1, _WINDOW // (spec.width * spec.height))
            parsed = _iter_raw(self._input.raw, spec.width, spec.height, per_read, spec.path)
        elif spec.kind is SourceKind.RAW:
            parsed = _iter_raw(self._input, spec.width, spec.height)
        else:
            parsed = _iter_y4m(self._input)
        previous = None  # the plane before, held anyway as the frame before
        for offset, frame in parsed:
            self._shape = frame.pixels.shape
            if self._spool is not None:
                plane = frame.pixels.obj  # the bytes of one read, a plane to a read
                if plane == previous:  # one memcmp; a repeat takes the earlier offset
                    offset = self._offsets[-1]
                else:
                    offset = self._spool.tell()
                    self._spool.write(plane)
                previous = plane
            self._offsets.append(offset)
            yield frame
        if not self._offsets:
            raise IngestError(f"source {self._spec.path} yielded no frames")

    def read_frame(self, index: int) -> Frame:
        if not 0 <= index < len(self._offsets):
            raise IngestError(f"frame {index} is outside the {len(self._offsets)} frames "
                              f"read so far from {self._spec.path}")
        size = self._shape[0] * self._shape[1]
        stream = self._input if self._spool is None else self._spool
        stream.flush()  # the spool's planes still in its buffer
        data = os.pread(stream.fileno(), size, self._offsets[index])
        if len(data) != size:
            raise IngestError(f"{self._spec.path} ended before frame {index}")
        return _plane_frame(index, data, self._shape)

    def close(self) -> None:
        if self._spool is not None:
            self._spool.close()
        if self._spec.path != "-":
            self._input.close()


def open_source(spec: SourceSpec) -> _PgmDirSource | _StreamSource:
    """The source object for spec's format (see the module docstring).

    Opening the same file or directory source twice yields byte-identical
    frame sequences; stdin sources are consumed once by nature.
    """
    if spec.kind is SourceKind.PGM_DIR:
        return _PgmDirSource(spec)
    return _StreamSource(spec)
