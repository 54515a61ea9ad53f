"""Property tests of the input boundary: arbitrary bytes and arguments end in
the documented error types, never in a bare exception or an unbounded size.
The shot stages are checked the same way on arbitrary correlation series."""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pgm_second_frame
from entropykf.evaluation import EvaluationError, load_ground_truth
from entropykf.ingest import (MAX_DIMENSION, MIN_DIMENSION, IngestError, SourceKind,
                              SourceSpec, _iter_raw, _iter_y4m, _parse_pgm)
from entropykf.shots import detect_cuts, merge_short_shots

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_numbers = st.one_of(st.integers(), st.integers(0, 4 * MAX_DIMENSION), st.integers(0, 24))
_sizes_or_junk = st.one_of(_numbers, st.text(max_size=6))
_small_sizes = st.integers(MIN_DIMENSION, 24)

# chroma bytes per Y4M frame, by colorspace, counted independently of ingest
_CHROMA = {"420": lambda w, h: 2 * -(-w // 2) * -(-h // 2),
           "422": lambda w, h: 2 * -(-w // 2) * h,
           "444": lambda w, h: 2 * w * h,
           "mono": lambda w, h: 0}


def _body(draw, size) -> bytes:
    """Exactly size bytes when that is small, else arbitrary (mostly short) bytes."""
    if isinstance(size, int) and 0 <= size <= 1 << 16 and draw(st.integers(0, 3)):
        return bytes(size)
    return draw(st.binary(max_size=1024))


@st.composite
def y4m_streams(draw) -> bytes:
    """Y4M headers with arbitrary sizes and colorspaces, then FRAME records
    that often hold exactly the planes the header declares; or arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=512))
    sizes = draw(st.sampled_from([_small_sizes, _sizes_or_junk]))
    width, height = draw(sizes), draw(sizes)
    colorspace = draw(st.sampled_from([*_CHROMA, *_CHROMA, "420jpeg", "444alpha", "411", ""]))
    header = f"YUV4MPEG2 W{width} H{height} C{colorspace}\n".encode("utf-8", "replace")
    size = None
    if isinstance(width, int) and isinstance(height, int) and colorspace in _CHROMA:
        size = width * height + _CHROMA[colorspace](width, height)
    frames = [_body(draw, size) for _ in range(draw(st.integers(0, 3)))]
    return header + b"".join(b"FRAME\n" + body for body in frames)


@st.composite
def pgm_files(draw) -> bytes:
    """P5 headers with arbitrary fields and separators, then a raster that
    often has exactly the declared size; or arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=512))
    magic = draw(st.sampled_from(["P5", "P5", "P5", "P5", "P2", "P6", ""]))
    sizes = draw(st.sampled_from([_small_sizes, _sizes_or_junk]))
    width, height = draw(sizes), draw(sizes)
    maxval = draw(st.sampled_from([255, 255, 255, 0, 256, 65535, "x"]))
    separator = draw(st.sampled_from([" ", "\n", " # note\n"]))
    header = separator.join(map(str, (magic, width, height, maxval))) + "\n"
    size = width * height if isinstance(width, int) and isinstance(height, int) else None
    return header.encode("utf-8", "replace") + _body(draw, size)


@FUZZ
@given(pgm_files())
def test_parse_pgm_raises_only_ingest_error(data):
    try:
        pixels = _parse_pgm(data, "frame.pgm")
    except IngestError:
        return
    assert pixels.ndim == 2 and pixels.nbytes > 0


_whitespace = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_comments = st.builds(lambda body, end: b"#" + body + end,
                      st.binary(max_size=12).map(lambda b: b.translate(None, b"\n\r")),
                      st.sampled_from([b"\n", b"\r"]))


@st.composite
def pgm_round_trips(draw, min_side: int = 1) -> tuple[bytes, bytes, int, int]:
    """A valid P5 file with random runs of whitespace and comments in every
    header gap, comments after maxval, then exactly one whitespace byte."""
    width, height = draw(st.integers(min_side, 16)), draw(st.integers(min_side, 16))
    raster = draw(st.binary(min_size=width * height, max_size=width * height))
    gaps = [b"".join(draw(st.lists(st.one_of(_whitespace, _comments), min_size=1, max_size=5)))
            for _ in range(3)]
    tail = b"".join(draw(st.lists(_comments, max_size=3))) + draw(_whitespace)
    header = b"P5" + b"".join(gap + str(n).encode() for gap, n in zip(gaps, (width, height, 255)))
    return header + tail + raster, raster, width, height


@FUZZ
@given(pgm_round_trips())
def test_parse_pgm_round_trip(case):
    data, raster, width, height = case
    pixels = _parse_pgm(data, "frame.pgm")
    assert pixels.shape == (height, width)
    assert pixels.tobytes() == raster


# bytes that make or break a header: its magic, gaps, comments and digits
_header_bytes = st.one_of(st.sampled_from(b"P25 \t\n\r#09"), st.integers(0, 255))


@st.composite
def pgm_mutants(draw) -> tuple[bytes, bytes]:
    """A valid P5 file that streams as a first frame, and a copy with one to
    three bytes set, inserted or deleted, in its header, often at the
    whitespace byte that ends it, or in its raster, or with bytes appended
    or cut off its end."""
    first, raster, _, _ = draw(pgm_round_trips(min_side=MIN_DIMENSION))
    header = len(first) - len(raster)
    second = bytearray(first)
    for _ in range(draw(st.integers(1, 3))):
        at = min(draw(st.one_of(st.just(header - 1), st.integers(0, header + 1),
                                st.integers(header, len(second)))), len(second) - 1)
        # most edits keep the length, so that the read without a parse is tried
        edit = draw(st.sampled_from(["set"] * 4 + ["insert", "delete", "append", "cut"]))
        if edit == "set":
            second[at] = draw(_header_bytes)
        elif edit == "insert":
            second.insert(at, draw(_header_bytes))
        elif edit == "delete":
            del second[at]
        elif edit == "append":
            second += draw(st.binary(min_size=1, max_size=3))
        else:
            del second[len(second) - draw(st.integers(1, 3)):]
    return first, bytes(second)


@FUZZ
@given(pgm_mutants())
def test_pgm_second_frame_is_what_a_full_parse_gives(case):
    # the read that skips the parse for a file of the first's length and
    # header gives the frame or the message a parse of the file's bytes gives
    with tempfile.TemporaryDirectory() as directory:
        outcomes = pgm_second_frame(Path(directory), *case)
    assert outcomes[0] == outcomes[1] == outcomes[2]


@FUZZ
@given(y4m_streams())
def test_iter_y4m_raises_only_ingest_error(data):
    try:
        for _, frame in _iter_y4m(io.BytesIO(data)):
            assert MIN_DIMENSION <= min(frame.pixels.shape)
            assert max(frame.pixels.shape) <= MAX_DIMENSION
    except IngestError:
        pass


@FUZZ
@given(st.integers(MAX_DIMENSION + 1), _small_sizes, st.booleans(), st.binary(max_size=256))
def test_y4m_header_above_max_dimension_is_rejected(side, other, wide, tail):
    width, height = (side, other) if wide else (other, side)
    data = f"YUV4MPEG2 W{width} H{height} C420\nFRAME\n".encode() + tail
    with pytest.raises(IngestError, match=f"frame size {width}x{height} is outside"):
        next(_iter_y4m(io.BytesIO(data)))


@FUZZ
@given(st.binary(max_size=2048), st.integers(MIN_DIMENSION, 40),
       st.integers(MIN_DIMENSION, 40))
def test_iter_raw_raises_only_ingest_error(data, width, height):
    try:
        frames = [frame for _, frame in _iter_raw(io.BytesIO(data), width, height)]
    except IngestError:
        assert len(data) % (width * height)
        return
    assert len(frames) * width * height == len(data)
    assert all(frame.pixels.shape == (height, width) for frame in frames)


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=512),
    st.lists(st.one_of(st.text(max_size=20),
                       st.builds("total_frames={}".format, _numbers),
                       st.builds(str, _numbers)),
             max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8", "replace"))))
def test_load_ground_truth_raises_only_evaluation_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_gt.txt"
    path.write_bytes(data)
    try:
        gt = load_ground_truth(path)
    except EvaluationError:
        return
    assert gt.keyframe_indices
    assert all(0 <= i < gt.total_frames for i in gt.keyframe_indices)


_sizes = st.one_of(st.none(), _numbers)


@FUZZ
@given(kind=st.one_of(st.sampled_from([k.value for k in SourceKind]), st.text(max_size=8)),
       path=st.sampled_from(["-", "video"]), width=_sizes, height=_sizes)
def test_source_spec_raises_only_value_error(kind, path, width, height):
    try:
        spec = SourceSpec(kind=kind, path=path, width=width, height=height)
    except ValueError:
        return
    if spec.kind is SourceKind.RAW:
        assert MIN_DIMENSION <= spec.width <= MAX_DIMENSION
        assert MIN_DIMENSION <= spec.height <= MAX_DIMENSION
    else:
        assert spec.width is None and spec.height is None


@st.composite
def correlation_series(draw) -> tuple[list[float], float]:
    """A threshold in (0, 1] and a series in [-1, 1] that often holds the
    threshold itself and the float just below it."""
    threshold = draw(st.floats(0.0, 1.0, exclude_min=True))
    near = st.sampled_from([threshold, float(np.nextafter(threshold, 0.0))])
    series = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), near), max_size=60))
    return series, threshold


def _tiles(shots, end: int) -> bool:
    return (shots[0].start == 0 and shots[-1].end == end
            and all(a.end == b.start for a, b in zip(shots, shots[1:])))


@FUZZ
@given(correlation_series(), st.integers(0, 30))
def test_detect_cuts_starts_a_shot_after_each_low_correlation(case, min_len):
    correlations, threshold = case
    shots = detect_cuts(correlations, threshold)
    assert _tiles(shots, len(correlations) + 1)
    assert [s.start - 1 for s in shots[1:]] == \
        [i for i, r in enumerate(correlations) if r < threshold]
    assert _tiles(merge_short_shots(shots, min_len), len(correlations) + 1)
