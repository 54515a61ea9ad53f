import io
import sys
import tempfile

import numpy as np
import pytest

from conftest import make_y4m, rand_pixels
from entropykf.ingest import (MAX_DIMENSION, MIN_DIMENSION, Frame, IngestError,
                              SourceKind, SourceSpec, _iter_raw, _iter_y4m, _parse_pgm,
                              list_pgm_dir, open_source, read_pgm, write_pgm)
from entropykf.pipeline import PipelineConfig, run_pipeline


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(41)
        px = rand_pixels(rng, 33, 21)
        path = tmp_path / "frame.pgm"
        write_pgm(path, px)
        assert np.array_equal(read_pgm(path), px)

    def test_header_comments_allowed(self):
        data = b"P5\n# a comment\n4 2\n# another\n255\n" + bytes(8)
        px = _parse_pgm(data, "inline")
        assert px.shape == (2, 4)
        assert px.sum() == 0

    def test_comment_after_maxval_needs_one_whitespace_byte(self):
        # the comment runs through its newline; a raster byte cannot stand in
        # for the whitespace byte that must follow
        with pytest.raises(IngestError, match="malformed PGM header"):
            _parse_pgm(b"P5 8 8 255#c\n" + bytes(range(64)), "inline")
        px = _parse_pgm(b"P5 8 8 255#c\n\n" + bytes(range(64)), "inline")
        assert px.ravel().tolist() == list(range(64))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(IngestError, match="ascii.pgm"):
            read_pgm(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(IngestError, match="deep.pgm"):
            read_pgm(path)

    def test_rejects_short_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(IngestError, match="short.pgm"):
            read_pgm(path)


class TestDirectorySource:
    def _write(self, tmp_path, name, px):
        write_pgm(tmp_path / name, px)

    def test_lexicographic_order_and_indices(self, tmp_path):
        self._write(tmp_path, "f001.pgm", np.full((8, 8), 1, dtype=np.uint8))
        self._write(tmp_path, "f000.pgm", np.zeros((8, 8), dtype=np.uint8))
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path))
        frames = list(open_source(spec).frames())
        assert [f.index for f in frames] == [0, 1]
        assert frames[0].pixels[0, 0] == 0
        assert frames[1].pixels[0, 0] == 1

    def test_unsupported_file_named_in_error(self, tmp_path):
        self._write(tmp_path, "a.pgm", np.zeros((8, 8), dtype=np.uint8))
        (tmp_path / "b.png").write_bytes(b"\x89PNG\r\n\x1a\n junk")
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path))
        with pytest.raises(IngestError, match="b.png"):
            list(open_source(spec).frames())

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(IngestError, match="no frame files"):
            list_pgm_dir(tmp_path)

    def test_missing_directory_errors(self, tmp_path):
        with pytest.raises(IngestError):
            list_pgm_dir(tmp_path / "nope")

    def test_reopening_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(43)
        for i in range(3):
            self._write(tmp_path, f"f{i}.pgm", rand_pixels(rng, 8, 8))
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path))
        first = [f.pixels.tobytes() for f in open_source(spec).frames()]
        second = [f.pixels.tobytes() for f in open_source(spec).frames()]
        assert first == second

    def test_frame_sides_bounded_above(self, tmp_path):
        # the widest accepted frame streams; one pixel wider is an ingest error
        self._write(tmp_path, "f0.pgm", np.zeros((MIN_DIMENSION, MAX_DIMENSION), dtype=np.uint8))
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path))
        assert [f.width for f in open_source(spec).frames()] == [MAX_DIMENSION]
        (tmp_path / "f0.pgm").write_bytes(b"P5 20000 8 255\n" + bytes(20000 * 8))
        with pytest.raises(IngestError, match="f0.pgm: frame size 20000x8.*16384x16384"):
            list(open_source(spec).frames())


class TestRawSource:
    def test_exact_multiple_yields_frames(self):
        frames = [f for _, f in _iter_raw(io.BytesIO(bytes(range(32))), 4, 4)]
        assert [f.index for f in frames] == [0, 1]
        assert frames[0].pixels.shape == (4, 4)
        assert frames[1].pixels[0, 0] == 16

    def test_remainder_reports_offset(self):
        with pytest.raises(IngestError, match="offset 32"):
            list(_iter_raw(io.BytesIO(bytes(33)), 4, 4))

    def test_spec_requires_dimensions(self):
        with pytest.raises(ValueError, match="width"):
            SourceSpec(kind=SourceKind.RAW, path="-")

    def test_spec_rejects_tiny_dimensions(self):
        with pytest.raises(ValueError, match="at least 8"):
            SourceSpec(kind=SourceKind.RAW, path="-", width=4, height=16)

    def test_spec_rejects_huge_dimensions(self):
        SourceSpec(kind=SourceKind.RAW, path="-", width=MAX_DIMENSION, height=MIN_DIMENSION)
        with pytest.raises(ValueError, match="16384"):
            SourceSpec(kind=SourceKind.RAW, path="-", width=16, height=MAX_DIMENSION + 1)
        with pytest.raises(ValueError, match="16384"):
            SourceSpec(kind=SourceKind.RAW, path="-", width=100_000_000, height=100_000_000)

    @pytest.mark.parametrize("kind", [SourceKind.Y4M, SourceKind.PGM_DIR])
    @pytest.mark.parametrize("size", [dict(width=999, height=777), dict(width=16),
                                      dict(height=16)])
    def test_only_raw_takes_dimensions(self, kind, size):
        with pytest.raises(ValueError, match="raw input only"):
            SourceSpec(kind=kind, path="video", **size)

    def test_missing_file_errors(self, tmp_path):
        spec = SourceSpec(kind=SourceKind.RAW, path=str(tmp_path / "nope.raw"),
                          width=8, height=8)
        with pytest.raises(IngestError):
            list(open_source(spec).frames())


class TestY4mSource:
    def test_y_plane_extracted_chroma_skipped(self):
        rng = np.random.default_rng(47)
        planes = [rand_pixels(rng, 16, 8) for _ in range(3)]
        stream = io.BytesIO(make_y4m(16, 8, planes))
        frames = [f for _, f in _iter_y4m(stream)]
        assert [f.index for f in frames] == [0, 1, 2]
        for f, px in zip(frames, planes):
            assert np.array_equal(f.pixels, px)

    def test_mono_colorspace(self):
        planes = [np.zeros((8, 8), dtype=np.uint8)]
        frames = list(_iter_y4m(io.BytesIO(make_y4m(8, 8, planes, "mono"))))
        assert len(frames) == 1

    def test_missing_signature(self):
        with pytest.raises(IngestError, match="YUV4MPEG2"):
            list(_iter_y4m(io.BytesIO(b"RIFF....")))

    def test_truncated_frame_reports_offset(self):
        data = make_y4m(8, 8, [np.zeros((8, 8), dtype=np.uint8)])
        with pytest.raises(IngestError, match="truncated"):
            list(_iter_y4m(io.BytesIO(data[:-40])))

    def test_unknown_colorspace(self):
        header = b"YUV4MPEG2 W8 H8 C410\nFRAME\n" + bytes(64)
        with pytest.raises(IngestError, match="C410"):
            list(_iter_y4m(io.BytesIO(header)))

    # chroma bytes per frame of a 9x9 video, counted by hand: 4:2:0 planes are
    # 5x5, 4:2:2 planes 5x9, 4:4:4 planes 9x9 (two planes each); None: rejected,
    # including the high-bit-depth "p<bits>" variants
    @pytest.mark.parametrize("colorspace,chroma", [("420", 50), ("420jpeg", 50),
                                                   ("420paldv", 50), ("420mpeg2", 50),
                                                   ("422", 90), ("444", 162), ("mono", 0),
                                                   ("444alpha", None), ("411", None),
                                                   ("420p10", None), ("422p12", None),
                                                   ("444p16", None)])
    def test_chroma_plane_sizes(self, colorspace, chroma):
        first, second = bytes(range(81)), bytes(range(100, 181))
        padding = bytes([7]) * (chroma or 0)
        data = (f"YUV4MPEG2 W9 H9 C{colorspace}\n".encode()
                + b"FRAME\n" + first + padding + b"FRAME\n" + second + padding)
        if chroma is None:
            with pytest.raises(IngestError, match=f"C{colorspace}"):
                list(_iter_y4m(io.BytesIO(data)))
            return
        frames = [f for _, f in _iter_y4m(io.BytesIO(data))]
        assert len(frames) == 2
        assert frames[1].pixels.tobytes() == second

    def test_frame_line_is_the_word_frame(self):
        header = b"YUV4MPEG2 W8 H8 Cmono\n"
        data = header + b"FRAME Ixyz\n" + bytes(64) + b"FRAMEjunk\n" + bytes(64)
        with pytest.raises(IngestError, match=f"FRAME marker at byte offset {len(header) + 75}"):
            list(_iter_y4m(io.BytesIO(data)))

    @pytest.mark.parametrize("line", ["header", "frame"])
    @pytest.mark.parametrize("length", [1023, 1024])
    def test_line_length_limit(self, line, length):
        # a header or FRAME line of 1,023 bytes before its newline parses; 1,024 do not
        header, marker = b"YUV4MPEG2 W8 H8 Cmono", b"FRAME"
        if line == "header":
            header += b" X" + b"x" * (length - len(header) - 2)
        else:
            marker += b" X" + b"x" * (length - len(marker) - 2)
        stream = io.BytesIO(header + b"\n" + marker + b"\n" + bytes(range(64)))
        if length == 1024:
            with pytest.raises(IngestError, match="exceeds 1024 bytes"):
                list(_iter_y4m(stream))
            return
        [(offset, frame)] = list(_iter_y4m(stream))
        assert offset == len(header) + len(marker) + 2
        assert frame.pixels.ravel().tolist() == list(range(64))

    @pytest.mark.parametrize("dims", [b"Wabc H16", b"W-16 H16", b"W100000000 H100000000",
                                      b"W4 H4"])
    def test_bad_header_dimensions(self, dims):
        # rejected from the header alone, before any frame bytes are read
        data = b"YUV4MPEG2 " + dims + b" C420\nFRAME\n" + bytes(64)
        with pytest.raises(IngestError, match="not a dimension"):
            list(_iter_y4m(io.BytesIO(data)))


def _frame_params(index: int) -> str:
    # FRAME lines of varying length, so Y-plane offsets are not a fixed stride
    return "Ixyz" * (index % 3)


def _stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


class TestRandomAccess:
    """``read_frame(i)`` returns the i-th frame of ``frames()`` on every source."""

    @pytest.fixture
    def planes(self):
        rng = np.random.default_rng(59)
        return [rand_pixels(rng, 16, 8) for _ in range(7)]

    def _spec(self, kind, planes, tmp_path, monkeypatch) -> SourceSpec:
        raw = b"".join(px.tobytes() for px in planes)
        if kind == "pgm-dir":
            for i, px in enumerate(planes):
                write_pgm(tmp_path / f"f{i}.pgm", px)
            return SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path))
        if kind == "raw-stdin":
            _stdin(monkeypatch, raw)
            return SourceSpec(kind=SourceKind.RAW, path="-", width=16, height=8)
        path = tmp_path / "video"
        if kind == "raw-file":
            path.write_bytes(raw)
            return SourceSpec(kind=SourceKind.RAW, path=str(path), width=16, height=8)
        params = _frame_params if kind == "y4m-frame-params" else (lambda i: "")
        path.write_bytes(make_y4m(16, 8, planes, frame_params=params))
        return SourceSpec(kind=SourceKind.Y4M, path=str(path))

    @pytest.mark.parametrize("kind", ["pgm-dir", "raw-file", "raw-stdin", "y4m-file",
                                      "y4m-frame-params"])
    def test_read_frame_matches_stream(self, kind, planes, tmp_path, monkeypatch):
        source = open_source(self._spec(kind, planes, tmp_path, monkeypatch))
        try:
            streamed = []
            for f in source.frames():
                streamed.append(f.pixels)
                # a re-read mid-stream must not disturb the stream
                assert np.array_equal(source.read_frame(f.index // 2).pixels,
                                      planes[f.index // 2])
            assert len(streamed) == len(planes)
            for i in reversed(range(len(planes))):
                assert np.array_equal(source.read_frame(i).pixels, streamed[i])
                assert np.array_equal(streamed[i], planes[i])
        finally:
            source.close()

    def test_only_stdin_is_spooled(self, planes, tmp_path, monkeypatch):
        data = make_y4m(16, 8, planes)
        path = tmp_path / "video.y4m"
        path.write_bytes(data)
        config = dict(output_dir=tmp_path / "out", fallback_keyframe=True)
        make_spool = tempfile.TemporaryFile

        def refuse(*args, **kwargs):
            raise AssertionError("a Y4M file is re-read in place, never spooled")
        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        from_file = run_pipeline(PipelineConfig(
            source=SourceSpec(kind=SourceKind.Y4M, path=str(path)), **config))

        spools = []

        def record(*args, **kwargs):
            spools.append(make_spool(*args, **kwargs))
            return spools[-1]
        monkeypatch.setattr(tempfile, "TemporaryFile", record)
        _stdin(monkeypatch, data)
        from_stdin = run_pipeline(PipelineConfig(
            source=SourceSpec(kind=SourceKind.Y4M, path="-"), **config))
        assert len(spools) == 1
        assert from_stdin["keyframes"] == from_file["keyframes"] != []


class TestFrameContract:
    """A source yields at least one frame, or raises IngestError."""

    @pytest.mark.parametrize("kind", ["empty-raw-file", "header-only-y4m-file",
                                      "empty-raw-stdin", "empty-y4m-stdin"])
    def test_empty_source_is_ingest_error(self, kind, tmp_path, monkeypatch):
        path = tmp_path / "video"
        if kind == "empty-raw-file":
            path.write_bytes(b"")
            spec = SourceSpec(kind=SourceKind.RAW, path=str(path), width=8, height=8)
        elif kind == "header-only-y4m-file":
            path.write_bytes(make_y4m(8, 8, []))
            spec = SourceSpec(kind=SourceKind.Y4M, path=str(path))
        else:
            _stdin(monkeypatch, b"")
            fmt = kind.split("-")[1]
            size = dict(width=8, height=8) if fmt == "raw" else {}
            spec = SourceSpec(kind=fmt, path="-", **size)
        source = open_source(spec)
        try:
            with pytest.raises(IngestError):
                list(source.frames())
        finally:
            source.close()


class TestFrame:
    def test_index_contiguity_from_sources(self, tmp_path):
        rng = np.random.default_rng(53)
        for i in range(5):
            write_pgm(tmp_path / f"{i}.pgm", rand_pixels(rng, 8, 8))
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path))
        indices = [f.index for f in open_source(spec).frames()]
        assert indices == list(range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            Frame(index=-1, pixels=np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            Frame(index=0, pixels=np.zeros((4, 4), dtype=np.float64))
        f = Frame(index=0, pixels=np.zeros((3, 5), dtype=np.uint8))
        assert f.width == 5 and f.height == 3

    def test_pgm_dir_cannot_be_stdin(self):
        with pytest.raises(ValueError, match="stdin"):
            SourceSpec(kind=SourceKind.PGM_DIR, path="-")
