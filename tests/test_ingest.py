import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import entropykf
from conftest import make_y4m, pgm_second_frame, rand_pixels
from entropykf import cli, ingest
from entropykf.ingest import (MAX_DIMENSION, MIN_DIMENSION, Frame, IngestError,
                              SourceKind, SourceSpec, _WINDOW, _iter_raw, _iter_y4m,
                              _parse_pgm, list_pgm_dir, open_source, read_pgm, write_pgm)
from entropykf.pipeline import PipelineConfig, run_pipeline


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(41)
        px = rand_pixels(rng, 33, 21)
        path = tmp_path / "frame.pgm"
        write_pgm(path, px)
        assert path.read_bytes() == b"P5\n33 21\n255\n" + px.tobytes()
        assert np.array_equal(read_pgm(path), px)
        write_pgm(path, px[:, ::2])  # not contiguous
        assert path.read_bytes() == b"P5\n17 21\n255\n" + px[:, ::2].tobytes()

    @pytest.mark.parametrize("pixels", [np.full((2, 3), 300, dtype=np.int16),
                                        np.full((2, 3), 0.9), np.full((2, 3), -1)],
                             ids=["int16-300", "float-0.9", "int-minus-1"])
    def test_write_refuses_pixels_that_are_not_uint8(self, tmp_path, pixels):
        # a cast would write 300 as 44, 0.9 as 0 and -1 as 255
        fmt = {np.int16: "h", np.float64: "d", np.int64: "l"}[pixels.dtype.type]
        with pytest.raises(ValueError, match=f"uint8 pixels, got format '{fmt}'"):
            write_pgm(tmp_path / "frame.pgm", pixels)
        assert not (tmp_path / "frame.pgm").exists()

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0)])
    def test_write_refuses_a_side_of_0(self, tmp_path, shape):
        # read_pgm refuses a width or height of 0 ("bad dimensions")
        message = re.escape(f"no side of 0, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            write_pgm(tmp_path / "frame.pgm", np.zeros(shape, dtype=np.uint8))
        assert not (tmp_path / "frame.pgm").exists()

    def test_header_comments_allowed(self):
        data = b"P5\n# a comment\n4 2\n# another\n255\n" + bytes(8)
        px = _parse_pgm(data, "inline")
        assert px.shape == (2, 4)
        assert px.tobytes() == bytes(8)

    def test_comment_after_maxval_needs_one_whitespace_byte(self):
        # the comment runs through its newline; a raster byte cannot stand in
        # for the whitespace byte that must follow
        with pytest.raises(IngestError, match="malformed PGM header"):
            _parse_pgm(b"P5 8 8 255#c\n" + bytes(range(64)), "inline")
        px = _parse_pgm(b"P5 8 8 255#c\n\n" + bytes(range(64)), "inline")
        assert px.tobytes() == bytes(range(64))

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

    @pytest.mark.parametrize("extra,held", [(b"P5\n4 4\n255\n" + bytes(16), 43), (b"\n", 17)],
                             ids=["second-image", "trailing-newline"])
    def test_one_image_per_file(self, extra, held, tmp_path):
        # a second image or trailing bytes are refused, not silently dropped
        path = tmp_path / "two.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(16) + extra)
        with pytest.raises(IngestError, match=f"two.pgm .raster holds {held} bytes, expected 16"):
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

    def test_order_is_code_point_order(self, tmp_path):
        # not case-folded and not numeric: "B" < "a" and "f10" < "f9"
        for value, name in enumerate(["f9.pgm", "a.pgm", "f10.pgm", "B.pgm"]):
            self._write(tmp_path, name, np.full((8, 8), value, dtype=np.uint8))
        assert list_pgm_dir(tmp_path) == [str(tmp_path / name) for name in
                                          ["B.pgm", "a.pgm", "f10.pgm", "f9.pgm"]]
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path))
        assert [int(f.pixels[0, 0]) for f in open_source(spec).frames()] == [3, 1, 2, 0]

    def test_only_regular_files_are_frames(self, tmp_path):
        # symlinks are followed; an entry that is then no regular file is
        # skipped, a dangling symlink and a symlink loop included
        frames, elsewhere = tmp_path / "frames", tmp_path / "elsewhere"
        frames.mkdir()
        elsewhere.mkdir()
        self._write(frames, "a.pgm", np.zeros((8, 8), dtype=np.uint8))
        self._write(elsewhere, "linked.pgm", np.full((8, 8), 9, dtype=np.uint8))
        (frames / "b.pgm").symlink_to(elsewhere / "linked.pgm")
        (frames / "c.pgm").symlink_to(tmp_path / "missing.pgm")
        (frames / "d.pgm").symlink_to(frames / "d.pgm")
        (frames / "e.pgm").mkdir()
        (frames / "f.pgm").symlink_to(elsewhere)
        (frames / "g.pgm").symlink_to(frames / "a.pgm" / "child")
        assert list_pgm_dir(frames) == [str(frames / "a.pgm"), str(frames / "b.pgm")]
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(frames))
        assert [int(f.pixels[0, 0]) for f in open_source(spec).frames()] == [0, 9]

    def test_unlistable_directory_is_ingest_error(self, tmp_path, monkeypatch, capsys):
        # tests run as root, so the permission error is raised by a stand-in
        self._write(tmp_path, "a.pgm", np.zeros((8, 8), dtype=np.uint8))
        scandir = os.scandir

        def refuse(path="."):
            if os.fspath(path) == str(tmp_path):
                raise PermissionError(13, "Permission denied", path)
            return scandir(path)
        monkeypatch.setattr(os, "scandir", refuse)
        with pytest.raises(IngestError, match=f"^not a readable directory: {tmp_path}$"):
            list_pgm_dir(tmp_path)
        code = cli.main(["extract", "--input", str(tmp_path), "--format", "pgm-dir",
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_INGEST
        assert capsys.readouterr().err == \
            f"entropykf: ingest error: not a readable directory: {tmp_path}\n"

    def test_entry_that_cannot_be_followed_is_named(self, tmp_path, monkeypatch):
        # a symlink into a directory the run may not search: the listing
        # cannot tell whether it is a frame, so it names the entry
        class Entry:
            name = "b.pgm"

            def is_file(self):
                raise PermissionError(13, "Permission denied")

        @contextlib.contextmanager
        def scandir(path):
            yield iter([Entry()])
        monkeypatch.setattr(os, "scandir", scandir)
        with pytest.raises(IngestError,
                           match=f"^cannot read {tmp_path}/b.pgm: .Errno 13. Permission denied$"):
            list_pgm_dir(tmp_path)

    @pytest.mark.parametrize("given", ["./frames/", "frames", "."])
    def test_messages_name_files_as_the_path_join_does(self, given, tmp_path, monkeypatch):
        # each file is named as str(Path(given) / name), whichever way the
        # directory is spelled
        monkeypatch.chdir(tmp_path)
        frames = tmp_path / "frames" if given != "." else tmp_path
        frames.mkdir(exist_ok=True)
        spec = SourceSpec(kind=SourceKind.PGM_DIR, path=given)
        named = {name: str(Path(given) / name) for name in ("a.pgm", "b.pgm", "c.png")}
        assert named["a.pgm"] == {"./frames/": "frames/a.pgm", "frames": "frames/a.pgm",
                                  ".": "a.pgm"}[given]
        with pytest.raises(IngestError, match=f"^no frame files in directory: {Path(given)}$"):
            list_pgm_dir(given)
        write_pgm(frames / "a.pgm", np.zeros((8, 4), dtype=np.uint8))
        with pytest.raises(IngestError) as raised:
            list(open_source(spec).frames())
        assert str(raised.value) == f"{named['a.pgm']}: frame size 4x8 is outside 8x8..16384x16384"
        write_pgm(frames / "a.pgm", np.zeros((8, 8), dtype=np.uint8))
        write_pgm(frames / "b.pgm", np.zeros((8, 16), dtype=np.uint8))
        with pytest.raises(IngestError) as raised:
            list(open_source(spec).frames())
        assert str(raised.value) == f"{named['b.pgm']}: frame 1 is 16x8, expected 8x8"
        (frames / "b.pgm").unlink()
        (frames / "c.png").write_bytes(b"\x89PNG")
        with pytest.raises(IngestError) as raised:
            list(open_source(spec).frames())
        assert str(raised.value) == (f"unsupported image file: {named['c.png']} "
                                     "(expected binary PGM magic P5, found b'\\x89P')")
        source = open_source(spec)
        (frames / "a.pgm").unlink()
        with pytest.raises(IngestError) as raised:
            source.read_frame(0)
        assert str(raised.value).startswith(f"cannot read {named['a.pgm']}: ")
        if given != ".":
            with pytest.raises(IngestError, match="^not a readable directory: nope$"):
                list_pgm_dir(given.replace("frames", "nope"))

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


_R1, _R2 = bytes(range(64)), bytes(range(100, 164))  # two 8x8 rasters


class TestPgmReadWithoutParse:
    """A later file of the first's length whose leading bytes are the first's
    header is read as that header's raster with no parse.  Every file gives
    what a full parse of its bytes gives: the frame, or the exact message."""

    @pytest.mark.parametrize("first,second,expected", [
        (b"P5\n8 8\n255\n" + _R1, b"P5 8 8 255\n" + _R2, _R2),
        (b"P5   8 8 255\n" + _R1, b"P5\n#\n8 8 255\n" + _R2, _R2),
        (b"P5\n8 8\n255\n" + _R1, b"P5\n# c\n8 8\n255\n" + _R2, _R2),
        (b"P5\n8 8\n255\n" + _R1, b"P5\n8 8\n255\n" + _R2 + b"\0",
         "unsupported image file: {} (raster holds 65 bytes, expected 64)"),
        (b"P5\n8 8\n255\n" + _R1, b"P5\n8 8\n255\n" + _R2[:-1],
         "unsupported image file: {} (raster holds 63 bytes, expected 64)"),
        (b"P5  8 8 255\n" + _R1, b"P5 16 4 255\n" + _R2, "{}: frame 1 is 16x4, expected 8x8"),
        (b"P5\n8 8\n255\n" + _R1, b"P5\n8 8\n2550" + _R2,
         "unsupported image file: {} (malformed PGM header)"),
        (b"P5\n8 8\n255\n" + _R1, b"P5\n8 8\n255\r" + _R2, _R2),
    ], ids=["header-spelled-otherwise", "comment-equal-length", "comment-longer",
            "one-byte-longer", "one-byte-shorter", "another-size-equal-length",
            "no-whitespace-byte-before-the-raster", "another-whitespace-byte"])
    def test_a_later_file_gives_what_a_full_parse_gives(self, first, second, expected,
                                                        tmp_path):
        if isinstance(expected, str):
            expected = expected.format(tmp_path / "f1.pgm")
        assert pgm_second_frame(tmp_path, first, second) == [expected] * 3

    @pytest.mark.parametrize("lead", [b"#", b" ", b"\n", b"\r", b"\t"])
    @pytest.mark.parametrize("header", [b"P5\n8 8\n255\n", b"P5 8 8 255#c\n\n", b"P5 8 8 255 "])
    def test_a_raster_that_starts_like_a_header_gap(self, lead, header, tmp_path):
        # a raster byte after the header's one whitespace byte is never a
        # comment or a gap, with line ends after it too
        first, second = header + lead + b"#x\n" + _R1[4:], header + lead + b"9\n#" + _R2[4:]
        assert pgm_second_frame(tmp_path, first, second) == [second[len(header):]] * 3

    @pytest.mark.parametrize("grown", [1, 3 << 20], ids=["byte", "3MiB"])
    def test_a_file_that_grows_after_listing(self, grown, tmp_path):
        for name in ("f0.pgm", "f1.pgm"):
            (tmp_path / name).write_bytes(b"P5\n8 8\n255\n" + _R1)
        source = open_source(SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path)))
        with open(tmp_path / "f1.pgm", "ab") as file:
            file.write(bytes(grown))
        message = (f"unsupported image file: {tmp_path / 'f1.pgm'} "
                   f"(raster holds {64 + grown} bytes, expected 64)")
        with pytest.raises(IngestError) as raised:
            list(source.frames())
        assert str(raised.value) == message
        with pytest.raises(IngestError) as raised:
            source.read_frame(1)
        assert str(raised.value) == message

    @pytest.mark.parametrize("cut", ["fstat-short-of-the-length", "reads-of-7-bytes"])
    def test_a_read_that_returns_another_count_goes_on_to_the_end(self, cut, tmp_path,
                                                                  monkeypatch):
        # a first file that grew after its fstat, or reads cut short: each
        # file is still read whole
        rng = np.random.default_rng(47)
        planes = [rand_pixels(rng, 8, 8) for _ in range(3)]
        for i, px in enumerate(planes):
            write_pgm(tmp_path / f"f{i}.pgm", px)
        source = open_source(SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path)))
        read, fstat = os.read, os.fstat
        with monkeypatch.context() as patch:
            if cut == "reads-of-7-bytes":
                patch.setattr(os, "read", lambda fd, n: read(fd, min(n, 7)))
            else:
                patch.setattr(os, "fstat", lambda fd: SimpleNamespace(
                    st_size=fstat(fd).st_size - 5))
            streamed = [f.pixels.tobytes() for f in source.frames()]
            again = [source.read_frame(i).pixels.tobytes() for i in range(3)]
        assert streamed == again == [px.tobytes() for px in planes]

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("replaced", ["by-a-directory", "by-nothing"])
    def test_an_entry_replaced_after_listing_is_named(self, replaced, index, tmp_path):
        for name in ("f0.pgm", "f1.pgm"):
            (tmp_path / name).write_bytes(b"P5\n8 8\n255\n" + _R1)
        source = open_source(SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path)))
        path = tmp_path / f"f{index}.pgm"
        path.unlink()
        if replaced == "by-a-directory":
            path.mkdir()  # os.read names no file here, where a FileIO did
            message = f"cannot read {path}: [Errno 21] Is a directory: '{path}'"
        else:
            message = f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
        with pytest.raises(IngestError) as raised:
            list(source.frames())
        assert str(raised.value) == message
        with pytest.raises(IngestError) as raised:
            source.read_frame(index)
        assert str(raised.value) == message

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
    @pytest.mark.parametrize("second", ["directory", "missing", "P2 magic", "longer",
                                        "another size", "a frame"])
    def test_no_descriptor_stays_open(self, second, tmp_path):
        first = b"P5\n8 8\n255\n" + _R1
        (tmp_path / "f0.pgm").write_bytes(first)
        (tmp_path / "f1.pgm").write_bytes(first)
        source = open_source(SourceSpec(kind=SourceKind.PGM_DIR, path=str(tmp_path)))
        path = tmp_path / "f1.pgm"
        if second in ("directory", "missing"):
            path.unlink()
            if second == "directory":
                path.mkdir()
        else:
            path.write_bytes({"P2 magic": b"P2" + first[2:], "longer": first + bytes(3 << 20),
                              "another size": b"P5\n4 16\n255\n" + _R1,
                              "a frame": first}[second])
        raises = (contextlib.nullcontext() if second == "a frame" else
                  pytest.raises(IngestError))
        open_fds = len(os.listdir("/proc/self/fd"))
        with raises:
            list(source.frames())
        with raises:
            source.read_frame(1)
        with contextlib.suppress(IngestError):  # the read sized by fstat
            read_pgm(path)
        assert len(os.listdir("/proc/self/fd")) == open_fds


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
        with pytest.raises(ValueError, match="frame size 4x16 is outside 8x8"):
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

    def test_spec_stores_its_path_as_os_fspath_gives_it(self):
        assert SourceSpec(kind=SourceKind.Y4M, path=Path("clips/video.y4m")).path == \
            "clips/video.y4m"
        for path in (5, b"video.y4m"):
            with pytest.raises(ValueError, match=r"^source path must be a str or an "
                                                 r"os.PathLike, got "):
                SourceSpec(kind=SourceKind.Y4M, path=path)

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

    def test_signature_is_a_whole_word(self):
        data = b"YUV4MPEG2junk W8 H8 Cmono\nFRAME\n" + bytes(64)
        with pytest.raises(IngestError, match="missing YUV4MPEG2 signature"):
            list(_iter_y4m(io.BytesIO(data)))

    @pytest.mark.parametrize("tail", [b"\nFRAME\n" + bytes(64), b"\n"],
                             ids=["between-frames", "at-end"])
    def test_empty_line_is_not_end_of_input(self, tail):
        # every frame opens with a FRAME line, so an empty line after a frame,
        # the very last line included, is an error rather than the end of the input
        header = b"YUV4MPEG2 W8 H8 Cmono\n"
        data = header + b"FRAME\n" + bytes(64) + tail
        with pytest.raises(IngestError,
                           match=f"FRAME marker at byte offset {len(header) + 70}, found b''"):
            list(_iter_y4m(io.BytesIO(data)))

    def test_truncated_frame_reports_offset(self):
        data = make_y4m(8, 8, [np.zeros((8, 8), dtype=np.uint8)])
        with pytest.raises(IngestError, match="truncated"):
            list(_iter_y4m(io.BytesIO(data[:-40])))

    @pytest.mark.parametrize("via", ["file", "stdin"])
    @pytest.mark.parametrize("cut, where, part", [(10, 64, "chroma has 22 of 32"),
                                                  (42, 0, "Y plane has 54 of 64")],
                             ids=["chroma", "y-plane"])
    def test_truncation_names_the_offset_and_the_bytes_read(self, via, cut, where, part,
                                                            tmp_path, monkeypatch):
        # two 8x8 4:2:0 frames of 6 + 64 + 32 bytes, the second cut short by cut bytes
        data = make_y4m(8, 8, [np.zeros((8, 8), dtype=np.uint8)] * 2)
        header = data.index(b"FRAME")
        message = (f"Y4M stream truncated at byte offset {header + 102 + 6 + where}: "
                   f"frame 1 {part} bytes")
        with contextlib.ExitStack() as stack:
            if via == "file":
                (tmp_path / "video.y4m").write_bytes(data[:-cut])
                spec = SourceSpec(kind=SourceKind.Y4M, path=str(tmp_path / "video.y4m"))
            else:  # a pipe, as a decoder feeds stdin, read through a buffered reader
                read_end, write_end = os.pipe()
                os.write(write_end, data[:-cut])
                os.close(write_end)
                pipe = stack.enter_context(io.TextIOWrapper(open(read_end, "rb")))
                monkeypatch.setattr(sys, "stdin", pipe)
                spec = SourceSpec(kind=SourceKind.Y4M, path="-")
            source = open_source(spec)
            stack.callback(source.close)
            with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
                list(source.frames())

    def test_chroma_is_read_into_one_buffer_for_the_whole_stream(self):
        # chroma is read and dropped: never a new bytes object per frame
        class Recording(io.BytesIO):
            def __init__(self, data):
                super().__init__(data)
                self.reads, self.buffers = [], set()

            def read(self, size=-1):
                self.reads.append(size)
                return super().read(size)

            def readinto(self, buffer):
                self.buffers.add(id(buffer))
                return super().readinto(buffer)

        stream = Recording(make_y4m(8, 8, [np.zeros((8, 8), dtype=np.uint8)] * 3))
        assert len([f for _, f in _iter_y4m(stream)]) == 3
        assert stream.reads == [64] * 3 and len(stream.buffers) == 1

    def test_unknown_colorspace(self):
        header = b"YUV4MPEG2 W8 H8 C410\nFRAME\n" + bytes(64)
        with pytest.raises(IngestError, match="C410"):
            list(_iter_y4m(io.BytesIO(header)))

    # chroma bytes per frame of a 9x9 video, counted by hand: 4:2:0 planes are
    # 5x5, 4:2:2 planes 5x9, 4:4:4 planes 9x9 (two planes each); None: rejected,
    # including the high-bit-depth "p<bits>" variants and unknown 420 suffixes
    @pytest.mark.parametrize("colorspace,chroma", [("420", 50), ("420jpeg", 50),
                                                   ("420paldv", 50), ("420mpeg2", 50),
                                                   ("422", 90), ("444", 162), ("mono", 0),
                                                   ("444alpha", None), ("411", None),
                                                   ("420p10", None), ("422p12", None),
                                                   ("444p16", None), ("420junk", None)])
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
            where = 0 if line == "header" else len(header) + 1
            message = f"Y4M line at byte offset {where} exceeds 1024 bytes; not a Y4M stream?"
            with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
                list(_iter_y4m(stream))
            return
        [(offset, frame)] = list(_iter_y4m(stream))
        assert offset == len(header) + len(marker) + 2
        assert frame.pixels.tobytes() == bytes(range(64))

    _BAD_DIMENSIONS = {b"Wabc H16": "not a dimension", b"W-16 H16": "not a dimension",
                       b"W100000000 H100000000": "frame size 100000000x100000000 is outside",
                       b"W4 H4": "frame size 4x4 is outside 8x8",
                       b"H16": "lacks W/H dimensions", b"W16": "lacks W/H dimensions"}

    @pytest.mark.parametrize("dims", list(_BAD_DIMENSIONS))
    def test_bad_header_dimensions(self, dims):
        # rejected from the header alone, before any frame bytes are read
        data = b"YUV4MPEG2 " + dims + b" C420\nFRAME\n" + bytes(64)
        with pytest.raises(IngestError, match=self._BAD_DIMENSIONS[dims]):
            list(_iter_y4m(io.BytesIO(data)))


def _frame_params(index: int) -> str:
    # FRAME lines of varying length, so Y-plane offsets are not a fixed stride
    return "Ixyz" * (index % 3)


def _stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


class _RecordedSpool:
    """A spool file whose whole contents are kept when it closes."""

    def __init__(self, file, contents: list):
        self._file, self._contents = file, contents

    def __getattr__(self, name):
        return getattr(self._file, name)

    def close(self):
        self._file.seek(0)
        self._contents.append(self._file.read())
        self._file.close()


def _spools(monkeypatch, make_spool) -> None:
    """Make ingest's spool files, and no other temporary file, with make_spool."""
    monkeypatch.setattr(ingest, "tempfile", SimpleNamespace(TemporaryFile=make_spool))


def _record_spools(monkeypatch) -> list:
    """The contents of each spool file made from here on, appended as it closes."""
    contents = []
    _spools(monkeypatch, lambda *args, **kwargs: _RecordedSpool(
        tempfile.TemporaryFile(*args, **kwargs), contents))
    return contents


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
        if kind == "y4m-stdin":
            _stdin(monkeypatch, make_y4m(16, 8, planes, frame_params=_frame_params))
            return SourceSpec(kind=SourceKind.Y4M, path="-")
        path = tmp_path / "video"
        if kind == "raw-file":
            path.write_bytes(raw)
            return SourceSpec(kind=SourceKind.RAW, path=str(path), width=16, height=8)
        if kind == "raw-fifo":  # a named pipe cannot seek, so its planes are spooled
            os.mkfifo(path)
            threading.Thread(target=path.write_bytes, args=(raw,), daemon=True).start()
            return SourceSpec(kind=SourceKind.RAW, path=str(path), width=16, height=8)
        params = _frame_params if kind == "y4m-frame-params" else (lambda i: "")
        path.write_bytes(make_y4m(16, 8, planes, frame_params=params))
        return SourceSpec(kind=SourceKind.Y4M, path=str(path))

    @pytest.mark.parametrize("kind", ["pgm-dir", "raw-file", "raw-stdin", "raw-fifo",
                                      "y4m-file", "y4m-frame-params", "y4m-stdin"])
    def test_read_frame_matches_stream(self, kind, planes, tmp_path, monkeypatch):
        source = open_source(self._spec(kind, planes, tmp_path, monkeypatch))
        try:
            streamed = []
            for f in source.frames():
                streamed.append(f.pixels)
                # a re-read mid-stream must not disturb the stream; a spooled
                # plane is read back right after it is written
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

        def refuse(*args, **kwargs):
            raise AssertionError("a Y4M file is re-read in place, never spooled")
        _spools(monkeypatch, refuse)
        from_file = run_pipeline(PipelineConfig(
            source=SourceSpec(kind=SourceKind.Y4M, path=str(path)), **config))

        spools = _record_spools(monkeypatch)
        _stdin(monkeypatch, data)
        from_stdin = run_pipeline(PipelineConfig(
            source=SourceSpec(kind=SourceKind.Y4M, path="-"), **config))
        # no two planes are equal, so each is spooled
        assert spools == [b"".join(px.tobytes() for px in planes)]
        assert from_stdin["keyframes"] == from_file["keyframes"] != []

    @pytest.mark.parametrize("fmt", ["raw", "y4m"])
    def test_spool_holds_each_run_of_equal_planes_once(self, fmt, monkeypatch):
        rng = np.random.default_rng(61)
        a, b, c, e = (rand_pixels(rng, 16, 8) for _ in range(4))
        d = a.copy()
        d[-1, -1] ^= 1  # differs from a in its last byte only
        # an equal first pair, runs of three and two, a repeat right after a
        # change, a last-byte change and a run of one at the end
        planes = [a, a, a, b, b, c, a, a, d, d, e]
        spooled = [a, b, c, a, d, e]
        if fmt == "raw":
            _stdin(monkeypatch, b"".join(px.tobytes() for px in planes))
            spec = SourceSpec(kind=SourceKind.RAW, path="-", width=16, height=8)
        else:
            _stdin(monkeypatch, make_y4m(16, 8, planes, frame_params=_frame_params))
            spec = SourceSpec(kind=SourceKind.Y4M, path="-")
        spools = _record_spools(monkeypatch)
        source = open_source(spec)
        try:
            for f in source.frames():
                assert f.pixels.tobytes() == planes[f.index].tobytes()
                for i in range(f.index + 1):  # every frame so far, while the stream runs
                    assert source.read_frame(i).pixels.tobytes() == planes[i].tobytes()
            assert [source.read_frame(i).pixels.tobytes() for i in reversed(range(len(planes)))] \
                == [px.tobytes() for px in reversed(planes)]
        finally:
            source.close()
        assert spools == [b"".join(px.tobytes() for px in spooled)]


    @pytest.mark.parametrize("kind", ["raw-file", "y4m-file", "raw-stdin", "y4m-stdin"])
    def test_a_stream_serves_only_the_frames_it_has_streamed(self, kind, planes, tmp_path,
                                                             monkeypatch):
        source = open_source(self._spec(kind, planes, tmp_path, monkeypatch))
        try:
            for index in (0, -1):  # before frames() starts
                with pytest.raises(IngestError, match=f"frame {index} is outside the 0 frames "):
                    source.read_frame(index)
            stream = source.frames()
            for _ in range(3):
                next(stream)
            assert source.read_frame(2).pixels.tobytes() == planes[2].tobytes()
            for index in (3, 4, -1, -3):  # not streamed yet, or negative
                with pytest.raises(IngestError, match=f"frame {index} is outside the 3 frames "):
                    source.read_frame(index)
            assert len(list(stream)) == len(planes) - 3
            with pytest.raises(IngestError, match="frame 7 is outside the 7 frames "):
                source.read_frame(7)
            assert source.read_frame(6).pixels.tobytes() == planes[6].tobytes()
        finally:
            source.close()

    @pytest.mark.parametrize("kind", ["raw-file", "y4m-file"])
    def test_a_file_cut_after_the_pass_ends_before_its_frame(self, kind, planes, tmp_path,
                                                             monkeypatch):
        spec = self._spec(kind, planes, tmp_path, monkeypatch)
        source = open_source(spec)
        try:
            assert len(list(source.frames())) == len(planes)
            os.truncate(spec.path, Path(spec.path).read_bytes().index(planes[5].tobytes()) + 10)
            with pytest.raises(IngestError, match=f"^{re.escape(spec.path)} ended before frame 5$"):
                source.read_frame(5)
            assert source.read_frame(4).pixels.tobytes() == planes[4].tobytes()
        finally:
            source.close()

    def test_a_pgm_directory_serves_its_listed_files(self, planes, tmp_path, monkeypatch):
        source = open_source(self._spec("pgm-dir", planes, tmp_path, monkeypatch))
        # the files are listed when the source opens, so any of them can be read first
        assert source.read_frame(6).pixels.tobytes() == planes[6].tobytes()
        for index in (7, 8, -1, -7):
            with pytest.raises(IngestError, match=f"frame {index} is outside the 7 frames listed"):
                source.read_frame(index)

    def test_a_pgm_file_of_another_size_is_refused_when_read_again(self, planes, tmp_path,
                                                                   monkeypatch):
        # a frame file replaced after the pass by an image of another size is
        # not handed on as its frame
        source = open_source(self._spec("pgm-dir", planes, tmp_path, monkeypatch))
        assert len(list(source.frames())) == len(planes)
        path = tmp_path / "f1.pgm"
        write_pgm(path, np.zeros((16, 32), dtype=np.uint8))
        with pytest.raises(IngestError) as raised:
            source.read_frame(1)
        assert str(raised.value) == f"{path}: frame 1 is 32x16, expected 16x8"
        assert source.read_frame(2).pixels.tobytes() == planes[2].tobytes()

    @pytest.mark.parametrize("kind", ["pgm-dir", "raw-file", "raw-stdin", "y4m-file",
                                      "y4m-stdin"])
    def test_ingest_frames_are_frames_as_the_constructor_builds_them(self, kind, planes,
                                                                     tmp_path, monkeypatch):
        source = open_source(self._spec(kind, planes, tmp_path, monkeypatch))
        try:
            made = [*source.frames()]
            made += [source.read_frame(i) for i in range(len(planes))]
            for position, frame in enumerate(made):
                built = Frame(index=frame.index, pixels=np.array(frame.pixels))
                assert type(frame) is Frame and type(frame.index) is int
                assert vars(frame).keys() == vars(built).keys() == {"index", "pixels"}
                assert frame.index == built.index
                assert frame.pixels.tobytes() == built.pixels.tobytes()
                assert frame.pixels.tobytes() == planes[frame.index].tobytes()
                assert frame.pixels.shape == built.pixels.shape == (8, 16)
                assert type(frame.pixels) is type(built.pixels) is memoryview
                assert frame.pixels.format == built.pixels.format == "B"
                if kind == "raw-file" and position < len(planes):  # a slice of its window
                    assert type(frame.pixels.obj) is bytes
                elif kind != "pgm-dir":  # the plane's bytes, which the stdin spool compares
                    assert type(frame.pixels.obj) is bytes
                    assert frame.pixels.obj == planes[frame.index].tobytes()
        finally:
            source.close()

    @pytest.mark.parametrize("kind", ["raw-file", "raw-fifo", "y4m-file"])
    def test_every_input_file_is_read_buffered(self, kind, planes, tmp_path, monkeypatch):
        # a plane is one buffered read, whole unless the input ends; a raw
        # file is read in windows through the file beneath the buffer, and
        # stdin keeps its own
        source = open_source(self._spec(kind, planes, tmp_path, monkeypatch))
        try:
            assert type(source._input) is io.BufferedReader
            assert len(list(source.frames())) == len(planes)
        finally:
            source.close()


class _ShortReads(io.RawIOBase):
    """A raw stream whose reads return at most limit bytes, as a pipe's may."""

    def __init__(self, data: bytes, limit: int):
        self._data, self._pos, self._limit = data, 0, limit
        self.reads = 0

    def readable(self):
        return True

    def readinto(self, buffer):
        self.reads += 1
        chunk = self._data[self._pos:self._pos + min(len(buffer), self._limit)]
        buffer[:len(chunk)] = chunk
        self._pos += len(chunk)
        return len(chunk)


class _CountedReader(io.BufferedReader):
    """A buffered reader that counts the ``read`` calls made of it."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


class TestShortReads:
    """A plane is one buffered ``read``, whole however short the reads of
    the raw stream beneath it."""

    def test_frames_are_whole_across_short_reads(self):
        rng = np.random.default_rng(67)
        planes = [rand_pixels(rng, 16, 8) for _ in range(3)]
        raw = _ShortReads(b"".join(px.tobytes() for px in planes), limit=50)
        stream = _CountedReader(raw)
        frames = [f for _, f in _iter_raw(stream, 16, 8)]
        assert [f.pixels.tobytes() for f in frames] == [px.tobytes() for px in planes]
        assert stream.reads == 3 + 1  # a plane each, then the end
        assert raw.reads > 384 // 50  # the buffer read on across the short reads

    def test_one_read_a_plane_when_reads_are_whole(self):
        stream = _CountedReader(_ShortReads(bytes(16 * 8 * 4), limit=1 << 20))
        assert len(list(_iter_raw(stream, 16, 8))) == 4
        assert stream.reads == 4 + 1

    def test_truncation_is_counted_across_short_reads(self):
        stream = io.BufferedReader(_ShortReads(bytes(16 * 8 + 100), limit=30))
        with pytest.raises(IngestError, match="frame 1 has 100 of 128 bytes"):
            list(_iter_raw(stream, 16, 8))


def _raw_file(path: Path, planes) -> SourceSpec:
    path.write_bytes(b"".join(px.tobytes() for px in planes))
    height, width = planes[0].shape
    return SourceSpec(kind=SourceKind.RAW, path=str(path), width=width, height=height)


class TestRawFileWindows:
    """A raw regular file is read a window of whole frames at a time, each
    window one unbuffered read and each frame a slice of its window's bytes,
    at most two windows alive in a pass."""

    def test_a_pass_holds_at_most_two_windows(self, tmp_path):
        # 5,000 frames of 1 KiB, 512 to a window: a pass that holds the frame
        # before, as analyse does, keeps that frame's window and the current one
        rng = np.random.default_rng(71)
        planes = [rand_pixels(rng, 32, 32, 4) for _ in range(50)] * 100
        source = open_source(_raw_file(tmp_path / "video.raw", planes))
        windows, prev = 0, None
        tracemalloc.start()
        try:
            for frame in source.frames():
                window = frame.pixels.obj
                assert type(window) is bytes and len(window) <= _WINDOW
                windows += prev is None or window is not prev.pixels.obj
                prev, window = frame, None  # the frame before is held as the pass holds it
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            source.close()
        assert windows == 10
        assert 2 * _WINDOW <= peak < 3 * _WINDOW

    @pytest.mark.parametrize("width, height, count", [(40, 24, 600), (1024, 1024, 3)],
                             ids=["unaligned-windows", "frames-larger-than-a-window"])
    def test_frames_are_the_file_bytes(self, width, height, count, tmp_path):
        # 546 frames of 960 bytes fill a window, so the second window starts
        # off the page grid and the last is short; a 1 MiB frame is a window
        # of its own
        rng = np.random.default_rng(73)
        planes = [rand_pixels(rng, width, height) for _ in range(count)]
        source = open_source(_raw_file(tmp_path / "video.raw", planes))
        try:
            for frame in source.frames():
                assert frame.pixels.shape == (height, width)
                assert frame.pixels.tobytes() == planes[frame.index].tobytes()
            assert frame.index == count - 1
            for index in (0, count // 2, count - 1):
                assert source.read_frame(index).pixels.tobytes() == planes[index].tobytes()
        finally:
            source.close()

    def test_frames_appended_during_the_pass_are_read(self, tmp_path):
        planes = [np.full((8, 8), level, dtype=np.uint8) for level in range(5)]
        path = tmp_path / "video.raw"
        source = open_source(_raw_file(path, planes[:3]))
        try:
            frames = source.frames()
            assert next(frames).index == 0
            with open(path, "ab") as video:
                video.write(b"".join(px.tobytes() for px in planes[3:]))
            assert [frame.pixels[0, 0] for frame in frames] == [1, 2, 3, 4]
        finally:
            source.close()

    def test_a_trailing_partial_frame_is_the_stream_error(self, tmp_path):
        path = tmp_path / "video.raw"
        path.write_bytes(bytes(16 * 8 + 100))
        message = re.escape(str(pytest.raises(IngestError, list, _iter_raw(
            io.BytesIO(path.read_bytes()), 16, 8)).value))
        source = open_source(SourceSpec(kind=SourceKind.RAW, path=str(path), width=16, height=8))
        try:
            with pytest.raises(IngestError, match=f"^{message}$"):
                list(source.frames())
        finally:
            source.close()

    @pytest.mark.parametrize("side, count, size, lost", [(8, 100, 4196, 65),
                                                         (64, 300, 50 * 4096, 50)],
                             ids=["one-short-window", "first-of-three-windows"])
    def test_a_file_that_shrinks_during_the_pass_is_an_ingest_error(self, side, count, size,
                                                                    lost, tmp_path):
        # the cut lands inside the window already read, whose frames are
        # still given; the next read finds the file shorter than they are
        path = tmp_path / "video.raw"
        source = open_source(_raw_file(path, [np.full((side, side), 9, dtype=np.uint8)] * count))
        try:
            frames = source.frames()
            next(frames)
            os.truncate(path, size)
            with pytest.raises(IngestError, match=f"^{re.escape(str(path))} shrank to {size} "
                                                  f"bytes while it was read: frame {lost} and "):
                list(frames)
        finally:
            source.close()

    def test_a_frame_stays_readable_after_its_file_is_cut(self, tmp_path):
        # in a child process under faulthandler: a frame over memory that the
        # cut took away would end the process with a fatal error
        script = ("import os, sys\n"
                  "from entropykf.ingest import SourceSpec, open_source\n"
                  "spec = SourceSpec(kind='raw', path='video.raw', width=64, height=64)\n"
                  "frames = open_source(spec).frames()\n"
                  "frame = [next(frames) for _ in range(51)][-1]\n"
                  "os.truncate('video.raw', 0)\n"
                  "print(frame.pixels.tobytes() == bytes([50]) * 4096)\n")
        (tmp_path / "video.raw").write_bytes(b"".join(bytes([i]) * 4096 for i in range(100)))
        src = str(Path(entropykf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-X", "faulthandler", "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert "Fatal Python error" not in done.stderr
        assert (done.returncode, done.stdout) == (0, "True\n"), done.stderr


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
