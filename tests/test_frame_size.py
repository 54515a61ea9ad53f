"""The frame-size rule at every entry point.

Each side of a frame lies in 8..16384 pixels.  Sides 7, 8, 16384 and 16385,
with 8 on the other axis, go through every place that takes a frame size:
the library ones refuse with ``IngestError``, the CLI with exit code 2 for
a size given on the command line and 3 for one read from the input.  All of
them state the same message, after a prefix naming the file or header.
"""

import io
import sys

import numpy as np
import pytest

from conftest import make_y4m
from entropykf import kernels, synthetic
from entropykf.cli import main
from entropykf.entropy import segmented_entropies
from entropykf.ingest import (MAX_DIMENSION, MIN_DIMENSION, IngestError, SourceKind,
                              SourceSpec, open_source, write_pgm)

SIZES = [(7, 8), (8, 7), (8, 8), (16384, 8), (8, 16384), (16385, 8), (8, 16385)]


def _frame(width, height):
    return np.zeros((height, width), dtype=np.uint8)


def _pgm_dir(tmp_path, width, height):
    frames = tmp_path / "frames"
    frames.mkdir()
    write_pgm(frames / "f0.pgm", _frame(width, height))
    return frames


def _y4m(width, height):
    return make_y4m(width, height, [_frame(width, height)], colorspace="mono")


def _y4m_input(tmp_path, monkeypatch, width, height, stdin):
    if stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(_y4m(width, height))))
        return "-"
    (tmp_path / "video.y4m").write_bytes(_y4m(width, height))
    return str(tmp_path / "video.y4m")


def _read(spec):
    source = open_source(spec)
    try:
        return list(source.frames())
    finally:
        source.close()


def _refusal(call):
    """The IngestError message call raises, or None if it returns."""
    try:
        call()
    except IngestError as exc:
        return str(exc)
    return None


def _cli_refusal(capsys, argv, code):
    """The message ``entropykf`` prints for argv, or None if it exits 0;
    a refusal must exit with code."""
    status = main(argv)
    err = capsys.readouterr().err
    if status == 0:
        return None
    kind = {2: "bad configuration", 3: "ingest error"}[code]
    assert status == code, err
    assert err.startswith(f"entropykf: {kind}: ") and err.endswith("\n"), err
    return err[len(f"entropykf: {kind}: "):-1]


def _raw_spec(tmp_path, monkeypatch, capsys, width, height):
    return _refusal(lambda: SourceSpec(kind=SourceKind.RAW, path="-", width=width,
                                       height=height)), ""


def _pgm_source(tmp_path, monkeypatch, capsys, width, height):
    frames = _pgm_dir(tmp_path, width, height)
    spec = SourceSpec(kind=SourceKind.PGM_DIR, path=str(frames))
    return _refusal(lambda: _read(spec)), f"{frames / 'f0.pgm'}: "


def _y4m_source(stdin):
    def entry(tmp_path, monkeypatch, capsys, width, height):
        path = _y4m_input(tmp_path, monkeypatch, width, height, stdin)
        spec = SourceSpec(kind=SourceKind.Y4M, path=path)
        return _refusal(lambda: _read(spec)), "Y4M header: "
    return entry


def _generate(tmp_path, monkeypatch, capsys, width, height):
    out, gt = tmp_path / "video", tmp_path / "gt.txt"
    refusal = _refusal(lambda: synthetic.generate(
        out, gt, scenes=1, frames_per_scene=1, width=width, height=height,
        fade_frames=0, repeat_first=False))
    assert (refusal is None) == out.is_dir() == gt.is_file()
    return refusal, ""


def _segmented(tmp_path, monkeypatch, capsys, width, height):
    return _refusal(lambda: segmented_entropies(_frame(width, height))), ""


def _extract(tmp_path, capsys, fmt, path, code, *options):
    out = tmp_path / "out"
    refusal = _cli_refusal(capsys, ["extract", "--format", fmt, "--input", path,
                                    *options, "--out", str(out)], code)
    assert (refusal is None) == (out / "report.json").is_file()
    return refusal


def _cli_raw(tmp_path, monkeypatch, capsys, width, height):
    (tmp_path / "video.raw").write_bytes(_frame(width, height).tobytes())
    return _extract(tmp_path, capsys, "raw", str(tmp_path / "video.raw"), 2,
                    "--width", str(width), "--height", str(height)), ""


def _cli_pgm(tmp_path, monkeypatch, capsys, width, height):
    frames = _pgm_dir(tmp_path, width, height)
    return _extract(tmp_path, capsys, "pgm-dir", str(frames), 3), f"{frames / 'f0.pgm'}: "


def _cli_y4m(stdin):
    def entry(tmp_path, monkeypatch, capsys, width, height):
        path = _y4m_input(tmp_path, monkeypatch, width, height, stdin)
        return _extract(tmp_path, capsys, "y4m", path, 3), "Y4M header: "
    return entry


def _cli_generate(tmp_path, monkeypatch, capsys, width, height):
    out = tmp_path / "video"
    refusal = _cli_refusal(capsys, ["generate-synthetic", "--size", f"{width}x{height}",
                                    "--scenes", "1", "--frames-per-scene", "1",
                                    "--fade-frames", "0", "--no-repeat-first",
                                    "--out", str(out)], 2)
    assert (refusal is None) == out.is_dir()
    return refusal, ""


# each entry point: (refusal message or None, the prefix it puts before the rule's message)
ENTRY_POINTS = {
    "raw-spec": _raw_spec,
    "pgm-dir": _pgm_source,
    "y4m-file": _y4m_source(stdin=False),
    "y4m-stdin": _y4m_source(stdin=True),
    "generate": _generate,
    "segmented-entropies": _segmented,
    "cli-raw": _cli_raw,
    "cli-pgm-dir": _cli_pgm,
    "cli-y4m-file": _cli_y4m(stdin=False),
    "cli-y4m-stdin": _cli_y4m(stdin=True),
    "cli-generate": _cli_generate,
}


@pytest.mark.parametrize("width, height", SIZES, ids=[f"{w}x{h}" for w, h in SIZES])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_one_rule_and_one_message(entry, width, height, tmp_path, monkeypatch, capsys):
    refusal, prefix = ENTRY_POINTS[entry](tmp_path, monkeypatch, capsys, width, height)
    if {7, 16385}.isdisjoint((width, height)):
        assert refusal is None
    else:
        assert refusal == f"{prefix}frame size {width}x{height} is outside 8x8..16384x16384"


def test_the_range_is_the_segment_grid_up_to_the_cap():
    assert (MIN_DIMENSION, MAX_DIMENSION) == (kernels.SEGMENT_GRID, 16384)
    assert issubclass(IngestError, ValueError)
