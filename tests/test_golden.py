"""A golden corpus: the bytes of report.json and of every key-frame image,
pinned for small seeded videos in each input form.

The videos come from splitmix64 over Python integers, so their bytes depend
on no library version, and their SHA-256 is pinned too: a changed generator
fails as a changed input, not as a changed result.  Each video runs through
``python -m entropykf.cli extract --seed-report`` in a subprocess in seven
forms: a PGM directory, a raw file, a Y4M file, raw and Y4M through stdin,
and raw and Y4M through a named pipe of the file's name, which a thread here
feeds and which must give the file's bytes.  ``--input`` and ``--out`` are
relative to the run's working directory, so the report's ``config`` block
reads the same in every checkout.  A change that moves report bytes on purpose updates the digests
here and says why.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import entropykf

_MASK = (1 << 64) - 1
_HALVE = bytes(v >> 1 for v in range(256))


def _words(seed: int):
    """splitmix64's stream of 64-bit words."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def _bytes(words, n: int) -> bytes:
    return b"".join(next(words).to_bytes(8, "little") for _ in range(-(-n // 8)))[:n]


def _texture(words, width: int, height: int) -> bytes:
    """A plane whose 8x8 cells each spread uniform noise over their own run of
    grey levels, of 1 to 256 levels from their own offset, so that the 64
    segment entropies differ from cell to cell and from texture to texture."""
    cells = [(level, next(words) % (257 - level))
             for level in (1 + next(words) % 256 for _ in range(64))]
    noise = _bytes(words, width * height)
    return bytes(offset + (noise[y * width + x] * level >> 8)
                 for y in range(height) for x in range(width)
                 for level, offset in (cells[y * 8 // height * 8 + x * 8 // width],))


def _flicker(words, plane: bytes) -> bytes:
    """The plane with the low bit of about one pixel in 16 flipped: a frame
    equal to no other, in the same shot and nearly the same bin."""
    return bytes(p ^ (r < 16) for p, r in zip(plane, _bytes(words, len(plane))))


# each video: (seed, width, height, its scenes as (texture, form, frames),
# extract's options, its ground truth); a texture's "half" form is its
# pixels // 2, which correlates with it above the cut threshold but lies about
# a bit lower in entropy, so a shot that holds both has two bins
_VIDEOS = {
    # shot 1 (50 frames): a bin created first whose centre comes after the
    # other bin's; shot 2: bins of 21 and 20 frames, either side of the gate;
    # shot 3: 30 frames no two equal; shot 4: shot 1's texture again, a
    # duplicate; 4 frames merged forward into 14 of a texture, which only the
    # fallback picks from; 22 frames and 5 that merge backwards into them
    "multi": (1, 64, 48, [(0, "full", 10), (0, "half", 25), (0, "full", 15),
                          (1, "full", 21), (1, "half", 20), (2, "flicker", 30),
                          (0, "full", 25), (3, "full", 4), (4, "full", 14),
                          (5, "full", 22), (1, "full", 5)],
              ["--fallback-keyframe", "--gt", "gt.txt"], "total_frames=191\n22\n60\n105\n180\n"),
    # frame sides not divisible by the 8x8 grid; without the fallback the
    # 12-frame shot gives no candidate; the half texture's pick is a near
    # duplicate (SD 0.143) and the last shot's an exact one
    "odd": (2, 37, 29, [(0, "full", 30), (1, "full", 12), (0, "half", 24),
                        (2, "flicker", 26), (0, "full", 23)], [], None),
}
_FORMS = ("pgm-dir", "raw", "y4m", "raw-stdin", "y4m-stdin", "raw-fifo", "y4m-fifo")


@functools.lru_cache(maxsize=None)
def _planes(name: str) -> tuple[bytes, ...]:
    seed, width, height, scenes, _, _ = _VIDEOS[name]
    words = _words(seed)
    textures = [_texture(words, width, height) for _ in range(1 + max(s[0] for s in scenes))]
    planes = []
    for texture, form, count in scenes:
        plane = textures[texture]
        if form == "half":
            plane = plane.translate(_HALVE)
        planes.extend(_flicker(words, plane) if form == "flicker" else plane
                      for _ in range(count))
    return tuple(planes)


def _write_input(name: str, form: str, cwd: Path) -> tuple[list[str], Path | None, bytes]:
    """Write the video in one input form: extract's input options for it, the
    file to pipe into its stdin, if any, and the bytes to feed its named pipe."""
    _, width, height, _, _, _ = _VIDEOS[name]
    planes = _planes(name)
    if form == "pgm-dir":
        (cwd / "frames").mkdir()
        for index, plane in enumerate(planes):
            (cwd / "frames" / f"frame_{index:06d}.pgm").write_bytes(
                b"P5\n%d %d\n255\n" % (width, height) + plane)
        return ["--input", "frames", "--format", "pgm-dir"], None, b""
    kind, _, path = form.partition("-")
    if kind == "raw":
        data = b"".join(planes)
        options = ["--format", "raw", "--width", str(width), "--height", str(height)]
    else:
        chroma = bytes([128]) * (2 * -(-width // 2) * -(-height // 2))
        data = (b"YUV4MPEG2 W%d H%d F25:1 Ip A1:1 C420\n" % (width, height)
                + b"".join(b"FRAME\n" + plane + chroma for plane in planes))
        options = ["--format", "y4m"]
    if path == "fifo":
        os.mkfifo(cwd / f"video.{kind}")
        return ["--input", f"video.{kind}", *options], None, data
    (cwd / f"video.{kind}").write_bytes(data)
    if path == "stdin":
        return ["--input", "-", *options], cwd / f"video.{kind}", b""
    return ["--input", f"video.{kind}", *options], None, b""


def _feed(fifo: Path, data: bytes) -> threading.Thread:
    """A thread that writes data into the named pipe once a reader opens it."""
    def write():
        try:
            with open(fifo, "wb") as pipe:
                pipe.write(data)
        except BrokenPipeError:  # the reader stopped early; its exit code says why
            pass
    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _extract(name: str, form: str, cwd: Path) -> dict[str, str]:
    """Run extract on one form of the video; the digest of each file it wrote."""
    *_, options, gt = _VIDEOS[name]
    args, piped, fed = _write_input(name, form, cwd)
    feeder = _feed(cwd / args[1], fed) if fed else None
    if gt is not None:
        (cwd / "gt.txt").write_text(gt)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(entropykf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
    with open(piped or os.devnull, "rb") as stdin:
        done = subprocess.run([sys.executable, "-m", "entropykf.cli", "extract", *args,
                               *options, "--out", "out", "--seed-report"],
                              cwd=cwd, env=env, stdin=stdin, capture_output=True, text=True)
    if feeder is not None:
        os.close(os.open(cwd / args[1], os.O_RDONLY | os.O_NONBLOCK))  # frees a blocked writer
        feeder.join(timeout=60)
        assert not feeder.is_alive()
    assert done.returncode == 0, done.stderr
    return {path.name: _digest(path.read_bytes()) for path in sorted((cwd / "out").iterdir())}


# the SHA-256 of each video's frames, in order
_INPUTS = {
    "multi": "86ef611fb7f48606720e0f8e89ad40c360a2b9c5e472e0902376e1f61e508ec3",
    "odd": "f990d43a4f774fc7db2843dbb3d436a2740dfc062a2fa2a72674553104bc3ac9",
}
# report.json's, per input form: the forms differ only in the config block
_REPORTS = {
    "multi": {
        "pgm-dir": "2a582e6d343cfcabdc3b6dbb44b32fc7c3c78361f1ed0280daea29462880ead5",
        "raw": "79d2ad51976d48f7d7988384a57d2b1e4f6c51d313fe562cf24da09a63d944f4",
        "y4m": "95232921cc4795ae284ec7f355681c228f9c8de65aa68e1d47bc105e4eb17f85",
        "raw-stdin": "0fe06a3b73a16f856ae9d1f841b0b099ede0f0eeb66ce3294269834fb7b00a43",
        "y4m-stdin": "a1b703780331e0ec3261b1c4caa91989f875d613bd247bc113ac4b2abc323123",
    },
    "odd": {
        "pgm-dir": "77a4b438d16b6719f46e81f79167cfdf2189d5dd78db6b1e8f581258ce393717",
        "raw": "873efb384d4af390d9f6f82fc193f32d1f83d8fb3239b5fb8510459fa434fce6",
        "y4m": "7afe4d7d9cbbcebda6b92cee0e6aea79d453d055fd3621f79565f8fb478c215d",
        "raw-stdin": "a575ef06ced4cd0a64296ba93b9b474b36fac3b89fc9642f11e61f6d9927151e",
        "y4m-stdin": "8567d44407f939e0365de20cdbdc11c49ef0f973ea92faf743a7636d28992362",
    },
}
# each key-frame image's, the same in every form
_IMAGES = {
    "multi": {
        "keyframe_000022.pgm": "1349a8e4a13d3356f698b268318cf2c546f82497c5d9a446f12bd0d77524e0fa",
        "keyframe_000037.pgm": "f196ec14b21e8a7023118f48d7e138ff5ea002532bf39112529dac9d2fd86406",
        "keyframe_000060.pgm": "cbdb95938652f315f8305d890b5a1a8d4ea8686e234f357cbb62c02ee471f338",
        "keyframe_000106.pgm": "f1a7a38416e1a342f767d963b42775eb44081fb61dd9338f5b3cb87cd3571567",
        "keyframe_000155.pgm": "f3bbf0997aca5d3317ba2226da5d4510fe7cab5a652fe4699d31c8908380a7d0",
        "keyframe_000177.pgm": "d82cddcec96c406b333bfd04fd52e77b624b83585ef56fe2f634fb3e1deae4ae",
    },
    "odd": {
        "keyframe_000015.pgm": "b495ad2c5fa459527be0038e52d8ef8b8d47cd44d67701cee734e53ca70f089a",
        "keyframe_000079.pgm": "dee9e0d2f35319bc275f209fad3d758c29edc4fbf5a56d377d8ee4e83708fb79",
    },
}


@pytest.mark.parametrize("name", _VIDEOS)
def test_the_videos_are_the_pinned_inputs(name):
    assert _digest(b"".join(_planes(name))) == _INPUTS[name]


@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("name", _VIDEOS)
def test_report_and_images_are_the_pinned_bytes(name, form, tmp_path):
    written = _extract(name, form, tmp_path)
    # a named pipe has the file's name, so its report is the file's
    assert written.pop("report.json") == _REPORTS[name][form.removesuffix("-fifo")]
    assert written == _IMAGES[name]
