"""``extract`` runs on the C kernels over Python buffers: importing the package
or its CLI imports no numpy, and an ``extract`` run in an interpreter where
numpy cannot be imported writes the bytes that a run with numpy loaded
writes, on every input form.  Only ``generate-synthetic`` needs numpy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entropykf
from conftest import make_y4m
from entropykf import synthetic

# with None in sys.modules, every later "import numpy" raises ImportError
_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"
_LOAD_NUMPY = "import numpy\n"
_RUN_CLI = "from entropykf.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def _python(code: str, *args, stdin: bytes = b"") -> subprocess.CompletedProcess:
    # the child imports the same entropykf as this process, however that was found
    src = str(Path(entropykf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, env=env)


def test_importing_the_package_and_its_cli_imports_no_numpy():
    done = _python("import sys, entropykf, entropykf.cli\n"
                   "sys.exit('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def planes() -> list:
    """42 frames of 16x16: a 30-frame shot whose bin passes the gate of 20, then
    a 12-frame shot that only the fallback picks from."""
    textures = synthetic.make_textures(np.random.default_rng(5), 2, 16, 16)
    return [t for t, n in zip(textures, (30, 12)) for _ in range(n)]


def _input(form: str, planes: list, tmp_path) -> tuple[list, bytes]:
    """The extract arguments that read planes in the given form, and the bytes
    to pipe into stdin."""
    raw = b"".join(px.tobytes() for px in planes)
    y4m = make_y4m(16, 16, planes)
    if form == "pgm-dir":
        (tmp_path / "frames").mkdir()
        for i, px in enumerate(planes):
            (tmp_path / "frames" / f"f{i:03d}.pgm").write_bytes(b"P5\n16 16\n255\n" + px.tobytes())
        return ["--input", str(tmp_path / "frames"), "--format", "pgm-dir"], b""
    kind, data = form.split("-")[0], raw if form.startswith("raw") else y4m
    size = ["--width", "16", "--height", "16"] if kind == "raw" else []
    if form.endswith("stdin"):
        return ["--input", "-", "--format", kind, *size], data
    (tmp_path / "video").write_bytes(data)
    return ["--input", str(tmp_path / "video"), "--format", kind, *size], b""


@pytest.mark.parametrize("form", ["pgm-dir", "raw-file", "y4m-file", "raw-stdin", "y4m-stdin"])
def test_extract_without_numpy_writes_the_bytes_of_a_run_with_it(form, planes, tmp_path):
    source, stdin = _input(form, planes, tmp_path)
    gt = tmp_path / "gt.txt"
    gt.write_text("total_frames=42\n15\n36\n")
    out = tmp_path / "out"  # one directory for both runs, whose report names it
    args = ["extract", *source, "--gt", str(gt), "--fallback-keyframe", "--out", str(out),
            "--seed-report"]
    written = {}
    for name, prelude in (("blocked", _BLOCK_NUMPY), ("loaded", _LOAD_NUMPY)):
        done = _python("import sys\n" + prelude + _RUN_CLI, *args, stdin=stdin)
        assert done.returncode == 0, done.stderr
        written[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert written["blocked"] == written["loaded"]
    assert sorted(written["blocked"]) == ["keyframe_000015.pgm", "keyframe_000036.pgm",
                                          "report.json"]
