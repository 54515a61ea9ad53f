"""How the C kernels are built and shipped.

Each build test imports a copy of the package in its own interpreter, so the
compile on first import, the cached extension module and the missing-compiler
error are those of a fresh checkout, whatever this process has already
imported.
"""

import os
import shutil
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

from entropykf import kernels

PACKAGE = Path(kernels.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _copy_package(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(PACKAGE, root / "entropykf", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _import(root: Path, path_env: str, *, check: bool = True) -> subprocess.CompletedProcess:
    """Import the copied kernels in a fresh interpreter with PATH set to ``path_env``."""
    done = subprocess.run(
        [sys.executable, "-c", "import entropykf.kernels"],
        env={"PYTHONPATH": str(root), "PATH": path_env}, capture_output=True, text=True,
        timeout=120)
    if check:
        assert done.returncode == 0, done.stderr
    return done


def _cache(root: Path) -> list[str]:
    return sorted(p.name for p in (root / "entropykf" / "__pycache__").iterdir()
                  if p.name.startswith("_kernels"))


def _without_cc(tmp_path: Path) -> str:
    empty = tmp_path / "no-compiler"
    empty.mkdir(exist_ok=True)
    return str(empty)


def test_fresh_copy_compiles_once_then_reuses_the_cache(tmp_path):
    root = _copy_package(tmp_path)
    _import(root, os.environ["PATH"])
    built = _cache(root)
    assert len(built) == 1 and built[0].endswith(".so"), built
    library = root / "entropykf" / "__pycache__" / built[0]
    stamp = library.stat().st_mtime_ns
    _import(root, _without_cc(tmp_path))
    assert _cache(root) == built
    assert library.stat().st_mtime_ns == stamp


def test_cached_module_is_keyed_to_the_interpreter_abi(tmp_path):
    # an extension module is bound to one CPython ABI, so interpreters sharing
    # a checkout (3.10 and 3.11, say) must each build and load their own
    root = _copy_package(tmp_path)
    _import(root, os.environ["PATH"])
    built = _cache(root)
    assert len(built) == 1 and built[0].endswith(EXTENSION_SUFFIXES[0]), built
    assert sys.implementation.cache_tag in built[0], built  # e.g. cpython-311
    assert kernels._library_path().name.endswith(EXTENSION_SUFFIXES[0])


def test_a_build_deletes_the_builds_it_replaces(tmp_path):
    # an older source's build for this ABI and a build of the former ctypes
    # loader, which had no ABI suffix, go; another ABI's build and a
    # concurrent build's temporary file stay
    root = _copy_package(tmp_path)
    cache = root / "entropykf" / "__pycache__"
    cache.mkdir()
    suffix = EXTENSION_SUFFIXES[0]
    other_abi = suffix.replace(sys.implementation.cache_tag, "cpython-399")
    assert other_abi != suffix
    stale = [f"_kernels-00000001{suffix}", "_kernels-7004e37d.so"]
    kept = [f"_kernels-00000002{other_abi}", f"_kernels-00000003{suffix}.4321.tmp"]
    for name in stale + kept:
        (cache / name).write_bytes(b"")
    _import(root, os.environ["PATH"])
    built = [name for name in _cache(root) if name not in kept]
    assert len(built) == 1 and built[0].endswith(suffix) and built[0] not in stale, built
    assert _cache(root) == sorted(built + kept)


def test_concurrent_first_imports_leave_one_whole_library(tmp_path):
    root = _copy_package(tmp_path)
    env = {"PYTHONPATH": str(root), "PATH": os.environ["PATH"]}
    code = ("import numpy as np, entropykf.kernels as k; "
            "print(k.histogram256(np.arange(3, dtype=np.uint8))[:4])")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    outputs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outputs
    assert all(out.split() == ["[1", "1", "1", "0]"] for out, _ in outputs), outputs
    built = _cache(root)
    assert len(built) == 1 and built[0].endswith(".so"), built


def test_no_compiler_and_no_cache_is_a_clear_import_error(tmp_path):
    root = _copy_package(tmp_path)
    done = _import(root, _without_cc(tmp_path), check=False)
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:"), done.stderr
    assert "'cc'" in last
    assert str(root / "entropykf" / "__pycache__") in last
    assert "FileNotFoundError" not in done.stderr
    assert "subprocess.py" not in done.stderr


def test_kernel_source_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [*kernels._compile_command(), "-std=c99", "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernels.so"), str(kernels._SOURCE)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_every_data_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    listed = set(tomllib.loads(PYPROJECT.read_text())["tool"]["setuptools"]["package-data"]
                 ["entropykf"])
    data = {str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*")
            if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts}
    assert "_kernels.c" in data
    assert data <= listed
