"""The README's library section stays true to the package's public names."""

import re
from pathlib import Path

import entropykf

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    match = re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_library_snippet_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", _section("Library"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_every_exported_name_resolves():
    for name in entropykf.__all__:
        assert hasattr(entropykf, name), name


def test_names_the_readme_exports_are_exported():
    paragraphs = [p for p in _section("Library").split("\n\n")
                  if re.search(r"exported\s+from\s+the\s+package\s+root", p)]
    assert len(paragraphs) == 1, "README lost its exported-names sentence"
    names = re.findall(r"`(\w+)`", paragraphs[0])
    assert names
    assert set(names) <= set(entropykf.__all__), set(names) - set(entropykf.__all__)
