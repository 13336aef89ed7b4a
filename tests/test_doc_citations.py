"""Every repository path that the docs, the verify recipe and CI cite exists.

A retired script or a renamed test must not leave a dangling link, CI
step or recipe line behind.  Paths are matched under ``benchmarks/``,
``tests/``, ``src/`` and ``examples/``; a ``::test`` suffix is dropped,
and a ``*`` pattern must match at least one file.

The other direction holds too: every ``*.md`` file that a Python file
under those four roots names exists somewhere in the repository (a bare
name matches a file of that name in any directory).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CITING = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ROOT / ".github" / "workflows" / "tier1.yml",
]
#: A path under a checked root, also as a relative link from ``docs/``.
#: It ends on a name character, ``*`` or ``/``, so sentence punctuation
#: after it is not taken as part of it.
CITED = re.compile(
    r"(?<![\w./-])(?:\.\./)*((?:benchmarks|tests|src|examples)/[\w./*-]*[\w*/])"
)


def citations(doc: Path) -> list[tuple[int, str]]:
    return [
        (lineno, m.group(1))
        for lineno, line in enumerate(doc.read_text().splitlines(), start=1)
        for m in CITED.finditer(line)
    ]


def exists(path: str) -> bool:
    return any(ROOT.glob(path)) if "*" in path else (ROOT / path).exists()


@pytest.mark.parametrize("doc", CITING, ids=lambda p: str(p.relative_to(ROOT)))
def test_cited_paths_exist(doc):
    missing = [
        f"{doc.relative_to(ROOT)}:{lineno}: {path}"
        for lineno, path in citations(doc)
        if not exists(path)
    ]
    assert not missing, "\n".join(missing)


#: A Markdown file named in program text, with any directories before it;
#: leading ``./`` and ``../`` are dropped.
MD_NAME = re.compile(r"(?<![\w./-])(?:\.\.?/)*([\w./-]*[\w-]\.md)\b")


def markdown_files() -> list[str]:
    """The repository's ``*.md`` paths, outside caches and ``.git``: a
    hidden directory counts only when a file of ``CITING`` lives in it."""
    keep = {path.relative_to(ROOT).parts[0] for path in CITING}
    return [
        rel.as_posix()
        for rel in (p.relative_to(ROOT) for p in ROOT.rglob("*.md"))
        if not any(part.startswith(".") and part not in keep for part in rel.parts)
    ]


@pytest.mark.parametrize("root", ["src", "tests", "benchmarks", "examples"])
def test_markdown_named_in_python_exists(root):
    known = markdown_files()
    missing = [
        f"{py.relative_to(ROOT)}:{lineno}: {name}"
        for py in sorted((ROOT / root).rglob("*.py"))
        for lineno, line in enumerate(py.read_text().splitlines(), start=1)
        for name in MD_NAME.findall(line)
        if not any(path == name or path.endswith("/" + name) for path in known)
    ]
    assert not missing, "\n".join(missing)


def test_the_pattern_reads_links_and_test_ids():
    line = "see [x](../benchmarks/suite/run.py), tests/a/b.py::test_c and src/x/."
    assert [m.group(1) for m in CITED.finditer(line)] == [
        "benchmarks/suite/run.py",
        "tests/a/b.py",
        "src/x/",
    ]


def test_the_markdown_pattern_reads_bare_and_relative_names():
    line = 'recorded in ROADMAP.md; see [x](../docs/ROBUSTNESS.md) or "a.mdx".'
    assert MD_NAME.findall(line) == ["ROADMAP.md", "docs/ROBUSTNESS.md"]
