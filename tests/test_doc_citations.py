"""Every repository path that the docs, the verify recipe and CI cite exists.

A retired script or a renamed test must not leave a dangling link, CI
step or recipe line behind.  Paths are matched under ``benchmarks/``,
``tests/``, ``src/`` and ``examples/``; a ``::test`` suffix is dropped,
and a ``*`` pattern must match at least one file.  Bench outputs
(``*.new.json``) are written by runs, not checked in.
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
        if not m.group(1).endswith(".new.json")
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


def test_the_pattern_reads_links_and_test_ids():
    line = "see [x](../benchmarks/suite/run.py), tests/a/b.py::test_c and src/x/."
    assert [m.group(1) for m in CITED.finditer(line)] == [
        "benchmarks/suite/run.py",
        "tests/a/b.py",
        "src/x/",
    ]
