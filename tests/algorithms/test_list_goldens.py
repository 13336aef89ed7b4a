"""Placement-level goldens of the list-scheduling engines.

``tests/data/list_goldens.json`` pins List, LPTF, SAF, WSPT, Sequential
and Gang on the four families, on object-backed ragged and rigid
instances and on a 3000-job archive under every moldability model, plus
the on-line ``greedy-interval`` and ``reservation`` policies on the SWF
fixtures.  Each cell records ``cmax`` and ``minsum`` at full precision, a
sha256 over the placements in task-id order and a sha256 over the task
ids in insertion order (the order the minsum is summed in).  Regenerate
only for intentional behaviour changes:
``PYTHONPATH=src python tests/data/make_goldens.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.data.make_goldens import (
    LIST_ENGINES,
    LIST_ONLINE_POLICIES,
    list_golden_instance,
    list_golden_schedule,
    list_schedule_doc,
)

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDENS = json.loads((DATA / "list_goldens.json").read_text())["cells"]


def _cell_id(cell: dict) -> str:
    where = cell.get("fixture") or cell["source"]
    model = f"-{cell['model']}" if cell.get("model") else ""
    return f"{where}{model}-n{cell['n']}-m{cell['m']}-{cell['engine']}"


def test_corpus_covers_engines_sources_and_policies():
    assert {c["engine"] for c in GOLDENS} == set(LIST_ENGINES) | set(LIST_ONLINE_POLICIES)
    sources = {c["source"] for c in GOLDENS}
    assert sources == {
        "weakly_parallel", "highly_parallel", "mixed", "cirne",
        "ragged", "rigid", "archive", "fixture",
    }
    assert {c["n"] for c in GOLDENS if c["source"] == "archive"} == {3000}
    assert len({c["model"] for c in GOLDENS if c["source"] == "archive"}) == 5
    assert len({c["fixture"] for c in GOLDENS if c["source"] == "fixture"}) == 3


@pytest.mark.parametrize("cell", GOLDENS, ids=[_cell_id(c) for c in GOLDENS])
def test_schedule_reproduces_golden(cell):
    got = list_schedule_doc(list_golden_schedule(cell, list_golden_instance(cell)))
    assert got == {k: cell[k] for k in got}  # full precision, no approx
