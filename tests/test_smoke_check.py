"""The layer-time gate of ``tests/data/check_smoke_counts.py``.

CI runs the checker on a fresh traced smoke pass; here it runs on a
synthetic pass that reproduces the recorded tables exactly, so the gate
itself is pinned: a gated layer more than ``TIME_BOUND`` times slower
fails, a layer under the floor or a slow host does not.  ``--record``
adds the medians a table lacks and keeps the others.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("check_smoke_counts", DATA / "check_smoke_counts.py")
checker = importlib.util.module_from_spec(_spec)
_path = list(sys.path)
_spec.loader.exec_module(checker)  # puts benchmarks/suite on sys.path
sys.path[:] = _path

COUNTS = json.loads(checker.TABLE_PATH.read_text())
TIMES = json.loads(checker.TIMES_PATH.read_text())


def recorded_runs(host_slowdown: float = 1.0) -> list[dict]:
    """One run per workload whose counts and scaled times equal the tables."""
    reading = checker.hostspeed.REFERENCE_S * host_slowdown
    return [
        {
            "workload": workload,
            "layers": {
                **COUNTS[workload],
                **{n: s * host_slowdown for n, s in TIMES["medians"][workload].items()},
            },
            "host_readings": {"reps": [reading], "setup": [reading]},
            "machine": {"kernel_backend": TIMES["kernel_backend"]},
        }
        for workload in COUNTS
    ]


def layer(median_at_least: bool) -> tuple[int, str]:
    """A workload index and layer whose recorded median is (not) gated."""
    for k, workload in enumerate(COUNTS):
        for name, median in TIMES["medians"][workload].items():
            if (median >= checker.TIME_FLOOR_S) == median_at_least and median > 0:
                return k, name
    raise LookupError


@pytest.mark.parametrize("host_slowdown", [1.0, 2.5])
def test_the_recorded_pass_passes_on_any_host_speed(host_slowdown):
    assert checker.check(Path("pass.json"), recorded_runs(host_slowdown))


@pytest.mark.parametrize("factor,passes", [(1.9, True), (2.1, False)])
def test_a_gated_layer_fails_past_the_bound(capsys, factor, passes):
    runs = recorded_runs()
    k, name = layer(median_at_least=True)
    runs[k]["layers"][name] *= factor
    assert checker.check(Path("pass.json"), runs) is passes
    assert ("too slow" in capsys.readouterr().out) is not passes


def test_a_layer_under_the_floor_is_not_gated():
    runs = recorded_runs()
    k, name = layer(median_at_least=False)
    runs[k]["layers"][name] *= 10
    assert checker.check(Path("pass.json"), runs)


def test_a_pass_on_other_kernels_fails():
    runs = recorded_runs()
    runs[0]["machine"]["kernel_backend"] = "not-" + TIMES["kernel_backend"]
    assert not checker.check(Path("pass.json"), runs)


@pytest.fixture
def tables(tmp_path, monkeypatch):
    """Both tables as copies in a temporary directory, where ``--record``
    writes them."""
    paths = {"counts": tmp_path / "smoke_counts.json", "times": tmp_path / "smoke_times.json"}
    paths["times"].write_text(json.dumps(TIMES))
    monkeypatch.setattr(checker, "TABLE_PATH", paths["counts"])
    monkeypatch.setattr(checker, "TIMES_PATH", paths["times"])
    return paths


def test_record_adds_only_the_missing_medians(tables):
    """Runs three times slower re-record only the layer whose entry was
    deleted; every other layer keeps its median, and so its bound."""
    k, name = layer(median_at_least=True)
    workload = list(COUNTS)[k]
    kept = json.loads(json.dumps(TIMES["medians"]))
    del kept[workload][name]
    tables["times"].write_text(json.dumps({**TIMES, "medians": kept}))
    runs = recorded_runs()
    for run in runs:
        for metric in checker.TIMED:
            run["layers"][metric] *= 3
    assert checker.record([runs]) == 0
    medians = json.loads(tables["times"].read_text())["medians"]
    assert medians[workload].pop(name) == round(3 * TIMES["medians"][workload][name], 6)
    assert medians == kept
    assert json.loads(tables["counts"].read_text()) == COUNTS


def test_record_on_other_kernels_records_nothing(tables):
    runs = recorded_runs()
    for run in runs:
        run["machine"]["kernel_backend"] = "not-" + TIMES["kernel_backend"]
    assert checker.record([runs]) == 1
    assert not tables["counts"].exists()
    assert json.loads(tables["times"].read_text()) == TIMES
