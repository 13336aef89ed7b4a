"""Smoke test of the benchmark suite: every workload at tiny size, twice.

Checks that one command prints every end-to-end metric of BENCHMARK.json
with its unit for all four workloads, that every check passes, and that
the result digests repeat across two separate calls.  Hook coverage is
left to the traced full-size run.  Also checks the metric catalogue
against BENCHMARK.json and ``compare.verdict`` on small run sets.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_suite_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


def _smoke_run(out: Path) -> tuple[dict, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "smoke", "--reps", "1",
         "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())["runs"]


def test_smoke_prints_every_metric_and_repeats(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    line, runs = _smoke_run(tmp_path / "a.json")
    _, again = _smoke_run(tmp_path / "b.json")

    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            printed = line["metrics"][f"{workload['name']}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] > 0
    assert [r["workload"] for r in runs] == [w["name"] for w in spec["workloads"]]
    assert [r["digest"] for r in runs] == [r["digest"] for r in again]


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run, tracing = _load("run"), _load("tracing")
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_compare_verdict_needs_ten_runs():
    verdict = _load("compare").verdict
    # One run a side: no spread is known, so neither a win nor a loss counts.
    assert verdict([1.0], [0.5], [(1.0, 0.5)], 0.1, lower_better=True) == "unresolved"
    assert verdict([1.0], [2.0], [(1.0, 2.0)], 0.1, lower_better=True) == "unresolved"

    a = [1.0 + 0.001 * i for i in range(10)]
    faster = [x * 0.8 for x in a]
    slower = [x * 1.5 for x in a]
    assert verdict(a, faster, list(zip(a, faster)), 0.1, lower_better=True) == "improved"
    assert verdict(a, slower, list(zip(a, slower)), 0.1, lower_better=True) == "regressed"
    assert verdict(a, list(a), list(zip(a, a)), 0.1, lower_better=True) == "unchanged"
    # Faster medians but only nine pairs: not enough to claim a gain.
    assert verdict(a, faster, list(zip(a, faster))[:9], 0.1, lower_better=True) == "unchanged"
    # A spread wider than the bound hides a small change, never a large one.
    noisy = [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0]
    assert verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])), 0.1, True) == "unresolved"
    doubled = [2 * x for x in noisy]
    assert verdict(noisy, doubled, list(zip(noisy, doubled)), 0.1, True) == "regressed"
