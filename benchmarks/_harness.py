"""Shared benchmark harness: best-of-N timing and the JSON emit contract.

One bench beside the suite records a checked-in ``BENCH_PR*.json``:
``bench_backend_scaling.py``, the serial-vs-thread-vs-process race that
no suite workload runs.  Its protocol is factored here:

* **Best-of-N timing** (:func:`best_of`) — gates compare the *best* rep,
  so single-shot scheduler-noise spikes on shared CI runners don't
  poison a recorded baseline.
* **Write-before-gate emit** (:func:`emit_bench_doc`) — the measurement
  is written before any assertion fires (the CI artifact of a failed
  gate is exactly what a flake diagnosis needs); overwriting the
  checked-in baseline is an explicit act (``REPRO_BENCH_REFRESH=1``),
  the default out path is ``<baseline>.new.json``, a per-bench env var
  overrides it, and the baseline is read *before* any write so no
  output-path spelling turns a regression gate into a self-comparison.
* **Machine stamping** (:func:`machine_metadata`, applied inside
  :func:`emit_bench_doc`) — every emitted document carries the python
  version, platform, usable CPU count and active kernel backend under a
  ``"machine"`` key, so a checked-in baseline from a 1-CPU container and
  a CI leg on a 4-CPU runner are comparable at a glance instead of
  silently conflated.

The leading underscore keeps this module out of benchmark collection
(``benchmarks/pytest.ini`` collects ``bench_*.py`` / ``test_*.py``).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Callable


def best_of(fn: Callable[[], Any], reps: int = 2) -> tuple[Any, float]:
    """Run ``fn`` ``reps`` times; return the fastest rep's ``(result, s)``."""
    best_out, best_s = None, float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best_s:
            best_out, best_s = out, elapsed
    return best_out, best_s


def machine_metadata() -> dict:
    """Where this measurement ran: stamped into every emitted bench doc.

    ``cpus`` is the *usable* count (CPU affinity mask where available),
    matching what the engine's worker-count default actually uses.
    """
    from repro import kernels
    from repro.experiments.engine import default_worker_count

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "cpus": default_worker_count(),
        "cpu_count_raw": os.cpu_count() or 1,
        "kernel_backend": kernels.backend_name(),
    }


def emit_bench_doc(
    doc: dict, baseline_path: Path, out_env: str
) -> tuple[dict | None, bool]:
    """Write ``doc`` per the emit contract (see module docstring).

    ``doc`` gains a ``"machine"`` stamp (:func:`machine_metadata`)
    unless the bench already set one.

    Returns ``(baseline, refreshing_baseline)``: the previously
    checked-in document (or ``None``) for regression gates, and whether
    this run is intentionally rewriting it (gates against the baseline
    should be skipped in that case — it would be a self-comparison).
    """
    doc.setdefault("machine", machine_metadata())
    refresh = os.environ.get("REPRO_BENCH_REFRESH") == "1"
    default_out = (
        baseline_path if refresh else baseline_path.with_suffix(".new.json")
    )
    out_path = Path(os.environ.get(out_env, default_out))
    refreshing_baseline = (
        out_path.resolve() == baseline_path.resolve() and refresh
    )
    if out_path.resolve() == baseline_path.resolve() and not refresh:
        raise AssertionError(
            f"refusing to overwrite the checked-in {baseline_path.name} "
            "baseline without REPRO_BENCH_REFRESH=1"
        )
    baseline = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else None
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  wrote {out_path}")
    return baseline, refreshing_baseline
