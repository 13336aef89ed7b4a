"""DEMT algorithm core — kernelized inner loops + batched C*max probes.

The PR-6 core changes live below every campaign: the inner loops that
dominate DEMT end-to-end time (max-weight knapsack DP + reconstruction,
binary-choice min-work DP, Graham event loop, and since the compiled
probes also the dual approximation's one-λ sweep) dispatch through
:mod:`repro.kernels` (the compiled cffi backend when the toolchain is
present, pure NumPy otherwise — bit-identical).

This bench measures the headline at replay scale: one n = 20k synthetic
archive window (m = 64, load 1.0, rigid, online batch mode) with DEMT as
the batch engine, PR-6 core vs the seed core (``ReferenceDemtScheduler``:
scalar probes, per-item knapsack objects) on the *same* replay plane so
only the algorithm core differs.  Schedules are asserted identical
placement for placement.  A per-kernel micro table records where the
time went.  Results are emitted as ``BENCH_PR6.json`` (write-before-gate,
``REPRO_BENCH_REFRESH=1`` to rewrite the checked-in baseline) and the
measured end-to-end speedup is gated by ``REPRO_DEMT_SPEEDUP_MIN``
(default 3.0 — the pure-NumPy floor; the checked-in record documents the
compiled-backend measurement, >= 5x).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from _harness import emit_bench_doc, placements as _placements

from repro import kernels
from repro.algorithms.demt import schedule_demt
from repro.algorithms.knapsack import knapsack_min_work_value, knapsack_select_indices
from repro.algorithms.reference import ReferenceDemtScheduler
from repro.core.profile import graham_starts
from repro.simulator.online import BatchPolicy
from repro.workloads.trace import load_trace, synthesize_swf, trace_instance

BENCH_N = 20_000
BENCH_M = 64
BENCH_LOAD = 1.0

#: Default location of the checked-in benchmark record / baseline.
BENCH_PR6_PATH = Path(__file__).resolve().parent / "BENCH_PR6.json"


def _seed_demt_engine(instance):
    """The seed DEMT core: scalar feasibility probes, object knapsack."""
    return ReferenceDemtScheduler().schedule(instance)


def _micro_inputs():
    rng = np.random.default_rng(7)
    n = BENCH_N
    return {
        "knapsack_select": (
            rng.integers(1, BENCH_M + 1, size=n).astype(np.int64),
            rng.uniform(0.1, 10.0, size=n),
        ),
        "min_work_value": (
            rng.uniform(1.0, 50.0, size=n),
            rng.integers(1, BENCH_M + 1, size=n).astype(np.float64),
            rng.uniform(1.0, 50.0, size=n),
        ),
        "graham_starts": (
            rng.integers(1, BENCH_M + 1, size=n).astype(np.int64),
            rng.uniform(0.5, 5.0, size=n),
        ),
    }


def _micro_seconds(inputs, reps: int = 3) -> dict[str, float]:
    sel_a, sel_w = inputs["knapsack_select"]
    mw_a, mw_c, mw_b = inputs["min_work_value"]
    g_a, g_d = inputs["graham_starts"]
    out = {}
    for label, fn in (
        ("knapsack_select", lambda: knapsack_select_indices(sel_a, sel_w, BENCH_M)),
        ("min_work_value", lambda: knapsack_min_work_value(mw_a, mw_c, mw_b, BENCH_M)),
        ("graham_starts", lambda: graham_starts(g_a, g_d, BENCH_M)),
    ):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out[label] = best
    return out


def test_demt_core_speedup_emits_bench_pr6(benchmark):
    """Measure, emit, and gate ``BENCH_PR6.json`` (see module docstring)."""
    threshold = float(os.environ.get("REPRO_DEMT_SPEEDUP_MIN", "3.0"))
    active = kernels.backend_name()

    def measure():
        trace = load_trace(synthesize_swf(BENCH_N, BENCH_M, seed=42, load=BENCH_LOAD))

        def _run(engine):
            inst = trace_instance(trace, BENCH_M, "rigid", online=True)
            t0 = time.perf_counter()
            res = BatchPolicy(engine).run(inst)
            return res, time.perf_counter() - t0

        # First run of each side doubles as the identity check; one more
        # rep gives best-of-2 per side.
        kern_res, kern_t = _run(schedule_demt)
        seed_res, seed_t = _run(_seed_demt_engine)
        assert _placements(kern_res.schedule) == _placements(seed_res.schedule), (
            "kernelized DEMT core diverged from the seed schedule"
        )
        assert kern_res.batch_starts == seed_res.batch_starts
        kern_s = min(kern_t, _run(schedule_demt)[1])
        seed_s = min(seed_t, _run(_seed_demt_engine)[1])

        # Per-kernel micro table at the same n, numpy vs the active
        # backend (empty when numpy *is* the active backend).
        micro = {}
        if active != "numpy":
            inputs = _micro_inputs()
            kernels.set_backend("numpy")
            base = _micro_seconds(inputs)
            kernels.set_backend(active)
            comp = _micro_seconds(inputs)
            micro = {
                label: {
                    "numpy_ms": round(1e3 * base[label], 3),
                    f"{active}_ms": round(1e3 * comp[label], 3),
                    "speedup": round(base[label] / comp[label], 2),
                }
                for label in base
            }

        end_to_end = {
            "n": BENCH_N,
            "batches": kern_res.n_batches,
            "seed_core_s": round(seed_s, 3),
            "kernel_core_s": round(kern_s, 3),
            "speedup": round(seed_s / kern_s, 2),
        }
        return end_to_end, micro

    end_to_end, micro = benchmark.pedantic(measure, rounds=1, iterations=1)
    doc = {
        "bench": "demt-algorithm-core",
        "description": "online replay of one synthetic archive window with "
        "DEMT as the batch engine: PR-6 core (batched dual-approximation "
        "probes + kernel layer) vs the seed core (ReferenceDemtScheduler) "
        "on the same replay plane, schedules asserted identical; plus "
        "per-kernel micro timings at the same n",
        "m": BENCH_M,
        "load": BENCH_LOAD,
        "kernel_backend": active,
        "demt_end_to_end": end_to_end,
        "kernel_micro": micro,
    }

    print()
    print(
        f"  DEMT core n={end_to_end['n']}: seed {end_to_end['seed_core_s']:.2f} s, "
        f"kernelized ({active}) {end_to_end['kernel_core_s']:.2f} s "
        f"-> {end_to_end['speedup']:.2f}x"
    )
    for label, row in micro.items():
        print(
            f"    {label:>16}: numpy {row['numpy_ms']:8.1f} ms  "
            f"{active} {row[f'{active}_ms']:7.1f} ms  -> {row['speedup']:.2f}x"
        )

    # Write-before-gate via the shared harness (see _harness.py), same
    # contract as BENCH_PR2.
    baseline, refreshing_baseline = emit_bench_doc(
        doc, BENCH_PR6_PATH, "REPRO_BENCH_PR6_OUT"
    )

    assert end_to_end["speedup"] >= threshold, (
        f"DEMT core only {end_to_end['speedup']:.2f}x faster than the seed "
        f"core (threshold {threshold}x)"
    )
    if baseline is not None and not refreshing_baseline:
        base = baseline.get("demt_end_to_end", {})
        if base.get("n") == end_to_end["n"] and baseline.get("kernel_backend") == active:
            floor = base["speedup"] / 2.0
            assert end_to_end["speedup"] >= floor, (
                f"DEMT core speedup regression: measured "
                f"{end_to_end['speedup']:.2f}x vs baseline "
                f"{base['speedup']:.2f}x (floor {floor:.2f}x)"
            )
