"""Backend scaling: serial vs thread(j) vs process(j) on DEMT campaigns.

The PR-10 thread backend's claim is *zero-copy parallelism*: no pickling,
no shared-memory staging, no per-worker warmup, with real overlap coming
from the compiled kernel layer releasing the GIL (cffi C calls — pinned
by ``tests/kernels/test_gil_release.py``).  This
bench races the three backends on the same campaigns and emits
``BENCH_PR10.json``:

* **kernel-campaign legs (small / large n)** — a cell family whose cells
  are the DEMT algorithm core's three compiled inner loops (max-weight
  knapsack DP + reconstruction, binary-choice min-work DP, Graham event
  loop) on deterministically derived instances, driven through the real
  ``execute_cells`` machinery.  At large n a cell is almost entirely
  GIL-released kernel time, which is exactly the shape the thread
  backend exists for; the large leg carries the CI gate.
* **replay-clairvoyant leg (recorded, ungated)** — a natural end-to-end
  campaign (synthetic SWF window, five moldability models, clairvoyant
  DEMT offline engine) for the honest mixed-workload picture: its cells
  are mostly Python-object work between kernel calls, so thread scaling
  is Amdahl-limited there and the numbers document by how much.

Every leg asserts the three backends' records **bit-identical**, and a
separate traced pass asserts the obs *counter totals* identical too
(serial == thread == process — the tracer's exact-merge guarantee).

Gate: ``REPRO_THREAD_SPEEDUP_MIN`` (default 0 = record-only, because
this repo's dev container has a single usable CPU where no backend can
beat serial; the machine stamp in the emitted doc records that).  CI
runs the 4-CPU runners with ``REPRO_THREAD_SPEEDUP_MIN=2.0`` against
the kernel-campaign-large leg at ``jobs=4``.

Refreshing the baseline::

    PYTHONPATH=src REPRO_BENCH_REFRESH=1 python -m pytest \
        benchmarks/bench_backend_scaling.py -q -s
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from _harness import best_of, emit_bench_doc

from repro import kernels, obs
from repro.algorithms.knapsack import (
    knapsack_min_work_value,
    knapsack_select_indices,
)
from repro.core.profile import graham_starts
from repro.experiments.engine import (
    CellFamily,
    CellKey,
    CellRecord,
    execute_cells,
)
from repro.experiments.replay import replay_trace
from repro.workloads.trace import MOLDABILITY_MODELS, load_trace, synthesize_swf

#: Worker count raced against serial (the gate is defined at jobs=4).
JOBS = int(os.environ.get("REPRO_JOBS", "4"))

#: Cells per kernel-campaign leg (divisible by 4 so jobs=4 has no
#: straggler round at the ideal limit).
CELLS_PER_LEG = 8

#: DP size of one kernel cell (n items, n machines — the O(n*m) DPs) and
#: the Graham event-loop multiplier (n_graham = GRAHAM_SCALE * n).
LEG_SMALL_N = 600
LEG_LARGE_N = 12_000
GRAHAM_SCALE = 150

#: Replay leg shape (natural end-to-end campaign, recorded ungated).
REPLAY_N = 2_000
REPLAY_M = 64

#: Default location of the checked-in benchmark record / baseline.
BENCH_PR10_PATH = Path(__file__).resolve().parent / "BENCH_PR10.json"


def _measure_kernel_cell(task):
    """One kernel-campaign cell: all three DEMT compiled inner loops on
    inputs derived deterministically from the cell key (so every backend
    measures byte-identical instances)."""
    n, r, names = task
    t0 = time.perf_counter()
    rng = np.random.default_rng((1004, n, r))

    allot = rng.integers(1, 30, size=n).astype(np.int64)
    weights = rng.uniform(0.0, 10.0, size=n)
    _chosen, total, used = knapsack_select_indices(allot, weights, n)

    work_a = rng.uniform(1.0, 50.0, size=n)
    cost_a = rng.integers(1, 40, size=n).astype(np.int64)
    work_b = work_a + rng.uniform(0.0, 25.0, size=n)
    value = knapsack_min_work_value(work_a, cost_a, work_b, n)

    gn = GRAHAM_SCALE * n
    gallot = rng.integers(1, 8, size=gn).astype(np.int64)
    gdur = rng.uniform(0.5, 5.0, size=gn)
    starts, order = graham_starts(gallot, gdur, 16)

    elapsed = time.perf_counter() - t0
    starts = np.asarray(starts)
    rec = CellRecord(
        # Digests of all three kernels' outputs: any cross-backend bit
        # difference lands in the record equality assertion.
        cmax=float(total + used + starts.max() + order[0]),
        minsum=float(value + float(starts.sum())),
        seconds=elapsed,
    )
    return None, {name: rec for name in names}


class KernelCampaignFamily(CellFamily):
    """Cells = (n, r) DEMT-kernel instances; one 'algorithm', no bounds."""

    name = "kernel-campaign"
    worker = staticmethod(_measure_kernel_cell)

    def record_key(self, cell, name):
        n, r = cell
        return CellKey(1004, "kernel-campaign", n, 0, r, name)

    def make_task(self, cell, names, validate, need_bounds):
        n, r = cell
        return (n, r, names)


def _kernel_campaign(n: int, backend: str, jobs: int | None):
    """Run one kernel-campaign leg; return its record digest."""
    outcomes = execute_cells(
        KernelCampaignFamily(),
        [(n, r) for r in range(CELLS_PER_LEG)],
        ["DEMT-core"],
        backend=backend,
        jobs=jobs,
    )
    return {
        cell: {name: rec for name, rec in sorted(out.records.items())}
        for cell, out in outcomes.items()
    }


def _replay_campaign(trace, backend: str, jobs: int | None):
    """Run the end-to-end replay leg; return its result digest."""
    results = replay_trace(
        trace,
        m=REPLAY_M,
        models=list(MOLDABILITY_MODELS),
        modes="clairvoyant",
        backend=backend,
        jobs=jobs,
    )
    return [
        (r.model, r.mode, r.makespan, r.weighted_flow, r.n_batches)
        for r in results
    ]


def _race(run) -> tuple[dict, bool, bool]:
    """Race serial vs thread(JOBS) vs process(JOBS) over ``run(backend)``.

    Returns the leg document plus the two identity verdicts (records,
    traced counter totals).  Timed runs go untraced; a separate obs-ON
    pass (one run per backend) checks the counter totals so tracer lock
    traffic cannot skew the timings.
    """
    digest_serial, serial_s = best_of(lambda: run("serial", None))
    digest_thread, thread_s = best_of(lambda: run("thread", JOBS))
    digest_process, process_s = best_of(lambda: run("process", JOBS))
    records_ok = digest_serial == digest_thread == digest_process

    counters = {}
    for backend in ("serial", "thread", "process"):
        state = obs.enable(fresh=True)
        run(backend, JOBS)
        counters[backend] = dict(state.counters)
        obs.disable()
    counters_ok = (
        counters["serial"] == counters["thread"] == counters["process"]
    )

    doc = {
        "jobs": JOBS,
        "serial_ms": round(1e3 * serial_s, 1),
        "thread_ms": round(1e3 * thread_s, 1),
        "process_ms": round(1e3 * process_s, 1),
        "thread_speedup": round(serial_s / thread_s, 2),
        "process_speedup": round(serial_s / process_s, 2),
        "records_identical": records_ok,
        "counters_identical": counters_ok,
    }
    return doc, records_ok, counters_ok


def test_backend_scaling_emits_bench_pr10(benchmark):
    """Measure, emit and gate ``BENCH_PR10.json``.

    Always asserts the three backends bit-identical (records and traced
    counter totals) on every leg; the thread-vs-serial floor on the
    kernel-campaign-large leg fires only when
    ``REPRO_THREAD_SPEEDUP_MIN`` is set above 0 (CI: 2.0 at jobs=4).
    """
    # The thread backend's overlap needs a GIL-releasing kernel backend;
    # prefer the fastest compiled one whatever REPRO_KERNELS selected
    # for the suite, and record loudly when only numpy is importable
    # (pure-numpy glue holds the GIL between ufunc calls).
    compiled = [n for n in kernels.available_backend_names() if n != "numpy"]
    session_backend = kernels.backend_name()
    if compiled:
        kernels.set_backend(compiled[0])
    try:
        _run_bench(benchmark, kernel_backend=kernels.backend_name())
    finally:
        kernels.set_backend(session_backend)


def _run_bench(benchmark, kernel_backend: str):
    floor = float(os.environ.get("REPRO_THREAD_SPEEDUP_MIN", "0"))

    def measure():
        legs = {}
        verdicts = []
        for leg_name, n in (
            ("kernel-campaign-small", LEG_SMALL_N),
            ("kernel-campaign-large", LEG_LARGE_N),
        ):
            doc, records_ok, counters_ok = _race(
                lambda backend, jobs: _kernel_campaign(n, backend, jobs)
            )
            doc.update(
                cells=CELLS_PER_LEG, n=n, graham_n=GRAHAM_SCALE * n
            )
            legs[leg_name] = doc
            verdicts.append((leg_name, records_ok, counters_ok))

        trace = load_trace(synthesize_swf(REPLAY_N, REPLAY_M, seed=REPLAY_N))
        doc, records_ok, counters_ok = _race(
            lambda backend, jobs: _replay_campaign(trace, backend, jobs)
        )
        doc.update(
            cells=len(MOLDABILITY_MODELS),
            n_jobs=REPLAY_N,
            m=REPLAY_M,
            modes="clairvoyant",
        )
        legs["replay-clairvoyant"] = doc
        verdicts.append(("replay-clairvoyant", records_ok, counters_ok))
        return legs, verdicts

    legs, verdicts = benchmark.pedantic(measure, rounds=1, iterations=1)

    doc = {
        "bench": "backend-scaling",
        "description": "serial vs thread(j) vs process(j) on a kernel-bound "
        "DEMT campaign (cells = the three compiled inner loops on derived "
        "instances; small and large n) and an end-to-end clairvoyant "
        "replay campaign; records and traced counter totals asserted "
        "bit-identical across backends; the thread-vs-serial floor "
        "(REPRO_THREAD_SPEEDUP_MIN, CI: 2.0) gates the kernel-bound "
        "large leg",
        "kernel_backend": kernel_backend,
        "thread_speedup_floor": floor,
        "legs": legs,
    }
    baseline, refreshing = emit_bench_doc(
        doc, BENCH_PR10_PATH, "REPRO_BENCH_PR10_OUT"
    )

    for leg_name, records_ok, counters_ok in verdicts:
        assert records_ok, (
            f"{leg_name}: records differ across serial/thread/process"
        )
        assert counters_ok, (
            f"{leg_name}: traced counter totals differ across backends"
        )

    for leg_name, leg in legs.items():
        print(
            f"  {leg_name}: serial {leg['serial_ms']:.0f}ms | "
            f"thread(j={leg['jobs']}) {leg['thread_ms']:.0f}ms "
            f"({leg['thread_speedup']:.2f}x) | "
            f"process(j={leg['jobs']}) {leg['process_ms']:.0f}ms "
            f"({leg['process_speedup']:.2f}x)"
        )

    if floor > 0:
        if kernel_backend == "numpy":
            print(
                "  [gate skipped] no compiled kernel backend importable; "
                "pure-numpy glue does not release the GIL"
            )
            return
        got = legs["kernel-campaign-large"]["thread_speedup"]
        assert got >= floor, (
            f"thread backend speedup {got:.2f}x at jobs={JOBS} on the "
            f"kernel-bound leg is below the floor {floor}x"
        )
