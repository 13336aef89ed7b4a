"""Concurrency smoke test: compiled kernels must release the GIL.

The thread backend's whole value proposition (ISSUE 10) is that the
compiled kernel layer runs GIL-free, so kernel-bound cells from
different threads genuinely overlap.  This suite pins that property for
the compiled backend (``cffi``; skipped entirely when only ``numpy`` is
available, whose Python glue holds the GIL between ufunc calls).

The detection technique works even on a single CPU: a worker thread
timestamps ``t_start``/``t_end`` around one long kernel call while the
main thread spins recording ``perf_counter()`` stamps.  If the kernel
held the GIL for the whole call, *no* main-thread stamp could land
strictly inside the call window (the spinning bytecode would be frozen);
with the GIL released, the OS timeslices the spinner into the middle of
the window.  We assert stamps in the middle third — far from the
release/reacquire edges — which is robust to scheduler jitter.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import kernels

COMPILED = tuple(n for n in kernels.available_backend_names() if n != "numpy")

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend (cffi) available"
)

#: Minimum wall-clock length of the probed kernel call.  Long enough that
#: the middle third spans many OS timeslices; short enough to keep the
#: suite fast.
_MIN_CALL = 0.05
#: The dual sweep and the row floors are one pass over an ``(n, m)``
#: matrix, so a 50 ms call would need a ~150 MB input; their probes use
#: 32 MB and 64 MB matrices and accept a shorter call, and so does the SWF
#: scan's 16 MB buffer (a held GIL still freezes the spinner for the
#: whole call, and a released one lets it run through the middle third
#: even when one CPU time-slices both threads).
_MIN_CALL_FOR = {"dual_sweep": 0.005, "row_floor": 0.005, "swf_scan": 0.01}


def _knapsack_min_work_call(mod):
    rng = np.random.default_rng(7)
    n = 12000
    work_a = rng.uniform(1.0, 50.0, size=n)
    cost_a = rng.integers(1, 40, size=n).astype(np.int64)
    work_b = work_a + rng.uniform(0.0, 25.0, size=n)
    m = 12000
    return lambda: mod.knapsack_min_work_value_core(work_a, cost_a, work_b, m)


def _knapsack_min_work_reconstruct_call(mod):
    rng = np.random.default_rng(5)
    n = 6000
    work_a = rng.uniform(1.0, 50.0, size=n)
    cost_a = rng.integers(1, 40, size=n).astype(np.int64)
    work_b = work_a + rng.uniform(0.0, 25.0, size=n)
    m = 6000
    return lambda: mod.knapsack_min_work_core(work_a, cost_a, work_b, m)


def _dual_sweep_call(mod):
    rng = np.random.default_rng(3)
    times = rng.uniform(1.0, 100.0, size=(4000, 1000))
    return lambda: mod.dual_sweep_core(times, 50.0)


def _row_floor_call(mod):
    rng = np.random.default_rng(19)
    times = rng.uniform(1.0, 100.0, size=(8000, 1000))
    return lambda: mod.row_floor_core(times)


def _knapsack_select_call(mod):
    rng = np.random.default_rng(11)
    n = 10000
    allot = rng.integers(1, 30, size=n).astype(np.int64)
    weights = rng.uniform(0.0, 10.0, size=n)
    m = 10000
    return lambda: mod.knapsack_select_core(allot, weights, m)


def _graham_call(mod):
    rng = np.random.default_rng(13)
    n = 2_000_000
    allot = rng.integers(1, 8, size=n).astype(np.int64)
    dur = rng.uniform(0.5, 5.0, size=n)
    return lambda: mod.graham_starts_core(allot, dur, 16, 0.0, None)


def _fcfs_call(mod):
    # 1M jobs on 16 processors at load ~0.8, EASY backfilling on.
    rng = np.random.default_rng(17)
    n = 1_000_000
    releases = np.cumsum(rng.exponential(1.0, size=n))
    ids = np.arange(n, dtype=np.int64)
    allot = rng.integers(1, 8, size=n).astype(np.int64)
    dur = rng.uniform(0.5, 5.0, size=n)
    return lambda: mod.fcfs_starts_core(releases, ids, allot, dur, 16, True, 1e-9)


def _faulty_batch_call(mod):
    # One 300k-job batch on 16 processors, planned back to back with
    # overlaps (so many starts are deferred), under a few capacity drops.
    rng = np.random.default_rng(23)
    n = 300_000
    ids = rng.permutation(n).astype(np.int64)
    allot = rng.integers(1, 8, size=n).astype(np.int64)
    offsets = np.cumsum(rng.exponential(0.3, size=n))
    dur = rng.uniform(0.5, 5.0, size=n)
    cap_t = np.sort(rng.uniform(0.0, offsets[-1], size=40))
    cap_m = np.arange(40, dtype=np.int64) % 16
    cap_d = np.where(np.arange(40) % 2 == 0, -1, 1).astype(np.int64)
    return lambda: mod.faulty_batch_core(
        0.0, ids, allot, offsets, dur, cap_t, cap_m, cap_d, 0, 16, 0.0, 1e-9
    )


def _swf_scan_call(mod):
    # 16 MB of archive records: 17-digit times (strtod) beside short
    # integers (the fast path).
    rng = np.random.default_rng(29)
    n = 160_000
    submits = np.cumsum(rng.exponential(1.0, size=n)).tolist()
    runs = rng.uniform(0.5, 5.0, size=n).tolist()
    buf = "".join(
        f"{i} {s!r} -1 {r!r} 4 -1 -1 4 {r!r} -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        for i, (s, r) in enumerate(zip(submits, runs), 1)
    ).encode()
    rows = np.empty((n, 6))
    spans = np.empty((1, 2), dtype=np.int64)
    return lambda: mod.swf_scan_core(buf, 0, rows, spans)


_KERNEL_CALLS = {
    "min_work_value": _knapsack_min_work_call,
    "min_work": _knapsack_min_work_reconstruct_call,
    "dual_sweep": _dual_sweep_call,
    "row_floor": _row_floor_call,
    "knapsack_select": _knapsack_select_call,
    "graham_starts": _graham_call,
    "fcfs_starts": _fcfs_call,
    "faulty_batch": _faulty_batch_call,
    "swf_scan": _swf_scan_call,
}


def _probe_overlap(call):
    """Run ``call`` in a worker thread while the main thread spins.

    Returns ``(t_start, t_end, stamps)``: the call window measured inside
    the worker and every main-thread timestamp recorded while it ran.
    """
    window = {}
    ready = threading.Event()
    done = threading.Event()

    def worker():
        ready.wait()
        window["t0"] = time.perf_counter()
        call()
        window["t1"] = time.perf_counter()
        done.set()

    t = threading.Thread(target=worker, daemon=True)
    t.start()
    stamps = []
    ready.set()
    deadline = time.perf_counter() + 30.0
    while not done.is_set():
        stamps.append(time.perf_counter())
        if stamps[-1] > deadline:  # pragma: no cover - hang guard
            pytest.fail("kernel call did not finish within 30s")
    t.join()
    return window["t0"], window["t1"], stamps


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("kernel", sorted(_KERNEL_CALLS))
def test_kernel_releases_gil(backend, kernel):
    mod = kernels.load_backend(backend)
    call = _KERNEL_CALLS[kernel](mod)
    # Warm up outside the probe: the first call pages in the extension
    # and must not pollute the window.
    call()
    t0 = time.perf_counter()
    call()
    elapsed = time.perf_counter() - t0
    if elapsed < _MIN_CALL_FOR.get(kernel, _MIN_CALL):  # pragma: no cover - machine-speed dependent
        pytest.skip(
            f"{backend}/{kernel} finished in {elapsed * 1e3:.1f}ms; "
            "too fast to probe GIL release reliably"
        )

    t_start, t_end, stamps = _probe_overlap(call)
    span = t_end - t_start
    lo = t_start + span / 3.0
    hi = t_end - span / 3.0
    inside = sum(1 for s in stamps if lo < s < hi)
    # With the GIL held for the whole compiled call the spinner is frozen
    # between t_start and t_end and `inside` is 0.  With it released, the
    # middle third spans one or more ~5ms timeslices, so the spinner
    # lands there hundreds of times even on one CPU.
    assert inside >= 10, (
        f"{backend}/{kernel}: only {inside} main-thread stamps landed in "
        f"the middle third of a {span * 1e3:.1f}ms kernel call — the GIL "
        "does not appear to be released"
    )


def test_concurrent_calls_bit_identical():
    """Two threads hammering the same kernel concurrently get the same
    bits as a serial call — no shared mutable state in the backends."""
    mod = kernels.load_backend(COMPILED[0])
    call = _knapsack_min_work_call(mod)
    expect = call()
    results = [None] * 4
    barrier = threading.Barrier(4)

    def worker(slot):
        barrier.wait()
        for _ in range(3):
            results[slot] = call()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expect for r in results)
