"""Differential suite for the pluggable kernel layer.

Every backend that imports here (``numpy`` always; ``cffi`` when its
toolchain is present) must reproduce the pure-NumPy reference **bit for
bit** on every kernel, and the library-level entry points must agree
with the seed oracles of ``algorithms/reference.py``, with exhaustive
brute force on small inputs and, for the FCFS dispatch loop, with the
windowed dispatcher of ``simulator/windowed.py``.  The same guarantee
end-to-end: DEMT schedules are identical whichever backend is active.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import io
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import kernels
from repro.algorithms.demt import DemtScheduler
from repro.algorithms.dual_approx import dual_approximation
from repro.algorithms.knapsack import (
    knapsack_min_work,
    knapsack_min_work_value,
    knapsack_select_indices,
)
from repro.algorithms.reference import (
    ReferenceDemtScheduler,
    reference_dual_approximation,
    reference_knapsack_min_work,
)
from repro.core.instance import Instance
from repro.core.validation import TIME_EPS
from repro.extensions.fcfs import rigidify
from repro.simulator import windowed
from repro.simulator.events import EventWindowQueue
from repro.simulator.online import FcfsOnlinePolicy
from repro.workloads.generator import generate_workload
from repro.workloads.trace import load_trace, synthesize_swf, trace_instance

BACKENDS = kernels.available_backend_names()
NUMPY = kernels.load_backend("numpy")
OTHERS = tuple(kernels.load_backend(n) for n in BACKENDS if n != "numpy")


def _bits(x: float) -> bytes:
    """Exact float identity (distinguishes -0.0, tolerates inf)."""
    return struct.pack("<d", float(x))


# --------------------------------------------------------------------- #
# Max-weight knapsack DP + reconstruction                               #
# --------------------------------------------------------------------- #
_weights = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_knap_cases = st.tuples(
    st.lists(st.tuples(st.integers(1, 9), _weights), min_size=1, max_size=10),
    st.integers(1, 14),
)


@given(_knap_cases)
@settings(max_examples=80, deadline=None)
def test_knapsack_select_backends_and_bruteforce(case):
    items, m = case
    allot = np.array([a for a, _ in items], dtype=np.int64)
    weights = np.array([w for _, w in items], dtype=np.float64)

    chosen, total, used = NUMPY.knapsack_select_core(allot, weights, m)
    for mod in OTHERS:
        got = mod.knapsack_select_core(allot, weights, m)
        assert list(got[0]) == list(chosen), mod.name
        assert _bits(got[1]) == _bits(total), mod.name
        assert int(got[2]) == used, mod.name

    # The reported total is the fold-left sum of the chosen weights and
    # the selection fits.
    assert used == sum(int(allot[i]) for i in chosen)
    assert used <= m
    acc = 0.0
    for i in chosen:
        acc += float(weights[i])
    assert _bits(acc) == _bits(total)

    # Optimal against exhaustive subset enumeration.  Subset sums are
    # folded left in index order — exactly the DP's addition order — so
    # the comparison is float-exact, not approximate.
    n = len(items)
    best = 0.0
    for mask in range(1 << n):
        cap, s = 0, 0.0
        for i in range(n):
            if mask >> i & 1:
                cap += int(allot[i])
                s += float(weights[i])
        if cap <= m and s > best:
            best = s
    assert total == best


@given(_knap_cases)
@settings(max_examples=40, deadline=None)
def test_knapsack_select_indices_shortcut_consistent(case):
    """The take-all short-circuit returns exactly what the DP would."""
    items, m = case
    allot = np.array([a for a, _ in items], dtype=np.int64)
    # Strictly positive weights: the zero-weight tie is the one case the
    # shortcut is (documented to be) allowed to differ on.
    weights = np.array([w + 0.5 for _, w in items], dtype=np.float64)
    via_api = knapsack_select_indices(allot, weights, m)
    via_dp = NUMPY.knapsack_select_core(allot, weights, m)
    assert list(via_api[0]) == list(via_dp[0])
    assert _bits(via_api[1]) == _bits(via_dp[1])
    assert via_api[2] == via_dp[2]


# --------------------------------------------------------------------- #
# Binary-choice min-work DP                                             #
# --------------------------------------------------------------------- #
_work = st.floats(min_value=0.0, max_value=1e6, allow_nan=False) | st.just(np.inf)
_minwork_cases = st.tuples(
    st.lists(st.tuples(_work, st.integers(0, 9), _work), min_size=1, max_size=16),
    st.integers(0, 12),
)


@given(_minwork_cases)
@settings(max_examples=120, deadline=None)
def test_min_work_value_backends_and_oracles(case):
    rows, m = case
    work_a = np.array([r[0] for r in rows], dtype=np.float64)
    cost_i = np.array([r[1] for r in rows], dtype=np.int64)
    work_b = np.array([r[2] for r in rows], dtype=np.float64)
    cost_f = cost_i.astype(np.float64)

    ref = NUMPY.knapsack_min_work_value_core(work_a, cost_i, work_b, m)
    for mod in OTHERS:
        got = mod.knapsack_min_work_value_core(work_a, cost_i, work_b, m)
        assert _bits(got) == _bits(ref), mod.name

    # The dispatching wrapper, the reconstructing variant and the seed
    # oracle all land on the same bits.
    assert _bits(knapsack_min_work_value(work_a, cost_f, work_b, m)) == _bits(ref)
    assert _bits(knapsack_min_work(work_a, cost_f, work_b, m)[1]) == _bits(ref)
    assert _bits(reference_knapsack_min_work(work_a, cost_f, work_b, m)[1]) == _bits(ref)


# --------------------------------------------------------------------- #
# Graham event loop                                                     #
# --------------------------------------------------------------------- #
def _graham_oracle(alist, dlist, m, start_time, cutoff):
    """Textbook restart-from-the-head list scheduling, O(n^2) scan."""
    n = len(alist)
    starts = [0.0] * n
    order: list[int] = []
    pending = list(range(n))
    heap: list[tuple[float, int]] = []
    free = m
    now = float(start_time)
    while pending:
        while True:
            for idx in pending:
                if alist[idx] <= free:
                    starts[idx] = now
                    order.append(idx)
                    heapq.heappush(heap, (now + dlist[idx], alist[idx]))
                    free -= alist[idx]
                    pending.remove(idx)
                    break
            else:
                break
        if not pending:
            break
        end, a = heapq.heappop(heap)
        free += a
        now = end
        while heap and heap[0][0] <= now:
            _, a2 = heapq.heappop(heap)
            free += a2
        if cutoff is not None and now > cutoff:
            return None
    return starts, order


@st.composite
def _graham_case(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 20))
    alist = [draw(st.integers(1, m)) for _ in range(n)]
    dlist = [
        draw(st.floats(min_value=0.001, max_value=1e6, allow_nan=False))
        for _ in range(n)
    ]
    start = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    cutoff = draw(st.none() | st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    return alist, dlist, m, start, cutoff


@given(_graham_case())
@settings(max_examples=120, deadline=None)
def test_graham_backends_and_oracle(case):
    alist, dlist, m, start, cutoff = case
    allot = np.array(alist, dtype=np.int64)
    dur = np.array(dlist, dtype=np.float64)

    ref = NUMPY.graham_starts_core(allot, dur, m, start, cutoff)
    oracle = _graham_oracle(alist, dlist, m, start, cutoff)
    if ref is None:
        assert oracle is None
    else:
        assert np.asarray(oracle[0], dtype=np.float64).tobytes() == ref[0].tobytes()
        assert oracle[1] == list(ref[1])

    for mod in OTHERS:
        got = mod.graham_starts_core(allot, dur, m, start, cutoff)
        if ref is None:
            assert got is None, mod.name
        else:
            assert got is not None, mod.name
            assert np.asarray(got[0], dtype=np.float64).tobytes() == ref[0].tobytes(), mod.name
            assert list(got[1]) == list(ref[1]), mod.name


# --------------------------------------------------------------------- #
# FCFS / EASY dispatch loop                                             #
# --------------------------------------------------------------------- #
#: Sub-TIME_EPS offsets from the integer grid: exact ties, events inside
#: one window on either side of a tie (±0.4e-9), and chains 0.6e-9 apart
#: whose third link falls outside the window anchored at the first.
_JITTER = (0.0, 0.4e-9, -0.4e-9, 0.6e-9, 1.2e-9, 1.8e-9)


def _tie_heavy_instance(n: int, m: int, seed: int) -> Instance:
    """Rigid jobs (rigidify keeps their one allotment) with releases and
    durations on an integer grid plus sub-TIME_EPS jitter, and task ids
    shuffled against row order."""
    rng = np.random.default_rng(seed)
    releases = rng.integers(1, max(1, n // 4) + 1, size=n) + rng.choice(_JITTER, size=n)
    durations = rng.integers(1, 6, size=n) + rng.choice(_JITTER[:4], size=n)
    ks = rng.integers(1, m + 1, size=n)
    times = np.full((n, m), np.inf)
    times[np.arange(n), ks - 1] = durations
    ids = rng.permutation(n) * 3 + 1
    return Instance.from_arrays(times, None, releases, m, task_ids=ids)


def _fcfs_columns(inst: Instance):
    """The kernel's inputs, gathered as ``FcfsOnlinePolicy`` gathers them."""
    ks = np.fromiter(rigidify(inst).values(), dtype=np.int64, count=inst.n)
    durations = inst.times_matrix[np.arange(inst.n), ks - 1]
    return inst.releases, inst.task_ids, ks, durations, inst.m


def _placement_bits(schedule) -> list[tuple]:
    """Placements in insertion (start) order, floats as exact bits."""
    return [
        (p.task.task_id, _bits(p.start), p.allotment, _bits(p.duration))
        for p in schedule.placements
    ]


def _windowed_run(inst: Instance, backfill: bool):
    """The windowed oracle's schedule and the depth of every event window
    it popped."""
    depths: list[int] = []

    class DepthQueue(EventWindowQueue):
        def pop_window(self):
            window = super().pop_window()
            depths.append(len(window))
            return window

    with mock.patch.object(windowed, "EventWindowQueue", DepthQueue):
        result = windowed.WindowedFcfsPolicy(backfill=backfill).run(inst)
    return result.schedule, depths


def _assert_fcfs_backends_agree(columns, backfill: bool):
    """Every backend returns the NumPy reference's rows, start bits and
    window depths; returns the reference."""
    ref = NUMPY.fcfs_starts_core(*columns, backfill, TIME_EPS)
    for mod in OTHERS:
        got = mod.fcfs_starts_core(*columns, backfill, TIME_EPS)
        for a, b, what in zip(got, ref, ("rows", "starts", "depths")):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (mod.name, what)
    return ref


@given(
    n=st.integers(1, 200),
    m=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    backfill=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_fcfs_backends_and_oracle(n, m, seed, backfill):
    inst = _tie_heavy_instance(n, m, seed)
    oracle, oracle_depths = _windowed_run(inst, backfill)
    want = _placement_bits(oracle)
    for name in BACKENDS:
        kernels.set_backend(name)
        got = FcfsOnlinePolicy(backfill=backfill).run(inst).schedule
        assert _placement_bits(got) == want, name
    *_, depths = _assert_fcfs_backends_agree(_fcfs_columns(inst), backfill)
    assert depths.tolist() == oracle_depths


def test_fcfs_window_time_is_the_first_finish():
    """A job released 0.5e-9 before a FINISH at 1.0 shares its window and
    starts at 1.0, the window's first event by (priority, time, id), not
    at the window's earliest time."""
    releases = np.array([0.0, 1.0 - 0.5e-9])
    columns = (releases, np.array([0, 1]), np.array([2, 1]), np.array([1.0, 1.0]), 2)
    for backfill in (False, True):
        rows, starts, depths = _assert_fcfs_backends_agree(columns, backfill)
        assert rows.tolist() == [0, 1]
        assert starts.tolist() == [0.0, 1.0]
        assert depths.tolist() == [1, 2, 1]


@pytest.mark.parametrize("mod", OTHERS, ids=lambda mod: mod.name)
def test_compiled_fcfs_checks_its_buffers(mod):
    """The C loop holds at most m running jobs, reads every column n long
    and writes one depth per window: the wrapper refuses allotments
    outside [1, m], mismatched lengths, and times or an eps that would
    leave a window empty, before passing any pointer."""
    one = (np.zeros(1), np.array([7]))
    for bad in (0, 5):
        with pytest.raises(ValueError, match=r"\[1, 4\]"):
            mod.fcfs_starts_core(*one, np.array([bad]), np.ones(1), 4, True, TIME_EPS)
    with pytest.raises(ValueError, match="parallel"):
        mod.fcfs_starts_core(*one, np.array([1, 1]), np.ones(1), 4, True, TIME_EPS)
    for rel, dur in ((np.nan, 1.0), (0.0, np.nan), (0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            mod.fcfs_starts_core(
                np.array([rel]), one[1], np.array([1]), np.array([dur]), 4, True, TIME_EPS
            )
    for eps in (-1e-9, np.nan):
        with pytest.raises(ValueError, match="eps"):
            mod.fcfs_starts_core(*one, np.array([1]), np.ones(1), 4, True, eps)


@functools.lru_cache(maxsize=None)
def _archive_columns(load: float, seed: int = 19):
    trace = load_trace(io.StringIO(synthesize_swf(20_000, 64, seed=seed, load=load)))
    return _fcfs_columns(trace_instance(trace, 64, "rigid", online=True))


@pytest.mark.skipif(not OTHERS, reason="no compiled kernel backend (cffi) available")
@pytest.mark.parametrize("backfill", [False, True])
@pytest.mark.parametrize("load", [0.8, 1.2])
def test_fcfs_archive_backends_identical(load, backfill):
    """20k-job archives: at load 1.2 the queue keeps growing, so the EASY
    scans walk thousands of tombstoned entries and compaction runs many
    times.  Every backend returns the reference's bits."""
    _assert_fcfs_backends_agree(_archive_columns(load), backfill)


#: sha256 over the kernel's (rows, starts, depths) bytes on the archive
#: ``synthesize_swf(20000, 64, seed=7, load=1.2)`` replayed rigid on
#: m = 64, recorded before the EASY scan learned to skip (or leave) the
#: waiting list while no processor is free.
_OVERLOAD_DIGESTS = {
    False: "7a41c1094f2d897b79d0935ec9565852b3af044fb224e20ad4d442af5b8a3012",
    True: "35adac0c9f5366188fdb03f115e04d5830ba8e06233c16cf2e2f1783076e294e",
}


@pytest.mark.parametrize("backfill", [False, True])
@pytest.mark.parametrize("mod", (NUMPY, *OTHERS), ids=lambda mod: mod.name)
def test_fcfs_overloaded_archive_digest(mod, backfill):
    """The queue grows to thousands of jobs and most blocked dispatches
    find no processor free: every backend still returns the recorded
    bits."""
    out = mod.fcfs_starts_core(*_archive_columns(1.2, seed=7), backfill, TIME_EPS)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()
    assert digest == _OVERLOAD_DIGESTS[backfill]


# --------------------------------------------------------------------- #
# End to end: identical schedules under every backend                   #
# --------------------------------------------------------------------- #
def _sched_key(sched):
    """Bit-exact canonical form: placement order, starts, allotments."""
    return (
        sched.m,
        tuple((p.task.task_id, _bits(p.start), p.allotment) for p in sched.placements),
    )


@pytest.mark.parametrize("kind", ["mixed", "cirne", "linear_speedup"])
def test_demt_identical_across_backends_and_vs_seed(kind):
    inst = generate_workload(kind, n=24, m=8, seed=11)

    outcomes = []
    for name in BACKENDS:
        kernels.set_backend(name)
        sched = DemtScheduler().schedule(inst)
        dual = dual_approximation(inst)
        outcomes.append((name, _sched_key(sched), _bits(dual.lam), _sched_key(dual.schedule)))

    base = outcomes[0]
    for other in outcomes[1:]:
        assert other[1] == base[1], f"{other[0]} schedule != {base[0]}"
        assert other[2] == base[2], f"{other[0]} lambda != {base[0]}"
        assert other[3] == base[3], f"{other[0]} two-shelf != {base[0]}"

    # ... and all of them equal the sequential seed implementation.
    kernels.set_backend("numpy")
    assert _sched_key(ReferenceDemtScheduler().schedule(inst)) == base[1]
    ref_dual = reference_dual_approximation(inst)
    assert _bits(ref_dual.lam) == base[2]
    assert _sched_key(ref_dual.schedule) == base[3]


# --------------------------------------------------------------------- #
# Selection plumbing                                                    #
# --------------------------------------------------------------------- #
class TestBackendSelection:
    def test_numpy_always_available(self):
        assert "numpy" in BACKENDS
        assert kernels.load_backend("numpy") is NUMPY

    def test_set_backend_round_trip(self):
        for name in BACKENDS:
            prev = kernels.set_backend(name)
            assert prev in kernels._KNOWN
            assert kernels.backend_name() == name

    def test_set_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("fortran")

    def test_set_backend_unavailable(self, monkeypatch):
        # A known backend whose build failed: simulated for cffi, the one
        # compiled backend, so the check runs wherever cffi builds too.
        monkeypatch.setattr(kernels, "_loaded", {"numpy": NUMPY})
        monkeypatch.setattr(kernels, "_failed", {"cffi": "simulated build failure"})
        with pytest.raises(RuntimeError, match="unavailable"):
            kernels.set_backend("cffi")

    def test_retired_numba_name_falls_back_to_numpy(self):
        env = dict(os.environ, REPRO_KERNELS="numba")
        src = Path(repro.__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", "from repro import kernels; print(kernels.backend_name())"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "numpy"
        assert "unknown REPRO_KERNELS='numba'" in out.stderr

    @pytest.mark.parametrize("requested", ["numpy"] + [n for n in BACKENDS if n != "numpy"])
    def test_env_override_selects_backend(self, requested):
        env = dict(os.environ, REPRO_KERNELS=requested)
        src = Path(repro.__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", "from repro import kernels; print(kernels.backend_name())"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == requested
