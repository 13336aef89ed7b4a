"""Pluggable compiled kernels for the DEMT core and the on-line event loops.

The inner loops that dominate DEMT end-to-end time — the max-weight
knapsack DP + reconstruction, the binary-choice min-work DP of the dual
approximation (value only, and with reconstruction), the dual
approximation's one-λ sweep over the time matrix and its closed-form
floors (every row's smallest time and area, in one pass), and the Graham
list-scheduling event loop — two event loops of the on-line
simulator — the FCFS / EASY-backfilling dispatch of the ``fcfs`` and
``fcfs-backfill`` policies, and the crash-and-restart execution of one
batch of the faulty batch policy — and the trace plane's scan of SWF
bytes live behind this package's dispatch layer.  Two interchangeable
backends implement them:

``numpy``
    The incumbent pure-NumPy/Python implementations (always available,
    the reference).  Its SWF scan always declines, which hands every
    load to the line path of :mod:`repro.workloads.trace`.
``cffi``
    The same loops as C, compiled on first import via :mod:`cffi` and a C
    toolchain (both optional), cached on disk by source hash.

Both backends preserve the incumbent float-operation order, so schedules
and feasibility decisions are **bit-identical** across backends — the
golden corpora and the differential suites hold with kernels on and off.
The suite in ``tests/kernels/`` fuzzes every importable backend against
the NumPy reference, against the seed oracles of
``algorithms/reference.py`` and, for the two event loops, against the
windowed loops of ``simulator/windowed.py``.

Selection: the ``REPRO_KERNELS`` environment variable (``numpy`` |
``cffi``; unset/``auto`` picks ``cffi`` when it imports, else NumPy).  An
explicitly requested backend that fails to import falls back to NumPy
with a :class:`RuntimeWarning`, and so does an unknown name — numbers are
identical either way, only speed differs.  Tests can swap backends at
runtime via :func:`set_backend`.

Each candidate backend is smoke-tested on import against the NumPy
reference on tiny fixed inputs; a backend that returns different bits is
rejected (fall back to NumPy) rather than trusted.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro import obs
from repro.kernels import _numpy as _numpy_backend
from repro.kernels._numpy import (
    LOG_BATCH_STARTED,
    LOG_COMPLETED,
    LOG_CRASHED,
    LOG_MACHINE_DOWN,
    LOG_MACHINE_UP,
    LOG_STARTED,
)

__all__ = [
    "backend_name",
    "available_backend_names",
    "load_backend",
    "set_backend",
    "knapsack_select_core",
    "knapsack_min_work_value_core",
    "knapsack_min_work_core",
    "dual_sweep_core",
    "row_floor_core",
    "graham_starts_core",
    "fcfs_starts_core",
    "faulty_batch_core",
    "same_faulty_batch",
    "swf_scan_core",
    "LOG_BATCH_STARTED",
    "LOG_STARTED",
    "LOG_COMPLETED",
    "LOG_CRASHED",
    "LOG_MACHINE_DOWN",
    "LOG_MACHINE_UP",
]

_KNOWN = ("numpy", "cffi")

_loaded: dict[str, object] = {"numpy": _numpy_backend}
_failed: dict[str, str] = {}


def _smoke(mod) -> None:
    """Assert a backend reproduces the NumPy reference bit-for-bit on a
    tiny fixed corpus (one exercise per kernel, including a tie, an
    infeasible option, a FINISH and an ARRIVAL sharing a window, a
    backfill, and a crash, a deferral, a stale FINISH and a RESERVE
    sharing a window with STARTs), and scans a small SWF document the
    way the line path reads it."""
    allot = np.array([2, 2, 3, 1, 7], dtype=np.int64)
    weights = np.array([5.0, 4.0, 6.0, 0.25, 9.0], dtype=np.float64)
    ref = _numpy_backend.knapsack_select_core(allot, weights, 6)
    got = mod.knapsack_select_core(allot, weights, 6)
    if got != ref:
        raise ImportError(f"{mod.name} knapsack_select mismatch: {got} != {ref}")

    work_a = np.array([4.0, 2.5, np.inf, 1.0], dtype=np.float64)
    cost_a = np.array([2, 1, 3, 9], dtype=np.int64)
    work_b = np.array([6.0, 2.5, 3.0, np.inf], dtype=np.float64)
    ref_v = _numpy_backend.knapsack_min_work_value_core(work_a, cost_a, work_b, 4)
    got_v = mod.knapsack_min_work_value_core(work_a, cost_a, work_b, 4)
    if not (got_v == ref_v or (np.isnan(got_v) and np.isnan(ref_v))):
        raise ImportError(f"{mod.name} min_work_value mismatch: {got_v} != {ref_v}")
    # The reconstruction on the feasible first three rows (one option-A
    # pick, two collapsed rows).
    args = (work_a[:3], cost_a[:3], work_b[:3], 4)
    ref_r = _numpy_backend.knapsack_min_work_core(*args)
    got_r = mod.knapsack_min_work_core(*args)
    if got_r[1] != ref_r[1] or not np.array_equal(got_r[0], ref_r[0]):
        raise ImportError(f"{mod.name} min_work mismatch: {got_r} != {ref_r}")

    # One tie at lam and one at lam / 2, a forbidden allotment and a
    # non-monotone row.
    times = np.array(
        [[4.0, 2.0, 1.5], [np.inf, 3.0, 2.5], [6.0, 1.0, 5.0]], dtype=np.float64
    )
    ref_s = _numpy_backend.dual_sweep_core(times, 4.0)
    got_s = mod.dual_sweep_core(times, 4.0)
    if any(a.tobytes() != b.tobytes() for a, b in zip(got_s, ref_s)):
        raise ImportError(f"{mod.name} dual_sweep mismatch: {got_s} != {ref_s}")
    # The same rows' floors at widths 3 and 2, and a row holding a NaN.
    for t in (times, times[:, :2], np.array([[3.0, np.nan, 1.0, 2.0]])):
        ref_m = _numpy_backend.row_floor_core(t)
        got_m = mod.row_floor_core(t)
        if any(a.tobytes() != b.tobytes() for a, b in zip(got_m, ref_m)):
            raise ImportError(f"{mod.name} row_floor mismatch: {got_m} != {ref_m}")

    ga = np.array([2, 1, 3, 1, 2], dtype=np.int64)
    gd = np.array([3.0, 5.0, 1.0, 1.0, 2.0], dtype=np.float64)
    ref_g = _numpy_backend.graham_starts_core(ga, gd, 4, 0.0, None)
    got_g = mod.graham_starts_core(ga, gd, 4, 0.0, None)
    if (
        got_g is None
        or not np.array_equal(got_g[0], ref_g[0])
        or list(got_g[1]) != list(ref_g[1])
    ):
        raise ImportError(f"{mod.name} graham mismatch: {got_g} != {ref_g}")

    # Rows 2, 1, 0 arrive at 0 (ids put them in that order): row 2 starts,
    # row 1 waits and row 0 is backfilled ahead of it.  Row 3 arrives
    # 0.5e-9 before both finish at 1.0, in their window, and starts at 1.0.
    fr = np.array([0.0, 0.0, 0.0, 1.0 - 0.5e-9], dtype=np.float64)
    fi = np.array([12, 11, 10, 13], dtype=np.int64)
    fa = np.array([1, 2, 3, 1], dtype=np.int64)
    fd = np.array([1.0, 1.0, 1.0, 0.5], dtype=np.float64)
    ref_f = _numpy_backend.fcfs_starts_core(fr, fi, fa, fd, 4, True, 1e-9)
    got_f = mod.fcfs_starts_core(fr, fi, fa, fd, 4, True, 1e-9)
    if any(a.tobytes() != b.tobytes() for a, b in zip(got_f, ref_f)):
        raise ImportError(f"{mod.name} fcfs mismatch: {got_f} != {ref_f}")

    # Jobs 10 and 11 start at 0 on 2 of 4 processors; a machine down at 1
    # evicts job 11 (same start, larger id), whose stale FINISH at 2.5
    # still anchors a window.  At 2 the machine's return (0.5e-9 later)
    # shares a window with the STARTs of jobs 12 and 13 and applies first:
    # job 12 starts, job 13 no longer fits and is deferred.  The trace's
    # events at 10 and 11 lie beyond the batch horizon.
    batch = (
        0.0,
        np.array([10, 11, 12, 13], dtype=np.int64),
        np.array([2, 2, 2, 1], dtype=np.int64),
        np.array([0.0, 0.0, 2.0, 2.0], dtype=np.float64),
        np.array([3.0, 2.5, 1.0, 1.0], dtype=np.float64),
        np.array([1.0, 2.0 + 0.5e-9, 10.0, 11.0], dtype=np.float64),
        np.array([0, 0, 1, 1], dtype=np.int64),
        np.array([-1, 1, -1, 1], dtype=np.int64),
        0,
        4,
        0.0,
        1e-9,
    )
    ref_b = _numpy_backend.faulty_batch_core(*batch)
    got_b = mod.faulty_batch_core(*batch)
    if not same_faulty_batch(got_b, ref_b):
        raise ImportError(f"{mod.name} faulty batch mismatch: {got_b} != {ref_b}")

    # A header, an indented comment, a blank line, a 17-digit value, -0
    # and 1e-5, tabs and a CRLF: the scan must take the document and
    # read what the line path's np.loadtxt reads.
    doc = (
        b"; MaxProcs: 64\n  ; note\n\n"
        b"1 0.26040773895023467 -1 -0 28 -1 -1 28 -1 -1 1\n"
        b"2\t1e-5  0.5 2.5 4 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\r\n"
    )
    rows = np.zeros((4, 6), dtype=np.float64)
    spans = np.zeros((4, 2), dtype=np.int64)
    got_w = mod.swf_scan_core(doc, 0, rows, spans)
    ref_w = np.loadtxt(
        [line for line in doc.decode().splitlines() if line.strip()[:1] not in ("", ";")],
        dtype=np.float64, usecols=(0, 1, 2, 3, 4, 7), comments=None, ndmin=2,
    )
    if (
        got_w != (2, 2, len(doc))
        or rows[:2].tobytes() != ref_w.tobytes()
        or [doc[s:e] for s, e in spans[:2].tolist()] != [b"; MaxProcs: 64", b"; note"]
    ):
        raise ImportError(f"{mod.name} swf scan mismatch: {got_w} {rows[:2]} != {ref_w}")


def same_faulty_batch(a, b) -> bool:
    """Whether two :func:`faulty_batch_core` results are the same bits."""
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        if isinstance(x, np.ndarray)
        else type(x) is type(y) and x == y
        for x, y in zip(a, b)
    )


def load_backend(name: str):
    """Import, smoke-test and cache one backend; ``None`` if unavailable."""
    if name in _loaded:
        return _loaded[name]
    if name in _failed:
        return None
    if name not in _KNOWN:
        raise ValueError(f"unknown kernel backend {name!r}; known: {_KNOWN}")
    try:
        from repro.kernels import _cffi as mod

        _smoke(mod)
    except Exception as exc:  # noqa: BLE001 - record and fall through
        _failed[name] = str(exc)
        return None
    _loaded[name] = mod
    return mod


def available_backend_names() -> tuple[str, ...]:
    """Names of backends that import and pass the smoke test here."""
    return tuple(n for n in _KNOWN if load_backend(n) is not None)


def _resolve_initial():
    env = os.environ.get("REPRO_KERNELS", "").strip().lower()
    if env in ("", "auto"):
        return load_backend("cffi") or _numpy_backend
    if env == "numpy":
        return _numpy_backend
    if env in _KNOWN:
        mod = load_backend(env)
        if mod is not None:
            return mod
        warnings.warn(
            f"REPRO_KERNELS={env} requested but unavailable "
            f"({_failed.get(env, 'unknown error')}); falling back to numpy "
            "(numbers are identical, only speed differs)",
            RuntimeWarning,
            stacklevel=2,
        )
        return _numpy_backend
    warnings.warn(
        f"unknown REPRO_KERNELS={env!r} (known: {', '.join(_KNOWN)}); using numpy",
        RuntimeWarning,
        stacklevel=2,
    )
    return _numpy_backend


#: The active backend module.  Swapped by :func:`set_backend`; the
#: dispatch functions below always read it, so a swap takes effect for
#: every subsequent kernel call library-wide.
ACTIVE = _resolve_initial()


def backend_name() -> str:
    """Name of the active backend (``numpy`` | ``cffi``)."""
    return ACTIVE.name


def set_backend(name: str) -> str:
    """Activate a backend by name; returns the previously active name.

    Raises :class:`ValueError` for unknown names and :class:`RuntimeError`
    when the backend is known but not importable here — tests use this to
    run the same code paths under every available backend.
    """
    global ACTIVE
    previous = ACTIVE.name
    if name == "numpy":
        ACTIVE = _numpy_backend
        return previous
    mod = load_backend(name)
    if mod is None:
        raise RuntimeError(
            f"kernel backend {name!r} unavailable: {_failed.get(name, 'unknown')}"
        )
    ACTIVE = mod
    return previous


def knapsack_select_core(allotments, weights, m):
    """Dispatch: max-weight knapsack DP + reconstruction."""
    state = obs.ACTIVE
    if state is not None:
        state.count("kernel.dispatch." + ACTIVE.name)
        state.count("kernel.knapsack_select_calls")
        state.count("kernel.dp_cells", len(allotments) * (m + 1))
    return ACTIVE.knapsack_select_core(allotments, weights, m)


def knapsack_min_work_value_core(work_a, cost_a, work_b, m):
    """Dispatch: binary-choice min-work knapsack value."""
    state = obs.ACTIVE
    if state is not None:
        state.count("kernel.dispatch." + ACTIVE.name)
        state.count("kernel.min_work_value_calls")
        state.count("kernel.dp_cells", len(work_a) * (m + 1))
    return ACTIVE.knapsack_min_work_value_core(work_a, cost_a, work_b, m)


def knapsack_min_work_core(work_a, cost_a, work_b, m):
    """Dispatch: binary-choice min-work knapsack with reconstruction."""
    state = obs.ACTIVE
    if state is not None:
        state.count("kernel.dispatch." + ACTIVE.name)
        state.count("kernel.min_work_calls")
        state.count("kernel.dp_cells", len(work_a) * (m + 1))
    return ACTIVE.knapsack_min_work_core(work_a, cost_a, work_b, m)


def dual_sweep_core(times_matrix, lam):
    """Dispatch: one-λ dual-approximation sweep (minimal allotments and
    areas under ``lam`` and ``lam / 2``).  Not tallied here: its caller,
    the dual approximation's probe, counts and times every call."""
    return ACTIVE.dual_sweep_core(times_matrix, lam)


def row_floor_core(times_matrix):
    """Dispatch: every row's smallest time and smallest area ``k * p(k)``
    (the dual approximation's closed-form floors).  Not tallied: it runs
    once per instance, where :class:`~repro.core.instance.Instance`
    caches its floors."""
    return ACTIVE.row_floor_core(times_matrix)


def graham_starts_core(allotments, durations, m, start_time, cutoff):
    """Dispatch: Graham list-scheduling event loop."""
    state = obs.ACTIVE
    if state is not None:
        state.count("kernel.dispatch." + ACTIVE.name)
        state.count("kernel.graham_calls")
    return ACTIVE.graham_starts_core(allotments, durations, m, start_time, cutoff)


def fcfs_starts_core(releases, task_ids, allotments, durations, m, backfill, eps):
    """Dispatch: on-line FCFS / EASY dispatch event loop."""
    state = obs.ACTIVE
    if state is not None:
        state.count("kernel.dispatch." + ACTIVE.name)
        state.count("kernel.fcfs_calls")
    return ACTIVE.fcfs_starts_core(
        releases, task_ids, allotments, durations, m, backfill, eps
    )


def faulty_batch_core(
    now,
    task_ids,
    allotments,
    offsets,
    durations,
    cap_times,
    cap_machines,
    cap_deltas,
    cap_ptr,
    capacity,
    witnessed,
    eps,
):
    """Dispatch: execution of one planned batch under machine failures."""
    state = obs.ACTIVE
    if state is not None:
        state.count("kernel.dispatch." + ACTIVE.name)
        state.count("kernel.faulty_batch_calls")
    return ACTIVE.faulty_batch_core(
        now,
        task_ids,
        allotments,
        offsets,
        durations,
        cap_times,
        cap_machines,
        cap_deltas,
        cap_ptr,
        capacity,
        witnessed,
        eps,
    )


def swf_scan_core(buf, start, rows, spans):
    """Dispatch: scan whole SWF lines into record rows and comment spans,
    or ``None`` to decline.  Not tallied: its caller, the trace plane's
    :func:`~repro.workloads.trace.load_trace`, is the layer."""
    return ACTIVE.swf_scan_core(buf, start, rows, spans)
