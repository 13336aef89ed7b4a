"""Pure-NumPy kernel backend — the always-available reference.

These are the incumbent implementations of the DEMT inner loops, moved
verbatim from ``algorithms/knapsack.py``, ``core/profile.py`` and
``core/allotment.py`` (same float operations in the same order, so every
schedule and every feasibility decision is bit-identical to the
pre-kernel library), and the two event loops of the on-line simulator —
the FCFS / EASY dispatch loop of ``simulator/online.py`` and the
crash-and-restart execution of one batch of ``faults/failures.py`` — on
plain Python scalars in the form the C backend mirrors (same windows,
comparisons and float additions as the spine-driven loops they
replaced).  The compiled backend (:mod:`._cffi`) mirrors this float-op
order exactly; the differential suites in ``tests/kernels/`` pin the
backends against each other, against ``algorithms/reference.py`` and
against ``simulator/windowed.py``.

The one intentional change over the pre-kernel code is the knapsack
``keep`` matrix: the old code allocated a fresh ``n × (m+1)`` bool matrix
per call (quadratic transient memory at replay scale); here the keep bits
are built in a small rolling chunk and bit-packed into ``n × ceil((m+1)/8)``
bytes.  The bits themselves — and therefore the reconstruction — are
unchanged.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right, insort
from typing import NamedTuple

import numpy as np

from repro.exceptions import SchedulingError

__all__ = [
    "name",
    "knapsack_select_core",
    "knapsack_min_work_value_core",
    "knapsack_min_work_core",
    "dual_sweep_core",
    "row_floor_core",
    "graham_starts_core",
    "fcfs_starts_core",
    "faulty_batch_core",
    "swf_scan_core",
    "FaultyBatch",
    "check_faulty_batch_inputs",
    "check_swf_scan_inputs",
]

name = "numpy"

#: Rows of ``keep`` bits buffered before packing (keeps the unpacked
#: scratch at ``64 × (m+1)`` bools however large the item pool gets).
_KEEP_CHUNK = 64


def knapsack_select_core(
    allotments: np.ndarray, weights: np.ndarray, m: int
) -> tuple[list[int], float, int]:
    """Max-weight 0/1 knapsack DP + reconstruction (no short-circuits).

    ``allotments`` is int64, ``weights`` float64, both 1-D of the same
    length; the caller (``knapsack_select_indices``) has already handled
    the empty and take-all cases.
    """
    n = int(allotments.size)
    # best[q] = max weight using at most q processors, items 0..i.
    best = np.zeros(m + 1, dtype=np.float64)
    scratch = np.empty(m + 1, dtype=np.float64)
    # keep[i, q] = True iff item i is taken in the optimum for capacity q,
    # bit-packed row-wise (big-endian within a byte, np.packbits order).
    row_bytes = (m + 1 + 7) // 8
    packed = np.empty((n, row_bytes), dtype=np.uint8)
    chunk = np.zeros((_KEEP_CHUNK, m + 1), dtype=bool)

    alist = allotments.tolist()
    for base in range(0, n, _KEEP_CHUNK):
        hi = min(base + _KEEP_CHUNK, n)
        rows = chunk[: hi - base]
        rows.fill(False)
        for i in range(base, hi):
            a = alist[i]
            if a > m:
                continue  # can never fit; row of keep stays False
            candidate = scratch[: m + 1 - a]
            np.add(best[: m + 1 - a], weights[i], out=candidate)
            np.greater(candidate, best[a:], out=rows[i - base, a:])
            np.maximum(best[a:], candidate, out=best[a:])
        packed[base:hi] = np.packbits(rows, axis=1)

    # Reconstruct at the smallest capacity achieving the maximal weight
    # (fewest processors used for the same weight).  The comparison must be
    # exact: `best` is non-decreasing in the capacity, so `best[q] >= total`
    # already means equality, whereas a tolerance would accept a capacity
    # whose optimum is a *strictly lighter* selection when item weights
    # differ by less than the tolerance — the reconstruction would then not
    # reproduce the reported total.
    total = float(best[m])
    q = int(np.argmax(best >= total))
    data = packed.tobytes()  # flat row-major bytes; cheap Python-int bit tests
    chosen_idx: list[int] = []
    for i in range(n - 1, -1, -1):
        if (data[i * row_bytes + (q >> 3)] >> (7 - (q & 7))) & 1:
            chosen_idx.append(i)
            q -= alist[i]
    chosen_idx.reverse()
    used = sum(alist[i] for i in chosen_idx)
    return chosen_idx, total, used


def knapsack_min_work_value_core(
    work_a: np.ndarray, cost_a: np.ndarray, work_b: np.ndarray, m: int
) -> float:
    """Binary-choice min-work knapsack, value only (``cost_a`` int64)."""
    n = int(work_a.size)
    INF = np.inf
    dp = np.zeros(m + 1)
    via_a = np.empty(m + 1)
    via_b = np.empty(m + 1)
    wa_list = work_a.tolist()
    wb_list = work_b.tolist()
    cost_list = cost_a.tolist()
    for i in range(n):
        wa = wa_list[i]
        wb = wb_list[i]
        if wa >= wb:
            # Option A can never strictly win: dp is non-increasing in the
            # capacity, so via_a(q) = dp(q - c) + wa >= dp(q) + wb = via_b(q).
            np.add(dp, wb, out=dp)
            continue
        a_cost = cost_list[i]
        np.add(dp, wb, out=via_b)
        if a_cost <= m and math.isfinite(wa):
            via_a[:a_cost] = INF
            np.add(dp[: m + 1 - a_cost], wa, out=via_a[a_cost:])
        else:
            via_a[:] = INF
        np.minimum(via_a, via_b, out=dp)
    return float(dp[m])


def knapsack_min_work_core(
    work_a: np.ndarray, cost_a: np.ndarray, work_b: np.ndarray, m: int
) -> tuple[np.ndarray, float]:
    """Binary-choice min-work knapsack with reconstruction (``cost_a``
    int64, non-negative); ``(in_a, total)``, all-False and ``+inf`` when
    the total is not finite."""
    n = int(work_a.size)
    INF = np.inf
    # dp[q] = min work with big-shelf width exactly <= q.  The row loop is
    # inherently sequential, so the speed comes from reusing two scratch
    # buffers (no allocations inside the loop) and from collapsing the
    # select into an elementwise minimum: take_a = via_a < via_b makes
    # np.where(take_a, via_a, via_b) exactly min(via_a, via_b).
    dp = np.zeros(m + 1)
    choice = np.zeros((n, m + 1), dtype=bool)  # True = option A
    via_a = np.empty(m + 1)
    via_b = np.empty(m + 1)
    wa_list = work_a.tolist()
    wb_list = work_b.tolist()
    cost_list = cost_a.tolist()
    for i in range(n):
        wa = wa_list[i]
        wb = wb_list[i]
        if wa >= wb:
            # Option A can never strictly win: dp is non-increasing in the
            # capacity, so via_a(q) = dp(q - c) + wa >= dp(q) + wb = via_b(q).
            # The row collapses to a constant shift (and the strict `<` of
            # the full update leaves choice[i] all False).
            np.add(dp, wb, out=dp)
            continue
        a_cost = cost_list[i]
        np.add(dp, wb, out=via_b)
        if a_cost <= m and math.isfinite(wa):
            via_a[:a_cost] = INF
            np.add(dp[: m + 1 - a_cost], wa, out=via_a[a_cost:])
        else:
            via_a[:] = INF
        np.less(via_a, via_b, out=choice[i])
        np.minimum(via_a, via_b, out=dp)

    total = float(dp[m])
    if not math.isfinite(total):
        return np.zeros(n, dtype=bool), INF
    # Reconstruct from capacity m.
    q = m
    in_a = np.zeros(n, dtype=bool)
    for i in range(n - 1, -1, -1):
        if choice[i, q]:
            in_a[i] = True
            q -= cost_list[i]
    return in_a, total


def dual_sweep_core(
    times_matrix: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One dual-approximation sweep over the ``(n, m)`` time matrix.

    Returns ``(g_big, g_small, work_big, work_small)``: every task's
    minimal allotment (``0`` when none meets the deadline) and minimal
    area ``k * p(k)`` (``+inf`` when none) under ``lam`` and ``lam / 2``.
    The areas are formed once per call and shared by both deadlines.
    """
    ks = np.arange(1, times_matrix.shape[1] + 1, dtype=np.float64)
    areas = times_matrix * ks
    out = []
    for deadline in (lam, lam / 2.0):
        ok = times_matrix <= deadline
        # argmax returns 0 for all-False rows; mask those to 0 afterwards.
        allot = ok.argmax(axis=1) + 1
        allot[~ok.any(axis=1)] = 0
        work = np.min(areas, axis=1, where=ok, initial=np.inf)
        out.append((allot.astype(np.int64), work))
    (g_big, work_big), (g_small, work_small) = out
    return g_big, g_small, work_big, work_small


def row_floor_core(times_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row's smallest time and smallest area ``k * p(k)``.

    Returns ``(row_min_time, row_min_area)`` of the ``(n, m)`` time
    matrix: the closed-form floors of the dual approximation.  Like
    ``np.min``, raises :class:`ValueError` when ``m == 0``.
    """
    ks = np.arange(1, times_matrix.shape[1] + 1, dtype=np.float64)
    return np.min(times_matrix, axis=1), np.min(times_matrix * ks, axis=1)


def graham_starts_core(
    allotments,
    durations,
    m: int,
    start_time: float,
    cutoff: float | None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Graham list-scheduling event loop (see ``core/profile.graham_starts``)."""
    n = len(allotments)
    # The event loop runs on plain Python scalars: element reads/writes on
    # numpy arrays cost ~100ns each, which dominates at this granularity.
    dlist = np.asarray(durations, dtype=np.float64).tolist()
    alist = np.asarray(allotments).tolist() if not isinstance(allotments, list) else allotments
    starts = [0.0] * n

    # Pending items are bucketed by allotment value, each bucket keeping
    # its items in priority order.  "First pending item with allotment
    # <= free" is then the minimum of the bucket heads over the distinct
    # values <= free — a bisect plus a C-level min over a short list,
    # instead of rescanning the pending list.
    buckets: dict[int, list[int]] = {}
    for idx, a in enumerate(alist):
        buckets.setdefault(a, []).append(idx)
    values = sorted(buckets)  # distinct allotment values, ascending
    slot_of = {a: s for s, a in enumerate(values)}
    bucket_lists = [buckets[a] for a in values]
    cursors = [0] * len(values)
    heads = [b[0] for b in bucket_lists]  # per-slot next pending index (n = empty)

    order: list[int] = []
    free = int(m)
    now = float(start_time)
    heap: list[tuple[float, int]] = []  # (end_time, allotment) min-heap
    placed = 0

    while placed < n:
        # Burst phase: the free count only shrinks between two completion
        # events, so repeatedly taking the head of the cheapest-index
        # fitting bucket reproduces the textbook restart-from-the-head scan.
        while free > 0:
            cut = bisect_right(values, free)
            if cut == 0:
                break
            idx = heads[0] if cut == 1 else min(heads[:cut])
            if idx == n:
                break
            starts[idx] = now
            order.append(idx)
            a = alist[idx]
            heapq.heappush(heap, (now + dlist[idx], a))
            free -= a
            placed += 1
            slot = slot_of[a]
            bucket = bucket_lists[slot]
            cursor = cursors[slot] + 1
            cursors[slot] = cursor
            heads[slot] = bucket[cursor] if cursor < len(bucket) else n
        if placed == n:
            break
        if not heap:  # pragma: no cover - defensive; free == m yet nothing fits
            raise SchedulingError("graham kernel deadlocked (item larger than machine?)")
        # Advance to the next completion (plus simultaneous ones).
        end, allot = heapq.heappop(heap)
        free += allot
        now = end
        while heap and heap[0][0] <= now:
            _, a = heapq.heappop(heap)
            free += a
        if cutoff is not None and now > cutoff:
            return None
    return np.asarray(starts, dtype=np.float64), np.array(order, dtype=np.int64)


def fcfs_starts_core(
    releases,
    task_ids,
    allotments,
    durations,
    m: int,
    backfill: bool,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """On-line FCFS / EASY dispatch event loop (see
    ``simulator/online.FcfsOnlinePolicy``).

    Row ``j`` arrives at ``releases[j]`` and runs on ``allotments[j]``
    processors for ``durations[j]``.  Returns ``(rows, starts, depths)``:
    the rows in start order, their start times, and the number of events
    in each event window.
    """
    n = len(releases)
    # The arrival tape: rows sorted by (release, task id).
    tape = np.lexsort((task_ids, releases))
    tape_rows = tape.tolist()
    tape_times = np.asarray(releases, dtype=np.float64)[tape].tolist()
    alist = np.asarray(allotments).tolist()
    dlist = np.asarray(durations, dtype=np.float64).tolist()

    # The running jobs as (end, allotment), sorted.  With no cancellation
    # every running job has exactly one pending FINISH, so this one list
    # is both the FINISH queue (completions leave from its front) and the
    # end-time index the EASY bound walks.
    running: list[tuple[float, int]] = []
    waiting: list[int] = []  # rows in arrival order; -1 = backfilled
    head = 0
    tombstones = 0
    free = int(m)
    a = 0  # tape cursor
    rows: list[int] = []
    starts: list[float] = []
    depths: list[int] = []

    while a < n or running:
        # One window: every event within eps of the earliest one (anchored,
        # not chained).  FINISH events act before ARRIVAL events, and
        # `now` is the first event of the window sorted by (priority, time,
        # id): the earliest FINISH when there is one, not the window's
        # earliest event.
        t0 = tape_times[a] if a < n else math.inf
        if running and running[0][0] < t0:
            t0 = running[0][0]
        cut = t0 + eps
        f = 0
        while f < len(running) and running[f][0] <= cut:
            free += running[f][1]
            f += 1
        now = running[0][0] if f else t0
        del running[:f]
        a0 = a
        while a < n and tape_times[a] <= cut:
            waiting.append(tape_rows[a])
            a += 1
        depths.append(f + a - a0)

        # Dispatch once per window.  Backfilled jobs leave tombstones,
        # compacted away once they outnumber the live tail.
        if tombstones * 2 > len(waiting) - head:
            waiting = [r for r in waiting[head:] if r >= 0]
            head = 0
            tombstones = 0
        while head < len(waiting):
            r = waiting[head]
            if r < 0:  # backfilled earlier
                head += 1
                tombstones -= 1
                continue
            k = alist[r]
            if k <= free:
                insort(running, (now + dlist[r], k))
                free -= k
                rows.append(r)
                starts.append(now)
                head += 1
                continue
            if backfill and free:
                # EASY: the head's reservation is the earliest end at which
                # k processors are free; later jobs may start now only if
                # they finish by it.  Every allotment is >= 1, so there is
                # nothing to scan while no processor is free.
                avail = free
                for end, held in running:
                    avail += held
                    if avail >= k:
                        limit = end + eps
                        break
                else:  # pragma: no cover - k <= m always frees
                    raise SchedulingError(f"allotment {k} can never be satisfied")
                for i in range(head + 1, len(waiting)):
                    c = waiting[i]
                    if c >= 0 and alist[c] <= free and now + dlist[c] <= limit:
                        insort(running, (now + dlist[c], alist[c]))
                        free -= alist[c]
                        rows.append(c)
                        starts.append(now)
                        waiting[i] = -1
                        tombstones += 1
                        if not free:
                            break
            break

    if len(rows) != n:  # pragma: no cover - every start enqueues a completion
        raise SchedulingError("FCFS policy stalled with jobs waiting")
    return (
        np.array(rows, dtype=np.int64),
        np.array(starts, dtype=np.float64),
        np.array(depths, dtype=np.int64),
    )


#: Codes of the log records :func:`faulty_batch_core` returns
#: (``log_kinds``); ``log_refs`` holds the job id, the machine id for the
#: two machine records, and -1 for the batch marker.
LOG_BATCH_STARTED, LOG_STARTED, LOG_COMPLETED, LOG_CRASHED = 0, 1, 2, 3
LOG_MACHINE_DOWN, LOG_MACHINE_UP = 4, 5

#: Window priorities of the faulty batch loop: FINISH frees capacity,
#: then RESERVE capacity changes apply, then STARTs allocate.
_FINISH, _RESERVE, _START = 0, 1, 2


class FaultyBatch(NamedTuple):
    """One executed batch, as :func:`faulty_batch_core` returns it."""

    #: Plan rows that completed, in completion order, and their starts.
    done: np.ndarray
    done_starts: np.ndarray
    #: ``(time, job id)`` pushes back to the pending queue, in push order:
    #: jobs evicted by a capacity drop, and planned starts that did not fit.
    crash_times: np.ndarray
    crash_ids: np.ndarray
    defer_times: np.ndarray
    defer_ids: np.ndarray
    #: Capacity and capacity-trace cursor after the batch.
    capacity: int
    cap_ptr: int
    #: Latest instant witnessed (the batch end included) and the batch end.
    witnessed: float
    batch_end: float
    started_any: bool
    #: Events per window, and FINISH, RESERVE and START events popped.
    depths: np.ndarray
    transitions: tuple[int, int, int]
    #: The batch's log records, in log order.
    log_times: np.ndarray
    log_kinds: np.ndarray
    log_refs: np.ndarray


def check_faulty_batch_inputs(
    task_ids, allotments, offsets, durations, cap_times, cap_machines, cap_deltas, cap_ptr
) -> tuple[int, int]:
    """``(n, n_cap)`` of one :func:`faulty_batch_core` call, or
    :class:`ValueError` for inputs that could send the loop outside its
    buffers: plan or trace columns that are not 1-D or not of equal
    lengths, or a trace cursor outside ``[0, n_cap]``."""
    plan = {np.shape(c) for c in (task_ids, allotments, offsets, durations)}
    if len(plan) != 1 or len(next(iter(plan))) != 1:
        raise ValueError("task_ids, allotments, offsets and durations must be parallel 1-D")
    trace = {np.shape(c) for c in (cap_times, cap_machines, cap_deltas)}
    if len(trace) != 1 or len(next(iter(trace))) != 1:
        raise ValueError("cap_times, cap_machines and cap_deltas must be parallel 1-D")
    n, n_cap = len(task_ids), len(cap_times)
    if not 0 <= cap_ptr <= n_cap:
        raise ValueError(f"cap_ptr must lie in [0, {n_cap}], got {cap_ptr}")
    return n, n_cap


def _window_key(event: tuple) -> tuple:
    return event[1], event[0], event[2]


def faulty_batch_core(
    now: float,
    task_ids,
    allotments,
    offsets,
    durations,
    cap_times,
    cap_machines,
    cap_deltas,
    cap_ptr: int,
    capacity: int,
    witnessed: float,
    eps: float,
) -> FaultyBatch:
    """Execute one planned batch under machine failures (see
    ``faults/failures.FaultyBatchPolicy``).

    Plan row ``i`` (job ``task_ids[i]``) STARTs at ``now + offsets[i]`` on
    ``allotments[i]`` processors and FINISHes ``durations[i]`` (its true
    duration) later.  The capacity changes ``cap_ptr`` onwards of the
    sorted failure trace ``(cap_times, cap_machines, cap_deltas)``, up to
    the batch horizon, are RESERVE events.  Events are drained in windows
    of width ``eps`` anchored at their earliest event, each sorted by
    (priority, time, id): FINISH, then RESERVE, then START.  A START that
    does not fit the current capacity is deferred; a capacity drop evicts
    running jobs LIFO (latest start, then largest id), whose FINISH then
    stays queued as a stale event that still anchors a window.  Every
    popped window is processed to its end, also after the batch's last
    job resolved.
    """
    n, n_cap = check_faulty_batch_inputs(
        task_ids, allotments, offsets, durations, cap_times, cap_machines, cap_deltas, cap_ptr
    )
    now = float(now)
    jids = np.asarray(task_ids).tolist()
    ks = np.asarray(allotments).tolist()
    offs = np.asarray(offsets, dtype=np.float64).tolist()
    durs = np.asarray(durations, dtype=np.float64).tolist()
    cap_ptr = int(cap_ptr)
    capacity = int(capacity)
    witnessed = float(witnessed)

    # Heap entries are (time, priority, id, plan row); the first three are
    # unique, so the plan row never decides an order.
    heap: list[tuple] = []
    horizon = now
    for i in range(n):
        s = now + offs[i]
        heap.append((s, _START, jids[i], i))
        end = s + durs[i]
        if end > horizon:
            horizon = end
    e = cap_ptr
    while e < n_cap and float(cap_times[e]) <= horizon + eps:
        heap.append((float(cap_times[e]), _RESERVE, e, -1))
        e += 1
    heapq.heapify(heap)

    state = [0] * n  # 0 planned, 1 running, 2 resolved
    run_start = [0.0] * n
    running: dict[int, None] = {}  # plan rows of the running jobs
    used = 0
    unresolved = n
    started_any = False
    batch_end = now
    done: list[int] = []
    done_starts: list[float] = []
    crash_t: list[float] = []
    crash_ids: list[int] = []
    defer_t: list[float] = []
    defer_ids: list[int] = []
    depths: list[int] = []
    counts = [0, 0, 0]
    log_t = [now]
    log_k = [LOG_BATCH_STARTED]
    log_r = [-1]

    while unresolved > 0:
        if not heap:  # pragma: no cover - every start is queued
            raise SchedulingError("faulty batch simulation stalled")
        window = [heapq.heappop(heap)]
        cut = window[0][0] + eps
        while heap and heap[0][0] <= cut:
            window.append(heapq.heappop(heap))
        if len(window) > 1:
            window.sort(key=_window_key)
        depths.append(len(window))
        for t, prio, ident, i in window:
            counts[prio] += 1
            if prio == _RESERVE:
                if ident != cap_ptr:  # pragma: no cover - applied in order
                    continue
                delta = int(cap_deltas[cap_ptr])
                capacity += delta
                if t > witnessed:
                    witnessed = t
                log_t.append(t)
                log_k.append(LOG_MACHINE_UP if delta > 0 else LOG_MACHINE_DOWN)
                log_r.append(int(cap_machines[cap_ptr]))
                cap_ptr += 1
                if t > batch_end:
                    batch_end = t
                while used > capacity and running:
                    victim = max(running, key=lambda r: (run_start[r], jids[r]))
                    del running[victim]
                    state[victim] = 2
                    used -= ks[victim]
                    crash_t.append(t)
                    crash_ids.append(jids[victim])
                    log_t.append(t)
                    log_k.append(LOG_CRASHED)
                    log_r.append(jids[victim])
                    unresolved -= 1
                continue
            if prio == _FINISH:
                if state[i] != 1:
                    continue  # crashed after this FINISH was queued
                state[i] = 2
                del running[i]
                used -= ks[i]
                done.append(i)
                done_starts.append(run_start[i])
                log_t.append(t)
                log_k.append(LOG_COMPLETED)
                log_r.append(ident)
                unresolved -= 1
                if t > batch_end:
                    batch_end = t
                continue
            # A planned start: allocate if it fits the *current* capacity,
            # else defer the job to a later batch.
            k = ks[i]
            if k <= capacity - used:
                state[i] = 1
                run_start[i] = t
                running[i] = None
                used += k
                heapq.heappush(heap, (t + durs[i], _FINISH, ident, i))
                started_any = True
                log_t.append(t)
                log_k.append(LOG_STARTED)
                log_r.append(ident)
            else:
                state[i] = 2
                defer_t.append(t)
                defer_ids.append(ident)
                unresolved -= 1
                if t > batch_end:
                    batch_end = t

    if batch_end > witnessed:
        witnessed = batch_end
    return FaultyBatch(
        np.array(done, dtype=np.int64),
        np.array(done_starts, dtype=np.float64),
        np.array(crash_t, dtype=np.float64),
        np.array(crash_ids, dtype=np.int64),
        np.array(defer_t, dtype=np.float64),
        np.array(defer_ids, dtype=np.int64),
        capacity,
        cap_ptr,
        witnessed,
        batch_end,
        started_any,
        np.array(depths, dtype=np.int64),
        tuple(counts),
        np.array(log_t, dtype=np.float64),
        np.array(log_k, dtype=np.int64),
        np.array(log_r, dtype=np.int64),
    )


def check_swf_scan_inputs(buf, start: int, rows: np.ndarray, spans: np.ndarray) -> memoryview:
    """The byte view of one :func:`swf_scan_core` call, or
    :class:`ValueError` for inputs that could send the scan outside its
    buffers: a buffer that is not one contiguous run of bytes ending in a
    newline, a start outside it, or ``rows`` / ``spans`` that are not
    writeable C-contiguous ``(k, 6) float64`` / ``(k, 2) int64`` arrays
    with ``k >= 1``."""
    view = memoryview(buf)
    if view.ndim != 1 or view.itemsize != 1 or not view.c_contiguous:
        raise ValueError("buf must be a contiguous 1-D byte buffer")
    if len(view) and view[-1:].tobytes() != b"\n":
        raise ValueError("buf must end with a newline")
    if not 0 <= start <= len(view):
        raise ValueError(f"start must lie in [0, {len(view)}], got {start}")
    for label, arr, dtype, width in (("rows", rows, np.float64, 6), ("spans", spans, np.int64, 2)):
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == dtype
            and arr.ndim == 2
            and arr.shape[0] >= 1
            and arr.shape[1] == width
            and arr.flags.c_contiguous
            and arr.flags.writeable
        ):
            raise ValueError(
                f"{label} must be a writeable C-contiguous (k >= 1, {width}) "
                f"{np.dtype(dtype).name} array"
            )
    return view


def swf_scan_core(
    buf, start: int, rows: np.ndarray, spans: np.ndarray
) -> tuple[int, int, int] | None:
    """Scan whole SWF lines of ``buf`` from byte ``start`` into ``rows``
    (fields 0, 1, 2, 3, 4 and 7 of each record) and ``spans`` (the byte
    range of each ``;`` comment line), stopping before a line either has
    no room for; ``(rows filled, spans filled, offset reached)``, or
    ``None`` to decline.

    This backend always declines: the line path of
    :mod:`repro.workloads.trace` is the reference parse, so declining
    hands every load to it.  The compiled backend scans in C and
    declines wherever the line path could read the bytes differently.
    """
    check_swf_scan_inputs(buf, start, rows, spans)
    return None
