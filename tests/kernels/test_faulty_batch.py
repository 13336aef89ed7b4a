"""The faulty batch execution kernel, :func:`repro.kernels.faulty_batch_core`.

Four layers pin it:

* **Behaviours** — a crashed job's stale FINISH anchors a window and
  completes nothing, a capacity drop with nothing running evicts
  nothing, a restarted job completes at its new end, and evictions go
  LIFO by (start, id).  These were the event spine's ``cancel`` /
  ``evict_latest`` tests before the faulty loop left the spine.
* **Tie-heavy differential fuzz** — plan offsets, true durations,
  releases and capacity events on an integer grid with sub-``TIME_EPS``
  jitter, so FINISH, RESERVE and START share windows, evictions meet
  equal starts and STARTs fit exactly: :class:`FaultyBatchPolicy` on
  every backend against the windowed oracle
  :class:`~repro.simulator.windowed.WindowedFaultyBatchPolicy`, and the
  raw kernel outputs of every backend against the NumPy reference.
* **The restart budget** — an overflow raises the same error on every
  backend and in the oracle.
* **Input checks** — every backend rejects columns that could send the
  loop outside its buffers, each case in its own interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import SchedulingError
from repro.faults.failures import FailureTrace, FaultyBatchPolicy
from repro.kernels import same_faulty_batch
from repro.simulator.events import EventKind
from repro.simulator.windowed import WindowedFaultyBatchPolicy

BACKENDS = kernels.available_backend_names()
NUMPY = kernels.load_backend("numpy")
MODULES = tuple(kernels.load_backend(n) for n in BACKENDS)

#: Sub-TIME_EPS jitter around the integer grid: +-0.4e-9 stays in an
#: anchored window, 0.6e-9 joins it or not depending on its anchor.
_JITTER = (0.0, 0.4e-9, -0.4e-9, 0.6e-9)


def _batch(jobs, cap=(), *, now=0.0, cap_ptr=0, capacity=4, witnessed=0.0):
    """Kernel arguments: ``jobs`` as ``(id, allotment, offset, duration)``,
    ``cap`` as ``(time, machine, delta)``."""
    cols = list(zip(*jobs)) if jobs else [(), (), (), ()]
    caps = list(zip(*cap)) if cap else [(), (), ()]
    return (
        now,
        np.array(cols[0], dtype=np.int64),
        np.array(cols[1], dtype=np.int64),
        np.array(cols[2], dtype=np.float64),
        np.array(cols[3], dtype=np.float64),
        np.array(caps[0], dtype=np.float64),
        np.array(caps[1], dtype=np.int64),
        np.array(caps[2], dtype=np.int64),
        cap_ptr,
        capacity,
        witnessed,
        TIME_EPS,
    )


def _run_all(args):
    """Every backend's result, asserted identical to the reference's."""
    ref = NUMPY.faulty_batch_core(*args)
    for mod in MODULES:
        assert same_faulty_batch(mod.faulty_batch_core(*args), ref), mod.name
    return ref


# --------------------------------------------------------------------- #
# Behaviours                                                            #
# --------------------------------------------------------------------- #
class TestBehaviours:
    def test_stale_finish_anchors_a_window_and_completes_nothing(self):
        # Job 1 starts at 0 on all 4 processors; a machine down at 1
        # evicts it.  Its FINISH at 10 is still queued: the window it
        # anchors is popped (job 2 is unresolved until 12) but completes
        # nothing, and the job's lost work is no completion.
        res = _run_all(_batch(
            [(1, 4, 0.0, 10.0), (2, 1, 12.0, 1.0)],
            [(1.0, 0, -1), (11.0, 0, 1)],
        ))
        assert res.crash_ids.tolist() == [1] and res.crash_times.tolist() == [1.0]
        assert res.done.tolist() == [1] and res.done_starts.tolist() == [12.0]
        assert res.transitions == (2, 2, 2)
        assert res.depths.tolist() == [1, 1, 1, 1, 1, 1]  # 0, 1, 10 (stale), 11, 12, 13
        completed = res.log_refs[res.log_kinds == kernels.LOG_COMPLETED]
        assert completed.tolist() == [2]

    def test_drop_with_nothing_running_evicts_nothing(self):
        res = _run_all(_batch([(7, 2, 2.0, 1.0)], [(1.0, 3, -1), (5.0, 3, 1)]))
        assert res.crash_ids.size == 0 and res.defer_ids.size == 0
        assert res.done.tolist() == [0] and res.capacity == 3 and res.cap_ptr == 1
        assert res.log_kinds.tolist() == [
            kernels.LOG_BATCH_STARTED, kernels.LOG_MACHINE_DOWN,
            kernels.LOG_STARTED, kernels.LOG_COMPLETED,
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restarted_job_completes_at_its_new_end(self, backend):
        # One job on both machines: crashed at 1 by machine 0 going down,
        # deferred at 1 (one machine left), restarted when it is back at
        # 5.  Its first attempt's FINISH at 10 completes nothing.
        inst = Instance.from_arrays(
            np.array([[20.0, 10.0]]), None, np.array([0.0]), 2, task_ids=np.array([3])
        )
        trace = FailureTrace(m=2, horizon=6.0, events=((1.0, 0, -1), (5.0, 0, 1)))
        previous = kernels.set_backend(backend)
        try:
            res = FaultyBatchPolicy(_pinned_engine({3: (0.0, 2)}), failures=trace).run(inst)
        finally:
            kernels.set_backend(previous)
        (p,) = res.schedule.placements
        assert (p.start, p.allotment, p.end) == (5.0, 2, 15.0)
        assert res.crashes == 1 and res.deferrals == 1
        assert res.batch_starts == (0.0, 1.0, 5.0)
        assert res.log.start_of(3).time == 5.0
        assert res.log.completion_of(3).time == 15.0
        assert [e.time for e in res.log.of_kind(EventKind.CRASHED)] == [1.0]

    def test_eviction_is_lifo_by_start_then_id(self):
        # One capacity event takes all six processors: the victims go by
        # latest start, the largest id breaking the tie at 3.
        res = _run_all(_batch(
            [(1, 2, 0.0, 10.0), (5, 2, 3.0, 10.0), (4, 2, 3.0, 10.0)],
            [(4.0, 0, -6), (6.0, 0, 6)],
            capacity=6,
        ))
        assert res.crash_ids.tolist() == [5, 4, 1]
        assert res.crash_times.tolist() == [4.0, 4.0, 4.0]
        assert res.capacity == 0 and res.cap_ptr == 1


# --------------------------------------------------------------------- #
# Tie-heavy differential fuzz                                           #
# --------------------------------------------------------------------- #
def _pinned_engine(plan):
    """An off-line engine that places task ``id`` at ``plan[id] = (offset,
    allotment)``, whatever the batch: plans that overlap beyond capacity,
    and STARTs at exact grid ties, on purpose."""

    def engine(sub: Instance) -> Schedule:
        out = Schedule(sub.m)
        ids = sub.task_ids.tolist()
        offsets = np.array([plan[t][0] for t in ids], dtype=np.float64)
        ks = np.array([plan[t][1] for t in ids], dtype=np.int64)
        rows = np.arange(sub.n)
        out.add_rows(sub, rows, offsets, ks, sub.times_matrix[rows, ks - 1])
        return out

    return engine


def _grid(draw, lo, hi):
    return draw(st.integers(lo, hi)) + draw(st.sampled_from(_JITTER))


@st.composite
def _faulty_cases(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 6))
    ids = [3 * i + 1 for i in draw(st.permutations(range(n)))]
    times = np.array(
        [[_grid(draw, 1, 4) for _ in range(m)] for _ in range(n)], dtype=np.float64
    )
    releases = np.array([max(0.0, _grid(draw, 0, 4)) for _ in range(n)])
    plan = {
        tid: (max(0.0, _grid(draw, 0, 4)), draw(st.integers(1, m))) for tid in ids
    }
    events = []
    for mach in range(m):
        t = 0.0
        for _ in range(draw(st.integers(0, 3))):
            down = t + _grid(draw, 1, 4)
            up = down + _grid(draw, 1, 3)
            events += [(down, mach, -1), (up, mach, 1)]
            t = up
    events.sort()
    horizon = max([1.0] + [e[0] for e in events])
    inst = Instance.from_arrays(times, None, releases, m, task_ids=np.array(ids))
    return inst, plan, FailureTrace(m=m, horizon=horizon, events=tuple(events))


def _outcome(policy, inst):
    """Everything a faulty run reports, floats as exact reprs, or the
    :class:`SchedulingError` it raised (a plan beyond the restart budget).
    Any other error fails the test: a START up to ``TIME_EPS`` before a
    RESERVE in its window is logged after the capacity change, and the
    log must accept every order a window produces."""
    try:
        res = policy.run(inst)
    except SchedulingError as exc:
        return type(exc), str(exc)
    return (
        [(p.task.task_id, repr(p.start), p.allotment, repr(p.duration))
         for p in res.schedule.placements],
        [repr(t) for t in res.batch_starts],
        res.batch_contents,
        res.crashes,
        res.deferrals,
        [(repr(e.time), e.kind, e.job_id, e.procs) for e in res.log],
    )


@given(case=_faulty_cases())
@settings(max_examples=150, deadline=None)
def test_policy_matches_windowed_oracle_on_every_backend(case):
    inst, plan, trace = case
    engine = _pinned_engine(plan)
    want = _outcome(WindowedFaultyBatchPolicy(engine, failures=trace), inst)
    for name in BACKENDS:
        previous = kernels.set_backend(name)
        try:
            got = _outcome(FaultyBatchPolicy(engine, failures=trace), inst)
        finally:
            kernels.set_backend(previous)
        assert got == want, name


@pytest.mark.parametrize("runner", BACKENDS + ("windowed",))
def test_start_logged_after_far_edge_reserve(runner):
    # The window anchored at job 2's START admits machine 1's RESERVE
    # 1e-9 later and handles it first, so the log holds the START after
    # it; (t0 + eps) - eps rounds above t0, which the log's old check
    # rejected.  The drop evicts job 1; job 2 fits on what is left.
    inst = Instance.from_arrays(
        np.array([[3.0] * 3, [1.0] * 3]), None, np.zeros(2), 3, task_ids=np.array([1, 2])
    )
    engine = _pinned_engine({1: (0.0, 3), 2: (0.9999999996, 1)})
    trace = FailureTrace(
        m=3, horizon=2.0000000006,
        events=((1.0000000006, 1, -1), (2.0000000006, 1, 1)),
    )
    if runner == "windowed":
        res = WindowedFaultyBatchPolicy(engine, failures=trace).run(inst)
    else:
        previous = kernels.set_backend(runner)
        try:
            res = FaultyBatchPolicy(engine, failures=trace).run(inst)
        finally:
            kernels.set_backend(previous)
    assert (res.crashes, res.deferrals) == (1, 0)
    assert [(p.task.task_id, p.start, p.allotment) for p in res.schedule.placements] == [
        (2, 0.9999999996, 1), (1, 2.0000000006, 3),
    ]
    assert [(e.time, e.kind.value, e.job_id) for e in res.log][2:5] == [
        (1.0000000006, "machine_down", -1),
        (1.0000000006, "crashed", 1),
        (0.9999999996, "started", 2),
    ]


@st.composite
def _raw_batches(draw):
    """Raw kernel inputs on the tie grid, beyond what the policy passes:
    multi-machine capacity deltas, a trace cursor mid-trace, a capacity
    already below the plan's needs."""
    n = draw(st.integers(0, 14))
    ids = [2 * i + 1 for i in draw(st.permutations(range(n)))]
    jobs = [
        (tid, draw(st.integers(1, 5)), max(0.0, _grid(draw, 0, 5)), _grid(draw, 1, 4))
        for tid in ids
    ]
    cap = sorted(
        (max(0.0, _grid(draw, 0, 9)), draw(st.integers(0, 7)), draw(st.sampled_from([-3, -1, 1, 2])))
        for _ in range(draw(st.integers(0, 10)))
    )
    return _batch(
        jobs,
        cap,
        now=float(draw(st.sampled_from([0.0, 0.5, 1.0 - 0.4e-9]))),
        cap_ptr=draw(st.integers(0, len(cap))),
        capacity=draw(st.integers(-1, 8)),
        witnessed=draw(st.sampled_from([0.0, 2.0])),
    )


@given(args=_raw_batches())
@settings(max_examples=300, deadline=None)
def test_raw_kernel_outputs_identical_across_backends(args):
    res = _run_all(args)
    n = len(args[1])
    # Every job resolves exactly once: completed, evicted or deferred.
    assert len(res.done) + len(res.crash_ids) + len(res.defer_ids) == n
    assert int(res.depths.sum()) == sum(res.transitions)


def _crash_loop():
    """One job of length 3 on the only machine, which fails at 1, 3 and 5
    and is back one time unit later each time."""
    inst = Instance.from_arrays(
        np.array([[3.0]]), None, np.array([0.0]), 1, task_ids=np.array([9])
    )
    events = []
    for i in range(3):
        events += [(2.0 * i + 1.0, 0, -1), (2.0 * i + 2.0, 0, 1)]
    return inst, FailureTrace(m=1, horizon=6.0, events=tuple(events))


def test_restart_budget_overflow_raises_the_same_error():
    inst, trace = _crash_loop()
    engine = _pinned_engine({9: (0.0, 1)})
    errors = []
    with pytest.raises(SchedulingError) as oracle:
        WindowedFaultyBatchPolicy(engine, failures=trace, max_restarts=2).run(inst)
    errors.append(str(oracle.value))
    for name in BACKENDS:
        previous = kernels.set_backend(name)
        try:
            with pytest.raises(SchedulingError) as got:
                FaultyBatchPolicy(engine, failures=trace, max_restarts=2).run(inst)
        finally:
            kernels.set_backend(previous)
        errors.append(str(got.value))
    assert errors == ["job 9 crashed more than 2 times"] * len(errors)
    # One more restart allowed: the job completes after its third crash.
    res = FaultyBatchPolicy(engine, failures=trace, max_restarts=3).run(inst)
    assert res.crashes == 3 and res.schedule[9].start == 6.0


# --------------------------------------------------------------------- #
# Input checks                                                          #
# --------------------------------------------------------------------- #
#: Arguments that could send the loop outside its buffers, each a
#: replacement of the good call's arguments by position.
_BAD_INPUTS = {
    "short-allotments": {2: "np.array([1])"},
    "short-offsets": {3: "np.zeros(1)"},
    "short-durations": {4: "np.ones(3)"},
    "empty-rows-durations": {4: "np.ones((2, 0))"},
    "two-column-cap-times": {5: "np.zeros((2, 2))"},
    "short-cap-machines": {6: "np.array([0])"},
    "short-cap-deltas": {7: "np.array([-1, 1, 1])"},
    "negative-cap-ptr": {8: "-1"},
    "cap-ptr-past-end": {8: "3"},
}


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_input_checks_reject_buffer_overruns(backend):
    """Each bad call runs in a fresh interpreter: a kernel that trusted it
    could read or write outside its buffers and kill the process, which
    must fail this test rather than pytest."""
    if kernels.load_backend(backend) is None:
        pytest.skip(f"{backend} backend unavailable here")
    good = [
        "0.0", "np.array([1, 2])", "np.array([1, 1])", "np.zeros(2)", "np.ones(2)",
        "np.array([0.5, 1.0])", "np.array([0, 0])", "np.array([-1, 1])",
        "0", "2", "0.0", "1e-9",
    ]
    lines = [
        "import numpy as np",
        "from repro import kernels",
        f"kernels.set_backend({backend!r})",
        f"kernels.faulty_batch_core({', '.join(good)})",
    ]
    for case, patch in _BAD_INPUTS.items():
        args = [patch.get(i, a) for i, a in enumerate(good)]
        lines += [
            "try:",
            f"    kernels.faulty_batch_core({', '.join(args)})",
            "except ValueError:",
            f"    print('rejected {case}')",
            "else:",
            f"    print('accepted {case}')",
        ]
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.split("\n")[:-1] == [f"rejected {c}" for c in _BAD_INPUTS]
