"""Crash tolerance of the campaign engine (Layer 2 of the fault plane).

Pinned here:

* :class:`RetryPolicy` — validation, deterministic backoff jitter;
* retry and quarantine semantics in all three backends (a failing cell
  costs retries, an always-failing cell becomes a :class:`CellFailure` /
  :attr:`CellOutcome.error`, never an abort);
* worker-death recovery: an injected hard crash (``REPRO_INJECT_CRASH``)
  breaks the pool, the cell is retried, and the final results are
  bit-identical to a serial run, also when the pool breaks before its
  round is fully submitted;
* per-cell timeouts: the process backend kills the hung worker's pool;
  the thread backend marks the cell failed and abandons the worker
  thread (threads cannot be killed) — either way the cell quarantines
  and nobody waits for the full hang;
* a pool that keeps dying degrades to in-process execution and still
  completes every cell;
* the timeout holds on every attempt of a pool backend under a policy:
  at ``jobs == 1``, for a single cell, after earlier timeouts (which are
  no pool deaths), and for thread cells queued behind a hung one (they
  are requeued, not charged);
* one fan-out under three backends: the same failing items give equal
  results, attempt counts, ``[engine]`` lines and obs counters;
* :func:`default_worker_count` honours the scheduler affinity mask and
  falls back to ``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.experiments.engine import (
    CellFailure,
    CellKey,
    CellRecord,
    CellFamily,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    ThreadBackend,
    default_worker_count,
    execute_cells,
    resolve_backend,
)


# -- module-level workers (picklable for the process backend) ----------- #
def _double(x):
    return x * 2


def _fail_if_negative(x):
    if x < 0:
        raise ValueError(f"bad item {x}")
    return x * 2


def _always_fail(x):
    raise RuntimeError("poison cell")


def _fail_until_marker(args):
    """Fail while the marker file does not exist, creating it on the way."""
    x, marker = args
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("first attempt fails")
    return x * 2


def _die_in_pool(x):
    """Hard-exit when running inside a pool worker; succeed in-process."""
    if multiprocessing.parent_process() is not None:
        os._exit(17)
    return x * 2


def _hang_if_zero(x):
    if x == 0:
        time.sleep(60.0)
    return x * 2


def _nap_if_zero(x):
    """Finite hang for the thread backend: the abandoned worker thread
    survives its timeout and must finish before interpreter shutdown."""
    if x == 0:
        time.sleep(3.0)
    return x * 2


def _nap_if_below_two(x):
    """Two finite hangs (items 0 and 1) ahead of a healthy item 2."""
    if x < 2:
        time.sleep(3.0)
    return x * 2


def _flaky(args):
    """Fail for good on a negative item, and once per marker path."""
    x, marker = args
    if x < 0:
        raise ValueError(f"bad item {x}")
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("first attempt fails")
    return x * 2


class _BreaksMidSubmission(ProcessPoolExecutor):
    """A process pool whose second submit waits, once while ``armed``,
    until the first cell's worker death has broken the pool."""

    armed = False

    def submit(self, fn, /, *args, **kwargs):
        if type(self).armed and getattr(self, "_submits", 0) == 1:
            type(self).armed = False
            deadline = time.monotonic() + 10.0
            while not self._broken and time.monotonic() < deadline:
                time.sleep(0.01)
        self._submits = getattr(self, "_submits", 0) + 1
        return super().submit(fn, *args, **kwargs)


class _SubmitRaceBackend(ProcessBackend):
    executor = _BreaksMidSubmission


def _observed_map(backend, fn, items, capsys):
    """``backend.map`` with fresh obs counters; returns the results, the
    sorted ``[engine]`` stderr lines and the three crash counters."""
    capsys.readouterr()
    state = obs.enable(fresh=True)
    try:
        out = backend.map(fn, items)
    finally:
        obs.disable()
    lines = sorted(
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("[engine]")
    )
    counts = {
        name: state.counters.get(name, 0)
        for name in ("cells.retries", "cells.quarantined", "cells.timeouts")
    }
    return out, lines, counts


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0.0)

    def test_attempts(self):
        assert RetryPolicy(retries=0).attempts == 1
        assert RetryPolicy(retries=3).attempts == 4

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff=0.1)
        for attempt in (1, 2, 3):
            for index in range(20):
                d = policy.delay(attempt, index)
                assert d == policy.delay(attempt, index)
                base = 0.1 * 2 ** (attempt - 1)
                assert base <= d < 1.5 * base

    def test_resolve_backend_attaches_policy(self):
        policy = RetryPolicy(retries=1)
        assert resolve_backend(None, policy=policy).policy is policy
        assert resolve_backend("serial", policy=policy).policy is policy
        assert resolve_backend("process", 2, policy).policy is policy

    def test_resolve_backend_passes_instances_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend, policy=RetryPolicy()) is backend


class TestSerialResilience:
    def test_no_policy_propagates(self):
        with pytest.raises(ValueError):
            SerialBackend().map(_fail_if_negative, [1, -1])

    def test_quarantine_without_abort(self, capsys):
        backend = SerialBackend(RetryPolicy(retries=1, backoff=0.0))
        out = backend.map(_fail_if_negative, [1, -1, 3])
        assert out[0] == 2 and out[2] == 6
        assert isinstance(out[1], CellFailure)
        assert out[1].attempts == 2
        assert "quarantined after 2 attempts" in capsys.readouterr().err

    def test_retry_succeeds_after_transient_failure(self, tmp_path, capsys):
        backend = SerialBackend(RetryPolicy(retries=2, backoff=0.0))
        marker = str(tmp_path / "marker")
        out = backend.map(_fail_until_marker, [(21, marker)])
        assert out == [42]
        assert "retrying in" in capsys.readouterr().err


class TestProcessResilience:
    def test_worker_exception_is_retried_then_quarantined(self, capsys):
        backend = ProcessBackend(jobs=2, policy=RetryPolicy(retries=1, backoff=0.0))
        out = backend.map(_fail_if_negative, [1, -2, 3, 4])
        assert out[0] == 2 and out[2] == 6 and out[3] == 8
        assert isinstance(out[1], CellFailure)
        err = capsys.readouterr().err
        assert "retrying in" in err and "quarantined" in err

    def test_injected_worker_death_is_survived(self, tmp_path, monkeypatch, capsys):
        marker = tmp_path / "markers"
        marker.mkdir()
        monkeypatch.setenv("REPRO_INJECT_CRASH", str(marker))
        monkeypatch.setenv("REPRO_INJECT_CRASH_COUNT", "1")
        backend = ProcessBackend(jobs=2, policy=RetryPolicy(retries=2, backoff=0.0))
        out = backend.map(_double, list(range(6)))
        assert out == [x * 2 for x in range(6)]
        assert (marker / "crash-0").exists()
        assert "pool broken" in capsys.readouterr().err

    def test_worker_death_during_submission_is_survived(
        self, tmp_path, monkeypatch, capsys
    ):
        """A worker that dies before its round is fully submitted makes
        ``submit`` raise ``BrokenProcessPool``: the unsent cells are
        requeued instead of the error aborting ``map``."""
        marker = tmp_path / "markers"
        marker.mkdir()
        monkeypatch.setenv("REPRO_INJECT_CRASH", str(marker))
        monkeypatch.setenv("REPRO_INJECT_CRASH_COUNT", "1")
        monkeypatch.setattr(_BreaksMidSubmission, "armed", True)
        backend = _SubmitRaceBackend(
            jobs=2, policy=RetryPolicy(retries=2, backoff=0.0)
        )
        out = backend.map(_double, list(range(6)))
        assert out == [x * 2 for x in range(6)]
        assert not _BreaksMidSubmission.armed  # the second submit waited
        assert "pool broken" in capsys.readouterr().err

    def test_timeout_kills_and_quarantines_the_hung_cell(self, capsys):
        backend = ProcessBackend(
            jobs=2, policy=RetryPolicy(retries=0, backoff=0.0, timeout=1.0)
        )
        start = time.monotonic()
        out = backend.map(_hang_if_zero, [0, 1, 2])
        assert time.monotonic() - start < 30.0  # nobody waited for the sleep
        assert isinstance(out[0], CellFailure)
        assert "timed out" in out[0].message
        assert out[1] == 2 and out[2] == 4
        assert "quarantined" in capsys.readouterr().err

    def test_repeated_pool_death_degrades_to_serial(self, capsys):
        backend = ProcessBackend(jobs=2, policy=RetryPolicy(retries=5, backoff=0.0))
        out = backend.map(_die_in_pool, [1, 2, 3])
        assert out == [2, 4, 6]  # completed in-process after degradation
        assert "degrading to serial execution" in capsys.readouterr().err

    def test_no_policy_propagates(self):
        with pytest.raises(ValueError):
            ProcessBackend(jobs=2).map(_fail_if_negative, [1, -1])

    def test_timeout_holds_at_one_worker(self, capsys):
        """Under a policy ``jobs == 1`` still runs a (one-worker) pool,
        so the timeout is enforced instead of waiting out the nap."""
        backend = ProcessBackend(
            jobs=1, policy=RetryPolicy(retries=0, backoff=0.0, timeout=0.5)
        )
        start = time.monotonic()
        out = backend.map(_nap_if_zero, [0, 1])
        assert time.monotonic() - start < 2.5
        assert isinstance(out[0], CellFailure)
        assert "timed out" in out[0].message
        assert out[1] == 2

    def test_timeouts_are_not_pool_deaths(self, capsys):
        """Every attempt of a hung cell times out, however many pools the
        kills cost: it quarantines after all four attempts instead of
        degrading to an in-process run with no timeout."""
        backend = ProcessBackend(
            jobs=2, policy=RetryPolicy(retries=3, backoff=0.0, timeout=0.5)
        )
        out = backend.map(_nap_if_zero, [0, 1, 2])
        assert isinstance(out[0], CellFailure)
        assert out[0].attempts == 4
        assert out[1] == 2 and out[2] == 4
        assert "degrading" not in capsys.readouterr().err

    def test_serial_and_process_agree_under_policy(self):
        policy = RetryPolicy(retries=1, backoff=0.0)
        items = list(range(8))
        serial = SerialBackend(policy).map(_double, items)
        process = ProcessBackend(jobs=2, policy=policy).map(_double, items)
        assert serial == process


class TestThreadResilience:
    def test_no_policy_short_circuits_through_pool(self):
        assert ThreadBackend(jobs=2).map(_double, [1, 2, 3]) == [2, 4, 6]
        assert ThreadBackend(jobs=2).map(_double, []) == []

    def test_no_policy_propagates(self):
        with pytest.raises(ValueError):
            ThreadBackend(jobs=2).map(_fail_if_negative, [1, -1])

    def test_worker_exception_is_retried_then_quarantined(self, capsys):
        backend = ThreadBackend(jobs=2, policy=RetryPolicy(retries=1, backoff=0.0))
        out = backend.map(_fail_if_negative, [1, -2, 3, 4])
        assert out[0] == 2 and out[2] == 6 and out[3] == 8
        assert isinstance(out[1], CellFailure)
        assert out[1].attempts == 2
        err = capsys.readouterr().err
        assert "retrying in" in err and "quarantined" in err

    def test_retry_succeeds_after_transient_failure(self, tmp_path, capsys):
        backend = ThreadBackend(jobs=2, policy=RetryPolicy(retries=2, backoff=0.0))
        marker = str(tmp_path / "marker")
        out = backend.map(_fail_until_marker, [(21, marker)])
        assert out == [42]
        assert "retrying in" in capsys.readouterr().err

    def test_timeout_marks_and_abandons_the_hung_cell(self, capsys):
        """Threads cannot be killed: the hung cell quarantines after its
        timeout while the abandoned worker keeps sleeping in the
        background — but nobody *waits* for it."""
        backend = ThreadBackend(
            jobs=2, policy=RetryPolicy(retries=0, backoff=0.0, timeout=0.5)
        )
        start = time.monotonic()
        out = backend.map(_nap_if_zero, [0, 1, 2])
        assert time.monotonic() - start < 2.5  # nobody waited out the nap
        assert isinstance(out[0], CellFailure)
        assert "timed out" in out[0].message
        assert out[1] == 2 and out[2] == 4
        assert "quarantined" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "jobs, fn, hung", [(1, _nap_if_zero, 1), (2, _nap_if_below_two, 2)]
    )
    def test_cells_queued_behind_a_timeout_are_requeued(
        self, capsys, jobs, fn, hung
    ):
        """A cell that had not started when another timed out is not
        charged that timeout: it reruns on a fresh pool."""
        backend = ThreadBackend(
            jobs=jobs, policy=RetryPolicy(retries=0, backoff=0.0, timeout=0.5)
        )
        start = time.monotonic()
        out = backend.map(fn, [0, 1, 2])
        assert time.monotonic() - start < 2.5
        assert all(isinstance(r, CellFailure) for r in out[:hung])
        assert out[hung:] == [2 * x for x in range(hung, 3)]

    def test_serial_and_thread_agree_under_policy(self):
        policy = RetryPolicy(retries=1, backoff=0.0)
        items = list(range(8))
        serial = SerialBackend(policy).map(_double, items)
        thread = ThreadBackend(jobs=2, policy=policy).map(_double, items)
        assert serial == thread


class TestOneFanOut:
    """The three backends run one retry loop: the same items under the
    same policy fail, retry, log and count identically on each."""

    def test_failures_agree_across_backends(self, tmp_path, capsys):
        policy = RetryPolicy(retries=2, backoff=0.0)
        runs = {}
        for backend in (
            SerialBackend(policy),
            ThreadBackend(jobs=2, policy=policy),
            ProcessBackend(jobs=2, policy=policy),
        ):
            marker = str(tmp_path / f"{backend.name}-marker")
            items = [(1, None), (-2, None), (3, marker), (-4, None), (5, None)]
            runs[backend.name] = _observed_map(backend, _flaky, items, capsys)
        out, lines, counts = runs["serial"]
        assert out[0] == 2 and out[2] == 6 and out[4] == 10
        assert out[1] == CellFailure("bad item -2", attempts=3)
        assert out[3] == CellFailure("bad item -4", attempts=3)
        assert counts == {
            "cells.retries": 5, "cells.quarantined": 2, "cells.timeouts": 0
        }
        assert len(lines) == 7
        assert runs["thread"] == runs["serial"] == runs["process"]

    def test_timeouts_agree_on_thread_and_process(self, capsys):
        policy = RetryPolicy(retries=1, backoff=0.0, timeout=0.5)
        thread = _observed_map(
            ThreadBackend(jobs=2, policy=policy), _nap_if_zero, [0, 1, 2], capsys
        )
        process = _observed_map(
            ProcessBackend(jobs=2, policy=policy), _nap_if_zero, [0, 1, 2], capsys
        )
        out, lines, counts = thread
        assert out == [CellFailure("cell attempt timed out", attempts=2), 2, 4]
        assert counts["cells.timeouts"] == 2
        assert thread == process

    @pytest.mark.parametrize("backend", [ThreadBackend, ProcessBackend])
    def test_single_cell_under_policy_runs_in_the_pool(self, backend):
        """The in-process shortcut for one cell applies only without a
        policy: under one, the pool enforces the timeout."""
        policy = RetryPolicy(retries=0, backoff=0.0, timeout=0.5)
        start = time.monotonic()
        out = backend(jobs=2, policy=policy).map(_nap_if_zero, [0])
        assert time.monotonic() - start < 2.5
        assert isinstance(out[0], CellFailure)
        assert "timed out" in out[0].message


class TestDefaultWorkerCount:
    def test_prefers_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert default_worker_count() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_worker_count() == 5

    def test_never_returns_zero(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1

    def test_backends_use_it_by_default(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert ThreadBackend().jobs == 2
        assert ProcessBackend().jobs == 2


# -- quarantine surfacing through execute_cells ------------------------- #
def _family_worker(args):
    cell, poison = args
    if poison:
        raise RuntimeError(f"cell {cell} is poison")
    return None, {"algo": CellRecord(cmax=float(cell), minsum=1.0, seconds=0.0)}


class _ToyFamily(CellFamily):
    name = "toy"
    worker = staticmethod(_family_worker)

    def record_key(self, cell, name):
        return CellKey(0, "toy", int(cell), 1, 0, name)

    def make_task(self, cell, names, validate, need_bounds):
        return (cell, cell == 2)


class TestExecuteCellsQuarantine:
    def test_error_surfaces_in_outcome(self, capsys):
        outcomes = execute_cells(
            _ToyFamily(), [1, 2, 3], ["algo"],
            policy=RetryPolicy(retries=1, backoff=0.0),
        )
        assert outcomes[1].error is None
        assert outcomes[1].records["algo"].cmax == 1.0
        assert outcomes[3].error is None
        assert outcomes[2].error is not None
        assert "poison" in outcomes[2].error
        assert outcomes[2].records == {}
        assert "quarantined" in capsys.readouterr().err

    def test_without_policy_the_failure_raises(self):
        with pytest.raises(RuntimeError, match="poison"):
            execute_cells(_ToyFamily(), [2], ["algo"])
