"""Unit tests for repro.simulator.events."""

from __future__ import annotations

import pytest

from repro.simulator.events import Event, EventKind, EventLog


class TestEvent:
    def test_fields(self):
        e = Event(1.5, EventKind.STARTED, job_id=3, procs=(0, 1))
        assert e.time == 1.5 and e.procs == (0, 1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, EventKind.COMPLETED)


class TestEventLog:
    def test_append_ordered(self):
        log = EventLog()
        log.append(Event(0.0, EventKind.SUBMITTED, 1))
        log.append(Event(1.0, EventKind.STARTED, 1))
        assert len(log) == 2

    def test_append_out_of_order_rejected(self):
        log = EventLog()
        log.append(Event(2.0, EventKind.STARTED, 1))
        with pytest.raises(ValueError):
            log.append(Event(1.0, EventKind.COMPLETED, 1))

    def test_of_kind(self):
        log = EventLog()
        log.append(Event(0.0, EventKind.STARTED, 1))
        log.append(Event(1.0, EventKind.COMPLETED, 1))
        log.append(Event(1.0, EventKind.STARTED, 2))
        assert [e.job_id for e in log.of_kind(EventKind.STARTED)] == [1, 2]

    def test_of_kind_matches_full_scan_ordering(self):
        # Regression: of_kind answers from per-kind lists maintained on
        # append; it must return exactly what the seed's full scan did,
        # in the same order, for every kind — including absent ones.
        import itertools

        log = EventLog()
        cycle = itertools.cycle(
            [EventKind.SUBMITTED, EventKind.STARTED, EventKind.COMPLETED,
             EventKind.CRASHED, EventKind.MACHINE_DOWN, EventKind.MACHINE_UP]
        )
        for i, kind in zip(range(200), cycle):
            log.append(Event(float(i), kind, job_id=i % 7))
        for kind in EventKind:
            scan = [e for e in log.events if e.kind == kind]
            assert log.of_kind(kind) == scan

    def test_of_kind_returns_a_copy(self):
        log = EventLog()
        log.append(Event(0.0, EventKind.STARTED, 1))
        got = log.of_kind(EventKind.STARTED)
        got.append(None)
        assert len(log.of_kind(EventKind.STARTED)) == 1

    def test_lookups(self):
        log = EventLog()
        log.append(Event(0.5, EventKind.STARTED, 7, (0,)))
        log.append(Event(2.5, EventKind.COMPLETED, 7, (0,)))
        assert log.start_of(7).time == 0.5
        assert log.completion_of(7).time == 2.5
        with pytest.raises(KeyError):
            log.start_of(99)
        with pytest.raises(KeyError):
            log.completion_of(99)

    def test_iteration(self):
        log = EventLog()
        log.append(Event(0.0, EventKind.BATCH_STARTED))
        assert [e.kind for e in log] == [EventKind.BATCH_STARTED]


class TestEventLogIndex:
    """The per-job index behind O(1) start_of / completion_of."""

    def test_constructor_events_indexed(self):
        events = [
            Event(0.0, EventKind.STARTED, 4, (0,)),
            Event(1.0, EventKind.COMPLETED, 4, (0,)),
        ]
        log = EventLog(events)
        assert log.start_of(4).time == 0.0
        assert log.completion_of(4).time == 1.0

    def test_latest_event_wins(self):
        # A job evicted by the fault plane restarts from scratch: the
        # attempt that actually ran to completion is the one start_of /
        # completion_of must report, so the index keeps the *latest*
        # occurrence per (kind, job).  (The seed's setdefault kept the
        # pre-crash START forever — stale busy times under PR 7 faults.)
        log = EventLog()
        log.append(Event(1.0, EventKind.STARTED, 3, (0,)))
        log.append(Event(2.0, EventKind.STARTED, 3, (1,)))
        assert log.start_of(3).time == 2.0
        assert log.start_of(3).procs == (1,)

    def test_constructor_events_latest_wins_too(self):
        log = EventLog(
            [
                Event(0.0, EventKind.STARTED, 9),
                Event(3.0, EventKind.STARTED, 9),
                Event(4.0, EventKind.COMPLETED, 9),
            ]
        )
        assert log.start_of(9).time == 3.0
        assert log.completion_of(9).time == 4.0

    def test_busy_time_linear_at_10k_jobs(self):
        """Regression: busy_time was O(n^2) (a full log scan per job).

        10k jobs through the indexed path complete in milliseconds; the
        quadratic seed took tens of seconds.  The generous wall-clock
        bound fails loudly if the linear scan ever regresses.
        """
        import time as _time

        from repro.simulator.engine import ExecutionTrace

        n = 10_000
        log = EventLog()
        assignment = {}
        completions = {}
        for j in range(n):
            log.append(Event(float(j), EventKind.STARTED, j, (0, 1)))
            log.append(Event(float(j) + 0.5, EventKind.COMPLETED, j, (0, 1)))
            assignment[j] = (0, 1)
            completions[j] = float(j) + 0.5
        trace = ExecutionTrace(
            log=log,
            makespan=float(n),
            processor_assignment=assignment,
            completion_times=completions,
        )
        t0 = _time.perf_counter()
        busy = trace.busy_time()
        elapsed = _time.perf_counter() - t0
        assert busy == pytest.approx(n * 2 * 0.5)
        assert elapsed < 2.0, f"busy_time took {elapsed:.2f}s at n={n}"
        assert trace.utilization(2) == pytest.approx(0.5)


class TestEventWindowQueue:
    """The TIME_EPS windowing shared by the engine and the policies."""

    def test_window_collects_near_simultaneous(self):
        from repro.simulator.events import EventWindowQueue

        q = EventWindowQueue([(1.0, 2, 1), (1.0 + 5e-10, 0, 2), (2.0, 1, 3)])
        window = q.pop_window()
        # Sorted by (priority, time, id): the completion acts first.
        assert [e[2] for e in window] == [2, 1]
        assert q.pop_window() == [(2.0, 1, 3)]
        assert not q

    def test_push_during_handling_lands_in_later_window(self):
        from repro.simulator.events import EventWindowQueue

        q = EventWindowQueue([(0.0, 0, 1)])
        assert q.pop_window() == [(0.0, 0, 1)]
        q.push(0.0, 0, 2)  # same instant, but its window already drained
        assert q.pop_window() == [(0.0, 0, 2)]

    def test_unified_epsilon_is_the_core_constant(self):
        from repro.core import TIME_EPS
        from repro.core.validation import TIME_EPS as validation_eps

        assert TIME_EPS is validation_eps
        # The log's ordering tolerance is the same constant.
        log = EventLog()
        log.append(Event(1.0, EventKind.STARTED, 1))
        log.append(Event(1.0 - TIME_EPS / 2, EventKind.STARTED, 2))  # tolerated
        with pytest.raises(ValueError):
            log.append(Event(1.0 - 2 * TIME_EPS, EventKind.STARTED, 3))


class TestEpsilonBoundarySemantics:
    """The pinned boundary semantics, on both sides of the epsilon.

    Windows are *anchored*: the window at t0 closes at exactly
    t0 + TIME_EPS and never chains, even for events pushed while the
    window is handled.  The log's append tolerance is anchored at the
    *high-water mark* of all appended times, not at the (possibly
    slightly earlier) previous event — so neither side of the epsilon
    can drift without bound.
    """

    def test_window_does_not_chain(self):
        from repro.core.validation import TIME_EPS
        from repro.simulator.events import EventWindowQueue

        # 1.5 eps after the anchor is *outside* the window, even though it
        # is within eps of the event at t0 + eps.
        q = EventWindowQueue(
            [(1.0, 0, 1), (1.0 + TIME_EPS, 0, 2), (1.0 + 1.5 * TIME_EPS, 0, 3)]
        )
        assert [e[2] for e in q.pop_window()] == [1, 2]
        assert [e[2] for e in q.pop_window()] == [3]

    def test_push_during_handling_does_not_extend_the_window(self):
        from repro.core.validation import TIME_EPS
        from repro.simulator.events import EventWindowQueue

        q = EventWindowQueue([(1.0, 0, 1), (1.0 + TIME_EPS, 0, 2)])
        window = q.pop_window()
        assert [e[2] for e in window] == [1, 2]
        # Handling the window pushes an event 1.5 eps after the anchor —
        # "simultaneous" with event 2, but it lands in a later window.
        q.push(1.0 + 1.5 * TIME_EPS, 0, 3)
        assert [e[2] for e in q.pop_window()] == [3]

    def test_log_accepts_what_one_window_produces(self):
        from repro.core.validation import TIME_EPS

        # Events logged while handling one window stay within eps of the
        # anchor, in any order — the log must accept all of them.
        log = EventLog()
        log.append(Event(1.0 + TIME_EPS, EventKind.COMPLETED, 1))
        log.append(Event(1.0, EventKind.STARTED, 2))  # eps earlier: fine
        log.append(Event(1.0 + TIME_EPS / 2, EventKind.STARTED, 3))
        assert len(log) == 3

    def test_log_tolerance_does_not_drift_backwards(self):
        from repro.core.validation import TIME_EPS

        # The seed measured the tolerance against the *previous* event, so
        # a chain of slightly-early events could walk the acceptance
        # boundary backwards without bound.  Anchored at the high-water
        # mark, the second slightly-early event is already out of range.
        log = EventLog()
        log.append(Event(1.0, EventKind.STARTED, 1))
        log.append(Event(1.0 - 0.75 * TIME_EPS, EventKind.STARTED, 2))
        with pytest.raises(ValueError):
            log.append(Event(1.0 - 1.5 * TIME_EPS, EventKind.STARTED, 3))

    def test_high_water_mark_from_constructor_events(self):
        from repro.core.validation import TIME_EPS

        log = EventLog([Event(5.0, EventKind.STARTED, 1)])
        with pytest.raises(ValueError):
            log.append(Event(5.0 - 2 * TIME_EPS, EventKind.COMPLETED, 1))
