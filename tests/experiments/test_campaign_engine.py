"""Tests for the campaign execution engine (backends + cell cache)."""

from __future__ import annotations

import threading

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    CellCache,
    CellKey,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.experiments.runner import run_campaign, run_cells, run_point

TINY = ExperimentConfig(m=8, task_counts=(6, 12), runs=2, seed=99)


def _flatten(campaign):
    return [
        (p.workload, p.n, s.algorithm, s.cmax.average, s.minsum.average)
        for p in campaign.points
        for s in p.stats
    ]


class TestResolveBackend:
    def test_default_is_serial(self):
        assert resolve_backend().name == "serial"
        assert resolve_backend(None).name == "serial"

    def test_by_name(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        proc = resolve_backend("process", jobs=3)
        assert isinstance(proc, ProcessBackend)
        assert proc.jobs == 3

    def test_instance_passthrough(self):
        backend = ProcessBackend(jobs=2)
        assert resolve_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            ProcessBackend(jobs=0)


class TestBackendEquivalence:
    """The tentpole guarantee: backends change wall-clock, never numbers."""

    def test_process_pool_matches_serial(self):
        serial = run_campaign("mixed", TINY, validate=True)
        process = run_campaign(
            "mixed", TINY, validate=True, backend="process", jobs=2
        )
        assert _flatten(serial) == _flatten(process)

    def test_point_matches_campaign_cells(self):
        point = run_point("cirne", 6, TINY, validate=True)
        campaign = run_campaign("cirne", TINY.scaled(task_counts=(6,)), validate=True)
        assert _flatten(campaign) == [
            ("cirne", p.n, s.algorithm, s.cmax.average, s.minsum.average)
            for p in [point]
            for s in p.stats
        ]

    def test_single_item_shortcircuit(self):
        backend = ProcessBackend(jobs=4)
        assert backend.map(abs, [-3]) == [3]


class TestThreadOverlap:
    """Thread cells run at the same time, so cells whose kernels release
    the GIL (tests/kernels/test_gil_release.py) overlap.  Two cells that
    wait for each other on one barrier finish only if both run at once."""

    def test_two_workers_run_two_cells_at_once(self):
        barrier = threading.Barrier(2, timeout=10.0)
        out = ThreadBackend(jobs=2).map(threading.Barrier.wait, [barrier, barrier])
        assert sorted(out) == [0, 1]

    def test_one_worker_runs_one_cell_at_a_time(self):
        barrier = threading.Barrier(2, timeout=0.2)
        with pytest.raises(threading.BrokenBarrierError):
            ThreadBackend(jobs=1).map(threading.Barrier.wait, [barrier, barrier])


class TestCellCache:
    def test_second_campaign_is_all_hits(self):
        cache = CellCache()
        first = run_campaign("cirne", TINY, cache=cache)
        misses_after_first = cache.misses
        assert misses_after_first == len(cache) > 0

        second = run_campaign("cirne", TINY, cache=cache)
        assert cache.misses == misses_after_first  # nothing re-measured
        assert cache.hits >= misses_after_first
        assert _flatten(first) == _flatten(second)

    def test_cached_equals_uncached(self):
        cache = CellCache()
        run_campaign("cirne", TINY, cache=cache)
        cached = run_campaign("cirne", TINY, cache=cache)
        fresh = run_campaign("cirne", TINY)
        assert _flatten(cached) == _flatten(fresh)

    def test_algorithm_subset_only_pays_new_cells(self):
        cache = CellCache()
        small = TINY.scaled(algorithms=("DEMT", "Sequential"))
        run_campaign("cirne", small, cache=cache)
        assert len(cache) == 2 * TINY.runs * len(small.algorithms)

        # Growing the panel re-uses DEMT/Sequential cells and their bounds.
        wider = TINY.scaled(algorithms=("DEMT", "Sequential", "Gang"))
        before = len(cache)
        result = run_campaign("cirne", wider, cache=cache)
        added = len(cache) - before
        assert added == 2 * TINY.runs  # only the Gang cells were measured
        assert {s.algorithm for p in result.points for s in p.stats} == {
            "DEMT", "Sequential", "Gang",
        }

    def test_keys_disambiguate_configuration(self):
        key_a = CellKey(1, "cirne", 10, 8, 0, "DEMT")
        key_b = CellKey(1, "cirne", 10, 16, 0, "DEMT")  # different m
        cache = CellCache()
        cache.put_record(key_a, object())
        assert cache.get_record(key_b) is None

    def test_validate_rejects_unvalidated_cache_entries(self):
        cache = CellCache()
        run_point("cirne", 6, TINY, cache=cache)  # measured without validation
        misses_before = cache.misses
        run_point("cirne", 6, TINY, cache=cache, validate=True)
        # Every record had to be re-measured under validation...
        assert cache.misses > misses_before
        # ...and a further validated run is then pure cache hits.
        hits_before = cache.hits
        misses_after_validated = cache.misses
        run_point("cirne", 6, TINY, cache=cache, validate=True)
        assert cache.misses == misses_after_validated
        assert cache.hits > hits_before

    def test_clear(self):
        cache = CellCache()
        run_point("cirne", 6, TINY, cache=cache)
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestRunCells:
    def test_returns_all_requested_cells(self):
        cells = [("cirne", 6, r) for r in range(TINY.runs)]
        out = run_cells(cells, TINY)
        assert set(out) == set(cells)
        for bounds, records in out.values():
            assert bounds.cmax_lb > 0 and bounds.minsum_lb > 0
            assert set(records) == set(TINY.algorithms)
