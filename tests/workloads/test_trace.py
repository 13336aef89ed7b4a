"""Unit tests for the columnar trace plane (workloads/trace.py)."""

from __future__ import annotations

import io
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.wspt import schedule_wspt
from repro.exceptions import ModelError
from repro.experiments.replay import replay_trace
from repro.workloads import trace as trace_module
from repro.workloads.trace import (
    MOLDABILITY_MODELS,
    Trace,
    load_trace,
    parse_trace,
    reconstruct_times,
    synthesize_swf,
    trace_instance,
)

CLEAN = (
    "; Version: 2.2\n"
    "; MaxProcs: 8\n"
    "1 0.0 1.0 10.0 4 -1 -1 4 10.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
    "2 5.0 0.0 3.0 1 -1 -1 1 3.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
    "3 6.0 2.0 -1 2 -1 -1 2 -1 -1 0 -1 -1 -1 -1 -1 -1 -1\n"
    "4 7.0 0.5 2.0 16 -1 -1 16 2.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
)

TRACES = Path(__file__).resolve().parents[1] / "data" / "traces"
FIXTURES = ("bursty_quirks.swf", "cirne_small.swf", "wide_jobs.swf")


@pytest.fixture(params=kernels.available_backend_names())
def backend(request):
    """Run the test on each kernel backend: the compiled scan, and the
    NumPy backend whose scan always declines to the line path."""
    previous = kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend(previous)


#: Two records the compiled scan takes (8 fields), and the same records
#: cut to 5 fields, which it declines to the line path.
RECORDS = {
    "scanned": "1 0 0 5 2 -1 -1 2\n2 1 0 3 1 -1 -1 1\n",
    "line-path": "1 0 0 5 2\n2 1 0 3 1\n",
}


def data_line_indexes(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if line.strip() and not line.startswith(";")]


def ragged(text: str, every: int = 7) -> str:
    """``text`` with every ``every``-th data record cut to its first 5
    fields: the per-line fallback accepts such a record, ``np.loadtxt``
    rejects a chunk that holds one."""
    lines = text.splitlines(keepends=True)
    for i in data_line_indexes(lines)[::every]:
        lines[i] = " ".join(lines[i].split()[:5]) + "\n"
    return "".join(lines)


class TestLoading:
    def test_text_path_and_stream_agree(self, tmp_path):
        from_text = load_trace(CLEAN)
        path = tmp_path / "t.swf"
        path.write_text(CLEAN)
        from_path = load_trace(str(path))
        from_pathlike = load_trace(path)
        from_stream = load_trace(io.StringIO(CLEAN))
        for tr in (from_path, from_pathlike, from_stream):
            assert tr.digest == from_text.digest
            assert tr.n == from_text.n == 3  # job 3 cancelled -> dropped

    def test_columns(self):
        tr = load_trace(CLEAN)
        assert tr.job_ids.tolist() == [1, 2, 4]
        assert tr.submits.tolist() == [0.0, 5.0, 7.0]
        assert tr.runs.tolist() == [10.0, 3.0, 2.0]
        assert tr.procs.tolist() == [4, 1, 16]
        assert tr.max_procs == 8
        assert tr.span == 7.0

    def test_columns_are_read_only(self):
        tr = load_trace(CLEAN)
        with pytest.raises(ValueError):
            tr.runs[0] = 99.0

    def test_no_maxprocs_header(self):
        tr = load_trace("1 0 0 5 2\n")
        assert tr.max_procs is None

    def test_short_line_raises_with_lineno(self):
        with pytest.raises(ModelError, match="line 3"):
            load_trace("; header\n1 0 0 5 2\n1 2\n")

    def test_fallback_lineno_counts_interleaved_comments(self):
        # Comments and blanks between data lines must not shift the
        # reported position: the malformed record sits on file line 5.
        text = "1 0 0 5 2\n; comment\n\n2 0 0 5 2\nbad 0 0 5 2\n"
        with pytest.raises(ModelError, match="line 5"):
            load_trace(text)

    def test_garbage_field_raises(self):
        with pytest.raises(ModelError):
            load_trace("a b c d e\n")

    def test_negative_job_id_rejected(self):
        with pytest.raises(ModelError, match="negative"):
            load_trace("-3 0 0 5 2\n")

    def test_empty(self):
        tr = parse_trace([])
        assert tr.n == 0 and len(tr) == 0 and tr.span == 0.0

    def test_bad_type(self):
        with pytest.raises(TypeError):
            load_trace(123)

    def test_single_record_without_trailing_newline_is_text(self):
        # A .strip()'d one-record log must parse as text, not be
        # misclassified as a (nonexistent) file path.
        tr = load_trace("1 0.0 0.0 5.0 2")
        assert tr.n == 1 and tr.runs.tolist() == [5.0]

    def test_nonexistent_path_still_errors(self):
        with pytest.raises(FileNotFoundError):
            load_trace("no_such_trace.swf")

    def test_nonexistent_path_with_whitespace_still_errors(self):
        # A typo'd path containing spaces must not be misclassified as
        # inline SWF text (which would surface a confusing parse error).
        with pytest.raises(FileNotFoundError):
            load_trace("my logs/trace.swf")
        with pytest.raises(FileNotFoundError):
            load_trace("missing dir/archive log.swf")


class TestMaxProcsHeader:
    """A header counts only when its value is a finite number whose int
    is at least 1; anything else is skipped like a non-numeric value."""

    @pytest.mark.parametrize("records", list(RECORDS.values()), ids=list(RECORDS))
    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "0", "-4", "64 processors"])
    def test_unusable_header_is_skipped(self, backend, records, value):
        tr = load_trace(f"; MaxProcs: {value}\n{records}")
        assert tr.max_procs is None
        (result,) = replay_trace(tr, offline=schedule_wspt)
        assert result.m == 2  # the widest job

    @pytest.mark.parametrize("records", list(RECORDS.values()), ids=list(RECORDS))
    def test_fractional_header_truncates(self, backend, records):
        assert load_trace(f"; MaxProcs: 2.7\n{records}").max_procs == 2

    @pytest.mark.parametrize("records", list(RECORDS.values()), ids=list(RECORDS))
    def test_search_goes_on_past_a_bad_header(self, backend, records):
        text = f"; MaxProcs: inf\n; note\n; MaxProcs: 8\n; MaxProcs: 4\n{records}"
        assert load_trace(text).max_procs == 8

    @pytest.mark.parametrize("k", [0, -4])
    def test_trace_rejects_max_procs_below_one(self, k):
        with pytest.raises(ModelError, match="max_procs"):
            Trace([1], [0.0], [0.0], [5.0], [2], max_procs=k)


class TestHugeJobIds:
    """Ids at or above 2**63 do not fit the int64 column: rejected with
    the id named, before any cast (which would warn and wrap)."""

    @pytest.mark.parametrize("fields", [5, 8])
    @pytest.mark.parametrize(
        "token, named",
        [
            ("9223372036854775808", "9223372036854775808"),
            ("1e19", "10000000000000000000"),
            ("9223372036854775807", "9223372036854775808"),  # parses to 2**63
        ],
    )
    def test_rejected_naming_the_id(self, backend, fields, token, named):
        line = " ".join([token, "0", "0", "5", "2", "-1", "-1", "2"][:fields])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=f"SWF job id {named} does not fit"):
                load_trace(line + "\n")

    def test_largest_id_below_two_to_the_63_loads(self, backend):
        tr = load_trace("9223372036854774784 0 0 5 2 -1 -1 2\n")
        assert tr.job_ids.tolist() == [2**63 - 1024]


class TestHugeProcessorFields:
    """A processor field at or above 2**63 does not fit the int64 column:
    both parsers count it as missing, as they do a non-finite one, with
    no cast warning."""

    @pytest.mark.parametrize(
        "line, procs",
        [
            ("1 0 0 5 1e19 -1 -1 2", [2]),  # procs_used missing: procs_req
            ("1 0 0 5 1e19 -1 -1 -1", []),  # both missing: dropped
        ],
    )
    def test_both_parsers_agree(self, backend, line, procs):
        from repro.io.swf import read_swf

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = load_trace(line + "\n")
            jobs = read_swf(line + "\n")
        assert tr.procs.tolist() == [job.procs for job in jobs] == procs


class TestChunkedParsing:
    """Data lines are parsed in chunks of ``_CHUNK_LINES`` (65536); every
    fixture fits in one, so the chunk is shrunk to cross boundaries."""

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_chunks_reassemble_the_one_chunk_load(self, monkeypatch, name, chunk):
        text = (TRACES / name).read_text()
        whole, whole_ragged = load_trace(text), load_trace(ragged(text))
        parse_line = trace_module._parse_line_tolerant
        fallback_lines = []

        def spy(line, lineno):
            fallback_lines.append(lineno)
            return parse_line(line, lineno)

        monkeypatch.setattr(trace_module, "_parse_line_tolerant", spy)
        monkeypatch.setattr(trace_module, "_CHUNK_LINES", chunk)
        # The line path itself: load_trace may take the compiled scan.
        assert parse_trace(io.StringIO(text)).digest == whole.digest
        assert not fallback_lines
        # Chunks holding a cut record fall back per line; with chunks
        # shorter than the cut spacing, the others stay on np.loadtxt.
        # Both kinds must concatenate in file order.
        assert parse_trace(io.StringIO(ragged(text))).digest == whole_ragged.digest
        assert fallback_lines
        if chunk < 7:
            assert len(fallback_lines) < len(data_line_indexes(text.splitlines()))

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_fallback_error_names_the_line_opening_a_chunk(self, monkeypatch, chunk):
        lines = (TRACES / "bursty_quirks.swf").read_text().splitlines(keepends=True)
        bad = data_line_indexes(lines)[chunk]  # the first record of chunk 2
        lines[bad] = "1 2\n"
        monkeypatch.setattr(trace_module, "_CHUNK_LINES", chunk)
        with pytest.raises(ModelError, match=f"line {bad + 1}:"):
            load_trace("".join(lines))


class TestWindow:
    def test_window_composes_offsets(self):
        tr = load_trace(synthesize_swf(30, 8, seed=1))
        w1 = tr.window(5, 20)
        w2 = w1.window(3, 5)
        assert (w1.n, w1.offset) == (20, 5)
        assert (w2.n, w2.offset) == (5, 8)
        assert w2.digest == tr.digest
        assert np.array_equal(w2.runs, tr.runs[8:13])

    def test_window_truncates_at_end(self):
        tr = load_trace(synthesize_swf(10, 8, seed=1))
        assert tr.window(8, 100).n == 2

    def test_window_out_of_range(self):
        tr = load_trace(synthesize_swf(10, 8, seed=1))
        with pytest.raises(ModelError):
            tr.window(-1, 2)
        with pytest.raises(ModelError):
            tr.window(11)


class TestTransforms:
    def test_shifted(self):
        tr = load_trace(CLEAN)
        sh = tr.shifted(10.0)
        assert sh.submits.tolist() == [10.0, 15.0, 17.0]
        assert sh.digest != tr.digest  # different content, different identity
        with pytest.raises(ModelError):
            tr.shifted(-1.0)

    def test_scaled(self):
        tr = load_trace(CLEAN)
        sc = tr.scaled(2.0)
        assert sc.runs.tolist() == [20.0, 6.0, 4.0]
        assert sc.procs.tolist() == tr.procs.tolist()
        with pytest.raises(ModelError):
            tr.scaled(0.0)


COLUMNS = ("job_ids", "submits", "waits", "runs", "procs")


class TestPickle:
    """The process backend ships a trace to its workers by plain pickle."""

    @pytest.fixture(scope="class")
    def trace(self):
        return load_trace(synthesize_swf(40, 8, seed=5))

    def test_round_trip_keeps_columns_and_identity(self, trace):
        for tr in (trace, trace.window(5, 20)):
            clone = pickle.loads(pickle.dumps(tr))
            assert isinstance(clone, Trace) and clone is not tr
            for col in COLUMNS:
                assert getattr(clone, col).dtype == getattr(tr, col).dtype
                assert getattr(clone, col).tobytes() == getattr(tr, col).tobytes()
            assert (clone.digest, clone.offset, clone.max_procs) == (
                tr.digest, tr.offset, tr.max_procs,
            )

    def test_unpickled_columns_stay_read_only(self, trace):
        clone = pickle.loads(pickle.dumps(trace))
        for col in COLUMNS:
            with pytest.raises(ValueError):
                getattr(clone, col)[0] = 0

    def test_digest_travels_instead_of_being_rehashed(self, trace, monkeypatch):
        blob = pickle.dumps(trace)

        def rehash(self):
            raise AssertionError("digest recomputed on unpickle")

        monkeypatch.setattr(Trace, "_column_digest", rehash)
        assert pickle.loads(blob).digest == trace.digest


class TestMoldabilityModels:
    @pytest.fixture(scope="class")
    def trace(self):
        return load_trace(synthesize_swf(40, 16, seed=9))

    @pytest.mark.parametrize("model", list(MOLDABILITY_MODELS))
    def test_anchor_and_determinism(self, trace, model):
        m = 16
        t1 = reconstruct_times(trace, m, model)
        t2 = reconstruct_times(trace, m, model)
        assert np.array_equal(t1, t2)
        kp = np.minimum(trace.procs, m)
        assert (t1[np.arange(trace.n), kp - 1] == trace.runs).all()

    @pytest.mark.parametrize("model", [m for m in MOLDABILITY_MODELS if m != "rigid"])
    def test_times_monotone_non_increasing(self, trace, model):
        t = reconstruct_times(trace, 16, model)
        assert np.isfinite(t).all()
        assert (t[:, 1:] <= t[:, :-1] * (1 + 1e-9)).all()

    def test_rigid_has_exactly_one_finite_entry_per_row(self, trace):
        t = reconstruct_times(trace, 16, "rigid")
        assert (np.isfinite(t).sum(axis=1) == 1).all()

    def test_linear_preserves_work(self, trace):
        t = reconstruct_times(trace, 16, "linear")
        work = t * np.arange(1, 17)
        assert np.allclose(work, work[:, :1])

    def test_downey_sequential_job_stays_sequential(self):
        # kp = 1 -> A = 1 -> S == 1 everywhere: constant row.
        tr = load_trace("1 0 0 5.0 1\n")
        t = reconstruct_times(tr, 8, "downey")
        assert (t == 5.0).all()

    def test_models_differ_from_each_other(self, trace):
        mats = {
            model: reconstruct_times(trace, 16, model)
            for model in ("linear", "downey", "recurrence-highly", "recurrence-weakly")
        }
        names = list(mats)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.array_equal(mats[a], mats[b]), (a, b)

    def test_recurrence_weakly_slower_than_highly(self, trace):
        """Weakly parallel profiles keep more of the sequential time."""
        hi = reconstruct_times(trace, 16, "recurrence-highly")
        lo = reconstruct_times(trace, 16, "recurrence-weakly")
        # Compare parallel speedup at full width relative to each anchor:
        # the weakly model's p(m)/p(1) ratio is larger (less speedup).
        assert (lo[:, -1] / lo[:, 0]).mean() > (hi[:, -1] / hi[:, 0]).mean()

    def test_unknown_model(self, trace):
        with pytest.raises(ModelError, match="unknown moldability model"):
            reconstruct_times(trace, 8, "nope")

    def test_bad_m(self, trace):
        with pytest.raises(ModelError):
            reconstruct_times(trace, 0, "rigid")


class TestTraceInstance:
    def test_defaults_from_header(self):
        inst = trace_instance(load_trace(CLEAN))
        assert inst.m == 8  # MaxProcs header
        assert inst.n == 3
        assert (inst.releases > 0).any()

    def test_offline(self):
        inst = trace_instance(load_trace(CLEAN), online=False)
        assert inst.is_offline()

    def test_m_fallback_to_widest_job(self):
        inst = trace_instance(load_trace("1 0 0 5 2\n2 1 0 4 6\n"))
        assert inst.m == 6

    def test_task_ids_are_job_ids(self):
        inst = trace_instance(load_trace(CLEAN))
        assert set(inst.task_ids.tolist()) == {1, 2, 4}

    def test_duplicate_job_ids_renumbered(self):
        inst = trace_instance(load_trace("7 0 0 1 1\n7 1 0 2 2\n"), m=4)
        assert inst.task_ids.tolist() == [0, 1]

    def test_unique_job_ids_out_of_order_kept(self):
        inst = trace_instance(load_trace("9 0 0 1 1\n2 1 0 2 2\n5 2 0 1 1\n"), m=4)
        assert inst.task_ids.tolist() == [9, 2, 5]

    def test_empty_needs_m(self):
        with pytest.raises(ModelError):
            trace_instance(parse_trace([]))


class TestSynthesizeSwf:
    def test_deterministic(self):
        assert synthesize_swf(25, 8, seed=3) == synthesize_swf(25, 8, seed=3)
        assert synthesize_swf(25, 8, seed=3) != synthesize_swf(25, 8, seed=4)

    def test_quirks_agree_across_loaders(self):
        from repro.io.swf import read_swf

        text = synthesize_swf(60, 8, seed=3, quirks=True)
        jobs = read_swf(text)
        tr = load_trace(text)
        assert tr.n == len(jobs) < 60  # some records cancelled
        assert tr.job_ids.tolist() == [j.job_id for j in jobs]

    def test_load_controls_arrival_density(self):
        light = load_trace(synthesize_swf(50, 8, seed=3, load=0.25))
        heavy = load_trace(synthesize_swf(50, 8, seed=3, load=4.0))
        assert light.span > heavy.span

    def test_needs_a_job(self):
        with pytest.raises(ModelError):
            synthesize_swf(0, 8, seed=1)
