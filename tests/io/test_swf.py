"""Tests for the Standard Workload Format interchange."""

from __future__ import annotations

import io
import warnings

import numpy as np
import pytest

from repro.algorithms.demt import schedule_demt
from repro.core.validation import validate_schedule
from repro.exceptions import ModelError
from repro.io.swf import SwfJob, read_swf, swf_to_instance, write_swf
from repro.simulator.online import OnlineBatchScheduler
from repro.workloads.generator import generate_workload

SAMPLE = """\
; Sample SWF header
; MaxProcs: 8
1 0.0 1.0 10.0 4 -1 -1 4 10.0 -1 1 -1 -1 -1 -1 -1 -1 -1
2 5.0 0.0 3.0 1 -1 -1 1 3.0 -1 1 -1 -1 -1 -1 -1 -1 -1
3 6.0 2.0 0.0 2 -1 -1 2 0.0 -1 0 -1 -1 -1 -1 -1 -1 -1
4 7.0 0.5 2.0 16 -1 -1 16 2.0 -1 1 -1 -1 -1 -1 -1 -1 -1
"""


class TestReadSwf:
    def test_parses_jobs_and_skips_comments(self):
        jobs = read_swf(SAMPLE)
        # Job 3 has zero runtime -> skipped.
        assert [j.job_id for j in jobs] == [1, 2, 4]

    def test_fields(self):
        j = read_swf(SAMPLE)[0]
        assert j.submit == 0.0 and j.wait == 1.0 and j.run == 10.0 and j.procs == 4

    def test_accepts_file_object(self):
        jobs = read_swf(io.StringIO(SAMPLE))
        assert len(jobs) == 3

    def test_short_line_rejected(self):
        with pytest.raises(ModelError, match="fields"):
            read_swf("1 2 3\n")

    def test_garbage_rejected(self):
        with pytest.raises(ModelError):
            read_swf("a b c d e\n")

    def test_negative_job_id_rejected(self):
        with pytest.raises(ModelError):
            SwfJob(job_id=-1, submit=0, wait=0, run=1, procs=1)

    def test_empty_input(self):
        assert read_swf("") == []


class TestMalformedLineClasses:
    """Regression tests: tolerance for real archive-log quirks.

    One class per test — header metadata, out-of-order ids, missing
    processor fields — each of which appears in actual Parallel Workloads
    Archive files and must parse, not raise."""

    def test_header_metadata_comments(self):
        text = (
            "; Version: 2.2\n"
            ";   Computer: iCluster2\n"
            "   ; indented comment\n"
            ";\n"
            "1 0.0 0.0 5.0 2 -1 -1 2 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        )
        jobs = read_swf(text)
        assert [j.job_id for j in jobs] == [1]

    def test_bom_prefixed_first_line(self):
        text = "﻿; header\n1 0.0 0.0 5.0 2 -1 -1 2 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        assert len(read_swf(text)) == 1

    def test_out_of_order_job_ids(self):
        text = (
            "7 0.0 0.0 5.0 2 -1 -1 2 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
            "3 1.0 0.0 4.0 1 -1 -1 1 4.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
            "5 2.0 0.0 3.0 4 -1 -1 4 3.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        )
        jobs = read_swf(text)
        assert [j.job_id for j in jobs] == [7, 3, 5]  # order preserved
        inst = swf_to_instance(jobs, m=8)
        assert {t.task_id for t in inst.tasks} == {3, 5, 7}

    def test_procs_used_missing_falls_back_to_procs_req(self):
        # procs_used = -1 but procs_req = 4: the job is replayable at the
        # requested width, not dropped.
        text = "1 0.0 0.0 5.0 -1 -1 -1 4 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        jobs = read_swf(text)
        assert len(jobs) == 1 and jobs[0].procs == 4

    def test_procs_req_missing_falls_back_to_procs_used(self):
        # procs_req = -1 but procs_used = 3: replay at the recorded width.
        text = "1 0.0 0.0 5.0 3 -1 -1 -1 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        jobs = read_swf(text)
        assert len(jobs) == 1 and jobs[0].procs == 3 and jobs[0].procs_req == -1

    def test_both_procs_fields_missing_skips_job(self):
        text = "1 0.0 0.0 5.0 -1 -1 -1 -1 5.0 -1 0 -1 -1 -1 -1 -1 -1 -1\n"
        assert read_swf(text) == []

    def test_five_field_line_without_procs_req(self):
        assert read_swf("1 0.0 0.0 5.0 2\n")[0].procs == 2

    def test_nan_runtime_dropped_by_both_parsers(self):
        from repro.workloads.trace import load_trace

        text = "1 0.0 0.0 nan 2 -1 -1 2 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        assert read_swf(text) == []
        assert load_trace(text).n == 0

    def test_fractional_procs_used_falls_back_in_both_parsers(self):
        # 0 < procs_used < 1 truncates to 0 (missing) and falls back to
        # the request — identically on both parse paths.
        from repro.workloads.trace import load_trace

        text = "1 0.0 0.0 5.0 0.5 -1 -1 4 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        jobs = read_swf(text)
        tr = load_trace(text)
        assert [j.procs for j in jobs] == tr.procs.tolist() == [4]

    def test_non_integer_job_id_rejected_by_both_parsers(self):
        from repro.workloads.trace import load_trace

        text = "2.9 0.0 0.0 5.0 2 -1 -1 2 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        with pytest.raises(ModelError, match="job id"):
            read_swf(text)
        with pytest.raises(ModelError, match="job id"):
            load_trace(text)

    @pytest.mark.parametrize(
        "token, named",
        [
            ("9223372036854775808", "9223372036854775808"),
            ("1e19", "10000000000000000000"),
            ("9223372036854775807", "9223372036854775808"),  # parses to 2**63
        ],
    )
    def test_job_id_beyond_int64_rejected_by_both_parsers(self, token, named):
        # Checked on the parsed float, before the columnar loader's int64
        # cast (which would warn and wrap to a negative id).
        from repro.workloads.trace import load_trace

        text = f"; header\n{token} 0.0 0.0 5.0 2 -1 -1 2 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        with pytest.raises(ModelError, match=f"SWF line 2: job id {named} does not fit"):
            read_swf(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=f"SWF job id {named} does not fit"):
                load_trace(text)

    def test_nan_submit_clamps_to_zero_in_both_parsers(self):
        from repro.workloads.trace import load_trace

        text = "1 nan 0.0 5.0 2 -1 -1 2 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        assert read_swf(text)[0].submit == 0.0
        assert load_trace(text).submits.tolist() == [0.0]

    def test_effective_procs_prefers_recorded_allocation(self):
        # When both fields are present they may disagree (the scheduler
        # granted less than requested); the run time belongs to the
        # *actual* allocation.
        text = "1 0.0 0.0 5.0 2 -1 -1 8 5.0 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        j = read_swf(text)[0]
        assert j.procs == 2 and j.procs_req == 8


class TestSwfToInstance:
    def test_rigid_instance(self):
        inst = swf_to_instance(read_swf(SAMPLE), m=8)
        assert inst.n == 3
        t1 = inst.task_by_id(1)
        assert t1.p(4) == 10.0 and np.isinf(t1.p(1))

    def test_procs_clamped_to_m(self):
        inst = swf_to_instance(read_swf(SAMPLE), m=8)
        t4 = inst.task_by_id(4)  # requested 16 on an 8-proc machine
        assert t4.p(8) == 2.0

    def test_online_releases(self):
        inst = swf_to_instance(read_swf(SAMPLE), m=8, online=True)
        assert inst.task_by_id(2).release == 5.0
        offline = swf_to_instance(read_swf(SAMPLE), m=8, online=False)
        assert offline.max_release == 0.0

    def test_invalid_m(self):
        with pytest.raises(ModelError):
            swf_to_instance([], m=0)

    def test_replay_through_online_framework(self):
        """A real-trace workflow: SWF -> rigid instance -> batch scheduler."""
        inst = swf_to_instance(read_swf(SAMPLE), m=8, online=True)
        result = OnlineBatchScheduler(schedule_demt).run(inst)
        validate_schedule(result.schedule, inst)


class TestWriteSwf:
    def test_roundtrip_through_export(self):
        inst = generate_workload("cirne", n=8, m=8, seed=6)
        sched = schedule_demt(inst)
        text = write_swf(sched)
        jobs = read_swf(text)
        assert len(jobs) == 8
        by_id = {j.job_id: j for j in jobs}
        for p in sched:
            j = by_id[p.task.task_id]
            assert j.run == pytest.approx(p.duration, rel=1e-5)
            assert j.procs == p.allotment
            assert j.wait == pytest.approx(p.start, rel=1e-5, abs=1e-6)

    def test_header_present(self):
        inst = generate_workload("mixed", n=2, m=4, seed=7)
        text = write_swf(schedule_demt(inst))
        assert text.startswith(";")
        assert "MaxProcs: 4" in text

    def test_field_count(self):
        inst = generate_workload("mixed", n=2, m=4, seed=8)
        text = write_swf(schedule_demt(inst))
        for line in text.splitlines():
            if not line.startswith(";"):
                assert len(line.split()) == 18
