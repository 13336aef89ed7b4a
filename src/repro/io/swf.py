"""Standard Workload Format (SWF) interchange.

SWF (Feitelson's Parallel Workloads Archive) is the common format for real
cluster logs — the kind of trace the paper's workload generator [18] was
fitted to.  Each job line carries 18 whitespace-separated fields::

    job_id submit wait run procs_used cpu_used mem procs_req time_req
    mem_req status user group app queue partition preceding think_time

Missing values are ``-1``.  This module implements

* :func:`read_swf` — parse a log into :class:`SwfJob` records and
  optionally an :class:`~repro.core.instance.Instance` of *rigid* tasks
  (SWF jobs have one processor count; moldability is gone from a log);
* :func:`write_swf` — export a simulated schedule as an SWF log, so
  standard archive tooling can analyse simulated and real traces
  uniformly.

Only the fields the scheduling model uses are interpreted; the rest are
preserved on read and written as ``-1`` on export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.task import MoldableTask, rigid_task
from repro.exceptions import ModelError

__all__ = ["SwfJob", "read_swf", "write_swf", "swf_to_instance", "parse_swf_fields"]

#: Number of fields of an SWF record.
SWF_FIELDS = 18


def parse_swf_fields(line: str, lineno: int) -> tuple[float, float, float, float, float, float, float]:
    """The per-record tolerance rule, shared by both SWF parsers.

    Splits one data line and returns ``(job_id, submit, wait, run,
    procs_used, procs_req, status)`` as floats, with ``-1`` for the
    optional trailing fields of short (>= 5 field) records.  Raises
    :class:`ModelError` with the line number otherwise.  This is the
    single place the field-level tolerance lives — :func:`read_swf` (the
    object parser) and the columnar fallback of
    :mod:`repro.workloads.trace` both call it, so they cannot drift.
    """
    parts = line.split()
    if len(parts) < 5:
        raise ModelError(f"SWF line {lineno}: expected >= 5 fields, got {len(parts)}")
    try:
        return (
            float(parts[0]),
            float(parts[1]),
            float(parts[2]),
            float(parts[3]),
            float(parts[4]),
            float(parts[7]) if len(parts) > 7 else -1.0,
            float(parts[10]) if len(parts) > 10 else 1.0,
        )
    except ValueError as exc:
        raise ModelError(f"SWF line {lineno}: {exc}") from None


@dataclass(frozen=True)
class SwfJob:
    """One SWF job record (the subset of fields the model interprets).

    ``procs`` is the *effective* processor count used for replay: the
    allocation the log actually recorded (``procs_used``, field 5), falling
    back to the request (``procs_req``, field 8) when the log only kept one
    of the two — archive logs routinely store ``-1`` for either.
    """

    job_id: int
    submit: float
    wait: float
    run: float
    procs: int
    status: int = 1
    procs_req: int = -1

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ModelError(f"negative SWF job id {self.job_id}")


def read_swf(source: str | TextIO) -> list[SwfJob]:
    """Parse SWF text (string or file object) into job records.

    Comment/header lines start with ``;`` (possibly after leading
    whitespace) and are skipped — real archive headers carry dozens of
    ``; Key: value`` metadata lines.  Job ids may appear in any order
    (concatenated or re-sorted logs).  Jobs with non-positive runtime or
    with no usable processor count (``procs_used`` and ``procs_req`` both
    missing) are skipped — cancelled / failed entries — as is conventional
    when replaying archive logs; a missing ``procs_used`` *or* a
    ``procs_req = -1`` alone falls back to the other field instead of
    dropping the job.  A processor field that is not finite or not below
    2**63 in magnitude counts as missing, as in the columnar loader,
    whose int64 columns hold no more.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    jobs: list[SwfJob] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.lstrip("\ufeff").strip()
        if not line or line.startswith(";"):
            continue
        job_id, submit, wait, run, procs_used, procs_req, status = parse_swf_fields(
            line, lineno
        )
        if not job_id.is_integer():  # False for NaN/inf too
            raise ModelError(f"SWF line {lineno}: non-integer job id {job_id!r}")
        if job_id >= 2.0**63:  # the columnar loader's int64 ids end here
            raise ModelError(f"SWF line {lineno}: job id {int(job_id)} does not fit in int64")
        # Truncate *before* the positivity tests (outside int64, NaN and
        # infinities included, counts as missing), and spell the run check
        # as `not (run > 0)` so NaN is dropped — all three choices mirror
        # the columnar loader's int64/array semantics exactly (the
        # round-trip suite asserts the two parsers agree record for
        # record).
        pu = int(procs_used) if abs(procs_used) < 2.0**63 else -1
        pr = int(procs_req) if abs(procs_req) < 2.0**63 else -1
        procs = pu if pu > 0 else pr
        if not (run > 0) or procs <= 0:
            continue  # cancelled / failed / malformed record
        jobs.append(
            SwfJob(
                job_id=int(job_id),
                submit=max(0.0, submit),
                wait=max(0.0, wait),
                run=run,
                procs=procs,
                status=int(status),
                procs_req=pr,
            )
        )
    return jobs


def swf_to_instance(
    jobs: Iterable[SwfJob],
    m: int,
    *,
    online: bool = True,
    default_weight: float = 1.0,
) -> Instance:
    """Build a rigid-task :class:`Instance` from SWF records.

    Jobs requesting more than ``m`` processors are clamped to ``m`` (the
    archive convention for replaying a log on a smaller machine).  With
    ``online=True`` submit times become release dates; otherwise the
    instance is off-line.
    """
    if m < 1:
        raise ModelError(f"m must be >= 1, got {m}")
    tasks: list[MoldableTask] = []
    for job in jobs:
        procs = min(job.procs, m)
        tasks.append(
            rigid_task(
                job.job_id,
                procs=procs,
                time=job.run,
                weight=default_weight,
                m=m,
                release=job.submit if online else 0.0,
            )
        )
    return Instance(tasks, m)


def _fmt(value: float) -> str:
    """Shortest decimal that parses back to the same float.

    ``repr`` precision makes ``write_swf -> read_swf`` lossless, so a
    replayed schedule's exported log carries the *exact* simulated times —
    the round-trip suite asserts tuple identity, not approximation.
    """
    return repr(float(value))


def write_swf(schedule: Schedule, *, m: int | None = None) -> str:
    """Export a schedule as SWF text.

    The submit time is the task's release date, the wait time is
    ``start - release``, and the processor count is the chosen allotment —
    i.e. the log a monitoring daemon would have recorded had the simulated
    schedule run for real.  Floats are written at full (repr) precision so
    the export round-trips losslessly through :func:`read_swf`.
    """
    m = schedule.m if m is None else m
    lines = [
        "; SWF export from the repro library (Dutot et al. SPAA'04 reproduction)",
        f"; MaxProcs: {m}",
        f"; Jobs: {len(schedule)}",
    ]
    for p in sorted(schedule, key=lambda p: (p.start, p.task.task_id)):
        submit = p.task.release
        wait = max(0.0, p.start - submit)
        fields = [
            str(p.task.task_id),
            _fmt(submit),
            _fmt(wait),
            _fmt(p.duration),
            str(p.allotment),
            "-1",  # avg cpu time
            "-1",  # memory
            str(p.allotment),  # requested procs
            _fmt(p.duration),  # requested time
            "-1",  # requested memory
            "1",  # status: completed
            "-1", "-1", "-1", "-1", "-1", "-1", "-1",
        ]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
