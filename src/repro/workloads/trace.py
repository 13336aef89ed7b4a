"""Columnar trace plane: SWF archive logs as ``(n,)`` column arrays.

The paper's headline claim is that DEMT wrapped in the batch framework was
good enough to run as the *production* scheduler on Icluster2 — i.e. on
real arrival streams, not only the synthetic families of §4.1.  This
module opens that scenario class: any Parallel Workloads Archive log (or a
synthetic stand-in) becomes a replayable workload.

Three layers:

* :class:`Trace` / :func:`load_trace` — **columnar ingestion**.  An SWF
  log is parsed straight into numpy columns (job ids, submit times,
  runtimes, processor counts); a million-job archive log never
  materialises one Python object per job.  A file path or SWF text goes
  through the compiled scan (:func:`repro.kernels.swf_scan_core`): one C
  pass per block of bytes, a file read in bounded blocks.  The scan
  declines whatever the line path could read differently, and the line
  path — :func:`parse_trace`, :func:`numpy.loadtxt`'s tokenizer over
  chunks of data lines with a per-line tolerant fallback (same semantics
  as :func:`repro.io.swf.read_swf`) for chunks with short or irregular
  records — then re-reads the source.  It is the reference parse and the
  only one for open streams and pipes.
* :data:`MOLDABILITY_MODELS` / :func:`reconstruct_times` — **moldability
  reconstruction**.  An SWF job is rigid (one ``(procs, run)`` point); the
  scheduler under study is moldable.  Each model lifts the logged point to
  a full processing-time vector using the library's speedup models
  (:mod:`repro.workloads.parallelism`'s recurrence, Downey's curves from
  :mod:`repro.workloads.cirne`), **anchored** so the logged point is
  reproduced exactly: ``times[i, procs_i - 1] == run_i`` bit for bit.
  Model parameters are derived from the job ids by a splitmix64 hash — no
  RNG, so reconstruction is a pure function of the trace (stable across
  windows, processes, and platforms).
* :func:`trace_instance` — hands the reconstructed ``(n, m)`` matrix
  zero-copy to :meth:`repro.core.instance.Instance.from_arrays`, with the
  submit times as release dates, producing the instance the on-line
  replay engine (:mod:`repro.experiments.replay`) consumes.

:func:`synthesize_swf` fabricates deterministic archive-style logs from
the Cirne–Berman workload model — CI-sized fixtures and scale benches
without shipping a real (privacy-encumbered) archive file.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
from typing import IO, Iterable, Iterator

import numpy as np

from repro import kernels
from repro.core.instance import Instance, all_distinct
from repro.exceptions import ModelError
from repro.utils.rng import derive_rng
from repro.workloads.columnar import _downey_speedup_rows
from repro.workloads.generator import generate_workload
from repro.workloads.parallelism import (
    HIGHLY_PARALLEL_MEAN,
    PROFILE_STD,
    WEAKLY_PARALLEL_MEAN,
)

__all__ = [
    "Trace",
    "load_trace",
    "parse_trace",
    "trace_instance",
    "reconstruct_times",
    "synthesize_swf",
    "MOLDABILITY_MODELS",
]

#: Data lines per parsing chunk.  Large enough that the C tokenizer
#: dominates, small enough that a chunk's line list stays cache-friendly.
_CHUNK_LINES = 65536

#: Columns of an SWF record consumed by the trace plane (0-based):
#: job_id, submit, wait, run, procs_used, procs_req.
_USECOLS = (0, 1, 2, 3, 4, 7)

#: Bytes per block of the compiled scan: a file is read in blocks of
#: this size, each block's partial last line carried to the next.
_BLOCK_BYTES = 1 << 20

#: A partial line longer than this ends the scan: no SWF record is
#: nearly as long, and a file without newlines is never held whole.
_LINE_BYTES = 1 << 20

#: Record rows per output chunk of the compiled scan, and comment spans
#: per scan call.
_SCAN_ROWS = 16384
_SCAN_SPANS = 256

_BOM = "\ufeff".encode()


class Trace:
    """A parsed workload trace in columnar form.

    All attributes are read-only numpy arrays of one value per *replayable*
    job (cancelled / failed records are dropped at load time):

    ``job_ids``
        ``(n,) int64`` — archive job identifiers, original order preserved
        (archives are normally submit-sorted, but out-of-order and
        non-contiguous ids are fine).
    ``submits`` / ``waits`` / ``runs``
        ``(n,) float64`` — submit time, logged wait, logged runtime.
    ``procs``
        ``(n,) int64`` — effective processor count: the recorded
        allocation (``procs_used``), falling back to the request
        (``procs_req``) when the log kept only one of the two.

    ``digest`` is a sha256 over the canonical column bytes — a
    content-addressed identity used to key replay cells, so the same jobs
    yield the same cache entries regardless of file path or comment
    formatting.  ``offset`` records where this trace starts inside the
    originally loaded log (0 for a full load; ``window()`` composes).
    """

    __slots__ = ("job_ids", "submits", "waits", "runs", "procs",
                 "digest", "offset", "max_procs")

    def __init__(
        self,
        job_ids: np.ndarray,
        submits: np.ndarray,
        waits: np.ndarray,
        runs: np.ndarray,
        procs: np.ndarray,
        *,
        digest: str | None = None,
        offset: int = 0,
        max_procs: int | None = None,
    ) -> None:
        self.job_ids = np.ascontiguousarray(job_ids, dtype=np.int64)
        self.submits = np.ascontiguousarray(submits, dtype=np.float64)
        self.waits = np.ascontiguousarray(waits, dtype=np.float64)
        self.runs = np.ascontiguousarray(runs, dtype=np.float64)
        self.procs = np.ascontiguousarray(procs, dtype=np.int64)
        n = self.job_ids.size
        for name in ("submits", "waits", "runs", "procs"):
            if getattr(self, name).shape != (n,):
                raise ModelError(
                    f"trace column {name!r} has shape {getattr(self, name).shape}, "
                    f"expected ({n},)"
                )
        for arr in (self.job_ids, self.submits, self.waits, self.runs, self.procs):
            arr.setflags(write=False)
        self.digest = self._column_digest() if digest is None else digest
        self.offset = int(offset)
        self.max_procs = None if max_procs is None else int(max_procs)
        if self.max_procs is not None and self.max_procs < 1:
            raise ModelError(f"max_procs must be >= 1, got {self.max_procs}")

    def _column_digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.job_ids, self.submits, self.waits, self.runs, self.procs):
            h.update(arr.tobytes())
        return h.hexdigest()

    def __reduce__(self):
        # The process backend ships traces by pickle: rebuild through
        # ``__init__`` so the worker's columns are read-only too, and pass
        # the digest along rather than re-hashing the columns.
        return (
            _rebuild_trace,
            (self.job_ids, self.submits, self.waits, self.runs, self.procs,
             self.digest, self.offset, self.max_procs),
        )

    # ------------------------------------------------------------------ #
    # Basic queries                                                      #
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of replayable jobs."""
        return int(self.job_ids.size)

    def __len__(self) -> int:
        return self.n

    @property
    def span(self) -> float:
        """Arrival span ``max(submit) - min(submit)`` (0 for <= 1 job)."""
        if self.n <= 1:
            return 0.0
        return float(self.submits.max() - self.submits.min())

    def resolve_m(self, m: int | None = None) -> int:
        """The machine size to replay on: ``m`` if given, else the log's
        ``MaxProcs`` header, else the widest job.  The single policy every
        replay entry point shares."""
        if m is not None:
            return int(m)
        if self.max_procs is not None:
            return self.max_procs
        if self.n == 0:
            raise ModelError("cannot infer m from an empty trace without a MaxProcs header")
        return int(self.procs.max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(n={self.n}, digest={self.digest[:12]}, offset={self.offset}, "
            f"max_procs={self.max_procs})"
        )

    # ------------------------------------------------------------------ #
    # Derived traces                                                     #
    # ------------------------------------------------------------------ #
    def window(self, offset: int, count: int | None = None) -> "Trace":
        """Sub-trace of ``count`` jobs starting at row ``offset``.

        Shares the parent's column storage (views) and content digest; the
        window coordinates — not a re-hash — identify it, which is what
        the replay cell keys use (``digest + window + model``).
        """
        if offset < 0 or offset > self.n:
            raise ModelError(f"window offset {offset} outside [0, {self.n}]")
        stop = self.n if count is None else min(self.n, offset + count)
        return Trace(
            self.job_ids[offset:stop],
            self.submits[offset:stop],
            self.waits[offset:stop],
            self.runs[offset:stop],
            self.procs[offset:stop],
            digest=self.digest,
            offset=self.offset + offset,
            max_procs=self.max_procs,
        )

    def shifted(self, dt: float) -> "Trace":
        """Copy with every submit time shifted by ``dt`` (>= 0 preserved).

        The metamorphic expectation — a batch replay of the shifted trace
        is the original schedule shifted by ``dt`` — is pinned by the
        trace-replay test suite.
        """
        submits = self.submits + float(dt)
        if (submits < 0).any():
            raise ModelError(f"shift {dt} makes some submit times negative")
        return Trace(
            self.job_ids, submits, self.waits, self.runs, self.procs,
            offset=self.offset, max_procs=self.max_procs,
        )

    def scaled(self, factor: float) -> "Trace":
        """Copy with every time column scaled by ``factor > 0``."""
        if not factor > 0:
            raise ModelError(f"scale factor must be positive, got {factor}")
        return Trace(
            self.job_ids,
            self.submits * factor,
            self.waits * factor,
            self.runs * factor,
            self.procs,
            offset=self.offset,
            max_procs=self.max_procs,
        )


def _rebuild_trace(job_ids, submits, waits, runs, procs, digest, offset, max_procs) -> Trace:
    """Unpickling half of :meth:`Trace.__reduce__`."""
    return Trace(
        job_ids, submits, waits, runs, procs,
        digest=digest, offset=offset, max_procs=max_procs,
    )


# --------------------------------------------------------------------- #
# Columnar ingestion                                                    #
# --------------------------------------------------------------------- #
def _parse_line_tolerant(line: str, lineno: int) -> tuple:
    """One SWF record -> ``_USECOLS`` values.

    Delegates to :func:`repro.io.swf.parse_swf_fields` — the *same*
    field-level tolerance rule the object parser applies, shared so the
    two paths cannot drift (status, the 7th value, is unused here).
    """
    from repro.io.swf import parse_swf_fields

    return parse_swf_fields(line, lineno)[:6]


def _parse_chunk(lines: list[str], linenos: list[int]) -> np.ndarray:
    """Parse one chunk of data lines into an ``(n_chunk, 6)`` float array.

    The line path's fast path: :func:`numpy.loadtxt`'s C tokenizer over
    the whole chunk (well-formed archives have a uniform 18 fields per
    line).  Chunks with ragged records fall back to a per-line parse with
    exactly the tolerance of :func:`repro.io.swf.read_swf`; ``linenos``
    carries each data line's position in the *file* (comments included),
    so fallback errors point at the actual offending line.
    """
    try:
        return np.loadtxt(lines, dtype=np.float64, usecols=_USECOLS,
                          comments=None, ndmin=2)
    except (ValueError, IndexError):
        rows = [
            _parse_line_tolerant(line, lineno)
            for line, lineno in zip(lines, linenos)
        ]
        return np.array(rows, dtype=np.float64).reshape(len(rows), 6)


def _max_procs_header(comment: str) -> int | None:
    """The machine size a ``; MaxProcs: N`` comment line declares.

    ``N`` counts only when it parses to a finite number whose ``int`` is
    at least 1; any other value (``inf``, ``0``, ``64 processors``) is
    skipped, and the search goes on to later comment lines.  The one
    header rule of both parse paths.
    """
    body = comment[1:].strip()
    if not body.lower().startswith("maxprocs:"):
        return None
    try:
        value = float(body.split(":", 1)[1])
    except ValueError:
        return None
    if not math.isfinite(value) or int(value) < 1:
        return None
    return int(value)


def _records_to_trace(data: np.ndarray, max_procs: int | None) -> Trace:
    """The post-parse checks of both parse paths: ``(n, 6)`` record rows
    (:data:`_USECOLS`) to a :class:`Trace`.

    Job ids must be integers below 2**63 (checked on the parsed floats,
    before any int64 cast).  A processor field that is not finite or not
    below 2**63 in magnitude, which no int64 holds, counts as missing
    (-1).  Cancelled / failed records (non-positive runtime, or neither
    ``procs_used`` nor ``procs_req`` positive) are dropped, exactly as
    the object parser does, and the kept ids must not be negative.
    """
    raw_ids = data[:, 0]
    bad_ids = ~np.isfinite(raw_ids) | (raw_ids != np.floor(raw_ids))
    if bad_ids.any():
        raise ModelError(f"non-integer SWF job id {float(raw_ids[bad_ids][0])!r}")
    huge = raw_ids >= 2.0**63
    if huge.any():
        raise ModelError(f"SWF job id {int(raw_ids[huge][0])} does not fit in int64")
    # fmax, not maximum: a NaN submit/wait clamps to 0 exactly like the
    # object parser's `max(0.0, x)` (np.maximum would propagate the NaN).
    submits = np.fmax(data[:, 1], 0.0)
    waits = np.fmax(data[:, 2], 0.0)
    runs = data[:, 3]
    # Processor fields outside int64 count as missing (-1), like read_swf;
    # the comparison is False for NaN and infinities too.
    procs_used = np.where(np.abs(data[:, 4]) < 2.0**63, data[:, 4], -1.0).astype(np.int64)
    procs_req = np.where(np.abs(data[:, 5]) < 2.0**63, data[:, 5], -1.0).astype(np.int64)
    procs = np.where(procs_used > 0, procs_used, procs_req)
    keep = (runs > 0) & (procs > 0)
    if not keep.all():
        raw_ids, submits, waits, runs, procs = (
            raw_ids[keep], submits[keep], waits[keep], runs[keep], procs[keep]
        )
    negative = raw_ids < 0
    if negative.any():
        raise ModelError(f"negative SWF job id {int(raw_ids[negative][0])}")
    return Trace(
        raw_ids.astype(np.int64), submits, waits, runs, procs, max_procs=max_procs
    )


def parse_trace(lines: Iterable[str]) -> Trace:
    """Build a :class:`Trace` from an iterable of SWF lines: the line path.

    Comment lines are searched for the ``; MaxProcs: N`` header (the
    machine size the log was recorded on; :func:`_max_procs_header`);
    data lines are parsed in chunks of :data:`_CHUNK_LINES` through
    :func:`numpy.loadtxt`, with the per-line fallback for chunks it
    rejects.  This is the reference parse: the compiled scan of
    :func:`load_trace` declines whatever it could read differently, and
    both paths end in the same post-parse checks.
    """
    chunks: list[np.ndarray] = []
    pending: list[str] = []
    pending_linenos: list[int] = []
    max_procs: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.lstrip("\ufeff").strip()
        if not line:
            continue
        if line.startswith(";"):
            if max_procs is None:
                max_procs = _max_procs_header(line)
            continue
        pending.append(line)
        pending_linenos.append(lineno)
        if len(pending) >= _CHUNK_LINES:
            chunks.append(_parse_chunk(pending, pending_linenos))
            pending, pending_linenos = [], []
    if pending:
        chunks.append(_parse_chunk(pending, pending_linenos))

    if chunks:
        data = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    else:
        data = np.empty((0, 6))
    return _records_to_trace(data, max_procs)


def _line_blocks(reader: IO[bytes]) -> Iterator[memoryview | bytes | None]:
    """The bytes of ``reader`` in blocks of whole lines, each ending in a
    newline; ``None`` (and no more) once a partial line outgrows
    :data:`_LINE_BYTES`.

    Blocks of :data:`_BLOCK_BYTES` are read one at a time; each block's
    partial last line is carried to the next, and a final line without a
    newline gets one (a final CR then ends its line, as the line path
    reads it).  A longer run without a newline (CR line ends, a binary
    file) ends the scan instead of growing the carry.  A leading
    byte-order mark is dropped, as the line path strips it.
    """
    carry = reader.read(len(_BOM))
    if carry == _BOM:
        carry = b""
    while block := reader.read(_BLOCK_BYTES):
        cut = block.rfind(b"\n") + 1
        if not cut:
            carry += block
            if len(carry) > _LINE_BYTES:
                yield None
                return
            continue
        yield memoryview(carry + block if carry else block)[: len(carry) + cut]
        carry = block[cut:]
    if carry:
        yield carry + b"\n"


def _scan_swf(reader: IO[bytes]) -> Trace | None:
    """The trace of SWF bytes through the compiled scan, or ``None`` when
    the scan declines a block."""
    chunks = [np.empty((_SCAN_ROWS, 6))]
    filled = 0
    spans = np.empty((_SCAN_SPANS, 2), dtype=np.int64)
    max_procs: int | None = None
    for buf in _line_blocks(reader):
        if buf is None:
            return None
        pos = 0
        while pos < len(buf):
            if filled == _SCAN_ROWS:
                chunks.append(np.empty((_SCAN_ROWS, 6)))
                filled = 0
            got = kernels.swf_scan_core(buf, pos, chunks[-1][filled:], spans)
            if got is None:
                return None
            n_rows, n_spans, pos = got
            filled += n_rows
            for start, stop in spans[:n_spans].tolist():
                if max_procs is None:
                    max_procs = _max_procs_header(bytes(buf[start:stop]).decode("ascii"))
    chunks[-1] = chunks[-1][:filled]
    data = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    chunks.clear()  # the rows are in data: free the chunks before the checks
    return _records_to_trace(data, max_procs)


def load_trace(source: "str | os.PathLike | IO[str]") -> Trace:
    """Load an SWF log into a :class:`Trace`.

    ``source`` may be a file path, SWF text, or an open text stream.  A
    string is treated as a path when it names an existing file or could
    plausibly be one (no newline, no inline whitespace, and not shaped
    like a path — no separator, no ``.swf`` suffix) — so a one-record
    log without a trailing newline still parses as text, while a typo'd
    or missing path surfaces ``FileNotFoundError`` instead of a
    confusing parse error.

    A path or text goes through the compiled scan
    (:func:`repro.kernels.swf_scan_core`); a file is read in binary
    blocks of :data:`_BLOCK_BYTES`, so the whole log is never held at
    once.  The scan declines anything the line path might read
    differently — a non-ASCII byte (but a leading byte-order mark), a
    control byte other than tab, a CR not before LF, a record of fewer
    than 8 fields, a used field that is not a plain decimal number, a
    line longer than :data:`_LINE_BYTES` — and the NumPy kernel backend
    always declines; the file is then rewound, or the text re-read,
    through :func:`parse_trace`.  That line path is the only one for an
    open stream and for a path that cannot be rewound (a pipe or FIFO,
    such as a shell's ``<(zcat log.swf.gz)``), which is read once.
    Columns, digest, header and errors are the line path's either way.
    """
    if hasattr(source, "read"):
        return parse_trace(iter(source))
    if isinstance(source, os.PathLike):
        path = os.fspath(source)
    elif isinstance(source, str):
        looks_like_path = (
            os.sep in source
            or (os.altsep is not None and os.altsep in source)
            or source.endswith(".swf")
        )
        is_text = "\n" in source or (
            not os.path.exists(source)
            and not looks_like_path
            and len(source.split()) > 1
        )
        if is_text:
            # A lone surrogate becomes bytes the scan declines, not an
            # encoding error the line path would not raise.
            trace = _scan_swf(io.BytesIO(source.encode("utf-8", "surrogatepass")))
            return trace if trace is not None else parse_trace(io.StringIO(source))
        path = source
    else:
        raise TypeError(f"source must be a path, SWF text, or stream, got {source!r}")
    # One open: a pipe or FIFO path cannot be read twice, so it skips the
    # scan; a declined file is rewound for the line path, whose wrapper
    # decodes and splits lines exactly as open(path, "r") would.
    with open(path, "rb") as fh:
        if fh.seekable():
            trace = _scan_swf(fh)
            if trace is not None:
                return trace
            fh.seek(0)
        return parse_trace(io.TextIOWrapper(fh, encoding="utf-8"))


# --------------------------------------------------------------------- #
# Moldability reconstruction                                            #
# --------------------------------------------------------------------- #
def _hash_u01(job_ids: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic uniforms in ``[0, 1)`` from job ids (splitmix64).

    The replacement for an RNG: reconstruction parameters become a pure
    function of ``(job_id, model)``, bit-stable across windows, processes,
    and platforms, and two jobs with the same id (e.g. the same job seen
    in two windows) always get the same speedup curve.
    """
    # Salt folding happens in Python ints (arbitrary precision) and is
    # masked to 64 bits before entering numpy: scalar uint64 overflow
    # warns, array overflow wraps silently — only the arrays may wrap.
    offset = (0x9E3779B97F4A7C15 * (salt + 1)) & 0xFFFFFFFFFFFFFFFF
    z = job_ids.astype(np.uint64) + np.uint64(offset)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * float(2.0**-53)


def _truncated_gaussian_icdf(
    u: np.ndarray, mean: float, std: float, low: float = 0.0, high: float = 1.0
) -> np.ndarray:
    """Map uniforms through the truncated-gaussian inverse CDF.

    The deterministic counterpart of
    :func:`repro.workloads.parallelism.truncated_gaussian`: same
    distribution, no rejection loop, no RNG.
    """
    from scipy.special import ndtr, ndtri

    a = ndtr((low - mean) / std)
    b = ndtr((high - mean) / std)
    x = mean + std * ndtri(a + u * (b - a))
    return np.clip(x, low, high)


def _model_rigid(trace: Trace, m: int, kp: np.ndarray) -> np.ndarray:
    """No reconstruction: the job runs at its logged width, nowhere else."""
    times = np.full((trace.n, m), np.inf)
    return times


def _model_linear(trace: Trace, m: int, kp: np.ndarray) -> np.ndarray:
    """Perfect linear speedup through the logged point (constant work)."""
    ks = np.arange(1, m + 1, dtype=np.float64)
    return trace.runs[:, None] * (kp.astype(np.float64)[:, None] / ks)


def _model_downey(trace: Trace, m: int, kp: np.ndarray) -> np.ndarray:
    """Downey curves with ``A = logged width``, hash-derived ``sigma``.

    The logged allocation is the one point of the job's real speedup curve
    the archive kept; taking it as the average parallelism ``A`` couples
    the reconstructed curve to the job's actual size, and the
    Cirne–Berman ``sigma ~ U(0, 2)`` spread comes from the id hash.
    ``p(k) = run * S(kp) / S(k)`` — at ``k = kp`` the ratio is exactly 1.
    """
    n = trace.n
    ks = np.arange(1, m + 1, dtype=np.float64)
    A = kp.astype(np.float64)
    sigma = 2.0 * _hash_u01(trace.job_ids, salt=0xD0E)
    speedup = _downey_speedup_rows(ks, A, sigma)
    s_at_kp = speedup[np.arange(n), kp - 1]
    return trace.runs[:, None] * (s_at_kp[:, None] / speedup)


def _recurrence_times(trace: Trace, m: int, kp: np.ndarray, mean: float, salt: int) -> np.ndarray:
    """The §4.1 recurrence profile through the logged point.

    One parallelism variable ``X`` per job (hash-derived from the
    truncated gaussian the paper draws it from), profile
    ``u(j) = u(j-1) (X + j) / (1 + j)`` normalised to the logged width:
    ``p(k) = run * u(k) / u(kp)``.
    """
    n = trace.n
    x = _truncated_gaussian_icdf(_hash_u01(trace.job_ids, salt), mean, PROFILE_STD)
    u = np.empty((n, m))
    u[:, 0] = 1.0
    if m > 1:
        js = np.arange(2, m + 1, dtype=np.float64)
        factors = (x[:, None] + js) / (1.0 + js)
        np.cumprod(factors, axis=1, out=u[:, 1:])
    u_at_kp = u[np.arange(n), kp - 1]
    return trace.runs[:, None] * (u / u_at_kp[:, None])


def _model_recurrence_highly(trace: Trace, m: int, kp: np.ndarray) -> np.ndarray:
    return _recurrence_times(trace, m, kp, HIGHLY_PARALLEL_MEAN, salt=0x41)


def _model_recurrence_weakly(trace: Trace, m: int, kp: np.ndarray) -> np.ndarray:
    return _recurrence_times(trace, m, kp, WEAKLY_PARALLEL_MEAN, salt=0x42)


#: Moldability model name -> builder ``(trace, m, kp) -> (n, m) times``.
#: Every model is RNG-free and anchored: row ``i`` reproduces the logged
#: ``(procs_i, run_i)`` point bit-for-bit (enforced centrally in
#: :func:`reconstruct_times`, so a new model cannot regress the contract).
MOLDABILITY_MODELS = {
    "rigid": _model_rigid,
    "linear": _model_linear,
    "downey": _model_downey,
    "recurrence-highly": _model_recurrence_highly,
    "recurrence-weakly": _model_recurrence_weakly,
}


def reconstruct_times(trace: Trace, m: int, model: str = "rigid") -> np.ndarray:
    """``(n, m)`` processing-time matrix for ``trace`` under ``model``.

    Widths beyond the machine are clamped (``kp = min(procs, m)``, the
    archive convention for replaying a log on a smaller machine) and the
    anchor ``times[i, kp_i - 1] = run_i`` is enforced by direct assignment
    after the model builds its matrix — exactness is a property of the
    plane, not of each model's float arithmetic.
    """
    if m < 1:
        raise ModelError(f"m must be >= 1, got {m}")
    try:
        builder = MOLDABILITY_MODELS[model]
    except KeyError:
        raise ModelError(
            f"unknown moldability model {model!r}; available: "
            f"{', '.join(MOLDABILITY_MODELS)}"
        ) from None
    kp = np.minimum(trace.procs, m).astype(np.int64)
    times = builder(trace, m, kp)
    times[np.arange(trace.n), kp - 1] = trace.runs
    return times


def trace_instance(
    trace: Trace,
    m: int | None = None,
    model: str = "rigid",
    *,
    online: bool = True,
) -> Instance:
    """Build the replay :class:`Instance` for ``trace`` under ``model``.

    ``m`` defaults to the log's ``MaxProcs`` header, falling back to the
    widest job (:meth:`Trace.resolve_m`).  With ``online=True`` submit
    times become release dates.  Weights are 1 (SWF logs carry no
    priority weight).  The reconstructed matrix is handed zero-copy to
    :meth:`Instance.from_arrays`; task ids are the archive job ids (or
    row numbers if a concatenated log repeats ids).
    """
    m = trace.resolve_m(m)
    if trace.n and all_distinct(trace.job_ids):
        task_ids = trace.job_ids
    else:
        task_ids = np.arange(trace.n, dtype=np.int64)
    times = reconstruct_times(trace, m, model)
    return Instance.from_arrays(
        times,
        None,
        trace.submits if online else None,
        m,
        task_ids=task_ids,
        validate=False,
    )


# --------------------------------------------------------------------- #
# Synthetic archives                                                    #
# --------------------------------------------------------------------- #
def synthesize_swf(
    n: int,
    m: int,
    seed: int,
    *,
    load: float = 1.0,
    quirks: bool = False,
) -> str:
    """Deterministic archive-style SWF text from the Cirne–Berman model.

    Jobs are drawn from the columnar ``cirne`` workload; each "user"
    requests the width whose runtime is closest to twice the job's best
    runtime (a realistic over-allocation), and arrivals follow a Poisson
    process calibrated so the offered load is about ``load`` times the
    machine capacity.  Everything derives from ``seed`` via
    :func:`repro.utils.rng.derive_rng` — the same call always produces the
    same text, so fixtures regenerate reproducibly.

    ``quirks=True`` sprinkles in the malformed-record classes real
    archives contain — extra header metadata, a cancelled job (status 0,
    runtime ``-1``), a record with ``procs_used = -1`` (request only) —
    exercising the tolerant parse paths of both the columnar and the
    object loader.
    """
    if n < 1:
        raise ModelError(f"need at least one job, got n={n}")
    inst = generate_workload("cirne", n=n, m=m, seed=derive_rng(seed, "swf", n, m))
    times = inst.times_matrix
    best = times.min(axis=1)
    ks = np.argmin(np.abs(times - 2.0 * best[:, None]), axis=1) + 1
    runs = times[np.arange(n), ks - 1]

    rng = derive_rng(seed, "swf-arrivals", n, m)
    mean_work = float((runs * ks).mean())
    scale = mean_work / (m * max(load, 1e-9))
    submits = np.cumsum(rng.exponential(scale, size=n))

    lines = [
        "; synthetic SWF log (Cirne-Berman model, repro library)",
        f"; MaxProcs: {m}",
        f"; Jobs: {n}",
        f"; Seed: {seed}",
    ]
    if quirks:
        lines += ["; UnixStartTime: 0", ";", "; Note: contains archive quirks"]
    subs = [repr(v) for v in submits.tolist()]  # repr of Python floats: lossless
    runs_s = [repr(v) for v in runs.tolist()]
    for i in range(n):
        job_id, sub, k, run = i + 1, subs[i], int(ks[i]), runs_s[i]
        if quirks and job_id % 11 == 0:
            # Cancelled record: no runtime, status 0 — loaders must drop it.
            lines.append(f"{job_id} {sub} -1 -1 {k} -1 -1 {k} -1 -1 0 "
                         "-1 -1 -1 -1 -1 -1 -1")
            continue
        used = -1 if quirks and job_id % 13 == 0 else k
        lines.append(
            f"{job_id} {sub} -1 {run} {used} -1 -1 {k} {run} -1 1 "
            "-1 -1 -1 -1 -1 -1 -1"
        )
    return "\n".join(lines) + "\n"
