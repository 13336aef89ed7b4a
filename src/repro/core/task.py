"""Moldable parallel tasks.

A *moldable* task (Feitelson's classification, ref [8] of the paper) may be
run on any number of processors ``k``; the number is chosen by the scheduler
*before* execution and never changes afterwards.  The task is fully described
by its processing-time vector ``p(1), ..., p(m)`` and a weight ``w`` used by
the ``sum w_i C_i`` criterion.

Representation choices
----------------------
* ``times[k-1]`` stores ``p(k)`` (numpy ``float64``).  A value of ``+inf``
  means "this task cannot run on k processors", which lets the same class
  model *rigid* tasks (exactly one finite entry) and minimum-allocation
  constraints (a finite tail) without special cases downstream.
* Tasks are immutable value objects; derived quantities (minimal time,
  work vector) are cached lazily.

The paper's generators always produce *monotonic* tasks — ``p`` is
non-increasing and the work ``k * p(k)`` is non-decreasing in ``k`` — but no
algorithm here relies on monotony for *correctness*; it only matters for the
approximation guarantees of the dual-approximation substrate.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidTaskError

__all__ = ["MoldableTask", "rigid_task", "sequential_task"]


class MoldableTask:
    """An independent moldable job.

    Parameters
    ----------
    task_id:
        Identifier, unique within an :class:`~repro.core.instance.Instance`.
    times:
        Processing times ``p(k)`` for ``k = 1 .. len(times)`` processors.
        Entries must be positive; ``+inf`` marks forbidden allotments.
        At least one entry must be finite.
    weight:
        Priority weight ``w`` (strictly positive).  The paper draws it
        uniformly from ``[1, 10]``.
    release:
        Release date (0 in the off-line model of the paper; used by the
        on-line batch framework of :mod:`repro.simulator.online`).
    """

    __slots__ = ("task_id", "times", "weight", "release", "__dict__")

    def __init__(
        self,
        task_id: int,
        times: Sequence[float] | np.ndarray,
        weight: float = 1.0,
        release: float = 0.0,
    ) -> None:
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidTaskError(
                f"task {task_id}: processing-time vector must be 1-D and non-empty, "
                f"got shape {arr.shape}"
            )
        if np.isnan(arr).any():
            raise InvalidTaskError(f"task {task_id}: processing times contain NaN")
        if (arr <= 0).any():  # -inf included
            raise InvalidTaskError(
                f"task {task_id}: processing times must be strictly positive"
            )
        if not np.isfinite(arr).any():
            raise InvalidTaskError(
                f"task {task_id}: no finite processing time (task can never run)"
            )
        if not np.isfinite(weight) or weight <= 0:
            raise InvalidTaskError(
                f"task {task_id}: weight must be a positive finite number, got {weight}"
            )
        if not np.isfinite(release) or release < 0:
            raise InvalidTaskError(
                f"task {task_id}: release date must be non-negative, got {release}"
            )
        arr.setflags(write=False)
        self.task_id = int(task_id)
        self.times = arr
        self.weight = float(weight)
        self.release = float(release)

    @classmethod
    def _trusted(
        cls,
        task_id: int,
        times: np.ndarray,
        weight: float,
        release: float,
    ) -> "MoldableTask":
        """Construct without validation from already-validated data.

        The columnar :meth:`Instance.from_arrays` plane validates whole
        arrays at once; materialising its task objects through the regular
        constructor would re-pay per-object validation for data that is
        admissible by construction.  ``times`` must be a read-only float64
        view (rows of the instance's times matrix are).
        """
        obj = object.__new__(cls)
        obj.task_id = task_id
        obj.times = times
        obj.weight = weight
        obj.release = release
        return obj

    # ------------------------------------------------------------------ #
    # Basic queries                                                      #
    # ------------------------------------------------------------------ #
    @property
    def max_procs(self) -> int:
        """Largest number of processors the vector describes."""
        return int(self.times.size)

    def p(self, k: int) -> float:
        """Processing time on ``k`` processors (``+inf`` if forbidden).

        ``k`` larger than the vector length is also ``+inf``: the paper's
        model never speeds a task up beyond its described allotments.
        """
        if k < 1:
            raise InvalidTaskError(f"task {self.task_id}: allotment must be >= 1, got {k}")
        if k > self.times.size:
            return float("inf")
        return float(self.times[k - 1])

    def work(self, k: int) -> float:
        """Area ``k * p(k)`` occupied on a Gantt chart by allotment ``k``."""
        return k * self.p(k)

    @cached_property
    def seq_time(self) -> float:
        """Sequential processing time ``p(1)`` (``+inf`` for rigid tasks)."""
        return float(self.times[0])

    @cached_property
    def min_time(self) -> float:
        """Fastest achievable processing time over all allotments."""
        return float(np.min(self.times))

    @cached_property
    def min_work(self) -> float:
        """Smallest achievable area over all allotments.

        For monotonic tasks this is the sequential work ``p(1)``; kept
        general so rigid tasks are handled uniformly.
        """
        ks = np.arange(1, self.times.size + 1, dtype=np.float64)
        return float(np.min(ks * self.times))

    @cached_property
    def work_vector(self) -> np.ndarray:
        """Vector of areas ``k * p(k)`` for ``k = 1 .. max_procs``."""
        ks = np.arange(1, self.times.size + 1, dtype=np.float64)
        out = ks * self.times
        out.setflags(write=False)
        return out

    def speedup(self, k: int) -> float:
        """``p(1) / p(k)`` — 0.0 when ``p(1)`` is infinite (rigid tasks)."""
        p1, pk = self.seq_time, self.p(k)
        if not np.isfinite(p1) or not np.isfinite(pk):
            return 0.0
        return p1 / pk

    def efficiency(self, k: int) -> float:
        """Parallel efficiency ``speedup(k) / k`` (1.0 = perfect scaling)."""
        return self.speedup(k) / k

    @cached_property
    def speedup_vector(self) -> np.ndarray:
        """``p(1) / p(k)`` for every ``k`` (0 where either is infinite)."""
        with np.errstate(invalid="ignore"):
            out = np.where(
                np.isfinite(self.times) & np.isfinite(self.seq_time),
                self.seq_time / self.times,
                0.0,
            )
        out.setflags(write=False)
        return out

    # ------------------------------------------------------------------ #
    # Structure predicates and transforms                                #
    # ------------------------------------------------------------------ #
    def is_monotonic(self, *, rtol: float = 1e-9) -> bool:
        """``True`` iff times are non-increasing *and* work is non-decreasing.

        This is the "monotonic task" assumption of the paper (§4.1: "this
        method generates monotonic tasks, which have decreasing execution
        times and increasing work with k").  ``+inf`` entries are ignored
        for the work check (a forbidden allotment has no work).
        """
        t = self.times
        tol = 1 + rtol
        finite = np.isfinite(t)
        # Times non-increasing (inf may only appear as a prefix for rigid-ish
        # tasks; any inf after a finite entry breaks monotony).
        first_finite = int(np.argmax(finite))
        if not finite[first_finite:].all():
            return False
        tf = t[first_finite:]
        if (tf[1:] > tf[:-1] * tol).any():
            return False
        wf = self.work_vector[first_finite:]
        return not (wf[1:] < wf[:-1] / tol).any()

    def monotonized(self) -> "MoldableTask":
        """Return a copy whose time vector is forced monotonic.

        Times are replaced by their running minimum (never slower on more
        processors), then each ``p(k)`` is raised to ``work(k-1)/k`` when
        needed so the work stays non-decreasing.  Generators use this to
        clean up sampled speedup curves; the transform is idempotent.
        """
        t = np.array(self.times, dtype=np.float64)
        finite = np.isfinite(t)
        first = int(np.argmax(finite))
        t[first:] = np.minimum.accumulate(t[first:])
        # Enforce non-decreasing work in a single forward pass.
        prev_work = (first + 1) * t[first]
        for k in range(first + 2, t.size + 1):
            w = k * t[k - 1]
            if w < prev_work:
                t[k - 1] = prev_work / k
                w = prev_work
            prev_work = w
        return MoldableTask(self.task_id, t, self.weight, self.release)

    def with_release(self, release: float) -> "MoldableTask":
        """Copy of this task with a different release date."""
        return MoldableTask(self.task_id, self.times, self.weight, release)

    def with_id(self, task_id: int) -> "MoldableTask":
        """Copy of this task with a different identifier."""
        return MoldableTask(task_id, self.times, self.weight, self.release)

    # ------------------------------------------------------------------ #
    # Dunder plumbing                                                    #
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MoldableTask(id={self.task_id}, m={self.max_procs}, "
            f"p1={self.seq_time:.3g}, w={self.weight:.3g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MoldableTask):
            return NotImplemented
        return (
            self.task_id == other.task_id
            and self.weight == other.weight
            and self.release == other.release
            and np.array_equal(self.times, other.times)
        )

    def __hash__(self) -> int:
        return hash((self.task_id, self.weight, self.release, self.times.tobytes()))


def sequential_task(
    task_id: int, time: float, weight: float = 1.0, m: int = 1, release: float = 0.0
) -> MoldableTask:
    """A task with no parallelism at all: ``p(k) = time`` for every ``k``.

    With constant times the work grows linearly with ``k``, so any sensible
    algorithm allots one processor.  ``m`` controls the vector length.
    """
    return MoldableTask(task_id, np.full(m, float(time)), weight, release)


def rigid_task(
    task_id: int,
    procs: int,
    time: float,
    weight: float = 1.0,
    m: int | None = None,
    release: float = 0.0,
) -> MoldableTask:
    """A rigid job: runs on exactly ``procs`` processors, forbidden elsewhere.

    Encoded as a moldable task whose vector is ``+inf`` everywhere except
    index ``procs``.  This is how the mixed rigid/moldable extension of the
    paper's §5 is modelled.
    """
    size = procs if m is None else m
    if procs < 1 or procs > size:
        raise InvalidTaskError(
            f"task {task_id}: rigid allotment {procs} outside [1, {size}]"
        )
    times = np.full(size, np.inf)
    times[procs - 1] = float(time)
    return MoldableTask(task_id, times, weight, release)
