"""Problem instances: ``n`` moldable tasks and ``m`` identical processors.

The off-line model of the paper (§3.2): all tasks available at time 0, fully
described by their processing-time vectors and weights.

Two representations back the same interface:

* **Object-backed** (the original): constructed from a sequence of
  :class:`~repro.core.task.MoldableTask`; the dense ``(n, m)`` matrix the
  vectorised kernels consume is derived lazily from the task vectors.
* **Array-backed** (the columnar plane): constructed zero-copy from the
  ``(n, m)`` time matrix and the weight/release vectors via
  :meth:`Instance.from_arrays`; the :class:`MoldableTask` *objects* are
  derived lazily, and only where a consumer genuinely needs them (schedule
  placements, batch merging).  Vectorised generators and the experiment
  engine use this path so campaign setup never pays per-object costs.

Either way the instance is immutable and every derived quantity is cached.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import kernels
from repro.core.task import MoldableTask
from repro.exceptions import InvalidInstanceError

__all__ = ["Instance", "all_distinct"]


def all_distinct(ids: np.ndarray) -> bool:
    """Whether the 1-D array ``ids`` holds no value twice.

    A sort and one comparison of neighbours: ``np.unique`` answers the
    same through a hash table, about fifteen times slower on a 15k-job
    archive's ids, sorted or shuffled.
    """
    ordered = np.sort(ids)
    return not (ordered[1:] == ordered[:-1]).any()


class Instance:
    """An immutable scheduling instance.

    Parameters
    ----------
    tasks:
        The moldable tasks.  Task ids must be unique; they need not be
        contiguous (sub-instances built by batch algorithms keep original
        ids).
    m:
        Number of identical processors of the cluster.

    Raises
    ------
    InvalidInstanceError
        If ids collide, ``m < 1``, or some task cannot run on ``<= m``
        processors at all (it could never be scheduled).
    """

    __slots__ = ("m", "_tasks", "__dict__")

    def __init__(self, tasks: Sequence[MoldableTask] | Iterable[MoldableTask], m: int) -> None:
        tasks = tuple(tasks)
        if m < 1:
            raise InvalidInstanceError(f"cluster must have at least 1 processor, got m={m}")
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InvalidInstanceError(f"duplicate task ids: {dupes}")
        for t in tasks:
            if not np.isfinite(t.times[: min(m, t.max_procs)]).any():
                raise InvalidInstanceError(
                    f"task {t.task_id} has no feasible allotment within m={m} processors"
                )
        self._tasks = tasks
        self.m = int(m)

    # ------------------------------------------------------------------ #
    # Columnar construction                                              #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        times_matrix: np.ndarray,
        weights: np.ndarray | None = None,
        releases: np.ndarray | None = None,
        m: int | None = None,
        *,
        task_ids: np.ndarray | None = None,
        validate: bool = True,
    ) -> "Instance":
        """Zero-copy instance from the dense ``(n, m)`` representation.

        Parameters
        ----------
        times_matrix:
            ``(n, m)`` float array of ``p_i(k)``; ``+inf`` marks forbidden
            allotments.  Like every array argument here, it is adopted
            without copying — and marked **read-only in place** — whenever
            it already is a C-contiguous array of the target dtype
            (float64; int64 for ``task_ids``); otherwise a converted copy
            is frozen and the caller's array stays untouched.  Callers who
            need to keep mutating what they pass in should pass a copy.
        weights:
            ``(n,)`` positive weights (default: all ones).
        releases:
            ``(n,)`` non-negative release dates (default: all zeros).
        m:
            Number of processors; defaults to ``times_matrix.shape[1]``
            and must equal it (the columnar plane stores exactly the
            cluster-width matrix).
        task_ids:
            ``(n,)`` unique integer ids (default: ``0 .. n-1``).
        validate:
            Vectorised validation of all of the above.  Generators that
            produce admissible data by construction may skip it.

        The corresponding :class:`MoldableTask` objects are materialised
        lazily on first access to :attr:`tasks` (or any API built on it).
        """
        times_matrix = np.ascontiguousarray(times_matrix, dtype=np.float64)
        if times_matrix.ndim != 2:
            raise InvalidInstanceError(
                f"times_matrix must be 2-D (n, m), got shape {times_matrix.shape}"
            )
        n, width = times_matrix.shape
        m = width if m is None else int(m)
        if m < 1:
            raise InvalidInstanceError(f"cluster must have at least 1 processor, got m={m}")
        if m != width:
            raise InvalidInstanceError(
                f"times_matrix width {width} does not match m={m}; the columnar "
                f"plane stores exactly the (n, m) cluster matrix"
            )
        weights = (
            np.ones(n) if weights is None else np.ascontiguousarray(weights, dtype=np.float64)
        )
        releases = (
            np.zeros(n) if releases is None else np.ascontiguousarray(releases, dtype=np.float64)
        )
        task_ids = (
            np.arange(n, dtype=np.int64)
            if task_ids is None
            else np.ascontiguousarray(task_ids, dtype=np.int64)
        )
        if weights.shape != (n,) or releases.shape != (n,) or task_ids.shape != (n,):
            raise InvalidInstanceError(
                f"weights/releases/task_ids must all have shape ({n},), got "
                f"{weights.shape}/{releases.shape}/{task_ids.shape}"
            )

        if validate:
            if np.isnan(times_matrix).any():
                raise InvalidInstanceError("times_matrix contains NaN")
            if (times_matrix <= 0).any():  # -inf included
                raise InvalidInstanceError("processing times must be strictly positive")
            bad_rows = np.flatnonzero(~np.isfinite(times_matrix).any(axis=1))
            if bad_rows.size:
                raise InvalidInstanceError(
                    f"tasks {task_ids[bad_rows[:5]].tolist()} have no feasible "
                    f"allotment within m={m} processors"
                )
            if not np.isfinite(weights).all() or (weights <= 0).any():
                raise InvalidInstanceError("weights must be positive finite numbers")
            if not np.isfinite(releases).all() or (releases < 0).any():
                raise InvalidInstanceError("release dates must be non-negative")
            if not all_distinct(task_ids):
                raise InvalidInstanceError("duplicate task ids in task_ids")

        for arr in (times_matrix, weights, releases, task_ids):
            arr.setflags(write=False)

        inst = object.__new__(cls)
        inst.m = m
        inst._tasks = None
        inst.__dict__.update(
            times_matrix=times_matrix,
            weights=weights,
            releases=releases,
            task_ids=task_ids,
        )
        return inst

    # ------------------------------------------------------------------ #
    # Container protocol                                                 #
    # ------------------------------------------------------------------ #
    @property
    def tasks(self) -> tuple[MoldableTask, ...]:
        """The task objects (materialised lazily for array-backed instances)."""
        if self._tasks is None:
            tm = self.times_matrix
            self._tasks = tuple(
                MoldableTask._trusted(int(tid), tm[i], float(w), float(rel))
                for i, (tid, w, rel) in enumerate(
                    zip(self.task_ids.tolist(), self.weights.tolist(), self.releases.tolist())
                )
            )
        return self._tasks

    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.weights) if self._tasks is None else len(self._tasks)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[MoldableTask]:
        return iter(self.tasks)

    def __getitem__(self, idx: int) -> MoldableTask:
        return self.tasks[idx]

    def task_by_id(self, task_id: int) -> MoldableTask:
        """Look up a task by identifier (O(1) after the first call)."""
        try:
            return self._id_index[task_id]
        except KeyError:
            raise KeyError(f"no task with id {task_id} in instance") from None

    @cached_property
    def _id_index(self) -> dict[int, MoldableTask]:
        return {t.task_id: t for t in self.tasks}

    # ------------------------------------------------------------------ #
    # Derived matrices and bounds                                        #
    # ------------------------------------------------------------------ #
    @cached_property
    def times_matrix(self) -> np.ndarray:
        """Dense ``(n, m)`` matrix of ``p_i(k)``; ``+inf`` where undefined.

        Array-backed instances store this directly (their primary
        representation).  For object-backed instances it is built from the
        task vectors in one vectorised pad/stack: vectors shorter than
        ``m`` are padded with ``+inf`` (the task cannot use more
        processors), longer ones truncated (the cluster has no more
        processors to give).
        """
        n, m = self.n, self.m
        tasks = self._tasks
        if n == 0:
            out = np.full((0, m), np.inf)
            out.setflags(write=False)
            return out
        sizes = {t.times.size for t in tasks}
        if len(sizes) == 1:
            width = sizes.pop()
            stacked = np.stack([t.times for t in tasks])
            if width >= m:
                out = np.ascontiguousarray(stacked[:, :m])
            else:
                out = np.full((n, m), np.inf)
                out[:, :width] = stacked
        else:
            # Heterogeneous vector lengths: scatter the concatenated
            # (truncated) vectors through a column mask — no Python row
            # loop, one pass over the data.
            widths = np.fromiter(
                (min(t.times.size, m) for t in tasks), dtype=np.int64, count=n
            )
            out = np.full((n, m), np.inf)
            mask = np.arange(m) < widths[:, None]
            out[mask] = np.concatenate([t.times[:m] for t in tasks])
        out.setflags(write=False)
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        """``(n,)`` vector of task weights."""
        out = np.array([t.weight for t in self._tasks], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def releases(self) -> np.ndarray:
        """``(n,)`` vector of release dates (zeros for off-line instances)."""
        out = np.array([t.release for t in self._tasks], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def task_ids(self) -> np.ndarray:
        """``(n,)`` vector of task identifiers, in instance order."""
        out = np.array([t.task_id for t in self._tasks], dtype=np.int64)
        out.setflags(write=False)
        return out

    @cached_property
    def _row_floors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row_min_time, row_min_area)``: every row's smallest time and
        smallest area ``k * p(k)`` of :attr:`times_matrix`, from one pass
        of :func:`repro.kernels.row_floor_core`.  The floors below reduce
        these with NumPy's own ``min``, ``max`` and pairwise ``sum``, so
        they are the same bits as reductions over the whole matrix."""
        row_min_time, row_min_area = kernels.row_floor_core(self.times_matrix)
        row_min_time.setflags(write=False)
        row_min_area.setflags(write=False)
        return row_min_time, row_min_area

    @cached_property
    def tmin(self) -> float:
        """Smallest processing time over all tasks and allotments.

        This is the paper's ``t_min = min_{i,j} p_i(j)`` used to size the
        smallest useful batch: the smallest row floor.  Raises
        :class:`ValueError` on an empty instance.
        """
        return float(np.min(self._row_floors[0]))

    @cached_property
    def min_times(self) -> np.ndarray:
        """``(n,)`` vector of each task's :attr:`MoldableTask.min_time`.

        The minimum runs over the task's *full* vector: an object-backed
        task described beyond ``m`` processors keeps its fastest time even
        though :attr:`times_matrix` truncates it.  For every other task it
        is the row minimum of the matrix.
        """
        out = self._row_floors[0].copy()
        if self._tasks is not None:
            for row, task in enumerate(self._tasks):
                if task.max_procs > self.m:
                    out[row] = task.min_time
        out.setflags(write=False)
        return out

    @cached_property
    def max_min_time(self) -> float:
        """``max_i min_k p_i(k)`` — no schedule can finish before this.

        The largest row floor of :attr:`times_matrix`; raises
        :class:`ValueError` on an empty instance.
        """
        return float(np.max(self._row_floors[0]))

    @cached_property
    def min_total_work(self) -> float:
        """Sum over tasks of the minimal achievable area (0.0 when empty).

        ``min_total_work / m`` is the classic area lower bound on the
        makespan.  Each task's minimal area is its row's smallest
        ``k * p(k)`` within ``m`` processors.
        """
        return float(self._row_floors[1].sum())

    @cached_property
    def max_release(self) -> float:
        """Latest release date (0 for pure off-line instances)."""
        releases = self.releases
        if releases.size == 0:
            return 0.0
        return float(releases.max())

    def is_offline(self) -> bool:
        """``True`` iff every task is available at time 0."""
        return self.max_release == 0.0

    # ------------------------------------------------------------------ #
    # Sub-instances                                                      #
    # ------------------------------------------------------------------ #
    def restrict(self, task_ids: Iterable[int]) -> "Instance":
        """Sub-instance keeping only ``task_ids`` (same machine).

        Batch algorithms use this to hand a batch's content to a substrate
        algorithm without renumbering tasks.  Array-backed instances
        restrict by row selection (no task objects are materialised);
        object-backed ones keep their original task objects.
        """
        wanted = set(task_ids)
        if self._tasks is None:
            ids = self.task_ids
            keep = np.fromiter((int(i) in wanted for i in ids), dtype=bool, count=ids.size)
            missing = wanted - {int(i) for i in ids[keep]}
            if missing:
                raise KeyError(f"task ids not in instance: {sorted(missing)}")
            return Instance.from_arrays(
                self.times_matrix[keep],
                self.weights[keep],
                self.releases[keep],
                self.m,
                task_ids=ids[keep],
                validate=False,
            )
        kept = [t for t in self._tasks if t.task_id in wanted]
        missing = wanted - {t.task_id for t in kept}
        if missing:
            raise KeyError(f"task ids not in instance: {sorted(missing)}")
        return Instance(kept, self.m)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance(n={self.n}, m={self.m})"
