"""Vectorized non-domination kernels over (Cmax, minsum) point clouds.

Everything in this module works on ``(n, 2)`` float arrays of *minimised*
objectives — in this library almost always ``(Cmax ratio, sum w_i C_i
ratio)`` against the two lower bounds, but the kernels are agnostic.

Dominance follows the strict Pareto convention: ``a`` dominates ``b`` iff
``a <= b`` component-wise with strict inequality in at least one
component.  Equal points therefore never dominate each other — exact
duplicates of a non-dominated point are all non-dominated (and
:func:`pareto_front` collapses them to one representative).

The workhorse is :func:`pareto_mask`, an ``O(n log n)`` argsort-sweep:
sort the cloud lexicographically by ``(x, y)``, take two exclusive prefix
minima of ``y`` (over the points with strictly smaller / smaller-or-equal
``x``, addressed by ``searchsorted``), and a point is dominated iff one of
them beats it.  No Python-level loop touches the points; the brute-force
``O(n^2)`` comparison survives as :func:`pareto_mask_reference`, the
differential oracle of the property suite and the benchmark baseline.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_points",
    "pareto_mask",
    "pareto_mask_reference",
    "pareto_indices",
    "pareto_front",
    "merge_fronts",
]


def as_points(points: object) -> np.ndarray:
    """Normalise ``points`` to a finite ``(n, 2)`` float64 array.

    Accepts anything :func:`numpy.asarray` does — a list of ``(x, y)``
    pairs, an ``(n, 2)`` array, an empty list.  Rejects non-finite values
    (a NaN objective has no place in a dominance order).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN/inf objectives)")
    return pts


def pareto_mask(points: object) -> np.ndarray:
    """Boolean mask of the non-dominated points (minimisation, 2-D).

    ``O(n log n)``: one lexicographic argsort plus two prefix-minimum
    sweeps.  Ties are handled exactly — a point is dominated iff some
    other point is ``<=`` in both objectives and ``<`` in at least one,
    so exact duplicates of a front point all stay on the front.

    >>> pareto_mask([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (3.0, 3.0)])
    array([ True,  True,  True, False])
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    xs, ys = pts[:, 0], pts[:, 1]
    order = np.lexsort((ys, xs))
    xs_s, ys_s = xs[order], ys[order]

    # Exclusive prefix minima of y in sorted order: prefix_min[k] is the
    # smallest y among the first k sorted points (inf for k == 0).
    prefix_min = np.empty(n + 1, dtype=np.float64)
    prefix_min[0] = np.inf
    np.minimum.accumulate(ys_s, out=prefix_min[1:])

    # For each point, the best y among points with strictly smaller x
    # (dominates when <=, strict in x) and among points with x <= x_i
    # (dominates when <, strict in y; including the point itself is
    # harmless since y_i < y_i is false).
    left = np.searchsorted(xs_s, xs_s, side="left")
    right = np.searchsorted(xs_s, xs_s, side="right")
    dominated_s = (prefix_min[left] <= ys_s) | (prefix_min[right] < ys_s)

    mask = np.empty(n, dtype=bool)
    mask[order] = ~dominated_s
    return mask


def pareto_mask_reference(points: object, *, chunk: int = 512) -> np.ndarray:
    """Brute-force ``O(n^2)`` all-pairs dominance mask (the oracle).

    Compares every point against every other by broadcasting (row-chunked
    to bound memory at ``chunk * n`` comparisons).  Kept deliberately
    naive — it is the differential baseline the property suite in
    ``tests/pareto/test_front.py`` checks :func:`pareto_mask` against,
    in the same spirit as :mod:`repro.algorithms.reference`.
    """
    pts = as_points(points)
    n = pts.shape[0]
    mask = np.empty(n, dtype=bool)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        block = pts[lo:hi]  # (b, 2)
        leq = (pts[None, :, :] <= block[:, None, :]).all(axis=2)  # (b, n)
        lt = (pts[None, :, :] < block[:, None, :]).any(axis=2)
        mask[lo:hi] = ~(leq & lt).any(axis=1)
    return mask


def pareto_indices(points: object) -> np.ndarray:
    """Indices (ascending) of the non-dominated points of ``points``."""
    return np.flatnonzero(pareto_mask(points))


def pareto_front(points: object) -> np.ndarray:
    """The non-dominated *staircase*: unique front points, sorted.

    Returns a ``(k, 2)`` array sorted by ascending ``x`` — and therefore
    strictly descending ``y``, the canonical staircase form every
    consumer (hypervolume, attainment surfaces, chart rendering) relies
    on.  Exact duplicates are collapsed to one representative.

    >>> pareto_front([(2.0, 2.0), (1.0, 3.0), (1.0, 3.0), (3.0, 3.0)])
    array([[1., 3.],
           [2., 2.]])
    """
    pts = as_points(points)
    if pts.shape[0] == 0:
        return pts
    front = pts[pareto_mask(pts)]
    return np.unique(front, axis=0)  # sorts lexicographically by (x, y)


def merge_fronts(fronts: object) -> np.ndarray:
    """Merge several fronts (or raw clouds) into one combined staircase.

    The merge of Pareto fronts is the front of their union — points that
    were locally optimal but are dominated by another front's point drop
    out.  Accepts any iterable of point arrays; empty inputs are skipped.

    >>> merge_fronts([[(1.0, 3.0)], [(1.0, 2.0), (2.0, 1.0)]])
    array([[1., 2.],
           [2., 1.]])
    """
    stacked = [as_points(f) for f in fronts]
    stacked = [f for f in stacked if f.shape[0]]
    if not stacked:
        return np.zeros((0, 2), dtype=np.float64)
    return pareto_front(np.vstack(stacked))
