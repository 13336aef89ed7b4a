"""Cirne–Berman moldable-job model (§4.1, second variant; paper ref [5]).

Cirne & Berman ("A model for moldable supercomputer jobs", IPDPS 2001) fit a
generative model of moldable jobs from a user survey.  A job's speedup curve
follows **Downey's parametric model** (Downey, "A model for speedup of
parallel programs", 1997), characterised by

* ``A`` — the *average parallelism* of the job, and
* ``sigma`` — the coefficient of variation of parallelism (how irregular
  the parallelism profile is; ``sigma = 0`` means perfectly linear speedup
  up to ``A`` processors, larger values bend the curve down earlier).

Downey's speedup on ``n`` processors:

for ``sigma <= 1``::

    S(n) = A n / (A + sigma (n - 1) / 2)              1 <= n <= A
    S(n) = A n / (sigma (A - 1/2) + n (1 - sigma/2))  A <= n <= 2A - 1
    S(n) = A                                          n >= 2A - 1

for ``sigma >= 1``::

    S(n) = n A (sigma + 1) / (sigma (n + A - 1) + A)  1 <= n <= A + A sigma - sigma
    S(n) = A                                          otherwise

Both branches satisfy ``S(1) = 1``, ``S`` non-decreasing and ``S(n)/n``
non-increasing, so the induced tasks are monotonic.

Parameter distributions.  The survey fit of Cirne–Berman draws the *log* of
``A`` uniformly (jobs span the whole range of parallelism on a log scale)
and ``sigma`` uniformly over a small interval.  We substitute ``log2(A) ~
U(0, log2(m))`` and ``sigma ~ U(0, 2)``.  The SPAA'04 paper combines this
with uniform(1, 10) sequential times ("Only the uniform(1, 10) sequential
time model is used for these tasks").
"""

from __future__ import annotations

import numpy as np

from repro.core.task import MoldableTask
from repro.utils.rng import make_rng

__all__ = ["downey_speedup", "sample_downey_params", "cirne_task"]

#: Upper bound of the uniform sigma distribution.
SIGMA_HIGH = 2.0


def downey_speedup(n: np.ndarray | float, A: float, sigma: float) -> np.ndarray:
    """Downey's speedup ``S(n)`` for average parallelism ``A`` and ``sigma``.

    Vectorised over ``n`` (floats accepted).  ``A >= 1`` and ``sigma >= 0``
    are required; ``A = 1`` yields ``S ≡ 1`` (a sequential job).
    """
    if A < 1:
        raise ValueError(f"average parallelism A must be >= 1, got {A}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    n_arr = np.asarray(n, dtype=np.float64)
    out = np.empty_like(n_arr)
    if sigma <= 1.0:
        low = n_arr <= A
        mid = (n_arr > A) & (n_arr <= 2 * A - 1)
        high = n_arr > 2 * A - 1
        # sigma == 0 degenerates to linear speedup capped at A.
        out[low] = A * n_arr[low] / (A + sigma * (n_arr[low] - 1) / 2.0)
        out[mid] = A * n_arr[mid] / (sigma * (A - 0.5) + n_arr[mid] * (1 - sigma / 2.0))
        out[high] = A
    else:
        knee = A + A * sigma - sigma
        low = n_arr <= knee
        out[low] = (
            n_arr[low] * A * (sigma + 1) / (sigma * (n_arr[low] + A - 1) + A)
        )
        out[~low] = A
    # Guard against floating-point dips below 1 near n = 1.
    return np.maximum(out, 1.0) if out.ndim else max(float(out), 1.0)


def sample_downey_params(
    rng: np.random.Generator | int | None, m: int
) -> tuple[float, float]:
    """Draw ``(A, sigma)`` from the Cirne–Berman-style distributions.

    ``log2(A) ~ U(0, log2(m))`` and ``sigma ~ U(0, 2)``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rng = make_rng(rng)
    log2_a = rng.uniform(0.0, np.log2(max(m, 2)))
    a = float(2.0**log2_a)
    sigma = float(rng.uniform(0.0, SIGMA_HIGH))
    return a, sigma


def cirne_task(
    rng: np.random.Generator | int | None,
    task_id: int,
    seq_time: float,
    m: int,
    weight: float = 1.0,
) -> MoldableTask:
    """A moldable task with a Downey speedup curve and CB-sampled parameters.

    ``p(k) = seq_time / S(k)``; the result is monotonised to erase any
    floating-point wrinkles at the branch boundaries of the speedup model.
    """
    if seq_time <= 0:
        raise ValueError(f"sequential time must be positive, got {seq_time}")
    rng = make_rng(rng)
    A, sigma = sample_downey_params(rng, m)
    ks = np.arange(1, m + 1, dtype=np.float64)
    times = seq_time / downey_speedup(ks, A, sigma)
    return MoldableTask(task_id, times, weight=weight).monotonized()
