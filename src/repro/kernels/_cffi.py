"""cffi kernel backend: the DEMT inner loops, event loops and SWF scan as C.

The C code replicates the NumPy backend's float-op order exactly — IEEE
double adds and compares in the same sequence — so every DP value, every
keep/choice bit, every Graham start time, every FCFS start and every
faulty-batch event is bit-identical to :mod:`._numpy` (the differential
suites pin this).
Where the order could matter:

* the max-weight knapsack walks capacities *descending* per item, which
  reads only pre-item values — the same read set as NumPy's out-of-place
  ``candidate`` row — and applies ``np.maximum``'s NaN propagation
  explicitly;
* the min-work DP mirrors the ``wa >= wb`` shift collapse and the
  ``via_a``/``via_b`` elementwise minimum (again descending, again the
  pre-item read set); the reconstructing variant records the strict
  ``via_a < via_b`` choice bits, packed like the knapsack's keep bits,
  and walks them back from capacity ``m``;
* the dual sweep forms each area as ``(double)k * p`` in the loop, the
  same IEEE product as ``times_matrix * arange(1, m + 1)``; comparisons
  and minima are exact, so it needs no areas matrix;
* the row floors form the same products and keep two running minima per
  row (even and odd columns), which exactness makes ``np.min``'s value;
  a row holding a NaN returns its first NaN, as ``np.min`` propagates it;
* the Graham heap orders by end time only; Python's ``(end, allot)``
  tuple heap breaks end-time ties by allotment, but tied completions are
  always drained together before the next placement, so the freed-count
  sum — the only thing the loop reads — is order-independent.
* the FCFS loop keeps its running jobs sorted by end time only, where
  the NumPy backend's ``insort`` also orders equal ends by allotment;
  the loop reads only which ends fall in a window, the freed count, the
  smallest end and the first end at which the running prefix frees
  enough processors, none of which depends on the order of equal ends.
  Its window cuts, EASY limits and ends are the same IEEE additions
  (``t0 + eps``, ``end + eps``, ``now + duration``).
* the faulty batch loop orders its heap by (time, priority, id), which
  is Python's tuple order on the NumPy backend's unique heap keys, and
  sorts each window stably by (priority, time, id) like ``list.sort``;
  starts, ends, the horizon and window cuts are the same IEEE additions
  and maxima (``now + offset``, ``start + duration``, ``t0 + eps``).

The SWF scan does no arithmetic to order: each used field is converted
exactly — Clinger's fast path where the decimal mantissa is at most 2^53
and the power of ten at most 1e22 (one IEEE multiply or divide of exact
operands, compiled only where ``FLT_EVAL_METHOD == 0``), ``strtod``
otherwise — so its doubles are the correctly rounded ones that
``np.loadtxt`` and Python's ``float`` return.  It declines, rather than
guesses, on anything the line path of :mod:`repro.workloads.trace` might
read differently.

The extension module is compiled on first import into a cache directory
(``REPRO_KERNELS_CACHE``, default ``<tempdir>/repro_kernels``) keyed by a
hash of the C source, so rebuilds only happen when the source changes and
process-pool workers reuse the cached artifact.  Any build or toolchain
failure raises ``ImportError`` — the package then falls back to NumPy.

**GIL release.**  cffi calls C functions with the GIL *released* (API
mode drops it around every call into ``lib``), and these entry points
touch only caller-owned NumPy buffers — no Python API, no
callbacks — so concurrent kernel calls from different threads genuinely
overlap.  The campaign engine's thread backend depends on this for real
parallelism on kernel-bound cells; ``tests/kernels/test_gil_release.py``
pins the release (main-thread bytecode must keep running mid-call), so a
cffi regression that started holding the GIL would fail loudly instead
of silently serialising thread campaigns.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.exceptions import SchedulingError
from repro.kernels._numpy import (
    FaultyBatch,
    check_faulty_batch_inputs,
    check_swf_scan_inputs,
)

__all__ = [
    "name",
    "knapsack_select_core",
    "knapsack_min_work_value_core",
    "knapsack_min_work_core",
    "dual_sweep_core",
    "row_floor_core",
    "graham_starts_core",
    "fcfs_starts_core",
    "faulty_batch_core",
    "swf_scan_core",
]

name = "cffi"

_CDEF = """
int64_t repro_knapsack_select(const int64_t *allot, const double *weights,
                              int64_t n, int64_t m, double *best,
                              int64_t *chosen, double *total_out,
                              int64_t *used_out);
void repro_min_work_value(const double *work_a, const int64_t *cost_a,
                          const double *work_b, int64_t n, int64_t m,
                          double *dp);
int repro_min_work(const double *work_a, const int64_t *cost_a,
                   const double *work_b, int64_t n, int64_t m, double *dp,
                   uint8_t *in_a);
void repro_dual_sweep(const double *times, int64_t n, int64_t m, double lam,
                      int64_t *g_big, int64_t *g_small, double *work_big,
                      double *work_small);
void repro_row_floor(const double *times, int64_t n, int64_t m,
                     double *min_time, double *min_area);
int64_t repro_graham(const int64_t *allot, const double *dur, int64_t n,
                     int64_t m, double start_time, double cutoff,
                     int use_cutoff, double *starts, int64_t *order);
int64_t repro_fcfs(const int64_t *tape, const double *tape_t,
                   const int64_t *allot, const double *dur, int64_t n,
                   int64_t m, int backfill, double eps, int64_t *rows,
                   double *starts, int64_t *depths);
int64_t repro_faulty_batch(double now, const int64_t *jid, const int64_t *k,
                           const double *offset, const double *dur, int64_t n,
                           const double *cap_t, const int64_t *cap_mach,
                           const int64_t *cap_delta, int64_t n_cap,
                           double eps, int64_t *istate, double *fstate,
                           int64_t *iout, double *fout);
int repro_swf_scan(const uint8_t *buf, int64_t len, int64_t start,
                   double *rows, int64_t row_cap, int64_t *spans,
                   int64_t span_cap, int64_t *out);
"""

_C_SOURCE = r"""
#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ------------------------------------------------------------------ */
/* Max-weight 0/1 knapsack DP + reconstruction.                        */
/*                                                                     */
/* Capacities walk DESCENDING per item so best[q - a] is always the    */
/* pre-item value -- the exact read set of the NumPy backend's         */
/* out-of-place candidate row.  The keep bits live in one bitset of    */
/* n * ceil((m+1)/64) words (the bit-packed replacement for the old    */
/* n x (m+1) bool matrix).  Returns the number of chosen items, or -1  */
/* on allocation failure.                                              */
/* ------------------------------------------------------------------ */
int64_t repro_knapsack_select(const int64_t *allot, const double *weights,
                              int64_t n, int64_t m, double *best,
                              int64_t *chosen, double *total_out,
                              int64_t *used_out)
{
    int64_t stride = (m + 1 + 63) / 64;
    uint64_t *keep = calloc((size_t)(n * stride), sizeof(uint64_t));
    if (!keep)
        return -1;
    for (int64_t q = 0; q <= m; q++)
        best[q] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = allot[i];
        if (a > m)
            continue; /* can never fit; keep row stays 0 */
        double w = weights[i];
        uint64_t *row = keep + i * stride;
        for (int64_t q = m; q >= a; q--) {
            double cand = best[q - a] + w;
            double cur = best[q];
            if (cand > cur) {
                best[q] = cand;
                row[q >> 6] |= (uint64_t)1 << (q & 63);
            } else if (cand != cand) {
                best[q] = cand; /* np.maximum propagates NaN */
            }
        }
    }
    double total = best[m];
    /* np.argmax(best >= total): first capacity achieving the optimum
       (0 when no comparison is true, e.g. a NaN total). */
    int64_t q = 0;
    while (q <= m && !(best[q] >= total))
        q++;
    if (q > m)
        q = 0;
    int64_t cnt = 0;
    for (int64_t i = n - 1; i >= 0; i--) {
        if ((keep[i * stride + (q >> 6)] >> (q & 63)) & 1) {
            chosen[cnt++] = i;
            q -= allot[i];
        }
    }
    for (int64_t x = 0, y = cnt - 1; x < y; x++, y--) {
        int64_t t = chosen[x];
        chosen[x] = chosen[y];
        chosen[y] = t;
    }
    int64_t used = 0;
    for (int64_t x = 0; x < cnt; x++)
        used += allot[chosen[x]];
    *total_out = total;
    *used_out = used;
    free(keep);
    return cnt;
}

/* ------------------------------------------------------------------ */
/* Binary-choice min-work knapsack, value only.                        */
/* ------------------------------------------------------------------ */
static inline double npy_minimum(double a, double b)
{
    /* np.minimum: the smaller operand, NaN if either is NaN. */
    if (a != a)
        return a;
    if (b != b)
        return b;
    return (a < b) ? a : b;
}

void repro_min_work_value(const double *work_a, const int64_t *cost_a,
                          const double *work_b, int64_t n, int64_t m,
                          double *dp)
{
    for (int64_t q = 0; q <= m; q++)
        dp[q] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double wa = work_a[i];
        double wb = work_b[i];
        if (wa >= wb) {
            /* Option A can never strictly win: constant shift. */
            for (int64_t q = 0; q <= m; q++)
                dp[q] = dp[q] + wb;
            continue;
        }
        int64_t c = cost_a[i];
        if (c <= m && isfinite(wa)) {
            /* Descending q: dp[q - c] is still the pre-item value. */
            for (int64_t q = m; q >= c; q--) {
                double va = dp[q - c] + wa;
                double vb = dp[q] + wb;
                dp[q] = npy_minimum(va, vb);
            }
            for (int64_t q = c - 1; q >= 0; q--)
                dp[q] = dp[q] + wb; /* via_a = inf there: min is via_b */
        } else {
            for (int64_t q = 0; q <= m; q++)
                dp[q] = dp[q] + wb;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Binary-choice min-work knapsack with reconstruction.                */
/*                                                                     */
/* The value DP above plus one choice bit per (item, capacity): set    */
/* where via_a < via_b strictly, packed into n * ceil((m+1)/64) words  */
/* like the knapsack's keep bits.  Rows the shift collapse or an       */
/* unusable option A handles keep all-zero bits.  When dp[m] is        */
/* finite, in_a is walked back from capacity m (costs must be >= 0).   */
/* Returns 0, or -1 on allocation failure.                             */
/* ------------------------------------------------------------------ */
int repro_min_work(const double *work_a, const int64_t *cost_a,
                   const double *work_b, int64_t n, int64_t m, double *dp,
                   uint8_t *in_a)
{
    int64_t stride = (m + 1 + 63) / 64;
    uint64_t *choice = calloc((size_t)(n * stride) + 1, sizeof(uint64_t));
    if (!choice)
        return -1;
    for (int64_t q = 0; q <= m; q++)
        dp[q] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double wa = work_a[i];
        double wb = work_b[i];
        if (wa >= wb) {
            for (int64_t q = 0; q <= m; q++)
                dp[q] = dp[q] + wb;
            continue;
        }
        int64_t c = cost_a[i];
        if (c <= m && isfinite(wa)) {
            uint64_t *row = choice + i * stride;
            for (int64_t q = m; q >= c; q--) {
                double va = dp[q - c] + wa;
                double vb = dp[q] + wb;
                if (va < vb)
                    row[q >> 6] |= (uint64_t)1 << (q & 63);
                dp[q] = npy_minimum(va, vb);
            }
            for (int64_t q = c - 1; q >= 0; q--)
                dp[q] = dp[q] + wb;
        } else {
            for (int64_t q = 0; q <= m; q++)
                dp[q] = dp[q] + wb;
        }
    }
    if (isfinite(dp[m])) {
        int64_t q = m;
        for (int64_t i = n - 1; i >= 0; i--) {
            if ((choice[i * stride + (q >> 6)] >> (q & 63)) & 1) {
                in_a[i] = 1;
                q -= cost_a[i];
            }
        }
    }
    free(choice);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Dual-approximation sweep: one pass over the row-major (n, m) time   */
/* matrix gives every task's minimal allotment (0 = none) and minimal  */
/* area k * p(k) (+inf = none) under lam and under lam / 2.  The area  */
/* is the same IEEE product as times_matrix * arange(1, m + 1); the    */
/* first-fit index and the exact minimum match argmax and np.min.      */
/* The selects are written branch-free (the deadline tests are         */
/* data-dependent); areas are never NaN, so `<` is an exact minimum.   */
/* ------------------------------------------------------------------ */
void repro_dual_sweep(const double *times, int64_t n, int64_t m, double lam,
                      int64_t *g_big, int64_t *g_small, double *work_big,
                      double *work_small)
{
    double half = lam / 2.0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = times + i * m;
        int64_t gb = 0, gs = 0;
        double wb = INFINITY, ws = INFINITY;
        for (int64_t k = 0; k < m; k++) {
            double p = row[k];
            double area = (double)(k + 1) * p;
            int ok_b = p <= lam;
            int ok_s = p <= half;
            double ab = ok_b ? area : INFINITY;
            double as = ok_s ? area : INFINITY;
            wb = ab < wb ? ab : wb;
            ws = as < ws ? as : ws;
            gb = (gb == 0 && ok_b) ? k + 1 : gb;
            gs = (gs == 0 && ok_s) ? k + 1 : gs;
        }
        g_big[i] = gb;
        g_small[i] = gs;
        work_big[i] = wb;
        work_small[i] = ws;
    }
}

/* ------------------------------------------------------------------ */
/* Row floors: one pass over the row-major (n, m >= 1) time matrix     */
/* gives every row's smallest time and smallest area k * p(k), the     */
/* same IEEE product as times_matrix * arange(1, m + 1).  Minima are   */
/* exact, so two accumulators per floor (even and odd k) give np.min's */
/* value; a row holding a NaN gets its first NaN (and that NaN's area) */
/* instead, as np.min propagates it.                                   */
/* ------------------------------------------------------------------ */
void repro_row_floor(const double *times, int64_t n, int64_t m,
                     double *min_time, double *min_area)
{
    for (int64_t i = 0; i < n; i++) {
        const double *row = times + i * m;
        double t0 = row[0], a0 = row[0], t1 = row[0], a1 = row[0];
        int nan = row[0] != row[0];
        int64_t k = 1;
        for (; k + 1 < m; k += 2) {
            double p = row[k], q = row[k + 1];
            double ap = (double)(k + 1) * p, aq = (double)(k + 2) * q;
            t0 = p < t0 ? p : t0;
            a0 = ap < a0 ? ap : a0;
            t1 = q < t1 ? q : t1;
            a1 = aq < a1 ? aq : a1;
            nan |= (p != p) | (q != q);
        }
        if (k < m) {
            double p = row[k], ap = (double)(k + 1) * p;
            t0 = p < t0 ? p : t0;
            a0 = ap < a0 ? ap : a0;
            nan |= p != p;
        }
        if (nan) {
            for (k = 0; row[k] == row[k]; k++)
                ;
            t0 = t1 = row[k];
            a0 = a1 = (double)(k + 1) * row[k];
        }
        min_time[i] = t1 < t0 ? t1 : t0;
        min_area[i] = a1 < a0 ? a1 : a0;
    }
}

/* ------------------------------------------------------------------ */
/* Graham list-scheduling event loop.                                  */
/*                                                                     */
/* Binary min-heap of (end, allot) ordered by end only; bucket heads   */
/* per distinct allotment value exactly like the Python loop.  Returns */
/* 0 on success, -1 on deadlock, -2 when the cutoff was exceeded, -3   */
/* on allocation failure.                                              */
/* ------------------------------------------------------------------ */
static void heap_push(double *he, int64_t *ha, int64_t *size, double e,
                      int64_t a)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (he[p] <= e)
            break;
        he[i] = he[p];
        ha[i] = ha[p];
        i = p;
    }
    he[i] = e;
    ha[i] = a;
}

static void heap_pop(double *he, int64_t *ha, int64_t *size)
{
    int64_t last = --(*size);
    double e = he[last];
    int64_t a = ha[last];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        if (l >= last)
            break;
        int64_t r = l + 1;
        int64_t sm = (r < last && he[r] < he[l]) ? r : l;
        if (he[sm] >= e)
            break;
        he[i] = he[sm];
        ha[i] = ha[sm];
        i = sm;
    }
    he[i] = e;
    ha[i] = a;
}

int64_t repro_graham(const int64_t *allot, const double *dur, int64_t n,
                     int64_t m, double start_time, double cutoff,
                     int use_cutoff, double *starts, int64_t *order)
{
    int64_t status = 0;
    int64_t *slot_of = malloc((size_t)(m + 1) * sizeof(int64_t));
    int64_t *count = calloc((size_t)(m + 1), sizeof(int64_t));
    int64_t *values = malloc((size_t)(m + 1) * sizeof(int64_t));
    int64_t *cut = malloc((size_t)(m + 1) * sizeof(int64_t));
    int64_t *items = malloc((size_t)n * sizeof(int64_t));
    int64_t *offset = malloc((size_t)(m + 2) * sizeof(int64_t));
    int64_t *fill = malloc((size_t)(m + 1) * sizeof(int64_t));
    int64_t *cursor = calloc((size_t)(m + 1), sizeof(int64_t));
    int64_t *heads = malloc((size_t)(m + 1) * sizeof(int64_t));
    double *hend = malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    int64_t *hal = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (!slot_of || !count || !values || !cut || !items || !offset || !fill ||
        !cursor || !heads || !hend || !hal) {
        status = -3;
        goto done;
    }

    for (int64_t i = 0; i < n; i++) {
        if (allot[i] < 0 || allot[i] > m) {
            status = -1; /* would deadlock: report like the Python loop */
            goto done;
        }
        count[allot[i]]++;
    }
    int64_t V = 0;
    for (int64_t a = 0; a <= m; a++) {
        if (count[a]) {
            slot_of[a] = V;
            values[V] = a;
            V++;
        } else {
            slot_of[a] = -1;
        }
    }
    offset[0] = 0;
    for (int64_t s = 0; s < V; s++)
        offset[s + 1] = offset[s] + count[values[s]];
    for (int64_t s = 0; s < V; s++)
        fill[s] = offset[s];
    for (int64_t i = 0; i < n; i++)
        items[fill[slot_of[allot[i]]]++] = i;
    for (int64_t s = 0; s < V; s++)
        heads[s] = items[offset[s]];
    { /* cut[f] = number of distinct values <= f (bisect_right) */
        int64_t s = 0;
        for (int64_t f = 0; f <= m; f++) {
            while (s < V && values[s] <= f)
                s++;
            cut[f] = s;
        }
    }

    int64_t free_p = m;
    double now = start_time;
    int64_t placed = 0;
    int64_t pos = 0;
    int64_t hsize = 0;

    while (placed < n) {
        while (free_p > 0) {
            int64_t c = cut[free_p];
            if (c == 0)
                break;
            int64_t idx = n;
            for (int64_t s = 0; s < c; s++)
                if (heads[s] < idx)
                    idx = heads[s];
            if (idx == n)
                break;
            starts[idx] = now;
            order[pos++] = idx;
            int64_t a = allot[idx];
            heap_push(hend, hal, &hsize, now + dur[idx], a);
            free_p -= a;
            placed++;
            int64_t s = slot_of[a];
            int64_t cur = ++cursor[s];
            heads[s] = (offset[s] + cur < offset[s + 1]) ? items[offset[s] + cur]
                                                         : n;
        }
        if (placed == n)
            break;
        if (hsize == 0) {
            status = -1; /* deadlock */
            break;
        }
        double end = hend[0];
        int64_t a = hal[0];
        heap_pop(hend, hal, &hsize);
        free_p += a;
        now = end;
        while (hsize && hend[0] <= now) {
            free_p += hal[0];
            heap_pop(hend, hal, &hsize);
        }
        if (use_cutoff && now > cutoff) {
            status = -2;
            break;
        }
    }

done:
    free(slot_of);
    free(count);
    free(values);
    free(cut);
    free(items);
    free(offset);
    free(fill);
    free(cursor);
    free(heads);
    free(hend);
    free(hal);
    return status;
}

/* ------------------------------------------------------------------ */
/* On-line FCFS / EASY dispatch event loop.                            */
/*                                                                     */
/* The NumPy backend's loop statement for statement.  The caller      */
/* passes the arrival tape (rows sorted by release, then task id) and  */
/* its release times.  The running jobs are one array sorted by end,   */
/* both the FINISH queue (completions leave from its front) and the    */
/* end index the EASY bound walks; it never holds more than m jobs,    */
/* since each holds >= 1 processor.  Equal ends may sit in any order:  */
/* the loop reads only which ends fall in a window, the freed count,   */
/* the smallest end and the end at which a prefix frees enough.        */
/* Tombstones of backfilled jobs in the waiting list are -1.  Returns  */
/* the number of event windows, -1 when jobs stall, -3 on allocation   */
/* failure.                                                            */
/* ------------------------------------------------------------------ */
static void run_insert(double *r_end, int64_t *r_k, int64_t *nrun, double e,
                       int64_t k)
{
    int64_t lo = 0, hi = *nrun;
    while (lo < hi) { /* first end > e: after the equal ones */
        int64_t mid = (lo + hi) >> 1;
        if (r_end[mid] <= e)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(r_end + lo + 1, r_end + lo, (size_t)(*nrun - lo) * sizeof(double));
    memmove(r_k + lo + 1, r_k + lo, (size_t)(*nrun - lo) * sizeof(int64_t));
    r_end[lo] = e;
    r_k[lo] = k;
    (*nrun)++;
}

int64_t repro_fcfs(const int64_t *tape, const double *tape_t,
                   const int64_t *allot, const double *dur, int64_t n,
                   int64_t m, int backfill, double eps, int64_t *rows,
                   double *starts, int64_t *depths)
{
    int64_t status = 0;
    double *r_end = malloc((size_t)(m > 0 ? m : 1) * sizeof(double));
    int64_t *r_k = malloc((size_t)(m > 0 ? m : 1) * sizeof(int64_t));
    int64_t *waiting = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (!r_end || !r_k || !waiting) {
        status = -3;
        goto done;
    }

    int64_t nrun = 0, wlen = 0, head = 0, tombstones = 0;
    int64_t free_p = m, a = 0, placed = 0, windows = 0;
    while (a < n || nrun > 0) {
        /* One window: every event within eps of the earliest one.  FINISH
           acts before ARRIVAL; `now` is the earliest FINISH if any. */
        double t0 = a < n ? tape_t[a] : INFINITY;
        if (nrun > 0 && r_end[0] < t0)
            t0 = r_end[0];
        double cut = t0 + eps;
        int64_t f = 0;
        while (f < nrun && r_end[f] <= cut) {
            free_p += r_k[f];
            f++;
        }
        double now = f ? r_end[0] : t0;
        if (f) {
            nrun -= f;
            memmove(r_end, r_end + f, (size_t)nrun * sizeof(double));
            memmove(r_k, r_k + f, (size_t)nrun * sizeof(int64_t));
        }
        int64_t a0 = a;
        while (a < n && tape_t[a] <= cut)
            waiting[wlen++] = tape[a++];
        depths[windows++] = f + a - a0;

        if (tombstones * 2 > wlen - head) {
            int64_t w = 0;
            for (int64_t i = head; i < wlen; i++)
                if (waiting[i] >= 0)
                    waiting[w++] = waiting[i];
            wlen = w;
            head = 0;
            tombstones = 0;
        }
        while (head < wlen) {
            int64_t r = waiting[head];
            if (r < 0) { /* backfilled earlier */
                head++;
                tombstones--;
                continue;
            }
            int64_t k = allot[r];
            if (k <= free_p) {
                run_insert(r_end, r_k, &nrun, now + dur[r], k);
                free_p -= k;
                rows[placed] = r;
                starts[placed] = now;
                placed++;
                head++;
                continue;
            }
            if (backfill && free_p > 0) {
                /* EASY: the head's reservation bound, then later jobs
                   that fit now and finish by it.  Every allotment is
                   >= 1: nothing fits while no processor is free. */
                int64_t avail = free_p, j = 0;
                while (j < nrun) {
                    avail += r_k[j];
                    if (avail >= k)
                        break;
                    j++;
                }
                if (j == nrun) {
                    status = -1;
                    goto done;
                }
                double limit = r_end[j] + eps;
                for (int64_t i = head + 1; i < wlen; i++) {
                    int64_t c = waiting[i];
                    if (c >= 0 && allot[c] <= free_p && now + dur[c] <= limit) {
                        run_insert(r_end, r_k, &nrun, now + dur[c], allot[c]);
                        free_p -= allot[c];
                        rows[placed] = c;
                        starts[placed] = now;
                        placed++;
                        waiting[i] = -1;
                        tombstones++;
                        if (free_p == 0)
                            break;
                    }
                }
            }
            break;
        }
    }
    status = placed == n ? windows : -1;

done:
    free(r_end);
    free(r_k);
    free(waiting);
    return status;
}

/* ------------------------------------------------------------------ */
/* Faulty batch execution: one planned batch under machine failures.   */
/*                                                                     */
/* The NumPy backend's loop statement for statement.  Events are       */
/* (time, priority, id, plan row): a binary min-heap ordered by        */
/* (time, priority, id) -- Python's tuple order on unique keys --      */
/* drained in windows of width eps anchored at the earliest event,     */
/* each window insertion-sorted (stable, like list.sort) by            */
/* (priority, time, id).  The heap holds at most n STARTs, n FINISHes  */
/* (a job starts at most once per batch) and n_cap - cap_ptr RESERVEs; */
/* every window pops at least one event, so the depths and the log    */
/* (the batch marker, <= 2 records per job, 1 per RESERVE) fit their  */
/* sections.                                                           */
/*                                                                     */
/* istate: in [0] cap_ptr, [1] capacity; out as well, plus [2]         */
/* started_any, [3..5] FINISH/RESERVE/START events popped, [6..10]     */
/* counts of done, crashes, deferrals, windows and log records.        */
/* fstate: in [0] witnessed; out [0] witnessed, [1] batch end.         */
/* iout: done[n] | crash_id[n] | defer_id[n] | depths[W] |             */
/*       log_kind[L] | log_ref[L];                                     */
/* fout: done_start[n] | crash_t[n] | defer_t[n] | log_t[L];           */
/* with W = 2n + n_cap - cap_ptr and L = W + 1.  Returns 0, -1 when    */
/* the batch stalls, -3 on allocation failure.                         */
/* ------------------------------------------------------------------ */
typedef struct {
    double t;
    int64_t prio;
    int64_t ident;
    int64_t pos;
} fb_event;

enum { FB_FINISH = 0, FB_RESERVE = 1, FB_START = 2 };
enum { LOG_BATCH_STARTED = 0, LOG_STARTED, LOG_COMPLETED, LOG_CRASHED,
       LOG_MACHINE_DOWN, LOG_MACHINE_UP };

static int fb_heap_less(const fb_event *a, const fb_event *b)
{
    if (a->t != b->t)
        return a->t < b->t;
    if (a->prio != b->prio)
        return a->prio < b->prio;
    return a->ident < b->ident;
}

static int fb_window_less(const fb_event *a, const fb_event *b)
{
    if (a->prio != b->prio)
        return a->prio < b->prio;
    if (a->t != b->t)
        return a->t < b->t;
    return a->ident < b->ident;
}

static void fb_push(fb_event *h, int64_t *size, fb_event e)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!fb_heap_less(&e, &h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = e;
}

static fb_event fb_pop(fb_event *h, int64_t *size)
{
    fb_event top = h[0];
    int64_t last = --(*size);
    fb_event e = h[last];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        if (l >= last)
            break;
        int64_t r = l + 1;
        int64_t sm = (r < last && fb_heap_less(&h[r], &h[l])) ? r : l;
        if (!fb_heap_less(&h[sm], &e))
            break;
        h[i] = h[sm];
        i = sm;
    }
    if (last > 0)
        h[i] = e;
    return top;
}

int64_t repro_faulty_batch(double now, const int64_t *jid, const int64_t *k,
                           const double *offset, const double *dur, int64_t n,
                           const double *cap_t, const int64_t *cap_mach,
                           const int64_t *cap_delta, int64_t n_cap,
                           double eps, int64_t *istate, double *fstate,
                           int64_t *iout, double *fout)
{
    int64_t cap_ptr = istate[0], capacity = istate[1];
    int64_t W = 2 * n + (n_cap - cap_ptr), L = W + 1;
    int64_t *done = iout, *crash_id = iout + n, *defer_id = iout + 2 * n;
    int64_t *depths = iout + 3 * n, *log_kind = depths + W;
    int64_t *log_ref = log_kind + L;
    double *done_start = fout, *crash_t = fout + n, *defer_t = fout + 2 * n;
    double *log_t = fout + 3 * n;
    double witnessed = fstate[0];

    int64_t status = 0;
    fb_event *heap = malloc((size_t)(W > 0 ? W : 1) * sizeof(fb_event));
    fb_event *win = malloc((size_t)(W > 0 ? W : 1) * sizeof(fb_event));
    int8_t *state = calloc((size_t)(n > 0 ? n : 1), 1); /* 0 planned, 1 running, 2 resolved */
    double *run_start = malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (!heap || !win || !state || !run_start) {
        status = -3;
        goto done;
    }

    int64_t hsize = 0;
    double horizon = now;
    for (int64_t i = 0; i < n; i++) {
        double s = now + offset[i];
        fb_event e = {s, FB_START, jid[i], i};
        fb_push(heap, &hsize, e);
        double end = s + dur[i];
        if (end > horizon)
            horizon = end;
    }
    for (int64_t e = cap_ptr; e < n_cap && cap_t[e] <= horizon + eps; e++) {
        fb_event ev = {cap_t[e], FB_RESERVE, e, -1};
        fb_push(heap, &hsize, ev);
    }

    int64_t used = 0, unresolved = n, started_any = 0, nrun = 0;
    int64_t counts[3] = {0, 0, 0};
    int64_t nd = 0, nc = 0, ndf = 0, nw = 0, nl = 0;
    double batch_end = now;
    log_t[nl] = now;
    log_kind[nl] = LOG_BATCH_STARTED;
    log_ref[nl++] = -1;

    while (unresolved > 0) {
        if (hsize == 0) {
            status = -1;
            goto done;
        }
        int64_t d = 0;
        win[d++] = fb_pop(heap, &hsize);
        double cut = win[0].t + eps;
        while (hsize > 0 && heap[0].t <= cut)
            win[d++] = fb_pop(heap, &hsize);
        for (int64_t a = 1; a < d; a++) { /* stable insertion sort */
            fb_event e = win[a];
            int64_t b = a;
            while (b > 0 && fb_window_less(&e, &win[b - 1])) {
                win[b] = win[b - 1];
                b--;
            }
            win[b] = e;
        }
        depths[nw++] = d;
        for (int64_t w = 0; w < d; w++) {
            fb_event ev = win[w];
            double t = ev.t;
            int64_t i = ev.pos;
            counts[ev.prio]++;
            if (ev.prio == FB_RESERVE) {
                if (ev.ident != cap_ptr)
                    continue;
                int64_t delta = cap_delta[cap_ptr];
                capacity += delta;
                if (t > witnessed)
                    witnessed = t;
                log_t[nl] = t;
                log_kind[nl] = delta > 0 ? LOG_MACHINE_UP : LOG_MACHINE_DOWN;
                log_ref[nl++] = cap_mach[cap_ptr];
                cap_ptr++;
                if (t > batch_end)
                    batch_end = t;
                while (used > capacity && nrun > 0) {
                    /* LIFO victim: latest start, then largest id. */
                    int64_t v = -1;
                    for (int64_t r = 0; r < n; r++) {
                        if (state[r] != 1)
                            continue;
                        if (v < 0 || run_start[r] > run_start[v] ||
                            (run_start[r] == run_start[v] && jid[r] > jid[v]))
                            v = r;
                    }
                    state[v] = 2;
                    nrun--;
                    used -= k[v];
                    crash_t[nc] = t;
                    crash_id[nc++] = jid[v];
                    log_t[nl] = t;
                    log_kind[nl] = LOG_CRASHED;
                    log_ref[nl++] = jid[v];
                    unresolved--;
                }
                continue;
            }
            if (ev.prio == FB_FINISH) {
                if (state[i] != 1)
                    continue; /* crashed after this FINISH was queued */
                state[i] = 2;
                nrun--;
                used -= k[i];
                done[nd] = i;
                done_start[nd++] = run_start[i];
                log_t[nl] = t;
                log_kind[nl] = LOG_COMPLETED;
                log_ref[nl++] = ev.ident;
                unresolved--;
                if (t > batch_end)
                    batch_end = t;
                continue;
            }
            if (k[i] <= capacity - used) {
                state[i] = 1;
                run_start[i] = t;
                nrun++;
                used += k[i];
                fb_event fin = {t + dur[i], FB_FINISH, ev.ident, i};
                fb_push(heap, &hsize, fin);
                started_any = 1;
                log_t[nl] = t;
                log_kind[nl] = LOG_STARTED;
                log_ref[nl++] = ev.ident;
            } else {
                state[i] = 2;
                defer_t[ndf] = t;
                defer_id[ndf++] = ev.ident;
                unresolved--;
                if (t > batch_end)
                    batch_end = t;
            }
        }
    }
    if (batch_end > witnessed)
        witnessed = batch_end;

    istate[0] = cap_ptr;
    istate[1] = capacity;
    istate[2] = started_any;
    istate[3] = counts[FB_FINISH];
    istate[4] = counts[FB_RESERVE];
    istate[5] = counts[FB_START];
    istate[6] = nd;
    istate[7] = nc;
    istate[8] = ndf;
    istate[9] = nw;
    istate[10] = nl;
    fstate[0] = witnessed;
    fstate[1] = batch_end;

done:
    free(heap);
    free(win);
    free(state);
    free(run_start);
    return status;
}

/* ------------------------------------------------------------------ */
/* SWF scan: one pass over whole lines of Standard Workload Format     */
/* bytes from offset start.  Blank lines are skipped, each ';' comment */
/* line is reported as a span [from its ';', to its line end), and a   */
/* record is split on space and tab with fields 0, 1, 2, 3, 4 and 7    */
/* parsed into one row of six doubles.  The scan stops before a line   */
/* it has no room for (row_cap rows, span_cap spans) and writes the    */
/* rows and spans it filled and the offset it reached to out[0..2].   */
/* Returns 0, or -1 to decline wherever the line path could read the  */
/* bytes differently: a byte >= 0x80, a control byte other than tab   */
/* (a CR only right before LF), a record of fewer than 8 fields, or a  */
/* used field outside [+-]digits[.digits][(e|E)[+-]digits] or one      */
/* strtod does not consume whole.  The buffer ends with '\n', so every */
/* token is followed by a delimiter and no read passes the buffer.    */
/* ------------------------------------------------------------------ */
static const signed char swf_column[8] = {0, 1, 2, 3, 4, -1, -1, 5};

static const double swf_pow10[23] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static inline int swf_text(uint8_t c)
{
    return c > ' ' && c < 0x7f;
}

static inline int swf_digit(uint8_t c)
{
    return c >= '0' && c <= '9';
}

/* One used field [s, e) -> *out; 0 on success, -1 to decline.  The    */
/* fast path is Clinger's: a mantissa of at most 2^53 and a power of   */
/* ten up to 1e22 are both exact doubles, so one IEEE multiply or      */
/* divide is correctly rounded, like strtod and Python's float.  It    */
/* needs doubles evaluated in double precision (FLT_EVAL_METHOD 0).    */
static int swf_number(const uint8_t *s, const uint8_t *e, double *out)
{
    const uint8_t *p = s, *d;
    int neg = 0, exact = 1;
    uint64_t mant = 0;
    int64_t scale = 0, x = 0;
    if (*p == '+' || *p == '-')
        neg = *p++ == '-';
    for (d = p; p < e && swf_digit(*p); p++) {
        if (mant < UINT64_C(100000000000000000))
            mant = mant * 10 + (uint64_t)(*p - '0');
        else
            exact = 0;
    }
    if (p == d)
        return -1;
    if (p < e && *p == '.') {
        for (d = ++p; p < e && swf_digit(*p); p++) {
            if (mant < UINT64_C(100000000000000000)) {
                mant = mant * 10 + (uint64_t)(*p - '0');
                scale--;
            } else {
                exact = 0;
            }
        }
        if (p == d)
            return -1;
    }
    if (p < e && (*p == 'e' || *p == 'E')) {
        int eneg = 0;
        p++;
        if (p < e && (*p == '+' || *p == '-'))
            eneg = *p++ == '-';
        for (d = p; p < e && swf_digit(*p); p++) {
            if (x < 100000)
                x = x * 10 + (*p - '0');
        }
        if (p == d)
            return -1;
        scale += eneg ? -x : x;
    }
    if (p != e)
        return -1;
#if defined(FLT_EVAL_METHOD) && FLT_EVAL_METHOD == 0
    if (exact && mant <= (UINT64_C(1) << 53) && scale >= -22 && scale <= 22) {
        double v = (double)mant;
        v = scale < 0 ? v / swf_pow10[-scale] : v * swf_pow10[scale];
        *out = neg ? -v : v;
        return 0;
    }
#endif
    char *end;
    double v = strtod((const char *)s, &end);
    if ((const uint8_t *)end != e)
        return -1;
    *out = v;
    return 0;
}

int repro_swf_scan(const uint8_t *buf, int64_t len, int64_t start,
                   double *rows, int64_t row_cap, int64_t *spans,
                   int64_t span_cap, int64_t *out)
{
    int64_t p = start, nr = 0, ns = 0;
    while (p < len) {
        int64_t q = p, r;
        while (buf[q] == ' ' || buf[q] == '\t')
            q++;
        if (buf[q] == '\n' || (buf[q] == '\r' && buf[q + 1] == '\n')) {
            p = q + (buf[q] == '\r' ? 2 : 1); /* blank line */
            continue;
        }
        if (buf[q] == ';') {
            if (ns == span_cap)
                break;
            for (r = q; buf[r] != '\n'; r++) {
                if (buf[r] == '\r' && buf[r + 1] == '\n')
                    break;
                if (!swf_text(buf[r]) && buf[r] != ' ' && buf[r] != '\t')
                    return -1;
            }
            spans[2 * ns] = q;
            spans[2 * ns + 1] = r;
            ns++;
            p = r + (buf[r] == '\r' ? 2 : 1);
            continue;
        }
        if (nr == row_cap)
            break;
        double *row = rows + 6 * nr;
        int nf = 0;
        for (r = q;;) {
            int64_t t = r;
            while (swf_text(buf[t]))
                t++;
            if (t == r)
                return -1; /* control byte, lone CR or byte >= 0x80 */
            if (nf < 8 && swf_column[nf] >= 0
                && swf_number(buf + r, buf + t, row + swf_column[nf]) != 0)
                return -1;
            nf++;
            while (buf[t] == ' ' || buf[t] == '\t')
                t++;
            if (buf[t] == '\n' || (buf[t] == '\r' && buf[t + 1] == '\n')) {
                r = t;
                break;
            }
            r = t;
        }
        if (nf < 8)
            return -1;
        nr++;
        p = r + (buf[r] == '\r' ? 2 : 1);
    }
    out[0] = nr;
    out[1] = ns;
    out[2] = p;
    return 0;
}
"""


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_KERNELS_CACHE")
    if root:
        return Path(root)
    return Path(tempfile.gettempdir()) / "repro_kernels"


def _load_extension():
    """Compile (once, cached by source hash) and import the extension."""
    from cffi import FFI  # may raise ImportError: caller falls back

    tag = hashlib.sha256((_CDEF + _C_SOURCE).encode()).hexdigest()[:16]
    modname = f"_repro_kernels_{tag}"
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)

    def _find_so() -> Path | None:
        hits = sorted(cache.glob(f"{modname}*.so")) + sorted(
            cache.glob(f"{modname}*.pyd")
        )
        return hits[0] if hits else None

    sofile = _find_so()
    if sofile is None:
        # Build in a per-pid staging dir, then move the artifact into the
        # cache root — concurrent builders race benignly (same bytes).
        stage = cache / f"build-{os.getpid()}"
        stage.mkdir(parents=True, exist_ok=True)
        ffibuilder = FFI()
        ffibuilder.cdef(_CDEF)
        ffibuilder.set_source(modname, _C_SOURCE, extra_compile_args=["-O2"])
        built = Path(ffibuilder.compile(tmpdir=str(stage), verbose=False))
        target = cache / built.name
        try:
            os.replace(built, target)
        except OSError:  # pragma: no cover - cross-device fallback
            import shutil

            shutil.copy2(built, target)
        sofile = _find_so()
        if sofile is None:  # pragma: no cover - defensive
            raise ImportError("cffi kernel build produced no extension module")

    spec = importlib.util.spec_from_file_location(modname, str(sofile))
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load compiled kernel module {sofile}")
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(modname, mod)
    spec.loader.exec_module(mod)
    return mod.ffi, mod.lib


try:
    _ffi, _lib = _load_extension()
except Exception as exc:  # noqa: BLE001 - any toolchain failure disables cffi
    raise ImportError(f"cffi kernel backend unavailable: {exc}") from exc


def _i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _f64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _ptr(ctype: str, arr: np.ndarray):
    return _ffi.cast(ctype, _ffi.from_buffer(arr))


def knapsack_select_core(
    allotments: np.ndarray, weights: np.ndarray, m: int
) -> tuple[list[int], float, int]:
    allot = _i64(allotments)
    w = _f64(weights)
    n = int(allot.size)
    best = np.empty(m + 1, dtype=np.float64)
    chosen = np.empty(n, dtype=np.int64)
    total = _ffi.new("double *")
    used = _ffi.new("int64_t *")
    cnt = _lib.repro_knapsack_select(
        _ptr("int64_t *", allot),
        _ptr("double *", w),
        n,
        int(m),
        _ptr("double *", best),
        _ptr("int64_t *", chosen),
        total,
        used,
    )
    if cnt < 0:  # pragma: no cover - allocation failure
        raise MemoryError("knapsack kernel allocation failed")
    return chosen[:cnt].tolist(), float(total[0]), int(used[0])


def _min(cost: np.ndarray) -> int:
    """Smallest cost (a short row is cheaper to scan than to reduce)."""
    return min(cost.tolist()) if cost.size <= 32 else int(cost.min())


def knapsack_min_work_value_core(
    work_a: np.ndarray, cost_a: np.ndarray, work_b: np.ndarray, m: int
) -> float:
    wa = _f64(work_a)
    wb = _f64(work_b)
    cost = _i64(cost_a)
    n = int(wa.size)
    # The C loop indexes dp[q - cost] and reads all three arrays n long.
    if cost.size != n or wb.size != n:
        raise ValueError("work_a, cost_a and work_b must have the same length")
    if n and _min(cost) < 0:
        raise ValueError("cost_a must be non-negative")
    dp = np.empty(m + 1, dtype=np.float64)
    _lib.repro_min_work_value(
        _ptr("double *", wa),
        _ptr("int64_t *", cost),
        _ptr("double *", wb),
        n,
        int(m),
        _ptr("double *", dp),
    )
    return float(dp[m])


def knapsack_min_work_core(
    work_a: np.ndarray, cost_a: np.ndarray, work_b: np.ndarray, m: int
) -> tuple[np.ndarray, float]:
    wa = _f64(work_a)
    wb = _f64(work_b)
    cost = _i64(cost_a)
    n = int(wa.size)
    # The C walk indexes dp[q - cost] and steps back by the cost.
    if cost.size != n or wb.size != n:
        raise ValueError("work_a, cost_a and work_b must have the same length")
    if n and _min(cost) < 0:
        raise ValueError("cost_a must be non-negative")
    dp = np.empty(m + 1, dtype=np.float64)
    in_a = np.zeros(n, dtype=bool)
    status = _lib.repro_min_work(
        _ptr("double *", wa),
        _ptr("int64_t *", cost),
        _ptr("double *", wb),
        n,
        int(m),
        _ptr("double *", dp),
        _ptr("uint8_t *", in_a),
    )
    if status < 0:  # pragma: no cover - allocation failure
        raise MemoryError("min-work kernel allocation failed")
    total = float(dp[m])
    if not math.isfinite(total):
        return in_a, math.inf
    return in_a, total


def dual_sweep_core(
    times_matrix: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    tm = _f64(times_matrix)
    n, m = tm.shape
    g_big = np.empty(n, dtype=np.int64)
    g_small = np.empty(n, dtype=np.int64)
    work_big = np.empty(n, dtype=np.float64)
    work_small = np.empty(n, dtype=np.float64)
    _lib.repro_dual_sweep(
        _ptr("double *", tm),
        n,
        m,
        float(lam),
        _ptr("int64_t *", g_big),
        _ptr("int64_t *", g_small),
        _ptr("double *", work_big),
        _ptr("double *", work_small),
    )
    return g_big, g_small, work_big, work_small


def row_floor_core(times_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tm = _f64(times_matrix)
    n, m = tm.shape
    if m == 0:  # np.min has no identity to return
        raise ValueError("row_floor_core needs at least one column")
    min_time = np.empty(n, dtype=np.float64)
    min_area = np.empty(n, dtype=np.float64)
    _lib.repro_row_floor(
        _ptr("double *", tm),
        n,
        m,
        _ptr("double *", min_time),
        _ptr("double *", min_area),
    )
    return min_time, min_area


def graham_starts_core(
    allotments,
    durations,
    m: int,
    start_time: float,
    cutoff: float | None,
) -> tuple[np.ndarray, np.ndarray] | None:
    allot = _i64(allotments)
    dur = _f64(durations)
    n = int(allot.size)
    starts = np.zeros(n, dtype=np.float64)
    order = np.empty(n, dtype=np.int64)
    status = _lib.repro_graham(
        _ptr("int64_t *", allot),
        _ptr("double *", dur),
        n,
        int(m),
        float(start_time),
        float(cutoff) if cutoff is not None else 0.0,
        1 if cutoff is not None else 0,
        _ptr("double *", starts),
        _ptr("int64_t *", order),
    )
    if status == -2:
        return None
    if status == -1:  # pragma: no cover - defensive; caller guards allotments
        raise SchedulingError("graham kernel deadlocked (item larger than machine?)")
    if status == -3:  # pragma: no cover - allocation failure
        raise MemoryError("graham kernel allocation failed")
    return starts, order


def fcfs_starts_core(
    releases,
    task_ids,
    allotments,
    durations,
    m: int,
    backfill: bool,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rel = _f64(releases)
    allot = _i64(allotments)
    dur = _f64(durations)
    n = int(rel.size)
    # The C loop holds at most m running jobs, each on >= 1 processor, and
    # writes one depth per window, each window taking at least one event
    # (a NaN time or a negative eps would leave a window empty).
    if allot.size != n or dur.size != n or len(task_ids) != n:
        raise ValueError("releases, task_ids, allotments and durations must be parallel")
    if n and (int(allot.min()) < 1 or int(allot.max()) > m):
        raise ValueError(f"allotments must lie in [1, {m}]")
    if not (np.isfinite(rel).all() and np.isfinite(dur).all()):
        raise ValueError("releases and durations must be finite")
    if not eps >= 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    tape = _i64(np.lexsort((task_ids, rel)))
    tape_t = rel[tape]
    rows = np.empty(n, dtype=np.int64)
    starts = np.empty(n, dtype=np.float64)
    depths = np.empty(max(2 * n, 1), dtype=np.int64)  # one event per window at least
    windows = _lib.repro_fcfs(
        _ptr("int64_t *", tape),
        _ptr("double *", tape_t),
        _ptr("int64_t *", allot),
        _ptr("double *", dur),
        n,
        int(m),
        1 if backfill else 0,
        float(eps),
        _ptr("int64_t *", rows),
        _ptr("double *", starts),
        _ptr("int64_t *", depths),
    )
    if windows == -1:  # pragma: no cover - every start enqueues a completion
        raise SchedulingError("FCFS policy stalled with jobs waiting")
    if windows == -3:  # pragma: no cover - allocation failure
        raise MemoryError("fcfs kernel allocation failed")
    return rows, starts, depths[:windows]


def faulty_batch_core(
    now: float,
    task_ids,
    allotments,
    offsets,
    durations,
    cap_times,
    cap_machines,
    cap_deltas,
    cap_ptr: int,
    capacity: int,
    witnessed: float,
    eps: float,
) -> FaultyBatch:
    # The C loop reads every plan column n long and every trace column
    # from cap_ptr on; its heap, depth and log sections are sized from n
    # and the trace events left.
    n, n_cap = check_faulty_batch_inputs(
        task_ids, allotments, offsets, durations, cap_times, cap_machines, cap_deltas, cap_ptr
    )
    jid = _i64(task_ids)
    k = _i64(allotments)
    off = _f64(offsets)
    dur = _f64(durations)
    ct = _f64(cap_times)
    cm = _i64(cap_machines)
    cd = _i64(cap_deltas)
    w = 2 * n + n_cap - int(cap_ptr)
    istate = np.zeros(11, dtype=np.int64)
    istate[0] = cap_ptr
    istate[1] = capacity
    fstate = np.array([witnessed, 0.0], dtype=np.float64)
    iout = np.empty(3 * n + 3 * w + 2, dtype=np.int64)
    fout = np.empty(3 * n + w + 1, dtype=np.float64)
    status = _lib.repro_faulty_batch(
        float(now),
        _ptr("int64_t *", jid),
        _ptr("int64_t *", k),
        _ptr("double *", off),
        _ptr("double *", dur),
        n,
        _ptr("double *", ct),
        _ptr("int64_t *", cm),
        _ptr("int64_t *", cd),
        n_cap,
        float(eps),
        _ptr("int64_t *", istate),
        _ptr("double *", fstate),
        _ptr("int64_t *", iout),
        _ptr("double *", fout),
    )
    if status == -1:  # pragma: no cover - every start is queued
        raise SchedulingError("faulty batch simulation stalled")
    if status == -3:  # pragma: no cover - allocation failure
        raise MemoryError("faulty batch kernel allocation failed")
    (cap_ptr, capacity, started_any, n_finish, n_reserve, n_start,
     nd, nc, ndf, nw, nl) = istate.tolist()
    depths = 3 * n
    log_kinds = depths + w
    log_refs = log_kinds + w + 1
    return FaultyBatch(
        iout[:nd],
        fout[:nd],
        fout[n : n + nc],
        iout[n : n + nc],
        fout[2 * n : 2 * n + ndf],
        iout[2 * n : 2 * n + ndf],
        capacity,
        cap_ptr,
        float(fstate[0]),
        float(fstate[1]),
        bool(started_any),
        iout[depths : depths + nw],
        (n_finish, n_reserve, n_start),
        fout[3 * n : 3 * n + nl],
        iout[log_kinds : log_kinds + nl],
        iout[log_refs : log_refs + nl],
    )


def swf_scan_core(
    buf, start: int, rows: np.ndarray, spans: np.ndarray
) -> tuple[int, int, int] | None:
    # The C loop reads the buffer up to its final newline and writes at
    # most len(rows) rows and len(spans) spans.
    view = check_swf_scan_inputs(buf, start, rows, spans)
    out = np.empty(3, dtype=np.int64)
    status = _lib.repro_swf_scan(
        _ffi.from_buffer("uint8_t[]", view),
        len(view),
        int(start),
        _ptr("double *", rows),
        rows.shape[0],
        _ptr("int64_t *", spans),
        spans.shape[0],
        _ptr("int64_t *", out),
    )
    if status < 0:
        return None
    n_rows, n_spans, stop = out.tolist()
    return n_rows, n_spans, stop
