"""Observability plane: hierarchical spans, counters, and trace export.

The whole plane hangs off one module-level sentinel:

``obs.ACTIVE``
    ``None`` when tracing is disabled (the default), otherwise the
    session's :class:`~repro.obs.tracer.ObsState`.

Instrumented call sites follow one idiom — a single attribute load and
an ``is``-check, nothing else, when disabled::

    from repro import obs

    state = obs.ACTIVE
    if state is not None:
        state.count("dual.probes")

That read is the *entire* disabled-mode cost, so a run's disabled cost
is its hook count times one such check (the counts of two replay legs
are pinned exactly by ``tests/obs/test_hook_counts.py``); no dict
lookups, no method calls, no allocations happen on the hot path until a
state is installed.

This package imports only the standard library: the kernel layer
(``repro.kernels``) instruments itself with ``repro.obs``, so anything
heavier here would create an import cycle.
"""

from __future__ import annotations

from repro.obs.tracer import ObsState

__all__ = ["ACTIVE", "ObsState", "disable", "enable", "enabled"]

#: The installed observability state, or ``None`` when disabled.
#: Hot paths read this exactly once per hook site.
ACTIVE: ObsState | None = None


def enable(clock=None, *, fresh: bool = False) -> ObsState:
    """Install (and return) the process-wide :class:`ObsState`.

    Idempotent by default: if a state is already installed it is
    returned untouched so nested enables (CLI + library callers) share
    one trace.  ``fresh=True`` forces a brand-new state — process-pool
    workers use this because a forked child inherits the parent's
    ``ACTIVE`` object and must not append to that dead copy.

    ``clock`` is the monotonic time source (``time.perf_counter`` by
    default); tests inject a fake counter clock for deterministic spans.
    """
    global ACTIVE
    if ACTIVE is None or fresh:
        ACTIVE = ObsState(clock=clock)
    return ACTIVE


def disable() -> ObsState | None:
    """Uninstall and return the current state (``None`` if none was set).

    After this call every instrumented site is back to the single
    load-and-is-check no-op path.
    """
    global ACTIVE
    state, ACTIVE = ACTIVE, None
    return state


def enabled() -> bool:
    """True when an :class:`ObsState` is installed."""
    return ACTIVE is not None
