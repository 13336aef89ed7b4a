"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  The hierarchy distinguishes *modelling* errors
(malformed tasks or instances), *scheduling* errors (an algorithm produced or
was asked to produce something impossible) and *solver* errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "InvalidTaskError",
    "InvalidInstanceError",
    "SchedulingError",
    "InvalidScheduleError",
    "SolverError",
]


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """A task, instance or workload specification is malformed."""


class InvalidTaskError(ModelError):
    """A moldable task violates a structural requirement.

    Examples: empty processing-time vector, non-positive processing time,
    non-positive weight.
    """


class InvalidInstanceError(ModelError):
    """An instance is malformed (e.g. tasks longer than the machine allows)."""


class SchedulingError(ReproError):
    """An algorithm could not produce a schedule for a valid instance."""


class InvalidScheduleError(SchedulingError):
    """A schedule violates feasibility (capacity, allotment or time bounds).

    Raised by :func:`repro.core.validation.validate_schedule`; the message
    carries the first violated constraint for debuggability.
    """


class SolverError(ReproError):
    """An external numerical solver (LP/MILP) failed to converge."""
