"""Exception hierarchy for the ``repro`` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Model-violation errors carry enough context to debug a
bad schedule (who, when, which constraint).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "InvalidParameterError",
    "ScheduleError",
    "PortBusyError",
    "SimultaneousIOError",
    "OrderViolationError",
    "SimulationError",
    "ProcessInterrupt",
    "TickDomainError",
    "PlanCacheError",
    "TuningError",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameterError(ReproError, ValueError):
    """A model parameter is out of range (e.g. ``lambda < 1`` or ``n < 1``)."""


class ModelError(ReproError):
    """A schedule or trace violates the postal model's constraints."""


class ScheduleError(ModelError):
    """A schedule is structurally invalid (unknown processors, uninformed
    senders, duplicate deliveries, ...)."""


class PortBusyError(ModelError):
    """A processor tried to drive its send or receive port during an
    interval in which the port was already busy."""


class SimultaneousIOError(PortBusyError):
    """Two receive (or two send) intervals overlap at the same processor,
    violating the simultaneous-I/O property of Definition 1."""


class OrderViolationError(ModelError):
    """A processor received message ``M_j`` before ``M_i`` with ``i < j``;
    the paper's algorithms are all order-preserving."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class TickDomainError(InvalidParameterError):
    """A time value cannot be represented losslessly in the integer tick
    domain of a fast lane: a delay off the run's fixed tick grid, or a
    tick that does not fit the lane's int64 columns."""


class PlanCacheError(ReproError):
    """A serialized schedule plan could not be decoded (truncated file,
    foreign magic, or a header that disagrees with its column payload)."""


class TuningError(ReproError):
    """The autotuner cannot answer a query (no applicable family at the
    requested point) or a tuning-table artifact is invalid (malformed
    payload, unknown schema, or a content hash that does not match)."""


class ProcessInterrupt(ReproError):
    """Raised inside a simulation process that another process interrupted.

    Carries an arbitrary ``cause`` describing why.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause
