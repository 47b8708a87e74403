"""The ``backend="turbo"`` execution lane: lossless integer-tick postal
simulation.

Five pieces:

* :mod:`repro.turbo.ticks` — the :class:`TickDomain` rescaling a run's
  rational times to plain ``int`` ticks (scale = LCM of denominators;
  exact round trip, never a float).
* :mod:`repro.turbo.fastsim` — the calendar-queue event loop and
  :class:`TurboSystem`, a drop-in for
  :class:`~repro.postal.machine.PostalSystem` selected via
  ``run_protocol(..., backend="turbo")``.
* :mod:`repro.turbo.runlog` — the columnar :class:`RunLog` the engine
  writes (five ``array('q')`` columns; trace records materialize only on
  demand).
* :mod:`repro.turbo.columnar` — what both lanes compute on a finished
  run's integer columns instead of a trace: counted run metrics, the
  realized schedule and port views.  Both audit those columns with
  :func:`repro.plan.columns.audit_columns`, Lemma 5 / Lemma 8
  certificates included.
* :mod:`repro.turbo.replay` — the vectorized plan-replay tier
  (``backend="replay"``): batched column passes over a compiled
  :class:`~repro.plan.columns.SchedulePlan`, no event queue at all.

See ``docs/performance.md`` for the exactness argument and the measured
speedups (``BENCH_turbo.json``).
"""

from repro.turbo.fastsim import (
    TurboEnvironment,
    TurboEvent,
    TurboProcess,
    TurboSystem,
    build_turbo,
)
from repro.turbo.replay import ReplaySystem, replay_plan
from repro.turbo.runlog import RunLog
from repro.turbo.ticks import TickDomain

__all__ = [
    "TickDomain",
    "TurboEnvironment",
    "TurboEvent",
    "TurboProcess",
    "TurboSystem",
    "RunLog",
    "ReplaySystem",
    "build_turbo",
    "replay_plan",
]
