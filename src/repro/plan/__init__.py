"""Columnar schedule plans: compact, cacheable broadcast schedules.

The plan layer is the construction-side counterpart of the turbo
simulation lane.  A :class:`SchedulePlan` holds one broadcast schedule as
four parallel integer columns (ticks, senders, message ids, receivers)
instead of a list of event objects; :func:`compile_plan` builds one
directly in integer ticks — iteratively, with no per-event ``Fraction``
allocation — for every broadcast family in the paper and every
collective shape in :mod:`repro.collectives`, and
:func:`build_plan` memoizes construction through an LRU / on-disk
:class:`PlanCache` (see :mod:`repro.plan.cache` for the
``$REPRO_PLAN_CACHE`` knobs).

Typical use::

    from repro.plan import build_plan

    plan = build_plan("BCAST", 1000, 1, "5/2")
    plan.audit()                      # full postal validation, in place
    system = plan.replay()            # turbo execution, no tick re-derivation
    schedule = plan.to_schedule()     # classic event objects when needed

:func:`compile_schedule` runs the same compilers without the plan's
tick-scale cap and decodes straight into a classic
:class:`~repro.core.schedule.Schedule` — the constructor behind every
static broadcast builder (``bcast_schedule``, ``pipeline_schedule``, ...).
"""

from repro.plan.build import (
    canonical_family,
    collective_plan_families,
    compile_plan,
    compile_schedule,
    plan_families,
    plan_m,
)
from repro.plan.cache import (
    DEFAULT_CAPACITY,
    PlanCache,
    build_plan,
    configure,
    default_cache,
)
from repro.plan.columns import SchedulePlan

__all__ = [
    "SchedulePlan",
    "compile_plan",
    "compile_schedule",
    "canonical_family",
    "plan_families",
    "collective_plan_families",
    "plan_m",
    "build_plan",
    "PlanCache",
    "default_cache",
    "configure",
    "DEFAULT_CAPACITY",
]
