"""Core algorithmic contribution of the paper.

Contents:

* :mod:`repro.core.stepfunc` — right-continuous step-function calculus
  (Claims 1 and 2 of the paper).
* :mod:`repro.core.fibfunc` — the generalized Fibonacci function
  ``F_lambda(t)`` and its index function ``f_lambda(n)``.
* :mod:`repro.core.bounds` — Theorem 7 bounds on ``F_lambda`` / ``f_lambda``.
* :mod:`repro.core.schedule` — the schedule intermediate representation and
  postal-model validator.
* :mod:`repro.core.bcast` — Algorithm BCAST (optimal single-message
  broadcast, Section 3).
* :mod:`repro.core.multi` — Algorithms REPEAT, PACK, PIPELINE (Section 4.2).
* :mod:`repro.core.dtree` — Algorithm DTREE (Section 4.3).
* :mod:`repro.core.analysis` — closed-form running times and lower bounds.
* :mod:`repro.core.optimal` — the ``N(t)`` optimality oracle (Lemma 5) and
  brute-force optimal schedules for small systems.
* :mod:`repro.core.orderpres` — order-preservation checking.
"""

from repro.core.fibfunc import (
    GeneralizedFibonacci,
    postal_F,
    postal_f,
)
from repro.core.schedule import Schedule, SendEvent
from repro.core.bcast import bcast_schedule, bcast_tree
from repro.core.multi import repeat_schedule, pack_schedule, pipeline_schedule
from repro.core.dtree import dtree_schedule, DTreeShape

__all__ = [
    "GeneralizedFibonacci",
    "postal_F",
    "postal_f",
    "Schedule",
    "SendEvent",
    "bcast_schedule",
    "bcast_tree",
    "repeat_schedule",
    "pack_schedule",
    "pipeline_schedule",
    "dtree_schedule",
    "DTreeShape",
]
