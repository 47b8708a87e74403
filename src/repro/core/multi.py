"""Multi-message generalizations of Algorithm BCAST (Section 4.2).

Three ways to broadcast ``m`` messages, each compiled to the common
:class:`~repro.core.schedule.Schedule` IR:

* :func:`repeat_schedule` — Algorithm REPEAT: ``m`` back-to-back BCAST
  iterations; iteration ``i+1`` starts ``lambda - 1`` time units *before*
  iteration ``i`` completes (the overlap exploited by Lemma 10).  Running
  time exactly ``m*f_lambda(n) - (m-1)(lambda-1)``.
* :func:`pack_schedule` — Algorithm PACK: the ``m`` messages travel as one
  long message; equivalent to BCAST with normalized latency
  ``lambda' = 1 + (lambda-1)/m`` and time scale ``t' = t/m`` (Lemma 12).
  Running time exactly ``m * f_{lambda'}(n)``.
* :func:`pipeline_schedule` — Algorithm PIPELINE: the messages travel as a
  stream, forwarded as they arrive.  For ``m <= lambda`` (PIPELINE-1) the
  stream *sender* finishes first and takes the larger recursive subrange;
  for ``m >= lambda`` (PIPELINE-2) the roles swap and the *recipient* takes
  the larger subrange.  Running times exactly ``m*f_{lambda/m}(n) + (m-1)``
  and ``lambda*f_{m/lambda}(n) + (lambda-1)`` (Lemmas 14 and 16).

All three preserve message order at every processor.

Each recurrence is implemented once, in integer ticks, in
:mod:`repro.plan.build`; the builders here are event-object views of it
(:func:`repro.plan.build.compile_schedule`), exact at every rational
``lambda``.
"""

from __future__ import annotations

from repro.core.schedule import Schedule
from repro.types import TimeLike, as_time

__all__ = [
    "repeat_schedule",
    "pack_schedule",
    "pipeline_schedule",
    "pipeline_variant",
]


def repeat_schedule(n: int, m: int, lam: TimeLike, *, validate: bool = True) -> Schedule:
    """Algorithm REPEAT: ``m`` overlapped iterations of BCAST.

    Processor ``p_0`` starts iteration ``i+1`` immediately after sending the
    last copy of ``M_{i+1}``'s predecessor — which is ``lambda - 1`` units
    before iteration ``i`` terminates — so consecutive iterations are spaced
    ``f_lambda(n) - (lambda - 1)`` apart (Lemma 10).
    """
    from repro.plan.build import compile_schedule

    return compile_schedule("REPEAT", n, m, lam, validate=validate)


def pack_schedule(n: int, m: int, lam: TimeLike, *, validate: bool = True) -> Schedule:
    """Algorithm PACK: broadcast the ``m`` messages as one long message.

    Built by running BCAST with the normalized latency
    ``lambda' = (lambda + m - 1)/m`` and unpacking each abstract send at
    normalized time ``t'`` into ``m`` unit sends at real times
    ``m*t', m*t'+1, ..., m*t'+m-1``.  Every processor finishes receiving the
    whole pack before its first forwarding send, as the algorithm requires.
    """
    from repro.plan.build import compile_schedule

    return compile_schedule("PACK", n, m, lam, validate=validate)


def pipeline_variant(m: int, lam: TimeLike) -> str:
    """Which pipeline case applies: ``"PIPELINE-1"`` when ``m <= lambda``
    (sender finishes first), else ``"PIPELINE-2"``.  At ``m == lambda`` the
    two coincide; we report PIPELINE-1."""
    return "PIPELINE-1" if m <= as_time(lam) else "PIPELINE-2"


def pipeline_schedule(n: int, m: int, lam: TimeLike, *, validate: bool = True) -> Schedule:
    """Algorithm PIPELINE: broadcast the ``m`` messages as a stream.

    One recursion covers both cases.  After a stream transmission starting
    at time ``t``:

    * the *sender* is free to start its next stream at ``t + m``;
    * the *recipient* can begin forwarding at ``t + lambda`` (it forwards
      message ``k`` during ``[t + lambda + k, t + lambda + k + 1)``, exactly
      as message ``k`` arrives).

    Whichever party is free earlier inherits the larger recursive subrange
    ``j = F_{lambda'}(f_{lambda'}(size) - 1)``, where ``lambda' = lambda/m``
    (PIPELINE-1, ``m <= lambda``) or ``lambda' = m/lambda`` (PIPELINE-2,
    ``m >= lambda``) — the role swap Section 4.2 describes.  With ``m = 1``
    this degenerates to Algorithm BCAST.
    """
    from repro.plan.build import compile_schedule

    return compile_schedule("PIPELINE", n, m, lam, validate=validate)
