"""Algorithm DTREE — degree-``d`` tree broadcasting (Section 4.3).

For ``1 <= d <= n-1``, Algorithm DTREE broadcasts over the *left-to-right,
almost-full, degree-d tree* rooted at ``p_0``: nodes are numbered in BFS
(level) order, so node ``v`` has children ``d*v + 1 .. d*v + d`` (those that
exist) and node ``i >= 1`` has parent ``(i - 1) // d``.

The algorithm is fully event-driven: the root emits ``d`` copies of ``M_1``
left-to-right, then proceeds to ``M_2``; a non-root node forwards each
arriving message to its children left-to-right, queueing behind its own
earlier sends when the send port is busy.  The builder here performs that
event-driven execution deterministically (per-node FIFO send queues) and
emits the resulting schedule, whose completion time always satisfies
Lemma 18::

    T_DT(n, m, lambda) <= d(m-1) + (d-1+lambda) * ceil(log_d n)

(for ``d >= 2``; the ``d = 1`` line degenerates to exactly
``(m-1) + (n-1)*lambda``).

Named shapes from the paper's discussion:

* ``d = 1`` — the *line*: near optimal as ``m -> infinity``.
* ``d = 2`` — the *binary tree*: within ``max{2, log(ceil(lambda)+1)}`` of
  optimal.
* ``d = ceil(lambda) + 1`` — the *latency-matched* tree: within
  ``max{2, ceil(lambda)+1}`` of optimal, and within a factor of 3 when
  ``m <= log n / log(ceil(lambda)+1)``.
* ``d = n - 1`` — the *star*: near optimal as ``lambda -> infinity``.
"""

from __future__ import annotations

import math
from enum import Enum

from repro.core.schedule import Schedule
from repro.errors import InvalidParameterError
from repro.types import ProcId, TimeLike, as_time

__all__ = [
    "DTreeShape",
    "resolve_degree",
    "dtree_parent",
    "dtree_children",
    "dtree_height",
    "dtree_schedule",
]


class DTreeShape(Enum):
    """Named degree choices discussed in Section 4.3."""

    LINE = "line"  #: d = 1
    BINARY = "binary"  #: d = 2
    LATENCY = "latency"  #: d = ceil(lambda) + 1
    STAR = "star"  #: d = n - 1

    def degree(self, n: int, lam: TimeLike) -> int:
        """The shape's named degree at ``(n, lambda)``, before
        :func:`resolve_degree` clamps it (Lemma 18's bound reads it as
        named)."""
        if self is DTreeShape.LINE:
            return 1
        if self is DTreeShape.BINARY:
            return 2
        if self is DTreeShape.LATENCY:
            return math.ceil(as_time(lam)) + 1
        return n - 1  # STAR


def resolve_degree(shape: "DTreeShape | int", n: int, lam: TimeLike) -> int:
    """Translate a :class:`DTreeShape` (or explicit integer) into a degree
    ``d``, clamped to the valid range ``1 .. max(1, n-1)``."""
    if isinstance(shape, DTreeShape):
        d = shape.degree(n, lam)
    else:
        d = int(shape)
    if n <= 1:
        return 1
    return max(1, min(d, n - 1))


def dtree_parent(i: ProcId, d: int) -> ProcId:
    """Parent of node ``i >= 1`` in the degree-``d`` BFS-ordered tree."""
    if i < 1:
        raise InvalidParameterError("the root has no parent")
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    return (i - 1) // d


def dtree_children(v: ProcId, d: int, n: int) -> list[ProcId]:
    """Children of node *v*, left to right, within an ``n``-node tree."""
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    first = d * v + 1
    return [c for c in range(first, min(first + d, n))]


def dtree_height(n: int, d: int) -> int:
    """Number of edge levels of the ``n``-node degree-``d`` tree
    (``ceil(log_d n)`` for full trees; exact for almost-full ones)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if n == 1:
        return 0
    if d == 1:
        return n - 1
    # depth of the last node, n-1, by repeated parent steps (O(log n))
    h = 0
    v = n - 1
    while v > 0:
        v = (v - 1) // d
        h += 1
    return h


def dtree_schedule(
    n: int,
    m: int,
    lam: TimeLike,
    shape: "DTreeShape | int",
    *,
    validate: bool = True,
) -> Schedule:
    """Execute Algorithm DTREE and return the resulting schedule.

    The execution is the deterministic fixed point of the event-driven
    rules: every node owns a FIFO of pending sends — message-major, children
    left-to-right, messages becoming pending when they arrive (at ``t = 0``
    for the root) — and drains it through its unit-time send port.  The
    drain is compiled once, in integer ticks, by
    :func:`repro.plan.build.compile_schedule`.
    """
    from repro.plan.build import compile_schedule

    d = resolve_degree(shape, n, lam)
    return compile_schedule(f"DTREE-{d}", n, m, lam, validate=validate)
