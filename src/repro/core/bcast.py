"""Algorithm BCAST — optimal single-message broadcast (Section 3).

The algorithm, verbatim from the paper:

    (a) Processor ``p_0`` at time ``t = 0``: if ``n >= 2``, compute
        ``j = F_lambda(f_lambda(n) - 1)`` and send message ``M`` to ``p_j``
        together with the request to broadcast to ``p_j .. p_{n-1}``.
        At ``t = 1`` recursively apply BCAST to ``p_0 .. p_{j-1}``.
    (b) A processor receiving ``M`` with a range applies BCAST to that
        range, treating itself as ``p_0``.

The resulting broadcast tree is the *generalized Fibonacci tree* — a
binomial tree for ``lambda = 1`` and a Fibonacci tree for ``lambda = 2`` —
and the completion time is exactly ``f_lambda(n)`` (Theorem 6).

This module exposes BCAST *schedules* (the static IR) and the broadcast
tree they induce.  The recurrence itself is compiled once, in integer
ticks, by :func:`repro.plan.build.compile_schedule`;
:func:`bcast_schedule` is its event-object view.  The event-driven
distributed implementation that discovers the same schedule at run time
lives in :mod:`repro.algorithms.bcast_protocol`.  For large machines
(``n`` approaching ``10^5`` and beyond) prefer the columnar plan layer,
:func:`repro.plan.compile_plan`, which keeps the sends as integer
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schedule import Schedule
from repro.types import ProcId, Time, TimeLike, ZERO, as_time

__all__ = ["bcast_schedule", "bcast_tree", "BroadcastTree", "TreeNode"]


def bcast_schedule(
    n: int,
    lam: TimeLike,
    *,
    start: TimeLike = 0,
    validate: bool = True,
) -> Schedule:
    """The full BCAST schedule for one message in ``MPS(n, lambda)``.

    Its :meth:`~repro.core.schedule.Schedule.completion_time` equals
    ``start + f_lambda(n)`` exactly (Theorem 6).
    """
    from repro.plan.build import compile_schedule

    schedule = compile_schedule("BCAST", n, 1, lam, validate=validate)
    return schedule.shifted(start) if as_time(start) else schedule


@dataclass
class TreeNode:
    """One node of a broadcast tree.

    Attributes:
        proc: the processor at this node.
        informed_at: when the processor knows the message (0 for the root).
        sent_at: when its parent started sending to it (None for the root).
        parent: parent processor (None for the root).
        children: child processors, in the order the sends were issued.
    """

    proc: ProcId
    informed_at: Time
    sent_at: Time | None = None
    parent: ProcId | None = None
    children: list[ProcId] = field(default_factory=list)


class BroadcastTree:
    """The tree induced by a single-message schedule (who informed whom).

    Figure 1 of the paper is exactly ``BroadcastTree.of(bcast_schedule(14,
    "5/2"))`` — see :mod:`repro.report.render` for the ASCII rendering.
    """

    def __init__(self, nodes: dict[ProcId, TreeNode], root: ProcId):
        self._nodes = nodes
        self._root = root

    @classmethod
    def of(cls, schedule: Schedule, msg: int = 0) -> "BroadcastTree":
        """Build the tree of message *msg* from *schedule*."""
        root = schedule.root
        nodes: dict[ProcId, TreeNode] = {root: TreeNode(root, ZERO)}
        for ev in schedule.events:
            if ev.msg != msg:
                continue
            nodes[ev.receiver] = TreeNode(
                ev.receiver,
                ev.arrival_time(schedule.lam),
                sent_at=ev.send_time,
                parent=ev.sender,
            )
        for ev in sorted(schedule.events, key=lambda e: e.send_time):
            if ev.msg == msg:
                nodes[ev.sender].children.append(ev.receiver)
        return cls(nodes, root)

    @property
    def root(self) -> ProcId:
        return self._root

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, proc: ProcId) -> bool:
        return proc in self._nodes

    def node(self, proc: ProcId) -> TreeNode:
        return self._nodes[proc]

    def children_of(self, proc: ProcId) -> list[ProcId]:
        return list(self._nodes[proc].children)

    def parent_of(self, proc: ProcId) -> ProcId | None:
        return self._nodes[proc].parent

    def height(self) -> Time:
        """Time at which the last node is informed (``t = 7 1/2`` in the
        paper's Figure 1)."""
        return max(nd.informed_at for nd in self._nodes.values())

    def depth_of(self, proc: ProcId) -> int:
        """Number of tree edges from the root to *proc*."""
        d = 0
        cur = self._nodes[proc]
        while cur.parent is not None:
            cur = self._nodes[cur.parent]
            d += 1
        return d

    def degrees(self) -> dict[ProcId, int]:
        """Number of children of each node.  In a generalized Fibonacci
        tree, nodes close to the root have higher degree."""
        return {p: len(nd.children) for p, nd in self._nodes.items()}

    def preorder(self) -> list[ProcId]:
        """Depth-first preorder, children in send order."""
        out: list[ProcId] = []
        stack = [self._root]
        while stack:
            p = stack.pop()
            out.append(p)
            stack.extend(reversed(self._nodes[p].children))
        return out


def bcast_tree(n: int, lam: TimeLike) -> BroadcastTree:
    """The generalized Fibonacci broadcast tree for ``MPS(n, lambda)``."""
    return BroadcastTree.of(bcast_schedule(n, lam, validate=False))
