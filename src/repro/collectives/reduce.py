"""Combining (reduction) in the postal model — the problem of reference [6].

Reduction is broadcast run backwards: reversing every send of an optimal
one-message broadcast schedule (send at ``s`` arriving ``s + lambda``
becomes a send at ``T - s - lambda`` arriving at ``T - s``, with sender and
receiver swapped) turns a valid broadcast schedule into a valid reduction
schedule of the *same* length, because the postal model's constraints are
symmetric under time reversal with send/receive exchange.  Hence the
optimal combining time is exactly ``f_lambda(n)``, achieved on the
time-reversed generalized Fibonacci tree.

An important subtlety the tests demonstrate: the *eager* strategy ("send
to your parent as soon as your subtree is combined") is **not** always
valid — when a node owns two leaf children (which happens whenever
``F_lambda`` has plateaus, e.g. ``lambda = 2.5, n = 3``) both would fire at
``t = 0`` and collide at the parent's receive port.  The correct protocol
paces each processor's single send at its reversed-schedule time
``T - informed_at(proc)``, which every processor computes locally from
``(n, lambda, proc)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Generator, Iterable

from repro.algorithms.base import Protocol
from repro.core.bcast import BroadcastTree, bcast_schedule
from repro.core.fibfunc import postal_f
from repro.core.schedule import SendEvent, tick_columns
from repro.errors import InvalidParameterError, ScheduleError
from repro.plan.columns import audit_columns
from repro.postal.machine import PostalSystem
from repro.sim.engine import Event
from repro.types import ProcId, Time, TimeLike, as_time, time_repr

__all__ = ["reduce_time", "ReductionSchedule", "reduce_schedule", "ReduceProtocol"]


def reduce_time(n: int, lam: TimeLike) -> Time:
    """Optimal combining time in ``MPS(n, lambda)``: ``f_lambda(n)``."""
    return postal_f(as_time(lam), n)


class ReductionSchedule:
    """A combining schedule: every processor except the root sends exactly
    one partial value; values flow root-ward.

    Shares :class:`~repro.core.schedule.SendEvent` with broadcast schedules
    but has its own (reduction-specific) validation: the postal audit of
    ranges and ports (:func:`~repro.plan.columns.audit_columns`, without
    broadcast semantics), one send per non-root processor, and every send
    departs no earlier than all of the sender's incoming arrivals (you
    cannot forward a partial value you have not finished combining).
    """

    def __init__(
        self,
        n: int,
        lam: TimeLike,
        events: Iterable[SendEvent],
        *,
        root: ProcId = 0,
        validate: bool = True,
    ):
        if n < 1:
            raise InvalidParameterError(f"need n >= 1 processors, got {n}")
        lam = as_time(lam)
        if lam < 1:
            raise InvalidParameterError(
                f"the postal model requires lambda >= 1, got {lam}"
            )
        if not 0 <= root < n:
            raise InvalidParameterError(f"root p{root} outside 0..{n - 1}")
        self.n = n
        self.lam = lam
        self.root = root
        self.events: tuple[SendEvent, ...] = tuple(sorted(events))
        if validate:
            self.validate()

    def completion_time(self) -> Time:
        """Arrival of the last partial value at the root side."""
        return max(
            (ev.arrival_time(self.lam) for ev in self.events),
            default=Time(0),
        )

    def validate(self) -> None:
        """Check the postal model and the two reduction rules.

        Raises:
            ScheduleError: a processor id out of range, a self-send, a
                negative send time, a processor that sends twice or a
                non-root one that never sends, or a send departing before
                the sender's last incoming value lands.
            SimultaneousIOError: two partial values arrive at (or two
                sends leave) one processor less than a unit apart.
        """
        n, lam, events = self.n, self.lam, self.events
        scale, ticks, senders, msgs, receivers = tick_columns(lam, events)
        lam_ticks = lam.numerator * (scale // lam.denominator)
        arrivals = [t + lam_ticks for t in ticks]
        audit_columns(
            senders, msgs, receivers, ticks, arrivals, range(len(ticks)),
            n=n, scale=scale, lam_ticks=lam_ticks, broadcast=False,
        )
        sent = [False] * n
        for proc in senders:
            if sent[proc]:
                raise ScheduleError(f"p{proc} sends twice in a reduction")
            sent[proc] = True
        if sent[self.root] or len(senders) != n - 1:
            raise ScheduleError(
                "a reduction needs exactly one send per non-root processor"
            )
        last_in = [-1] * n  # last incoming arrival tick per processor
        for proc, arrival in zip(receivers, arrivals):
            if arrival > last_in[proc]:
                last_in[proc] = arrival
        for ev, tick, proc in zip(events, ticks, senders):
            if tick < last_in[proc]:
                raise ScheduleError(
                    f"{ev}: departs before p{proc}'s last incoming partial "
                    f"value at t={time_repr(Fraction(last_in[proc], scale))}"
                )


def reduce_schedule(n: int, lam: TimeLike, *, validate: bool = True) -> ReductionSchedule:
    """The time-reversed BCAST schedule: all ``n`` values combine at
    ``p_0`` in exactly ``f_lambda(n)`` time."""
    fwd = bcast_schedule(n, lam, validate=False)
    total = fwd.completion_time()
    lam_t = fwd.lam
    events = [
        SendEvent(total - ev.send_time - lam_t, ev.receiver, ev.msg, ev.sender)
        for ev in fwd.events
    ]
    return ReductionSchedule(n, lam, events, validate=validate)


class ReduceProtocol(Protocol):
    """Event-driven combining of one value per processor at ``p_0``.

    Every processor derives the deterministic BCAST tree from
    ``(n, lambda)`` locally, collects a partial value from each of its tree
    children, folds them with *op*, and sends the result to its parent:

    * **paced** (default): the send departs at the reversed-schedule time
      ``T - informed_at(proc)`` — provably collision-free and optimal.
    * **eager** (``eager=True``): the send departs as soon as the subtree
      is combined.  Collides in strict mode whenever a node has two
      same-shape children (plateaus of ``F_lambda``); useful only under the
      queued contention policy, where it may finish *later* than paced.

    After :func:`repro.postal.run_protocol` completes, :attr:`result` holds
    the combined value.
    """

    name = "REDUCE"
    semantics = "reduction"

    def __init__(
        self,
        n: int,
        lam: TimeLike,
        *,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        values: list[Any] | None = None,
        eager: bool = False,
    ):
        super().__init__(n, 1, lam)
        self._op = op
        self._values = list(values) if values is not None else list(range(n))
        if len(self._values) != n:
            raise ValueError(f"need exactly {n} initial values")
        self._tree = BroadcastTree.of(bcast_schedule(n, lam, validate=False))
        self._total = postal_f(self.lam, n)
        self._eager = eager
        self.result: Any = None

    def program(
        self, proc: ProcId, system: PostalSystem
    ) -> Generator[Event, Any, None] | None:
        return self._node_program(proc, system)

    def _node_program(self, proc: ProcId, system: PostalSystem):
        children = self._tree.children_of(proc)
        acc = self._values[proc]
        for _ in children:
            message = yield system.recv(proc)
            acc = self._op(acc, message.payload)
        parent = self._tree.parent_of(proc)
        if parent is None:
            self.result = acc
            return
        if not self._eager:
            depart = self._total - self._tree.node(proc).informed_at
            gap = depart - system.env.now
            if gap > 0:
                yield system.env.timeout(gap)
        yield system.send(proc, parent, 0, payload=acc)
