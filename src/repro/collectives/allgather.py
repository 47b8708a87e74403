"""Allgather (gather + pipelined broadcast) in the postal model.

Every processor contributes one atomic rumor; afterwards every processor
holds all ``n``.  Composition:

1. **Gather (optimal)**: processor ``p_i`` sends its rumor directly to the
   root at time ``i - 1``.  The root's receive port serializes perfectly
   (windows ``(i-2+lambda, i-1+lambda]``), and since the root must receive
   ``n - 1`` atomic rumors through one port, ``(n-2) + lambda`` is a lower
   bound this phase meets exactly.
2. **Broadcast**: the root streams all ``n`` rumors down the PIPELINE tree
   (Section 4.2).  The stream may start at ``T0 = max(n-1, lambda-1)``:
   by then every non-root send port is free again (last gather send ends
   at ``n - 1``), and rumor ``k`` (arriving at ``k-1+lambda``) always lands
   by its stream slot ``T0 + k``.  The root receives gather rumors *while*
   streaming — legal simultaneous I/O.

Total time: ``max(n-1, lambda-1) + pipeline_time(n, n, lambda)`` — an upper
bound on the (open) optimal gossip; the bench compares it against the
pipelined ring and the trivial lower bound.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.algorithms.base import Protocol
from repro.core.analysis import pipeline_time
from repro.core.fibfunc import GeneralizedFibonacci
from repro.core.multi import pipeline_schedule
from repro.core.schedule import SendEvent
from repro.errors import InvalidParameterError
from repro.postal.machine import PostalSystem
from repro.sim.engine import Event
from repro.types import ProcId, Time, TimeLike, as_time

__all__ = [
    "allgather_time",
    "allgather_time_estimate",
    "allgather_schedule",
    "AllgatherProtocol",
]


def allgather_schedule(n: int, lam: TimeLike) -> list[SendEvent]:
    """Static event list of the gather+pipeline allgather.

    Message index = rumor index (``0 .. n-1``): the gather phase sends
    rumor ``i`` from ``p_i`` to the root at ``t = i - 1``; the broadcast
    phase is ``pipeline_schedule(n, n, lam)`` shifted to start at
    ``T0 = max(n-1, lambda-1)``.  Sorted by ``(time, sender, msg,
    receiver)``; empty for ``n == 1``.
    """
    lam_t = as_time(lam)
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if n == 1:
        return []
    events = [SendEvent(Time(i - 1), i, i, 0) for i in range(1, n)]
    t0 = max(Time(n - 1), lam_t - 1)
    stream = pipeline_schedule(n, n, lam_t, validate=False).shifted(t0)
    events.extend(stream.events)
    events.sort()
    return events


def allgather_time(n: int, lam: TimeLike) -> Time:
    """Exact completion time of the gather+pipeline allgather:
    ``max(n-1, lambda-1) + pipeline_time(n, n, lambda)`` for ``n >= 2``."""
    lam_t = as_time(lam)
    if n <= 1:
        return Time(0)
    return max(Time(n - 1), lam_t - 1) + pipeline_time(n, n, lam_t)


#: Backwards-compatible alias (the time is exact, not an estimate).
allgather_time_estimate = allgather_time


class AllgatherProtocol(Protocol):
    """Event-driven gather-then-pipeline allgather.

    After the run, :attr:`known` maps each processor to its rumor set (the
    tests assert completeness) and rumor *values* survive end to end.
    """

    name = "ALLGATHER"
    semantics = "allgather"

    def __init__(self, n: int, lam: TimeLike, *, rumors: list[Any] | None = None):
        super().__init__(n, 1, lam)
        self._rumors = list(rumors) if rumors is not None else list(range(n))
        if len(self._rumors) != n:
            raise ValueError(f"need exactly {n} rumors")
        m = n  # the broadcast phase streams all n rumors
        self._sender_first = m <= self.lam
        lam_p = (self.lam / m) if self._sender_first else (Time(m) / self.lam)
        self._fib = GeneralizedFibonacci(lam_p)
        self.known: dict[ProcId, dict[int, Any]] = {
            p: {p: self._rumors[p]} for p in range(n)
        }

    def program(
        self, proc: ProcId, system: PostalSystem
    ) -> Generator[Event, Any, None] | None:
        if self.n == 1:
            return None
        if proc == self.root:
            return self._root_program(system)
        return self._other_program(proc, system)

    # ------------------------------------------------------------- root

    def _root_program(self, system: PostalSystem):
        # receive gather rumors concurrently with the pipeline stream
        arrived: dict[int, Event] = {
            k: system.env.event() for k in range(1, self.n)
        }
        system.env.process(self._root_gather(system, arrived))

        t0 = max(Time(self.n - 1), self.lam - 1)
        gap = t0 - system.env.now
        if gap > 0:
            yield system.env.timeout(gap)
        known = self.known[self.root]
        size = self.n
        me = self.root
        while size > 1:
            j = self._fib.split(size)
            keep, give = (j, size - j) if self._sender_first else (size - j, j)
            target = me + keep
            for k in range(self.n):
                if k not in known:
                    yield arrived[k]
                yield system.send(
                    me, target, 0, payload=(target, give, k, known[k])
                )
            size = keep

    def _root_gather(self, system: PostalSystem, arrived: dict[int, Event]):
        known = self.known[self.root]
        for _ in range(self.n - 1):
            message = yield system.recv(self.root)
            k, value = message.payload
            known[k] = value
            arrived[k].succeed()

    # ---------------------------------------------------------- non-root

    def _other_program(self, proc: ProcId, system: PostalSystem):
        # gather phase: my rumor departs at exactly t = proc - 1
        gap = Time(proc - 1) - system.env.now
        if gap > 0:
            yield system.env.timeout(gap)
        yield system.send(
            proc, self.root, 0, payload=(proc, self._rumors[proc])
        )

        # broadcast phase: receive the stream, forwarding as it arrives
        known = self.known[proc]
        first = yield system.recv(proc)
        me, size, k0, v0 = first.payload
        assert me == proc
        known[k0] = v0
        while size > 1:
            j = self._fib.split(size)
            keep, give = (j, size - j) if self._sender_first else (size - j, j)
            target = me + keep
            for k in range(self.n):
                while k not in known:
                    nxt = yield system.recv(proc)
                    _me, _size, ki, vi = nxt.payload
                    known[ki] = vi
                yield system.send(
                    proc, target, 0, payload=(target, give, k, known[k])
                )
            size = keep
        while len(known) < self.n:
            nxt = yield system.recv(proc)
            _me, _size, ki, vi = nxt.payload
            known[ki] = vi
