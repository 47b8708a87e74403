"""Algorithm PIPELINE as a distributed event-driven program (Section 4.2).

The ``m`` messages travel as a stream and are forwarded *as they arrive*.
A holder of (a prefix of) the stream repeatedly transmits all ``m``
messages to one new processor, then recurses on its remaining subrange.
The subrange split follows BCAST under the normalized latency

* ``lambda' = lambda / m`` when ``m <= lambda`` (PIPELINE-1): the sender
  finishes its stream before the recipient can forward, so the **sender**
  keeps the larger side;
* ``lambda' = m / lambda`` when ``m >= lambda`` (PIPELINE-2): the recipient
  can forward before the sender finishes, so the **recipient** takes the
  larger side — the paper's role swap.

A processor's first outgoing stream interleaves with its incoming one: it
waits for each message and forwards it the instant it lands (the send port
is always free at that instant — the simulator's strict mode proves it).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.algorithms.base import InboxBuffer, Protocol
from repro.core.fibfunc import GeneralizedFibonacci
from repro.core.multi import pipeline_variant
from repro.postal.machine import PostalSystem
from repro.sim.engine import Event
from repro.types import ProcId, Time, TimeLike

__all__ = ["PipelineProtocol"]


class PipelineProtocol(Protocol):
    """Event-driven Algorithm PIPELINE for ``m`` messages."""

    name = "PIPELINE"

    def __init__(self, n: int, m: int, lam: TimeLike):
        super().__init__(n, m, lam)
        self._sender_first = m <= self.lam
        lam_p = (self.lam / m) if self._sender_first else (Time(m) / self.lam)
        self._fib = GeneralizedFibonacci(lam_p)

    @property
    def variant(self) -> str:
        """``"PIPELINE-1"`` or ``"PIPELINE-2"`` (Section 4.2)."""
        return pipeline_variant(self.m, self.lam)

    def program(
        self, proc: ProcId, system: PostalSystem
    ) -> Generator[Event, Any, None] | None:
        if proc == self.root:
            return self._holder(system, None, self.root, self.n)
        return self._other_program(proc, system)

    def _other_program(self, proc: ProcId, system: PostalSystem):
        inbox = InboxBuffer(system, proc)
        first = yield from inbox.get(0)
        me, size = first.payload
        assert me == proc
        yield from self._holder(system, inbox, me, size)

    def _holder(
        self,
        system: PostalSystem,
        inbox: InboxBuffer | None,
        me: ProcId,
        size: int,
    ):
        """Stream the ``m`` messages through the subrange ``me .. me+size-1``.

        *inbox* is ``None`` at the root (all messages local from t = 0);
        elsewhere the first stream pulls each message as it arrives.
        """
        fib = self._fib
        while size > 1:
            j = fib.split(size)  # larger side
            if self._sender_first:
                keep, give = j, size - j
            else:
                keep, give = size - j, j
            target = me + keep
            for k in range(self.m):
                if inbox is not None and k not in inbox:
                    yield from inbox.get(k)
                yield system.send(me, target, k, payload=(target, give))
            size = keep
