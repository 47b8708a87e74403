"""Algorithm PACK as a distributed event-driven program (Section 4.2).

The ``m`` messages travel as one "long message": a processor first receives
all ``m`` in sequence, then forwards the whole pack along the BCAST tree
for the normalized latency ``lambda' = 1 + (lambda - 1)/m`` (Lemma 12).
Subrange splits therefore use ``F_{lambda'}``, but all actual transmissions
are ordinary unit messages of the real ``MPS(n, lambda)``.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.algorithms.base import InboxBuffer, Protocol
from repro.core.fibfunc import GeneralizedFibonacci
from repro.postal.machine import PostalSystem
from repro.sim.engine import Event
from repro.types import ProcId, TimeLike

__all__ = ["PackProtocol"]


class PackProtocol(Protocol):
    """Event-driven Algorithm PACK for ``m`` messages."""

    name = "PACK"

    def __init__(self, n: int, m: int, lam: TimeLike):
        super().__init__(n, m, lam)
        # the split sequence lives in the normalized model
        self._fib = GeneralizedFibonacci(1 + (self.lam - 1) / m)

    def program(
        self, proc: ProcId, system: PostalSystem
    ) -> Generator[Event, Any, None] | None:
        if proc == self.root:
            return self._forward_pack(system, self.root, self.n)
        return self._other_program(proc, system)

    def _other_program(self, proc: ProcId, system: PostalSystem):
        inbox = InboxBuffer(system, proc)
        # receive the entire pack before forwarding anything (PACK's rule)
        me = size = None
        for k in range(self.m):
            message = yield from inbox.get(k)
            if message.payload is not None:
                me, size = message.payload
        assert me == proc and size is not None
        yield from self._forward_pack(system, me, size)

    def _forward_pack(self, system: PostalSystem, me: ProcId, size: int):
        fib = self._fib
        while size > 1:
            j = fib.split(size)
            target = me + j
            for k in range(self.m):
                yield system.send(
                    me, target, k, payload=(target, size - j)
                )
            size = j
