"""Algorithm BCAST as a distributed event-driven program (Section 3).

Each processor's knowledge is exactly what the paper grants it: the root
knows ``(n, lambda)``; every other processor learns *its own subrange* from
the payload of the message that informs it, and then behaves as the
originator of that subrange.  No processor reads the global clock or any
other processor's state.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.algorithms.base import Protocol
from repro.core.fibfunc import GeneralizedFibonacci
from repro.postal.machine import PostalSystem
from repro.sim.engine import Event
from repro.types import ProcId, TimeLike

__all__ = ["BcastProtocol", "originate"]


def originate(
    protocol_fib: GeneralizedFibonacci,
    system: PostalSystem,
    me: ProcId,
    size: int,
    msg: int,
) -> Generator[Event, Any, None]:
    """Run item (a) of Algorithm BCAST: broadcast message *msg* to the
    range ``me .. me + size - 1`` (of which *me* is the originator).

    Every loop iteration sends one copy; ``yield system.send`` paces the
    loop at one message per time unit through the send port.
    """
    fib = protocol_fib
    while size > 1:
        j = fib.split(size)  # 1 <= j <= size-1 (Lemma 3)
        target = me + j
        # the recipient will originate for the upper part of the range
        yield system.send(me, target, msg, payload=(target, size - j))
        size = j


class BcastProtocol(Protocol):
    """Event-driven Algorithm BCAST for one message."""

    name = "BCAST"

    def __init__(self, n: int, lam: TimeLike):
        super().__init__(n, 1, lam)
        self._fib = GeneralizedFibonacci(self.lam)

    def program(
        self, proc: ProcId, system: PostalSystem
    ) -> Generator[Event, Any, None] | None:
        if proc == self.root:
            return self._root_program(system)
        return self._other_program(proc, system)

    def _root_program(self, system: PostalSystem):
        yield from originate(self._fib, system, self.root, self.n, 0)

    def _other_program(self, proc: ProcId, system: PostalSystem):
        message = yield system.recv(proc)
        me, size = message.payload
        assert me == proc, "range payload addressed to the wrong processor"
        yield from originate(self._fib, system, me, size, message.msg)
