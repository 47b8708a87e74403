"""Baseline broadcast algorithms the paper's approach is measured against.

* :class:`StarProtocol` / :func:`star_schedule` — the naive sequential
  broadcast: the originator sends to every processor itself.  Time
  ``(n - 2) + lambda`` for one message; the DTREE ``d = n-1`` case.
* :class:`BinomialProtocol` / :func:`binomial_schedule` — the classic
  binomial tree, which is *optimal in the telephone model* (``lambda = 1``,
  where BCAST degenerates to it) but latency-oblivious: run under
  ``lambda > 1`` it demonstrates exactly the gap the postal model exposes
  and generalized Fibonacci trees close.

Both compile to the standard :class:`~repro.core.schedule.Schedule` IR
(through :func:`repro.plan.build.compile_schedule`, the one integer-tick
implementation of every broadcast recurrence) and exist as event-driven
protocols.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.algorithms.base import Protocol
from repro.core.schedule import Schedule
from repro.errors import InvalidParameterError
from repro.postal.machine import PostalSystem
from repro.sim.engine import Event
from repro.types import ProcId, Time, TimeLike, ZERO, as_time

__all__ = [
    "star_time",
    "binomial_time",
    "star_schedule",
    "binomial_schedule",
    "StarProtocol",
    "BinomialProtocol",
]


def star_time(n: int, m: int, lam: TimeLike) -> Time:
    """Exact completion time of the ``m``-message star broadcast: the root
    emits ``m * (n - 1)`` back-to-back sends, the last starting at
    ``m(n-1) - 1``, so ``T_STAR = m(n-1) - 1 + lambda`` (0 for ``n == 1``).
    Degenerates to the ``(n-2) + lambda`` of :func:`star_schedule` at
    ``m == 1``."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    lam_t = as_time(lam)
    if n == 1:
        return ZERO
    return Time(m * (n - 1) - 1) + lam_t


def binomial_time(n: int, lam: TimeLike) -> Time:
    """Exact completion time of :func:`binomial_schedule` — the recursion
    the builder realizes: a range of ``size`` processors splits into a kept
    range of ``j = size - half`` (the sender continues one unit later) and a
    transferred range of ``half`` (the largest power of two below ``size``,
    reachable after ``lambda``), so::

        T(1)    = 0
        T(size) = max(1 + T(j), lambda + T(half))

    At ``lambda = 1`` this is the telephone-model optimum
    ``ceil(log2 n)``; for larger ``lambda`` it quantifies exactly how much
    the latency-oblivious tree loses to BCAST."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    lam_t = as_time(lam)

    def rec(size: int) -> Time:
        if size == 1:
            return ZERO
        half = 1
        while half * 2 < size:
            half *= 2
        j = size - half
        sender = Time(1) + rec(j)
        recipient = lam_t + rec(half)
        return sender if sender > recipient else recipient

    return rec(n)


def star_schedule(n: int, lam: TimeLike, *, validate: bool = True) -> Schedule:
    """One-message star broadcast: ``p_0`` sends to ``p_1 .. p_{n-1}`` in
    order.  Completion time ``(n - 2) + lambda`` for ``n >= 2``."""
    from repro.plan.build import compile_schedule

    return compile_schedule("STAR", n, 1, lam, validate=validate)


def binomial_schedule(n: int, lam: TimeLike, *, validate: bool = True) -> Schedule:
    """One-message binomial-tree broadcast run in ``MPS(n, lambda)``.

    The tree is the ``lambda = 1`` optimum; under larger ``lambda`` each of
    its ``ceil(log2 n)`` rounds still pays the full latency, so its time is
    roughly ``log2(n) * lambda`` versus BCAST's
    ``lambda*log(n)/log(lambda+1)``.

    Note the recipient may start forwarding only after arrival; each child
    range's sends are therefore stamped at ``parent_send + lambda`` — its
    arrival time, the earliest legal moment.
    """
    from repro.plan.build import compile_schedule

    return compile_schedule("BINOMIAL", n, 1, lam, validate=validate)


class StarProtocol(Protocol):
    """Event-driven star broadcast of ``m`` messages (root does all work)."""

    name = "STAR"

    def __init__(self, n: int, m: int, lam: TimeLike):
        super().__init__(n, m, lam)

    def program(
        self, proc: ProcId, system: PostalSystem
    ) -> Generator[Event, Any, None] | None:
        if proc != self.root:
            return None
        return self._root_program(system)

    def _root_program(self, system: PostalSystem):
        for k in range(self.m):
            for dst in range(1, self.n):
                yield system.send(self.root, dst, k)


class BinomialProtocol(Protocol):
    """Event-driven binomial-tree broadcast of one message."""

    name = "BINOMIAL"

    def __init__(self, n: int, lam: TimeLike):
        super().__init__(n, 1, lam)

    def program(
        self, proc: ProcId, system: PostalSystem
    ) -> Generator[Event, Any, None] | None:
        if proc == self.root:
            return self._originate(system, self.root, self.n)
        return self._other_program(proc, system)

    def _other_program(self, proc: ProcId, system: PostalSystem):
        message = yield system.recv(proc)
        me, size = message.payload
        yield from self._originate(system, me, size)

    def _originate(self, system: PostalSystem, me: ProcId, size: int):
        while size > 1:
            half = 1
            while half * 2 < size:
                half *= 2
            j = size - half
            yield system.send(me, me + j, 0, payload=(me + j, half))
            size = j
