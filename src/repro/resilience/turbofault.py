"""Fault injection inside the flat turbo event loop.

:class:`FaultyTurboSystem` is a :class:`~repro.turbo.fastsim.TurboSystem`
that consults a compiled :class:`~repro.resilience.faultplan.FaultPlan`
at the two mechanical choke points every transmission passes through:

* **send time** — a send from a crashed processor is suppressed (its
  port is never driven; the sender's completion event still fires so
  protocol generators drain normally — a dead processor's phantom
  program makes no observable moves).  A live send occupies the port,
  is logged, and consumes one fault draw: a *loss* draw drops it on the
  floor (the sender does not know — same contract as
  :class:`~repro.extensions.faulty.LossyPostalSystem`) and a *jitter*
  draw stretches its latency by whole ticks.
* **window time** — a delivery whose receiver is dead when the receive
  window opens is suppressed and logged as a crash drop; the receive
  port of a dead processor is never claimed.

The columnar run log extends the base lane's: retransmissions (a send
of an already-sent ``(src, dst, msg)`` triple — the obs tagging the
issue asks for) are logged under their own
:data:`~repro.turbo.runlog.SEND_RETRANSMIT` code, and every lost or
crash-suppressed delivery lands as a
:data:`~repro.turbo.runlog.DROP_LOSS` /
:data:`~repro.turbo.runlog.DROP_CRASH` row.  :meth:`flush_trace`
materializes these as ``"send"`` records
carrying ``retransmit: True`` and ``"drop"`` records carrying
``reason: "loss" | "crash"`` — a superset of the exact lane's payloads,
so :class:`~repro.obs.metrics.MetricsCollector` folds them unchanged.

Schedule reconstruction is refused (:class:`~repro.errors.ModelError`):
a faulted run has no single realized broadcast schedule — it is audited
through port views, delivery records, and the inequality certificate in
:mod:`repro.resilience.certify` instead.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import InvalidParameterError, ModelError
from repro.postal.machine import ContentionPolicy
from repro.resilience.faultplan import FaultPlan
from repro.sim.trace import Tracer
from repro.turbo.fastsim import (
    TurboEnvironment,
    TurboEvent,
    TurboSystem,
)
from repro.turbo.runlog import (
    DELIVER as _DELIVER,
    DROP_CRASH,
    DROP_LOSS,
    SEND as _SEND,
    SEND_RETRANSMIT as _SEND_RT,
)
from repro.types import ProcId, Time, TimeLike

__all__ = ["FaultyTurboSystem", "build_faulty_turbo", "_DROP"]

#: Backward-compatible alias: the fault lane's original single drop code
#: (reasons now live in the code itself — see :mod:`repro.turbo.runlog`).
_DROP = DROP_LOSS


class FaultyTurboSystem(TurboSystem):
    """``MPS(n, lambda)`` on the turbo loop with plan-driven faults.

    Counters (all cross-checked by the resilience certificate):

    * :attr:`dropped` — transmissions lost to the network (reason
      ``"loss"``), mirroring ``LossyPostalSystem.dropped``;
    * :attr:`crash_suppressed_sends` — sends a dead processor never made;
    * :attr:`crash_suppressed_deliveries` — deliveries that found the
      receiver dead (reason ``"crash"``);
    * :attr:`retransmissions` — sends of an already-sent
      ``(src, dst, msg)`` triple (ACKs included: a re-ACK is a
      retransmission of the ACK).
    """

    __slots__ = (
        "plan",
        "_crash_ticks",
        "_sent_keys",
        "dropped",
        "crash_suppressed_sends",
        "crash_suppressed_deliveries",
        "retransmissions",
    )

    def __init__(
        self,
        env: TurboEnvironment,
        n: int,
        lam: TimeLike,
        plan: FaultPlan,
        *,
        policy: ContentionPolicy = ContentionPolicy.QUEUED,
        tracer: Tracer | None = None,
        latency: "Callable[[ProcId, ProcId], TimeLike] | None" = None,
    ):
        super().__init__(
            env, n, lam, policy=policy, tracer=tracer, latency=latency
        )
        if plan.n != n:
            raise ModelError(
                f"fault plan compiled for n={plan.n}, system has n={n}"
            )
        if plan.domain.scale != env.domain.scale:
            raise ModelError(
                f"fault plan on tick scale {plan.domain.scale}, "
                f"run on scale {env.domain.scale} — compile them together"
            )
        self.plan = plan
        self._crash_ticks = {
            p: t for p in range(n)
            if (t := plan.crashed_at(p)) is not None
        }
        self._sent_keys: set[tuple[ProcId, ProcId, int]] = set()
        self.dropped = 0
        self.crash_suppressed_sends = 0
        self.crash_suppressed_deliveries = 0
        self.retransmissions = 0

    # ------------------------------------------------------------ queries

    def crashed_at(self, proc: ProcId) -> Time | None:
        """Crash instant of *proc* as exact time, ``None`` if live.

        This is the *perfect failure detector* surface: recovery
        protocols running with ``detector="perfect"`` may consult it,
        ones with ``detector="timeout"`` must not.
        """
        self._check_proc(proc)
        return self.plan.crashed_at_time(proc)

    @property
    def delivery_count(self) -> int:
        """Number of completed deliveries (no trace materialization)."""
        return self._log.count(_DELIVER)

    @property
    def drop_count(self) -> int:
        """Number of logged drops, loss and crash reasons combined."""
        return self._log.count(DROP_LOSS, DROP_CRASH)

    # ---------------------------------------------------------- primitives

    def send(
        self, src: ProcId, dst: ProcId, msg: int, payload: Any = None
    ) -> TurboEvent:
        """Like :meth:`TurboSystem.send`, filtered through the plan."""
        self._check_proc(src)
        self._check_proc(dst)
        if src == dst:
            raise InvalidParameterError(f"p{src} cannot send to itself")
        env = self.env
        one = self._one
        now = env._tick
        start = self._send_free[src]
        if start < now:
            start = now
        crash = self._crash_ticks.get(src)
        if crash is not None and start >= crash:
            # crash-stop: the port is never driven and nothing is logged;
            # the completion event still fires so the (phantom) program
            # of a processor crashed mid-run drains instead of deadlocking
            self.crash_suppressed_sends += 1
            done = TurboEvent(env)
            done._ok = True
            done._value = self.domain.to_time(start)
            env._push(start + one, done._fire)
            return done
        self._send_free[src] = start + one
        key = (src, dst, msg)
        retransmit = key in self._sent_keys
        if retransmit:
            self.retransmissions += 1
        else:
            self._sent_keys.add(key)
        row = len(self._log.codes)
        self._lg_code(_SEND_RT if retransmit else _SEND)
        self._lg_tick(start)
        self._lg_a(src)
        self._lg_b(dst)
        self._lg_c(msg)
        done = TurboEvent(env)
        done._ok = True
        done._value = self.domain.to_time(start)
        env._push(start + one, done._fire)
        dropped, jitter = self.plan.draw(src, dst)
        if dropped:
            self.dropped += 1
            self._lg_code(DROP_LOSS)
            self._lg_tick(start)
            self._lg_a(src)
            self._lg_b(dst)
            self._lg_c(msg)
            return done
        lat = self._latency_ticks(src, dst) + jitter
        book = self._book_strict if self._strict else self._book_queued
        env._push(
            start + lat - one, self._window, book, row, start, src, dst, msg,
            payload,
        )
        return done

    def _window(
        self,
        book: Callable,
        row: int,
        start: int,
        src: ProcId,
        dst: ProcId,
        msg: int,
        payload: Any,
    ) -> None:
        """The receive-window hop, with the dead-receiver filter."""
        crash = self._crash_ticks.get(dst)
        if crash is not None and self.env._tick >= crash:
            self.crash_suppressed_deliveries += 1
            self._lg_code(DROP_CRASH)
            self._lg_tick(self.env._tick)
            self._lg_a(src)
            self._lg_b(dst)
            self._lg_c(msg)
            return
        book(row, start, src, dst, msg, payload)

    # ------------------------------------------------------ validator views

    def realized_schedule(self, *, m: int = 1, root: int = 0, validate: bool = False):
        raise ModelError(
            "a fault-injected run has no realized broadcast schedule; "
            "audit it via port views, delivery records, and "
            "repro.resilience.certify instead"
        )

    def audit(self, *, broadcast: bool = True, m: int = 1, root: int = 0) -> None:
        raise ModelError(
            "a fault-injected run drops and retransmits, which the column "
            "audit does not model; audit it via port views, delivery "
            "records, and repro.resilience.certify instead"
        )

    def run_metrics(self):
        raise ModelError(
            "a fault-injected run is measured from its trace (drops "
            "included); fold flush_trace() through a MetricsCollector"
        )


def build_faulty_turbo(
    plan: FaultPlan,
    *,
    policy: ContentionPolicy = ContentionPolicy.QUEUED,
    tracer: Tracer | None = None,
    latency: "Callable[[ProcId, ProcId], TimeLike] | None" = None,
) -> FaultyTurboSystem:
    """A :class:`FaultyTurboSystem` on a fresh loop sharing *plan*'s tick
    domain — the faulty twin of :func:`~repro.turbo.fastsim.build_turbo`.

    >>> from repro.resilience.faultplan import FaultPlan
    >>> system = build_faulty_turbo(FaultPlan.compile(4, "5/2", loss=0.5))
    >>> system.env.domain.scale
    2
    """
    env = TurboEnvironment(plan.domain)
    return FaultyTurboSystem(
        env, plan.n, plan.lam, plan, policy=policy, tracer=tracer, latency=latency
    )
