"""Audit a finished postal-machine run against the postal model.

The machine traces every send start and every delivery.  The validator
rebuilds the run as a :class:`~repro.core.schedule.Schedule`, whose
validation is the library's one postal audit
(:func:`~repro.plan.columns.audit_columns` over integer ticks, followed
by the paper's Lemma 5 and Lemma 8 certificates), and additionally
audits the *ports' own busy logs* and delivery records — a second,
independent record of what the simulation actually did.  These trace
checks are the exact lane's witness: they read the machine's records,
not the schedule's arithmetic.

Every check compares exact integer ticks.  It reads its times once and
converts them at one scale, the least that holds them all (the LCM of
their denominators, as :func:`~repro.core.schedule.tick_columns`
computes it), never the engine's clock scale: a tampered record may
carry a denominator the run never saw.  An error renders the tick it
found as the exact time ``Fraction(tick, scale)``.

Three audit depths are available:

* :func:`audit_ports` — pure port-log audit (both policies, any latency
  function): busy intervals are unit-length and pairwise disjoint.
* :func:`audit_deliveries` — delivery-record audit (both policies): every
  arrival respects ``sent_at + latency``; the delivery windows are exactly
  the receive port's busy log; under the queued policy, realized arrival
  times are the *work-conserving FIFO* completion of their due times (a
  late delivery must be explained by port contention, never by idling).
* :func:`validate_run` — the full audit.  Under the strict uniform policy
  it also rebuilds and validates the broadcast :class:`Schedule`,
  certificates included; under
  the queued policy it instead checks broadcast *coverage* and sender
  possession directly from the delivery records
  (:func:`audit_broadcast_coverage`) and returns ``None``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, islice
from operator import add
from typing import Iterable, Sequence

from repro.core.schedule import Schedule
from repro.errors import ModelError, ScheduleError, SimultaneousIOError
from repro.postal.machine import ContentionPolicy, PostalSystem
from repro.types import ProcId, Time, time_repr

__all__ = [
    "schedule_from_trace",
    "audit_ports",
    "audit_deliveries",
    "audit_broadcast_coverage",
    "validate_run",
]


def _scale(times: Iterable[Time]) -> int:
    """The least tick scale at which every time in *times* is whole."""
    return math.lcm(*{t.denominator for t in times})


def _ticks(times: Sequence[Time], scale: int) -> list[int]:
    """*times* in whole ticks at *scale*."""
    return [t.numerator * (scale // t.denominator) for t in times]


def _at(tick: int, scale: int) -> str:
    """*tick* rendered as the exact time it stands for."""
    return time_repr(Fraction(tick, scale))


def schedule_from_trace(
    system: PostalSystem, *, m: int, root: int = 0, validate: bool = True
) -> Schedule:
    """Reconstruct the realized schedule from a system's trace.

    The traced sends become the schedule's integer columns
    (:meth:`Schedule.from_columns`); no event is built.

    Only meaningful under the strict policy (under the queued policy
    arrivals may exceed ``sent_at + lambda`` and the reconstruction would
    misstate them); raises :class:`~repro.errors.ModelError` otherwise.
    """
    if system.policy is not ContentionPolicy.STRICT:
        raise ModelError(
            "schedule reconstruction requires the strict contention policy"
        )
    if not system.uniform_latency:
        raise ModelError(
            "schedule reconstruction requires uniform latency; pair-"
            "dependent runs are audited via audit_ports + delivery records"
        )
    sends = system.tracer.records("send")
    times = [rec.time for rec in sends]
    data = [rec.data for rec in sends]
    scale = _scale(chain((system.lam,), times))
    return Schedule.from_columns(
        system.n,
        system.lam,
        scale,
        _ticks(times, scale),
        [d["src"] for d in data],
        [d["msg"] for d in data],
        [d["dst"] for d in data],
        m=m,
        root=root,
        validate=validate,
    )


def audit_ports(system: PostalSystem) -> None:
    """Check every port's busy log: intervals pairwise disjoint (half-open)
    and each exactly one unit long.

    Both checks run in a single pass over every port's *sorted* log,
    the ports in order (send ports, then receive ports): since every
    interval is one unit long, two intervals overlap iff their sorted
    starts are less than one unit apart, so the disjointness audit is an
    adjacent-gap sweep rather than a pairwise comparison —
    ``O(I log I)`` over all ``I`` intervals.

    Raises:
        SimultaneousIOError: overlapping busy intervals on one port.
        ModelError: an interval of the wrong length.
    """
    n = system.n
    ports = [system.send_port(p) for p in range(n)]
    ports += [system.recv_port(p) for p in range(n)]
    logs = [port.busy_intervals for port in ports]
    times = [t for log in logs for interval in log for t in interval]
    scale = _scale(times)
    ticks = _ticks(times, scale)
    # every port's sorted log, the ports in the order they are audited
    rows = sorted(
        zip(
            [k for k, log in enumerate(logs) for _ in log],
            ticks[0::2],
            ticks[1::2],
        )
    )

    def port(k: int) -> str:
        return f"p{ports[k].proc} {'send' if k < n else 'recv'}"

    prev_k = prev_s = prev_e = None
    for k, s, e in rows:
        if e - s != scale:
            raise ModelError(
                f"{port(k)} busy interval "
                f"[{_at(s, scale)},{_at(e, scale)}) is not one unit"
            )
        if k == prev_k and s < prev_e:
            raise SimultaneousIOError(
                f"{port(k)} port driven twice at once: "
                f"[{_at(prev_s, scale)},{_at(prev_e, scale)}) and "
                f"[{_at(s, scale)},{_at(e, scale)})"
            )
        prev_k, prev_s, prev_e = k, s, e


def audit_deliveries(system: PostalSystem) -> None:
    """Audit the delivery records against the model arithmetic *and* the
    receive-port busy logs — valid under **both** contention policies.

    Checks, per receiver:

    1. every delivery arrives no earlier than ``sent_at + latency`` (its
       *due* time); under the strict policy, *exactly* at its due time;
    2. the delivery windows ``[arrived-1, arrived)`` are exactly the
       receive port's busy log (no phantom receives, no unlogged ones);
    3. under the queued policy, the multiset of realized arrival times is
       the work-conserving FIFO completion of the due times: a receive
       starts at ``due - 1`` or the instant the port frees, whichever is
       later.  A delivery that is late without a port conflict to blame
       (the port idled while a message waited) violates the
       NIC-queue semantics and is flagged.

    Raises:
        ScheduleError: an arrival before (or, strict, different from) its
            due time.
        ModelError: delivery records disagree with the port logs, or
            queued arrivals are not work-conserving.
    """
    strict = system.policy is ContentionPolicy.STRICT
    msgs = [rec.data for rec in system.tracer.records("deliver")]
    by_dst: dict[ProcId, list[int]] = {}
    for i, msg in enumerate(msgs):
        by_dst.setdefault(msg.dst, []).append(i)
    sent_at = [msg.sent_at for msg in msgs]
    arrived_at = [msg.arrived_at for msg in msgs]
    latency = [system.latency(msg.src, msg.dst) for msg in msgs]
    logs = [system.recv_port(dst).busy_intervals for dst in by_dst]
    logged_at = [t for log in logs for interval in log for t in interval]
    scale = _scale(chain(sent_at, arrived_at, latency, logged_at))
    arrived = _ticks(arrived_at, scale)
    due = list(map(add, _ticks(sent_at, scale), _ticks(latency, scale)))
    logged = _ticks(logged_at, scale)
    intervals = zip(logged[0::2], logged[1::2])

    for (dst, rows), log in zip(by_dst.items(), logs):
        for i in rows:
            if arrived[i] < due[i]:
                raise ScheduleError(
                    f"{msgs[i]}: arrives before sent_at + lambda = "
                    f"{_at(due[i], scale)}"
                )
            if strict and arrived[i] != due[i]:
                raise ScheduleError(
                    f"{msgs[i]}: arrival differs from sent_at + lambda = "
                    f"{_at(due[i], scale)}"
                )

        windows = sorted([(arrived[i] - scale, arrived[i]) for i in rows])
        busy = sorted(islice(intervals, len(log)))
        if windows != busy:
            raise ModelError(
                f"p{dst}: delivery records ({len(windows)} receive "
                f"windows) do not match the recv-port busy log "
                f"({len(busy)} intervals)"
            )

        if not strict:
            # work-conserving FIFO replay over the sorted due times
            clock: int | None = None
            finishes: list[int] = []
            for d in sorted([due[i] for i in rows]):
                start = d - scale
                if clock is not None and clock > start:
                    start = clock
                clock = start + scale
                finishes.append(clock)
            realized = [end for _, end in windows]
            if finishes != realized:
                raise ModelError(
                    f"p{dst}: queued arrival times are not the "
                    f"work-conserving FIFO completion of their due times "
                    f"(expected {[_at(t, scale) for t in finishes]}, "
                    f"got {[_at(t, scale) for t in realized]})"
                )


def audit_broadcast_coverage(
    system: PostalSystem, *, m: int, root: int = 0
) -> None:
    """Check broadcast *semantics* directly from the delivery records —
    the queued-policy replacement for rebuilding a :class:`Schedule`:

    * every processor except the root receives every message ``0..m-1``
      exactly once (and the root receives nothing);
    * every sender *holds* each message when it starts sending it (it is
      the root, or its own delivery of that message completed first).

    Raises:
        ScheduleError: missing, duplicate, or premature transmissions.
    """
    msgs = [rec.data for rec in system.tracer.records("deliver")]
    sends = system.tracer.records("send")
    arrived_at = [msg.arrived_at for msg in msgs]
    sent_at = [rec.time for rec in sends]
    scale = _scale(chain(arrived_at, sent_at))
    held_from: dict[tuple[ProcId, int], int] = {(root, k): 0 for k in range(m)}
    for msg, arrived in zip(msgs, _ticks(arrived_at, scale)):
        key = (msg.dst, msg.msg)
        if not 0 <= msg.msg < m:
            raise ScheduleError(f"{msg}: message index outside 0..{m - 1}")
        if msg.dst == root:
            raise ScheduleError(f"{msg}: the root must not receive")
        if key in held_from:
            raise ScheduleError(
                f"p{msg.dst} receives M{msg.msg + 1} more than once"
            )
        held_from[key] = arrived
    missing = [
        (p, k)
        for p in range(system.n)
        for k in range(m)
        if (p, k) not in held_from
    ]
    if missing:
        p, k = missing[0]
        raise ScheduleError(
            f"incomplete broadcast: p{p} never receives M{k + 1} "
            f"({len(missing)} deliveries missing)"
        )
    for rec, start in zip(sends, _ticks(sent_at, scale)):
        src, msg_id = rec.data["src"], rec.data["msg"]
        held = held_from.get((src, msg_id))
        if held is None:
            raise ScheduleError(
                f"p{src} sends M{msg_id + 1} without ever obtaining it"
            )
        if start < held:
            raise ScheduleError(
                f"p{src} sends M{msg_id + 1} at t={_at(start, scale)} but "
                f"only holds it from t={_at(held, scale)}"
            )


def validate_run(
    system: PostalSystem, *, m: int, root: int = 0
) -> Schedule | None:
    """Full audit of a finished run, under either contention policy.

    * **strict, uniform latency** — rebuild + validate the realized
      broadcast :class:`Schedule`, audit the port logs, and cross-check
      every delivery record; returns the validated schedule.
    * **queued (or pair-dependent latency)** — audit the port logs, the
      delivery records (work-conserving FIFO lateness accounting), and
      broadcast coverage/possession; returns ``None`` (no schedule IR
      applies when arrivals may exceed ``sent_at + lambda``).
    """
    if system.policy is ContentionPolicy.STRICT and system.uniform_latency:
        sched = schedule_from_trace(system, m=m, root=root, validate=True)
        audit_ports(system)
        audit_deliveries(system)
        return sched
    audit_ports(system)
    audit_deliveries(system)
    audit_broadcast_coverage(system, m=m, root=root)
    return None
