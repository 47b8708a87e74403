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

from repro.core.schedule import Schedule, SendEvent
from repro.errors import ModelError, ScheduleError, SimultaneousIOError
from repro.postal.machine import ContentionPolicy, PostalSystem
from repro.postal.message import Message
from repro.types import ONE, ProcId, Time, ZERO, time_repr

__all__ = [
    "schedule_from_trace",
    "audit_ports",
    "audit_deliveries",
    "audit_broadcast_coverage",
    "validate_run",
]


def schedule_from_trace(
    system: PostalSystem, *, m: int, root: int = 0, validate: bool = True
) -> Schedule:
    """Reconstruct the realized schedule from a system's trace.

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
    events = [
        SendEvent(rec.time, rec.data["src"], rec.data["msg"], rec.data["dst"])
        for rec in system.tracer.records("send")
    ]
    return Schedule(system.n, system.lam, events, m=m, root=root, validate=validate)


def audit_ports(system: PostalSystem) -> None:
    """Check every port's busy log: intervals pairwise disjoint (half-open)
    and each exactly one unit long.

    Both checks run in a single pass over the port's *sorted* log: since
    every interval is one unit long, two intervals overlap iff their
    sorted starts are less than one unit apart, so the disjointness
    audit is an adjacent-gap sweep rather than a pairwise comparison —
    ``O(I log I)`` per port.

    Raises:
        SimultaneousIOError: overlapping busy intervals on one port.
        ModelError: an interval of the wrong length.
    """
    for kind, ports in (
        ("send", [system.send_port(p) for p in range(system.n)]),
        ("recv", [system.recv_port(p) for p in range(system.n)]),
    ):
        for port in ports:
            prev: tuple[Time, Time] | None = None
            for s, e in sorted(port.busy_intervals):
                if e - s != 1:
                    raise ModelError(
                        f"p{port.proc} {kind} busy interval "
                        f"[{time_repr(s)},{time_repr(e)}) is not one unit"
                    )
                if prev is not None and s < prev[1]:
                    raise SimultaneousIOError(
                        f"p{port.proc} {kind} port driven twice at once: "
                        f"[{time_repr(prev[0])},{time_repr(prev[1])}) and "
                        f"[{time_repr(s)},{time_repr(e)})"
                    )
                prev = (s, e)


def _deliveries_by_receiver(system: PostalSystem) -> dict[ProcId, list[Message]]:
    by_dst: dict[ProcId, list[Message]] = {}
    for rec in system.tracer.records("deliver"):
        by_dst.setdefault(rec.data.dst, []).append(rec.data)
    return by_dst


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
    for dst, msgs in _deliveries_by_receiver(system).items():
        dues: list[Time] = []
        for msg in msgs:
            due = msg.sent_at + system.latency(msg.src, msg.dst)
            if msg.arrived_at < due:
                raise ScheduleError(
                    f"{msg}: arrives before sent_at + lambda = "
                    f"{time_repr(due)}"
                )
            if strict and msg.arrived_at != due:
                raise ScheduleError(
                    f"{msg}: arrival differs from sent_at + lambda = "
                    f"{time_repr(due)}"
                )
            dues.append(due)

        windows = sorted((m.arrived_at - ONE, m.arrived_at) for m in msgs)
        busy = sorted(system.recv_port(dst).busy_intervals)
        if windows != busy:
            raise ModelError(
                f"p{dst}: delivery records ({len(windows)} receive "
                f"windows) do not match the recv-port busy log "
                f"({len(busy)} intervals)"
            )

        if not strict:
            # work-conserving FIFO replay over the sorted due times
            clock: Time | None = None
            finishes: list[Time] = []
            for due in sorted(dues):
                start = due - ONE
                if clock is not None and clock > start:
                    start = clock
                clock = start + ONE
                finishes.append(clock)
            realized = sorted(m.arrived_at for m in msgs)
            if finishes != realized:
                raise ModelError(
                    f"p{dst}: queued arrival times are not the "
                    f"work-conserving FIFO completion of their due times "
                    f"(expected {[time_repr(t) for t in finishes]}, "
                    f"got {[time_repr(t) for t in realized]})"
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
    held_from: dict[tuple[ProcId, int], Time] = {
        (root, k): ZERO for k in range(m)
    }
    for rec in system.tracer.records("deliver"):
        msg = rec.data
        key = (msg.dst, msg.msg)
        if not 0 <= msg.msg < m:
            raise ScheduleError(f"{msg}: message index outside 0..{m - 1}")
        if msg.dst == root:
            raise ScheduleError(f"{msg}: the root must not receive")
        if key in held_from:
            raise ScheduleError(
                f"p{msg.dst} receives M{msg.msg + 1} more than once"
            )
        held_from[key] = msg.arrived_at
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
    for rec in system.tracer.records("send"):
        src, msg_id = rec.data["src"], rec.data["msg"]
        held = held_from.get((src, msg_id))
        if held is None:
            raise ScheduleError(
                f"p{src} sends M{msg_id + 1} without ever obtaining it"
            )
        if rec.time < held:
            raise ScheduleError(
                f"p{src} sends M{msg_id + 1} at t={time_repr(rec.time)} but "
                f"only holds it from t={time_repr(held)}"
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
