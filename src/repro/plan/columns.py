"""Columnar schedule plans: structure-of-arrays broadcast schedules.

Above ``n ~ 10^5`` the cost of a broadcast run is no longer the
simulation (the turbo lane fixed that) but the *schedule construction*:
one :class:`~repro.core.schedule.SendEvent` dataclass per send, each
holding a :class:`fractions.Fraction` start time, dominates both wall
clock and peak memory.  Träff (arXiv:2407.18004) makes the general point
that broadcast schedules admit representations far more compact than
materialized event lists; this module is that observation applied to the
whole builder family of this library.

A :class:`SchedulePlan` stores one broadcast schedule as four parallel
``array('q')`` columns —

* ``ticks``      — integer send-start ticks on the run's
  :class:`~repro.turbo.ticks.TickDomain` grid (lossless: ``tick =
  send_time * scale``),
* ``senders``    — originating processor per event,
* ``msgs``       — message index per event,
* ``receivers``  — destination processor per event,

sorted by ``(tick, sender, msg, receiver)`` — exactly the order
:class:`~repro.core.schedule.Schedule` keeps its events in.  Any scale
works; a tick past int64 is refused at construction
(:class:`~repro.errors.TickDomainError`), and otherwise the two
representations convert **losslessly** in both directions
(:meth:`to_schedule` / :meth:`from_schedule` round-trip to identical
event tuples).  A ``Schedule`` is itself four such columns and builds
its events only when read: :meth:`to_schedule` hands the plan's columns
over without a copy, and :meth:`from_schedule` takes the schedule's
rows in event order.  The pure-Python key decode behind
:meth:`from_sorted_keys` is also the one
:func:`~repro.plan.build.compile_schedule` uses, so no builder loads
NumPy.  Four machine words per event instead of a dataclass plus
two ``Fraction`` objects is where the ~5x+ peak-memory win of the plan
layer comes from; the integer-only construction (no per-event
``Fraction`` arithmetic) is where the build-time win comes from.

The plan validates itself *in place*: :meth:`audit` runs the full postal
certification (structure, sender-holds, duplicate/complete coverage, the
simultaneous-I/O port sweep, then the paper's Lemma 5 and Lemma 8
certificates) directly over the integer columns without materializing a
single event object.  :func:`audit_columns` is the library's one postal
audit: the same sweep checks a :class:`~repro.core.schedule.Schedule`'s
events and a replay's or turbo run's realized times — and
:meth:`replay` feeds the columns straight into the turbo event loop
(:mod:`repro.turbo.fastsim`) without re-deriving ticks.

Construction goes through :func:`repro.plan.build.compile_plan` (or the
cached :func:`repro.plan.cache.build_plan`); this module is only the
data structure and its conversions.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from itertools import repeat
from typing import Iterator, NoReturn, Sequence

from repro.core.analysis import multi_lower_bound
from repro.core.fibfunc import check_informed_bound
from repro.core.schedule import Schedule
from repro.errors import (
    InvalidParameterError,
    ModelError,
    PlanCacheError,
    ScheduleError,
    SimultaneousIOError,
)
from repro.turbo.ticks import TickDomain, column_overflow
from repro.types import ProcId, Time, TimeLike, ZERO, as_time, time_repr

__all__ = [
    "SchedulePlan",
    "accept_or_audit",
    "audit_columns",
    "check_certificates",
]

#: Magic prefix of the on-disk plan format (bumped on layout changes).
_MAGIC = b"repro-plan/1\n"


class SchedulePlan:
    """One broadcast schedule as four parallel integer columns.

    Instances are built by :func:`repro.plan.build.compile_plan` (or
    loaded from cache / disk); the constructor only checks invariants
    cheaply and trusts the columns otherwise — run :meth:`audit` for the
    full postal certification.

    Attributes:
        family: canonical builder family (e.g. ``"BCAST"``,
            ``"DTREE-2"``).
        n: number of processors.
        m: number of messages.
        lam: latency ``lambda`` (exact :class:`~fractions.Fraction`).
        root: the broadcast originator.
        domain: the integer tick grid all ``ticks`` live on.
        ticks / senders / msgs / receivers: the ``array('q')`` columns,
            row-sorted by ``(tick, sender, msg, receiver)``.
    """

    __slots__ = (
        "family",
        "n",
        "m",
        "lam",
        "root",
        "domain",
        "ticks",
        "senders",
        "msgs",
        "receivers",
        "_lam_ticks",
        "_shared",
    )

    def __init__(
        self,
        family: str,
        n: int,
        m: int,
        lam: TimeLike,
        domain: TickDomain,
        ticks: array,
        senders: array,
        msgs: array,
        receivers: array,
        *,
        root: ProcId = 0,
    ):
        if n < 1:
            raise InvalidParameterError(f"need n >= 1 processors, got {n}")
        if m < 1:
            raise InvalidParameterError(f"need m >= 1 messages, got {m}")
        lam = as_time(lam)
        if lam < 1:
            raise InvalidParameterError(
                f"the postal model requires lambda >= 1, got {lam}"
            )
        if not 0 <= root < n:
            raise InvalidParameterError(f"root p{root} outside 0..{n - 1}")
        if not (len(ticks) == len(senders) == len(msgs) == len(receivers)):
            raise InvalidParameterError(
                "plan columns disagree on length: "
                f"{len(ticks)}/{len(senders)}/{len(msgs)}/{len(receivers)}"
            )
        self.family = family
        self.n = n
        self.m = m
        self.lam = lam
        self.root = root
        self.domain = domain
        self.ticks = ticks
        self.senders = senders
        self.msgs = msgs
        self.receivers = receivers
        self._lam_ticks = domain.to_ticks(lam)  # raises if lam off-grid
        self._shared = None  # shared-memory keepalive (from_shared only)

    # ------------------------------------------------------------ accessors

    @property
    def event_count(self) -> int:
        """Number of send events in the plan."""
        return len(self.ticks)

    def __len__(self) -> int:
        return len(self.ticks)

    @property
    def lam_ticks(self) -> int:
        """``lambda`` expressed in ticks of :attr:`domain`."""
        return self._lam_ticks

    @property
    def nbytes(self) -> int:
        """Bytes held by the four columns (the plan's event storage)."""
        return sum(
            col.itemsize * len(col)
            for col in (self.ticks, self.senders, self.msgs, self.receivers)
        )

    def rows(self) -> Iterator[tuple[int, int, int, int]]:
        """Iterate ``(tick, sender, msg, receiver)`` rows in order."""
        return zip(self.ticks, self.senders, self.msgs, self.receivers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchedulePlan):
            return NotImplemented
        return (
            self.family == other.family
            and self.n == other.n
            and self.m == other.m
            and self.lam == other.lam
            and self.root == other.root
            and self.domain == other.domain
            and self.ticks == other.ticks
            and self.senders == other.senders
            and self.msgs == other.msgs
            and self.receivers == other.receivers
        )

    def __repr__(self) -> str:
        return (
            f"SchedulePlan({self.family}, n={self.n}, m={self.m}, "
            f"lambda={time_repr(self.lam)}, {len(self)} sends, "
            f"scale={self.domain.scale})"
        )

    # ------------------------------------------------------------ semantics

    def completion_ticks(self) -> int:
        """Arrival tick of the last delivery (0 when there are no sends —
        the columns are tick-sorted, so this is the last row + lambda)."""
        if not self.ticks:
            return 0
        return self.ticks[-1] + self._lam_ticks

    def completion_time(self) -> Time:
        """The schedule's makespan ``T(n, m, lambda)`` as an exact
        :class:`~fractions.Fraction` (the paper's running time)."""
        if not self.ticks:
            return ZERO
        return self.domain.to_time(self.completion_ticks())

    # ---------------------------------------------------------- conversion

    def to_schedule(self, *, validate: bool = False) -> Schedule:
        """The plan as a :class:`Schedule` over the same columns (no
        copy; its events are built only when read).

        The events equal those of the family's static builder, which
        decodes the same compiler's keys
        (:func:`repro.plan.build.compile_schedule`); the round trip
        ``SchedulePlan.from_schedule(plan.to_schedule())`` is the
        identity.
        """
        return Schedule.from_columns(
            self.n, self.lam, self.domain.scale,
            self.ticks, self.senders, self.msgs, self.receivers,
            m=self.m, root=self.root, validate=validate,
        )

    @classmethod
    def from_schedule(
        cls, schedule: Schedule, *, family: str = "SCHEDULE"
    ) -> "SchedulePlan":
        """Compress a :class:`Schedule` into columnar form (lossless),
        on the schedule's own tick grid: its columns, sorted into event
        order.

        Raises:
            TickDomainError: a tick does not fit the int64 columns.
        """
        scale = schedule._scale
        rows = schedule._rows()
        try:
            columns = [array("q", [row[i] for row in rows]) for i in range(4)]
        except OverflowError:
            raise column_overflow(scale) from None
        return cls(
            family, schedule.n, schedule.m, schedule.lam, TickDomain(scale),
            *columns, root=schedule.root,
        )

    @classmethod
    def from_sorted_keys(
        cls,
        family: str,
        n: int,
        m: int,
        lam: TimeLike,
        domain: TickDomain,
        keys: list[int],
        *,
        root: ProcId = 0,
        presorted: bool = False,
    ) -> "SchedulePlan":
        """Decode packed row keys into columns (the builders' entry).

        Each key encodes one event as
        ``((tick * n + sender) * m + msg) * n + receiver``; integer
        sorting of the keys is exactly the ``(tick, sender, msg,
        receiver)`` row order, so one C-speed sort replaces the
        ``Schedule`` constructor's ``Fraction``-comparing event sort.
        Pass ``presorted=True`` when *keys* is already in that order.

        With NumPy, :func:`repro.batch.kernels.decode_keys` sorts and
        splits the keys as one int64 array.  Without it, or when a key
        does not fit int64, the keys are sorted in place and split in
        whole-list passes.  Both decodes give the same columns.

        Raises:
            TickDomainError: a tick does not fit the int64 columns.
        """
        # imported here, not at module level: repro.batch imports repro.plan
        from repro.batch.kernels import decode_keys

        columns = decode_keys(keys, n, m, presorted=presorted)
        if columns is None:
            columns = _decode_keys(keys, n, m, presorted=presorted)
            if type(columns[0]) is list:
                raise column_overflow(domain.scale)
        return cls(family, n, m, lam, domain, *columns, root=root)

    # ----------------------------------------------------------- validation

    def audit(self) -> None:
        """Full postal-model certification, in place over the columns.

        The same audit as :meth:`Schedule.validate
        <repro.core.schedule.Schedule.validate>` — structural ranges,
        sender-holds-message causality, duplicate and missing deliveries,
        the simultaneous-I/O port audit, then the paper's certificates,
        Lemma 5 and Lemma 8 — in pure integer arithmetic with no event
        materialization: :func:`audit_columns` over the planned times
        (``ticks`` and ``ticks + lambda``) in row order, with the NumPy
        accept test in front (:func:`accept_or_audit`).

        Raises:
            ScheduleError: structural violation (range, causality,
                duplicate or incomplete delivery, unsorted columns) or a
                failed certificate.
            SimultaneousIOError: two sends (or two receives) overlap at
                one processor.
        """
        self._audit(broadcast=True)

    def audit_ports(self) -> None:
        """Structural + port certification for non-broadcast plans.

        The collective compilers (gather, scatter, allreduce, Bruck, …)
        produce schedules whose message flow is *not* single-root
        broadcast — rumors originate everywhere and deliveries may repeat
        on purpose (the allreduce release retraces the combine edges) —
        so :meth:`audit`'s coverage and sender-holds checks do not apply.
        This method runs everything that is semantics-independent: the
        structural range checks, tick sortedness, and the same one-unit
        send/receive port sweep.

        Raises:
            ScheduleError: range violation, self-send, or unsorted
                columns.
            SimultaneousIOError: two sends (or two receives) overlap at
                one processor.
        """
        self._audit(broadcast=False)

    def _audit(self, *, broadcast: bool) -> None:
        accept_or_audit(
            self.senders, self.msgs, self.receivers, self.ticks, None, None,
            n=self.n, scale=self.domain.scale, lam_ticks=self._lam_ticks,
            m=self.m, root=self.root, broadcast=broadcast,
        )

    # -------------------------------------------------------------- replay

    def replay(self, *, policy: "str | None" = None):
        """Execute the plan on the turbo event loop, feeding the integer
        columns straight into :class:`~repro.turbo.fastsim.TurboSystem`
        — no tick re-derivation, no protocol generators.

        Each planned send is booked at its recorded tick; the turbo
        system then enforces the postal model exactly as it does for
        protocol runs (a plan violating port exclusivity raises
        :class:`~repro.errors.SimultaneousIOError` under the strict
        policy).  Returns the finished ``TurboSystem``; its
        ``realized_schedule(m=plan.m)`` equals :meth:`to_schedule`.

        Args:
            policy: ``"strict"`` (default) or ``"queued"``.
        """
        from repro.postal.machine import ContentionPolicy
        from repro.turbo.fastsim import TurboEnvironment, TurboSystem

        pol = (
            ContentionPolicy.STRICT
            if policy in (None, "strict")
            else ContentionPolicy.QUEUED
        )
        env = TurboEnvironment(self.domain)
        system = TurboSystem(env, self.n, self.lam, policy=pol)
        send = system.send
        push = env._push
        for t, s, k, r in self.rows():
            push(t, send, s, r, k)
        env.run()
        return system

    # -------------------------------------------------------- shared memory

    def to_shared(self):
        """Export the four columns into a named shared-memory segment.

        Returns a picklable
        :class:`~repro.batch.shared.SharedPlanHandle` (a few dozen
        bytes) that any process can pass to :meth:`from_shared`.  The
        *calling* process owns the segment: release it with
        :func:`repro.batch.shared.release_shared` — in a ``finally``,
        so a crashed worker can never leak it —
        or manage a whole batch with
        :class:`~repro.batch.shared.SharedPlanSet`.
        """
        from repro.batch.shared import share_plan

        return share_plan(self)

    @classmethod
    def from_shared(cls, handle) -> "SchedulePlan":
        """Attach to a segment created by :meth:`to_shared`.

        The returned plan's columns are **zero-copy** ``memoryview('q')``
        slices of the mapped segment (the buffer protocol makes them
        interchangeable with ``array('q')`` everywhere — replay kernels,
        audits, serialization).  The plan keeps the mapping alive for
        its own lifetime and closes it when garbage-collected; it never
        unlinks (only the creating process does).
        """
        from repro.batch.shared import attach_columns

        columns, attachment = attach_columns(handle)
        plan = cls(
            handle.family,
            handle.n,
            handle.m,
            as_time(handle.lam),
            TickDomain(handle.scale),
            *columns,
            root=handle.root,
        )
        plan._shared = attachment
        return plan

    # -------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """Serialize to the compact on-disk format: a magic line, one
        JSON header line, then the four raw column buffers."""
        header = {
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "lam": f"{self.lam.numerator}/{self.lam.denominator}",
            "root": self.root,
            "scale": self.domain.scale,
            "count": len(self.ticks),
            "itemsize": self.ticks.itemsize,
            "byteorder": sys.byteorder,
        }
        parts = [_MAGIC, json.dumps(header, sort_keys=True).encode(), b"\n"]
        parts.extend(
            col.tobytes()
            for col in (self.ticks, self.senders, self.msgs, self.receivers)
        )
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SchedulePlan":
        """Inverse of :meth:`to_bytes`.

        Raises:
            PlanCacheError: the payload is not a well-formed plan.
        """
        if not data.startswith(_MAGIC):
            raise PlanCacheError("not a serialized schedule plan (bad magic)")
        body = data[len(_MAGIC):]
        nl = body.find(b"\n")
        if nl < 0:
            raise PlanCacheError("truncated plan header")
        try:
            header = json.loads(body[:nl])
        except ValueError as exc:
            raise PlanCacheError(f"unreadable plan header: {exc}") from None
        try:
            n = int(header["n"])
            m = int(header["m"])
            count = int(header["count"])
            itemsize = int(header["itemsize"])
            lam = as_time(header["lam"])
            scale = int(header["scale"])
            root = int(header["root"])
            family = str(header["family"])
            byteorder = header["byteorder"]
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanCacheError(f"incomplete plan header: {exc}") from None
        probe = array("q")
        if itemsize != probe.itemsize:
            raise PlanCacheError(
                f"plan written with {itemsize}-byte integers; this "
                f"platform uses {probe.itemsize}-byte ones"
            )
        payload = body[nl + 1:]
        col_bytes = count * itemsize
        if len(payload) != 4 * col_bytes:
            raise PlanCacheError(
                f"plan payload is {len(payload)} bytes; header promises "
                f"{4 * col_bytes}"
            )
        cols = []
        for i in range(4):
            col = array("q")
            col.frombytes(payload[i * col_bytes:(i + 1) * col_bytes])
            if byteorder != sys.byteorder:
                col.byteswap()
            cols.append(col)
        return cls(
            family, n, m, lam, TickDomain(scale),
            cols[0], cols[1], cols[2], cols[3], root=root,
        )


def _decode_keys(
    keys: list[int], n: int, m: int, *, presorted: bool
) -> tuple[array, array, array, "array | list[int]"]:
    """The pure-Python key decode: sort *keys* in place (unless
    *presorted*), then one list pass per remainder and quotient.  Exact
    for keys of any size; the tick column stays a list of Python ints
    when a tick does not fit int64.

    The fallback of :meth:`SchedulePlan.from_sorted_keys`, and the only
    decode of :func:`repro.plan.build.compile_schedule`, which never
    loads NumPy."""
    if not presorted:
        keys.sort()
    receivers = array("q", [key % n for key in keys])
    rest = [key // n for key in keys]
    if m == 1:  # every msg is 0 and the quotient is unchanged
        msgs = array("q", bytes(8 * len(keys)))
    else:
        msgs = array("q", [key % m for key in rest])
        rest = [key // m for key in rest]
    senders = array("q", [key % n for key in rest])
    ticks = [key // n for key in rest]
    try:
        ticks = array("q", ticks)
    except OverflowError:
        pass
    return ticks, senders, msgs, receivers


def audit_columns(
    senders,
    msgs,
    receivers,
    starts,
    arrivals,
    order,
    *,
    n: int,
    scale: int,
    lam_ticks: int,
    m: "int | None" = None,
    root: ProcId = 0,
    broadcast: bool = True,
    queued: bool = False,
    fifo: bool = False,
    lats=None,
    windows=None,
) -> None:
    """The postal-model audit of one run: one linear sweep over integer
    columns, with no event materialization.

    The library's only check of the model on a schedule or a run: used
    on a schedule's events by :meth:`Schedule.validate
    <repro.core.schedule.Schedule.validate>` and :class:`ReductionSchedule
    <repro.collectives.reduce.ReductionSchedule>`, on a plan's own times
    by :meth:`SchedulePlan.audit` and :meth:`SchedulePlan.audit_ports`,
    and on a run's realized times by :meth:`ReplaySystem.audit
    <repro.turbo.replay.ReplaySystem.audit>` and :meth:`TurboSystem.audit
    <repro.turbo.fastsim.TurboSystem.audit>`.

    Args:
        senders / msgs / receivers / starts / arrivals: per-row columns
            (any sequences indexed alike): who sends which message to
            whom, its send-start tick and its arrival tick.
        order: the rows to audit, in nondecreasing start order.
        n / scale / lam_ticks: the machine — processor count, ticks per
            time unit (any positive ``int``) and ``lambda`` in ticks.
        m: message ids must lie in ``0..m-1``; ``None`` leaves them
            unbounded (a collective's ids need not fit the protocol's
            ``m``).  Broadcast runs need it.
        root: the broadcast originator.
        broadcast: also check single-root broadcast semantics — every
            sender holds what it sends, nobody receives a message twice,
            and every processor receives every message.  With uniform
            latency (*lats* ``None``) a broadcast that passes then
            carries the paper's certificates
            (:func:`check_certificates`), fed by the arrivals the sweep
            collects per message.
        queued: arrivals may come later than their due tick (the queued
            contention policy); otherwise they must equal it.
        fifo: (queued) every arrival must also be the work-conserving
            FIFO completion ``max(due, previous arrival at that receiver
            + 1)`` — a late delivery needs port contention to blame.
        lats: per-row latency in ticks (pair-dependent latency); ``None``
            means ``lam_ticks`` for every row.  A row is due at its start
            plus its latency.
        windows: the rows in receive-window order, when it differs from
            *order* (pair-dependent latency); the receive-port checks
            visit each receiver's rows in this order.

    Every port occupation is exactly one unit (``scale`` ticks), so the
    port audit is a gap check against a per-processor last-use array:
    two uses of one port collide **iff** they are less than one unit
    apart, and the sweep visits each port's uses in nondecreasing order
    (sends by start; receives in window order, in which a receiver's
    arrivals follow the strict policy's fixed latency or the queued
    policy's FIFO receive queue).

    Raises:
        ScheduleError: structural violation (range, self-send, negative
            or unsorted start, arrival before its due tick or — not
            queued — after it, causality, duplicate or incomplete
            delivery) or a failed certificate.
        SimultaneousIOError: two sends (or two receives) overlap at one
            processor.
        ModelError: (*fifo*) a queued arrival later than its port's
            contention explains.
    """
    one = scale

    def to_time(tick: int) -> Time:
        return Fraction(tick, scale)

    # broadcast: arrival tick per (proc, msg); -1 = not yet delivered
    held_from = [-1] * (n * m if broadcast else 0)
    # broadcast: each message's arrival ticks, for the certificates
    arrived: list[list[int]] = [[] for _ in range(m if broadcast else 0)]
    if broadcast:
        for k in range(m):
            held_from[root * m + k] = 0

    send_last = [-(one + 1)] * n  # last send-start tick per processor
    recv_last = [-(one + 1)] * n  # last arrival tick per processor
    recv_here = windows is None  # receive ports in this pass too

    rows = zip(
        map(starts.__getitem__, order),
        map(arrivals.__getitem__, order),
        repeat(lam_ticks) if lats is None else map(lats.__getitem__, order),
        map(senders.__getitem__, order),
        map(msgs.__getitem__, order),
        map(receivers.__getitem__, order),
    )
    prev_tick = -1
    for t, a, lat, s, k, r in rows:
        if t < 0:
            raise ScheduleError(
                f"negative send time t={time_repr(to_time(t))} at p{s}"
            )
        if t < prev_tick:
            raise ScheduleError(
                f"columns are not tick-sorted ({t} after {prev_tick})"
            )
        prev_tick = t
        if not 0 <= s < n:
            raise ScheduleError(f"sender p{s} out of range 0..{n - 1}")
        if not 0 <= r < n:
            raise ScheduleError(f"receiver p{r} out of range 0..{n - 1}")
        if s == r:
            raise ScheduleError(
                f"self-send at p{s} (t={time_repr(to_time(t))})"
            )
        if m is not None and not 0 <= k < m:
            raise ScheduleError(f"message index {k} out of range 0..{m - 1}")
        due = t + lat
        if a < due or (a != due and not queued):
            raise ScheduleError(
                f"p{s} sends M{k + 1} to p{r} at t={time_repr(to_time(t))}, "
                f"arriving at t={time_repr(to_time(a))}: "
                + ("before" if a < due else "not at")
                + f" sent_at + lambda = {time_repr(to_time(due))}"
            )

        if broadcast:
            held = held_from[s * m + k]
            if held < 0 or t < held:
                raise ScheduleError(
                    f"p{s} sends M{k + 1} at t={time_repr(to_time(t))} "
                    + (
                        "but never obtains it"
                        if held < 0
                        else "but only holds it from "
                        f"t={time_repr(to_time(held))}"
                    )
                )
            slot = r * m + k
            if held_from[slot] >= 0:
                raise ScheduleError(
                    f"p{r} is sent M{k + 1} more than once "
                    f"(second delivery at t={time_repr(to_time(a))})"
                )
            held_from[slot] = a
            arrived[k].append(a)

        if t - send_last[s] < one:
            b = to_time(send_last[s])
            raise SimultaneousIOError(
                f"p{s} drives two sends at once: busy "
                f"[{time_repr(b)},{time_repr(b + 1)}) and "
                f"[{time_repr(to_time(t))},{time_repr(to_time(t) + 1)})"
            )
        send_last[s] = t
        if recv_here:
            p = recv_last[r]
            if a - p < one:
                _receive_collision(r, p, a, scale)
            if fifo and a != due and a != p + one:
                _idle_receive(r, p, a, due, scale)
            recv_last[r] = a

    if not recv_here:
        rows = zip(
            map(starts.__getitem__, windows),
            map(lats.__getitem__, windows),
            map(arrivals.__getitem__, windows),
            map(receivers.__getitem__, windows),
        )
        for t, lat, a, r in rows:
            p = recv_last[r]
            if a - p < one:
                _receive_collision(r, p, a, scale)
            if fifo and a != t + lat and a != p + one:
                _idle_receive(r, p, a, t + lat, scale)
            recv_last[r] = a

    if broadcast:
        missing = held_from.count(-1)
        if missing:
            idx = held_from.index(-1)
            raise ScheduleError(
                f"incomplete broadcast: p{idx // m} never receives "
                f"M{idx % m + 1} ({missing} deliveries missing)"
            )
        if lats is None:
            check_certificates(
                n, m, Fraction(lam_ticks, scale), scale, arrived
            )


def accept_or_audit(
    senders,
    msgs,
    receivers,
    starts,
    arrivals,
    order,
    *,
    n: int,
    scale: int,
    lam_ticks: int,
    m: int,
    root: ProcId = 0,
    broadcast: bool = True,
    queued: bool = False,
) -> None:
    """:func:`audit_columns` on a uniform-latency run, with the NumPy
    accept test in front.

    :func:`repro.batch.kernels.audit_accepts` decides on whole columns
    whether the sweep would accept them; when it does, a *broadcast*
    still gets the paper's certificates (:func:`check_certificates`) on
    the arrivals it returns.  When it declines — no NumPy, a column
    that is not ``array('q')``, too little int64 headroom, or any
    rejection — the sweep runs and raises its own error.  Used where
    the plan layer or the replay kernels have loaded NumPy already:
    :meth:`SchedulePlan.audit`, :meth:`SchedulePlan.audit_ports` and
    :meth:`ReplaySystem.audit <repro.turbo.replay.ReplaySystem.audit>`.

    The arguments are :func:`audit_columns`'s, except that *arrivals*
    ``None`` means every row arrives at its start plus ``lambda`` and
    *order* ``None`` means row order.

    Raises:
        ScheduleError / SimultaneousIOError: as :func:`audit_columns`.
    """
    # imported here, not at module level: repro.batch imports repro.plan
    from repro.batch.kernels import audit_accepts

    arrived = audit_accepts(
        senders, msgs, receivers, starts, arrivals, order,
        n=n, scale=scale, lam_ticks=lam_ticks, m=m, root=root,
        broadcast=broadcast, queued=queued,
    )
    if arrived is not None:
        if broadcast:
            check_certificates(n, m, Fraction(lam_ticks, scale), scale, arrived)
        return
    if arrivals is None:
        arrivals = [t + lam_ticks for t in starts]
    audit_columns(
        senders, msgs, receivers, starts, arrivals,
        range(len(starts)) if order is None else order,
        n=n, scale=scale, lam_ticks=lam_ticks, m=m, root=root,
        broadcast=broadcast, queued=queued,
    )


def check_certificates(
    n: int, m: int, lam: Time, scale: int, arrived: Sequence[Sequence[int]]
) -> None:
    """The paper's certificates on one broadcast run's deliveries.

    ``arrived[k]`` holds the arrival ticks of message ``k``'s deliveries
    (``scale`` ticks per unit; the root's own copies are not listed):

    * Lemma 5 — at every time ``t`` at most ``F_lambda(t)`` processors
      know each message (:func:`~repro.core.fibfunc.check_informed_bound`);
    * Lemma 8 — the last arrival, which the Lemma 5 check returns from
      its sorted lists, is no earlier than ``(m-1) + f_lambda(n)``
      (:func:`~repro.core.analysis.multi_lower_bound`).

    Raises:
        ScheduleError: a certificate fails.
    """
    completion = Fraction(check_informed_bound(lam, scale, arrived), scale)
    bound = multi_lower_bound(n, m, lam)
    if completion < bound:
        raise ScheduleError(
            f"Lemma 8: makespan {time_repr(completion)} beats the lower "
            f"bound (m-1) + f_lambda(n) = {time_repr(bound)}"
        )


def _receive_collision(r: ProcId, prev: int, a: int, scale: int) -> NoReturn:
    """Raise for two receive windows at *r* less than one unit apart
    (the windows close at arrival ticks *prev* and *a*)."""
    b = Fraction(prev, scale) - 1
    w = Fraction(a, scale) - 1
    raise SimultaneousIOError(
        f"p{r} drives two receives at once: busy "
        f"[{time_repr(b)},{time_repr(b + 1)}) and "
        f"[{time_repr(w)},{time_repr(w + 1)})"
    )


def _idle_receive(
    r: ProcId, prev: int, a: int, due: int, scale: int
) -> NoReturn:
    """Raise for a queued arrival at *r* that the receive port's FIFO
    queue does not explain: it idled while the message waited."""
    expected = max(due, prev + scale)
    raise ModelError(
        f"p{r}: queued arrival at t={time_repr(Fraction(a, scale))} is not "
        f"the work-conserving FIFO completion of its due time (expected "
        f"t={time_repr(Fraction(expected, scale))})"
    )
