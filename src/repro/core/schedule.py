"""Schedule intermediate representation and postal-model validation.

Every broadcasting algorithm in this library — BCAST, REPEAT, PACK,
PIPELINE, DTREE, and the baselines — compiles to the same IR: a
:class:`Schedule` over ``MPS(n, lambda)``.  A schedule is four integer
columns — send tick, sender, message, receiver — at the least tick
scale that represents lambda and every send time; its
:class:`SendEvent` records, with their exact ``Fraction`` times, are
built from the columns only when something reads them.  Producers
that hold columns (the static builders, plans, the fast lanes'
realized runs) hand them over with :meth:`Schedule.from_columns`;
callers that hold events (the exact lane, the chaos mutator, the JSON
loader) pass them to the constructor, which converts them once
(:func:`tick_columns`).  A schedule knows how to:

* **validate** itself against the postal model (Definitions 1 and 2 of the
  paper): senders hold the message they send, send ports are busy for one
  unit per message, receive ports are busy during ``[t+lambda-1, t+lambda]``,
  and no port is driven twice at once (simultaneous I/O allows one send plus
  one receive, never two of the same kind), then carry the paper's
  certificates, Lemma 5 and Lemma 8.  One
  :func:`~repro.plan.columns.audit_columns` sweep checks the columns,
  the same audit that checks plans and the fast lanes' runs;
* report its **completion time** (arrival of the last message at the last
  processor — the paper's ``T_A(n, m, lambda)``), once validated from
  the last arrival tick the audit saw;
* expose per-processor arrival times and the "informed processors" step
  function ``A(t)`` used by the optimality argument of Lemma 5.

Busy intervals are treated as half-open ``[start, end)`` so that a send
finishing at ``t+1`` and the next send starting at ``t+1`` abut without
conflict, exactly as the paper's algorithms require.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from operator import le
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.stepfunc import TabulatedStepFunction
from repro.errors import InvalidParameterError, ModelError, ScheduleError
from repro.types import ProcId, Time, TimeLike, ZERO, as_time, time_repr

__all__ = ["SendEvent", "Schedule", "tick_columns"]


@dataclass(frozen=True, order=True)
class SendEvent:
    """One point-to-point message transmission.

    Ordering is by ``(send_time, sender, msg, receiver)`` so a sorted event
    list reads chronologically.

    Attributes:
        send_time: the time the sender starts sending; the sender's send
            port is busy during ``[send_time, send_time + 1)``.
        sender: originating processor.
        msg: message index, ``0 .. m-1`` (the paper's ``M_1 .. M_m``).
        receiver: destination processor; its receive port is busy during
            ``[send_time + lambda - 1, send_time + lambda)`` and it *knows*
            the message from ``send_time + lambda`` on.
    """

    send_time: Time
    sender: ProcId
    msg: int
    receiver: ProcId

    def arrival_time(self, lam: Time) -> Time:
        """Time at which the receiver has fully received this message."""
        return self.send_time + lam

    def __str__(self) -> str:
        return (
            f"p{self.sender} --M{self.msg + 1}--> p{self.receiver} "
            f"@ t={time_repr(self.send_time)}"
        )


def tick_columns(
    lam: Time, events: Sequence[SendEvent]
) -> tuple[int, list[int], list[ProcId], list[int], list[ProcId]]:
    """*events* as integer columns ``(scale, ticks, senders, msgs,
    receivers)``.

    *scale* is the least common multiple of the denominators of *lam*
    and of every send time, a plain ``int`` with no cap, and
    ``ticks[i] = events[i].send_time * scale`` exactly.
    """
    times = [ev.send_time for ev in events]
    scale = math.lcm(lam.denominator, *{t.denominator for t in times})
    ticks = [t.numerator * (scale // t.denominator) for t in times]
    senders = [ev.sender for ev in events]
    msgs = [ev.msg for ev in events]
    receivers = [ev.receiver for ev in events]
    return scale, ticks, senders, msgs, receivers


def _int_column(values) -> "array | list[int]":
    """*values* as an ``array('q')`` when every value fits int64, else a
    list of Python ints.  An ``array('q')`` is kept as is; a memoryview
    (a shared-memory plan column) is copied, so the column outlives the
    mapping."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    if isinstance(values, memoryview):
        return array("q", values.tobytes())
    if not isinstance(values, list):
        values = list(values)
    try:
        return array("q", values)
    except (OverflowError, TypeError):
        return values


def _check_machine(n: int, m: int, lam: TimeLike, root: ProcId) -> Time:
    """Check ``MPS(n, lambda)`` with *m* messages from *root*; returns
    lambda as a :class:`~fractions.Fraction`."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 processors, got {n}")
    if m < 1:
        raise InvalidParameterError(f"need m >= 1 messages, got {m}")
    lam = as_time(lam)
    if lam < 1:
        raise InvalidParameterError(f"the postal model requires lambda >= 1, got {lam}")
    if not 0 <= root < n:
        raise InvalidParameterError(f"root p{root} outside 0..{n - 1}")
    return lam


class Schedule:
    """An executable broadcast schedule over ``MPS(n, lambda)``.

    The schedule is four integer columns — send tick, sender, message,
    receiver — at ``scale`` ticks per time unit, the least scale that
    represents lambda and every send time.  The
    :class:`SendEvent` tuple is built from them on first read, in
    ``(send_time, sender, msg, receiver)`` order; ``len``,
    :meth:`validate`, :meth:`completion_time` (once validated) and
    ``==`` work on the columns alone.

    Args:
        n: number of processors (``p_0 .. p_{n-1}``).
        lam: communication latency ``lambda >= 1``.
        events: the send events.
        m: number of messages being broadcast (message indices must lie in
            ``0 .. m-1``).
        root: the originating processor (default ``p_0``); it holds all
            ``m`` messages at time 0.
        validate: check postal-model conformance on construction (on by
            default; builders that construct provably valid schedules may
            skip and let tests validate).

    Producers that hold integer columns use :meth:`from_columns`.
    """

    def __init__(
        self,
        n: int,
        lam: TimeLike,
        events: Iterable[SendEvent],
        *,
        m: int = 1,
        root: ProcId = 0,
        validate: bool = True,
    ):
        lam = _check_machine(n, m, lam, root)
        events = tuple(sorted(events))
        scale, *columns = tick_columns(lam, events)
        self._setup(
            n, m, lam, root, scale, tuple(map(_int_column, columns)), events
        )
        if validate:
            self.validate()

    @classmethod
    def from_columns(
        cls,
        n: int,
        lam: TimeLike,
        scale: int,
        ticks: Sequence[int],
        senders: Sequence[ProcId],
        msgs: Sequence[int],
        receivers: Sequence[ProcId],
        *,
        m: int = 1,
        root: ProcId = 0,
        validate: bool = True,
    ) -> "Schedule":
        """The schedule whose row ``i`` sends message ``msgs[i]`` from
        ``senders[i]`` to ``receivers[i]`` at time ``ticks[i] / scale``.

        Rows may come in any order, and *scale* may be any positive
        ``int`` at which lambda is a whole number of ticks; it is
        reduced to the least one that represents lambda and every send
        time, so equal schedules hold equal columns.  ``array('q')``
        columns are kept, not copied.

        Raises:
            InvalidParameterError: bad machine parameters, a scale that
                is not a positive ``int`` or that lambda is off, or
                columns of unequal length.
        """
        lam = _check_machine(n, m, lam, root)
        if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
            raise InvalidParameterError(
                f"tick scale must be a positive int, got {scale!r}"
            )
        if scale % lam.denominator:
            raise InvalidParameterError(
                f"lambda = {time_repr(lam)} is off the 1/{scale} tick grid"
            )
        columns = tuple(map(_int_column, (ticks, senders, msgs, receivers)))
        if len(set(map(len, columns))) > 1:
            raise InvalidParameterError(
                "schedule columns disagree on length: "
                + "/".join(str(len(column)) for column in columns)
            )
        # the least scale: divide out what lambda and every tick share
        common = math.gcd(scale, lam.numerator * (scale // lam.denominator))
        if common > 1:
            common = math.gcd(common, *columns[0])
            if common > 1:
                scale //= common
                columns = (
                    _int_column([t // common for t in columns[0]]),
                    *columns[1:],
                )
        self = cls.__new__(cls)
        self._setup(n, m, lam, root, scale, columns, None)
        if validate:
            self.validate()
        return self

    def _setup(self, n, m, lam, root, scale, columns, events) -> None:
        self._n = n
        self._m = m
        self._lam = lam
        self._root = root
        self._scale = scale
        self._columns = columns
        # the SendEvent tuple: given, or built on first read
        self._events: tuple[SendEvent, ...] | None = events
        # rows built from sorted events are in event order; rows handed
        # over as columns are not known to be
        self._in_event_order = events is not None
        # the last arrival tick, once validate() has passed
        self._last: int | None = None
        self._arrivals: dict[tuple[ProcId, int], Time] | None = None

    # ------------------------------------------------------------ accessors

    @property
    def n(self) -> int:
        """Number of processors."""
        return self._n

    @property
    def m(self) -> int:
        """Number of messages."""
        return self._m

    @property
    def lam(self) -> Time:
        """Communication latency ``lambda``."""
        return self._lam

    @property
    def root(self) -> ProcId:
        """The broadcast originator."""
        return self._root

    @property
    def events(self) -> tuple[SendEvent, ...]:
        """All send events in chronological order (built from the
        columns on first read)."""
        if self._events is None:
            scale = self._scale
            times = {t: Fraction(t, scale) for t in set(self._columns[0])}
            self._events = tuple(
                [
                    SendEvent(times[t], s, k, r)
                    for t, s, k, r in self._rows()
                ]
            )
        return self._events

    def _rows(self) -> list[tuple[int, ProcId, int, ProcId]]:
        """The ``(tick, sender, msg, receiver)`` rows in event order."""
        rows = list(zip(*self._columns))
        if not self._in_event_order:
            rows.sort()
        return rows

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[SendEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and self._lam == other._lam
            and self._root == other._root
            and self._scale == other._scale
            and len(self) == len(other)
            and self._rows() == other._rows()
        )

    def __repr__(self) -> str:
        return (
            f"Schedule(n={self._n}, m={self._m}, lambda={time_repr(self._lam)}, "
            f"{len(self)} sends, T={time_repr(self.completion_time())})"
        )

    # ------------------------------------------------------------ semantics

    def arrivals(self) -> Mapping[tuple[ProcId, int], Time]:
        """Arrival time of each ``(processor, msg)`` delivery.

        The root's own entries are time 0 (it holds everything initially).
        """
        if self._arrivals is None:
            arr: dict[tuple[ProcId, int], Time] = {
                (self._root, k): ZERO for k in range(self._m)
            }
            for ev in self.events:
                key = (ev.receiver, ev.msg)
                if key in arr:
                    raise ScheduleError(
                        f"p{ev.receiver} is sent M{ev.msg + 1} more than once "
                        f"(second delivery: {ev})"
                    )
                arr[key] = ev.arrival_time(self._lam)
            self._arrivals = arr
        return self._arrivals

    def arrival_of(self, proc: ProcId, msg: int = 0) -> Time:
        """When *proc* has fully received message *msg*."""
        try:
            return self.arrivals()[(proc, msg)]
        except KeyError:
            raise ScheduleError(
                f"p{proc} never receives M{msg + 1} in this schedule"
            ) from None

    def completion_time(self) -> Time:
        """Arrival time of the last message at the last processor — the
        paper's running time ``T(n, m, lambda)``.  Zero for ``n == 1``.

        A validated schedule reads the last arrival tick its audit saw;
        otherwise the arrivals are built, so a duplicate delivery still
        raises :class:`~repro.errors.ScheduleError`."""
        last = self._last
        if last is not None:
            return Fraction(last, self._scale) if last else ZERO
        arr = self.arrivals()
        return max(arr.values(), default=ZERO)

    def sends_by(self, proc: ProcId) -> list[SendEvent]:
        """The events *proc* originates, chronologically."""
        return [e for e in self.events if e.sender == proc]

    def receives_by(self, proc: ProcId) -> list[SendEvent]:
        """The events delivering to *proc*, by arrival time."""
        return sorted(
            (e for e in self.events if e.receiver == proc),
            key=lambda e: (e.arrival_time(self._lam), e.msg),
        )

    def informed_count(self, msg: int = 0) -> TabulatedStepFunction:
        """The step function ``A(t)`` = number of processors that know
        message *msg* at time ``t`` (the quantity bounded by ``F_lambda`` in
        Lemma 5).  Final: it saturates at ``n``."""
        times = sorted(
            arr for (proc, k), arr in self.arrivals().items() if k == msg
        )
        if not times or times[0] != ZERO:
            raise ScheduleError(f"no processor holds M{msg + 1} at time 0")
        jump_times: list[Time] = []
        values: list[int] = []
        count = 0
        for t in times:
            count += 1
            if jump_times and jump_times[-1] == t:
                values[-1] = count
            else:
                jump_times.append(t)
                values.append(count)
        return TabulatedStepFunction(jump_times, values, final=True)

    # ----------------------------------------------------------- validation

    def validate(self) -> None:
        """Check full conformance with the postal model, then the paper's
        certificates.

        One :func:`~repro.plan.columns.audit_columns` sweep checks the
        integer columns in tick order: ranges, possession, single
        delivery, full coverage, the one-unit port gaps, then Lemma 5
        and Lemma 8.  It sorts the row indices by tick only when the
        rows are not tick-sorted already.

        Raises:
            ScheduleError: structural problems — processor ids out of range,
                message ids out of range, a duplicate delivery, a sender
                transmitting a message it does not hold yet, sending to
                oneself, or an undelivered ``(processor, msg)`` pair — or
                a failed certificate.
            SimultaneousIOError: two sends (or two receives) at one
                processor overlap in time.
        """
        # local: repro.plan imports this module
        from repro.plan.columns import audit_columns

        ticks, senders, msgs, receivers = self._columns
        scale = self._scale
        lam_ticks = self._lam.numerator * (scale // self._lam.denominator)
        audit = partial(
            audit_columns,
            senders, msgs, receivers, ticks, [t + lam_ticks for t in ticks],
            n=self._n, scale=scale, lam_ticks=lam_ticks, m=self._m,
            root=self._root,
        )
        order = range(len(ticks))
        if not (
            self._in_event_order or all(map(le, ticks, islice(ticks, 1, None)))
        ):
            order = sorted(order, key=ticks.__getitem__)
        try:
            audit(order)
        except ModelError:
            if self._in_event_order:
                raise
            # rows on one tick may sit out of event order, and which
            # violation the sweep meets first depends on the order:
            # report the one the events' own order meets first
            rows = list(zip(*self._columns))
            audit(sorted(range(len(rows)), key=rows.__getitem__))
            raise
        self._last = ticks[order[-1]] + lam_ticks if ticks else 0

    # ------------------------------------------------------------- utility

    def shifted(self, delta: TimeLike) -> "Schedule":
        """A copy of this schedule with every send delayed by *delta*."""
        delta = as_time(delta)
        if delta < 0 and any(e.send_time + delta < 0 for e in self.events):
            raise InvalidParameterError("shift would make a send time negative")
        return Schedule(
            self._n,
            self._lam,
            (
                SendEvent(e.send_time + delta, e.sender, e.msg, e.receiver)
                for e in self.events
            ),
            m=self._m,
            root=self._root,
            validate=False,
        )

    @staticmethod
    def merged(parts: Sequence["Schedule"], *, validate: bool = True) -> "Schedule":
        """Union several schedules over the same machine into one.

        All parts must agree on ``n``, ``lambda``, and ``root``; message
        indices must already be distinct across parts.  ``m`` of the result
        is the max over parts.
        """
        if not parts:
            raise InvalidParameterError("cannot merge zero schedules")
        first = parts[0]
        if any(
            (s.n, s.lam, s.root) != (first.n, first.lam, first.root)
            for s in parts
        ):
            raise InvalidParameterError("schedules disagree on n, lambda, or root")
        events: list[SendEvent] = []
        for s in parts:
            events.extend(s.events)
        return Schedule(
            first.n,
            first.lam,
            events,
            m=max(s.m for s in parts),
            root=first.root,
            validate=validate,
        )
