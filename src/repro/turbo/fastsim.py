"""The turbo execution lane: a flat integer-tick event loop for postal runs.

The exact engine (:mod:`repro.sim.engine`) is general: any generator can
wait on any event, every delay is a :class:`fractions.Fraction`, and every
send spawns two processes (the port occupation and the network delivery).
That generality is exactly what large-``n`` reproductions do not need —
a postal run only ever

* occupies a unit-rate send port (``start = max(now, port_free)``),
* delivers ``latency`` after the send started (strict: at the due instant
  or :class:`~repro.errors.SimultaneousIOError`; queued: FIFO through the
  receive port), and
* hands the message to an inbox / a waiting ``recv``.

This module specializes for that shape:

* **Integer tick keys** — all times are rescaled to plain ``int`` ticks
  by a :class:`~repro.turbo.ticks.TickDomain` (lossless: scale = the
  denominator of lambda, with no cap), so event ordering is C-speed int
  comparison instead of ``Fraction.__lt__``.
* **Calendar queue** — postal events land on a *dense* tick grid, so the
  scheduler is a bucket-per-tick calendar (O(1) push and pop) with a
  bounded look-ahead window, an overflow heap for far-future entries,
  lazy compaction of consumed buckets, and an automatic fallback to a
  classic binary heap when the tick spread turns out sparse (see
  :class:`TurboEnvironment`).
* **Direct delivery callbacks** — a send books its delivery as one flat
  queue entry ``(seq, fn, *args)``; no ``_send_proc`` / ``_deliver_proc``
  generator pair, no :class:`~repro.sim.resources.Resource` handshake.
  Port bookkeeping is two integer arrays (``send_free`` / ``recv_free``).
  Entries carry plain functions with their receiver among the
  arguments, a waiting process is its own callback, and an event or an
  inbox with a single waiter holds it without a list.  No pending entry
  holds a bound method or a separate argument tuple, so an in-flight
  send, and a processor waiting for its message, keep far fewer objects
  alive for the cyclic garbage collector to walk.
* **Columnar run log** — the run appends packed integers to a
  :class:`~repro.turbo.runlog.RunLog` (five ``array('q')`` columns, the
  layout of :mod:`repro.plan.columns`) and never touches the
  :class:`~repro.sim.trace.Tracer`.  Each delivery row points at its
  send row, so the log *is* the realized ``starts`` / ``arrivals``
  columns: :meth:`TurboSystem.audit` and :meth:`TurboSystem.run_metrics`
  check and measure the run on them
  (:func:`~repro.plan.columns.audit_columns`,
  :mod:`repro.turbo.columnar`), and
  :attr:`TurboSystem.tracer` materializes real
  :class:`~repro.sim.trace.TraceRecord` objects only when someone reads
  it.  A default ``run_protocol(..., backend="turbo")`` call builds no
  trace record.

Protocols run **unchanged**: :class:`TurboSystem` exposes the same
``send`` / ``recv`` / ``env.now`` / ``env.timeout`` surface as
:class:`~repro.postal.machine.PostalSystem`, and
:func:`repro.postal.runner.run_protocol` selects the lane with
``backend="turbo"``.  The grid is fixed when the run starts: a timeout
or pair latency off it, or a tick past the int64 columns of the log
(checked once, by :meth:`TurboEnvironment.run`), raises
:class:`~repro.errors.TickDomainError` directing the caller to the exact
backend — turbo is never silently approximate.

Determinism note: within one tick, work runs in scheduling order (a
global sequence number), which reproduces the exact engine's tie-breaking
for every registered protocol family; the differential suite
(``tests/test_turbo_equivalence.py``) pins this equivalence across the
conformance grid, rational latencies included.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Any, Callable, Generator, Optional

from repro.core.schedule import Schedule
from repro.errors import (
    InvalidParameterError,
    ModelError,
    SimulationError,
    SimultaneousIOError,
)
from repro.obs.metrics import RunMetrics
from repro.postal.machine import ContentionPolicy
from repro.postal.message import Message
from repro.sim.trace import Tracer
from repro.types import ProcId, Time, TimeLike, ZERO, as_time, time_repr
from repro.turbo.columnar import PortView, count_metrics, port_views, tally
from repro.turbo.runlog import (
    CONSUME as _CONSUME,
    DELIVER as _DELIVER,
    DROP_LOSS as _DROP_LOSS,
    SEND as _SEND,
    SEND_RETRANSMIT as _SEND_RT,
    RunLog,
)
from repro.turbo.ticks import TickDomain, column_overflow

__all__ = [
    "TurboEnvironment",
    "TurboEvent",
    "TurboProcess",
    "TurboSystem",
    "build_turbo",
]

_PENDING = object()

#: A pending event's callback slot before anything waits on it.
_UNWAITED = object()


class _START:
    """The pseudo-event a process's first resume reads: it starts the
    generator with ``send(None)``."""

    _ok = True
    _value = None


#: Calendar look-ahead: pushes more than this many ticks past the cursor
#: go to the overflow heap instead of growing the bucket array.
_SPAN = 1 << 16
#: Consumed-bucket prefix length that triggers lazy compaction.
_COMPACT = 1 << 12
#: Empty-slot scan debt (net of work found) that flips the loop to the
#: classic heap — the tick spread is too sparse for a calendar.
_SPARSE_DEBT = 1 << 12

# Within-tick ordering.  The exact engine breaks same-instant ties by
# *queueing order* (a global sequence number, with process resumptions
# running URGENT — i.e. immediately).  The turbo loop reproduces that
# structurally rather than imitating any particular outcome:
#
# * resumptions are synchronous — an event's callbacks run inline at its
#   heap pop, which is exactly what URGENT preemption achieves;
# * every delivery is booked as a *window hop* pushed at send time (the
#   twin of the exact engine's gap timeout, hence the same FIFO position
#   relative to the sender's completion event), and the hop re-pushes
#   the landing one unit later (the twin of the receive-unit timeout,
#   queued at the window);
# * inbox mutations are synchronous (``Store.put`` / ``Store.get``
#   semantics) but the consume hop (trace + waiter resume) is pushed
#   with a fresh seq, like the exact engine's get-event processing.
#
# With every push mirroring the exact engine's queueing moment, plain
# ``(tick, seq)`` heap order reproduces its tie-breaking for every
# latency — lambda = 1 (a tick's deliveries land after its send
# completions), lambda = 2 (per-sender interleaving), lambda >= 3
# (deliveries land first) — with no case analysis and no priority lanes.


class TurboEvent:
    """A one-shot awaitable on the turbo loop (duck-types
    :class:`~repro.sim.engine.Event` for the protocol-facing surface).

    The loop keeps an event's callbacks in ``_callbacks``: ``_UNWAITED``
    until something waits, then the lone callback itself, and a list
    only from the second one on; ``None`` once processed.  Nearly every
    event has exactly one waiter, so a run allocates no list per event
    for the garbage collector to walk.  :attr:`callbacks` shows the
    exact engine's list form.
    """

    __slots__ = ("env", "_callbacks", "_value", "_ok")

    def __init__(self, env: "TurboEnvironment"):
        self.env = env
        self._callbacks: Any = _UNWAITED
        self._value: Any = _PENDING
        self._ok: bool | None = None

    @property
    def callbacks(self) -> Optional[list]:
        """The callbacks waiting on this event, as a list callers may
        append to; ``None`` once the event is processed."""
        cbs = self._callbacks
        if cbs is None or type(cbs) is list:
            return cbs
        cbs = [] if cbs is _UNWAITED else [cbs]
        self._callbacks = cbs
        return cbs

    def _wait(self, callback: Callable) -> None:
        """Attach *callback* (the event must still be pending)."""
        cbs = self._callbacks
        if cbs is _UNWAITED:
            self._callbacks = callback
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self._callbacks = [cbs, callback]

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "TurboEvent":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._push(env._tick, TurboEvent._fire, self)
        return self

    def fail(self, exception: BaseException) -> "TurboEvent":
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._push(env._tick, TurboEvent._fire, self)
        return self

    def _fire(self) -> None:
        """Run callbacks (the heap-scheduled half of triggering)."""
        cbs = self._callbacks
        self._callbacks = None
        if type(cbs) is list:
            if cbs:
                for cb in cbs:
                    cb(self)
                return
        elif cbs is not _UNWAITED:
            cbs(self)
            return
        if self._ok is False:
            # a failure nobody waited for: surface it, like the exact engine
            raise self._value

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._callbacks is None
            else "triggered"
            if self._value is not _PENDING
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class TurboProcess(TurboEvent):
    """A protocol generator driven by the turbo loop.  As an event it
    fires when the generator returns (value = return value)."""

    __slots__ = ("_gen",)

    def __init__(self, env: "TurboEnvironment", generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self._gen = generator
        env._push(env._tick, self, _START)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def __call__(self, event: "TurboEvent | type[_START]") -> None:
        """Resume the generator with *event*'s outcome.  A process is
        its own callback: waiting on an event attaches the process
        itself, so a run keeps no bound method per waiting process for
        the garbage collector to walk."""
        ok, value = event._ok, event._value
        gen = self._gen
        env = self.env
        while True:
            try:
                nxt = gen.send(value) if ok else gen.throw(value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._push(env._tick, TurboEvent._fire, self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._push(env._tick, TurboEvent._fire, self)
                return
            if not isinstance(nxt, TurboEvent):
                self._ok = False
                self._value = SimulationError(
                    f"process yielded a non-event: {nxt!r}"
                )
                env._push(env._tick, TurboEvent._fire, self)
                return
            if nxt._callbacks is None:
                # already processed: resume inline with its value
                ok, value = nxt._ok, nxt._value
                continue
            nxt._wait(self)
            return


class TurboEnvironment:
    """The integer-tick event loop, scheduled by a calendar queue.

    Postal runs schedule events on a *dense* grid (every tick between
    start and completion tends to carry work), so the scheduler is a
    calendar: ``_buckets[i]`` holds the entries due at tick
    ``_base + i`` as a list of flat ``(seq, fn, *args)`` tuples,
    naturally sorted by the global *seq* counter because entries are
    appended in scheduling order.  Push and pop are O(1); the heap's
    O(log E) sift is gone.

    Three mechanisms keep the calendar honest:

    * **Overflow heap** — a push more than :data:`_SPAN` ticks past the
      cursor goes to a classic ``(tick, seq, fn, *args)`` heap instead of
      growing the bucket array; due overflow groups are merged back into
      the calendar (by *seq*, preserving FIFO) before processing.
    * **Lazy compaction** — consumed leading buckets are deleted in
      O(:data:`_COMPACT`) batches, so the array tracks the active window
      instead of the whole run.
    * **Sparse fallback** — a debt counter charges every empty bucket
      scanned and credits every entry executed; sustained sparse spread
      (> :data:`_SPARSE_DEBT` net empties) migrates all pending entries
      to the overflow heap and finishes the run as a plain heap loop, so
      pathological tick spreads never degrade past the old engine.

    FIFO within a tick via *seq* mirrors the exact engine's
    queueing-order tie-breaks (see the ordering note at module top).
    The rational clock is recovered on demand — and cached per tick —
    by :attr:`now`.
    """

    __slots__ = (
        "domain",
        "_tick",
        "_seq",
        "_base",
        "_cursor",
        "_buckets",
        "_overflow",
        "_pending",
        "_heap_mode",
        "_scan_debt",
        "_now_tick",
        "_now_time",
    )

    def __init__(self, domain: TickDomain | None = None):
        self.domain = domain if domain is not None else TickDomain()
        self._tick = 0
        self._seq = 0
        self._base = 0
        self._cursor = 0
        self._buckets: list[list | None] = []
        self._overflow: list[tuple] = []
        self._pending = 0
        self._heap_mode = False
        self._scan_debt = 0
        self._now_tick = 0
        self._now_time = ZERO

    @property
    def now(self) -> Time:
        """Current simulation time as an exact :class:`~fractions.Fraction`
        (served from a one-slot cache while the tick stands — protocols
        poll ``env.now`` inside hot loops — and from the domain's
        one-``Fraction``-per-tick memo when it moves)."""
        tick = self._tick
        if tick != self._now_tick:
            self._now_tick = tick
            self._now_time = self.domain.to_time(tick)
        return self._now_time

    # -------------------------------------------------------- construction

    def event(self) -> TurboEvent:
        """A fresh, untriggered event."""
        return TurboEvent(self)

    def timeout(self, delay: TimeLike, value: Any = None) -> TurboEvent:
        """An event firing *delay* from now.

        Raises:
            TickDomainError: *delay* is off this run's tick grid (use the
                exact backend for such protocols).
        """
        ticks = self.domain.to_ticks(delay)
        if ticks < 0:
            raise SimulationError(f"negative timeout delay {as_time(delay)}")
        ev = TurboEvent(self)
        ev._ok = True
        ev._value = value
        self._push(self._tick + ticks, TurboEvent._fire, ev)
        return ev

    def process(self, generator: Generator) -> TurboProcess:
        """Start *generator* as a process."""
        return TurboProcess(self, generator)

    # ----------------------------------------------------------- execution

    def _push(self, tick: int, fn: Callable, *args: Any) -> None:
        if tick < self._tick:
            raise SimulationError("event scheduled in the past")
        seq = self._seq + 1
        self._seq = seq
        self._pending += 1
        entry = (seq, fn) + args
        if self._heap_mode:
            heapq.heappush(self._overflow, (tick,) + entry)
            return
        idx = tick - self._base
        buckets = self._buckets
        if idx < len(buckets):
            bucket = buckets[idx]
            if bucket is None:
                buckets[idx] = [entry]
            else:
                bucket.append(entry)
        elif idx < self._cursor + _SPAN:
            buckets.extend([None] * (idx + 1 - len(buckets)))
            buckets[idx] = [entry]
        else:
            heapq.heappush(self._overflow, (tick,) + entry)

    def _next_tick(self) -> int | None:
        """Tick of the next scheduled entry, or ``None`` (no mutation)."""
        if not self._pending:
            return None
        best = self._overflow[0][0] if self._overflow else None
        if not self._heap_mode:
            buckets = self._buckets
            cursor = self._cursor
            nbuckets = len(buckets)
            while cursor < nbuckets:
                if buckets[cursor] is not None:
                    cal = self._base + cursor
                    if best is None or cal < best:
                        best = cal
                    break
                cursor += 1
        return best

    def peek(self) -> Time | None:
        """Time of the next scheduled event, or ``None`` if none remain."""
        tick = self._next_tick()
        return self.domain.to_time(tick) if tick is not None else None

    def _pop_overflow_group(self, tick: int) -> list:
        """Pop every overflow entry due at *tick*, in seq order."""
        heap = self._overflow
        pop = heapq.heappop
        group = []
        while heap and heap[0][0] == tick:
            group.append(pop(heap)[1:])
        return group

    def _switch_to_heap(self, cursor: int) -> None:
        """Migrate all calendar entries to the overflow heap and stay
        there — the run's tick spread is too sparse for bucket scans."""
        heap = self._overflow
        base = self._base
        buckets = self._buckets
        for idx in range(cursor, len(buckets)):
            bucket = buckets[idx]
            if bucket:
                tick = (base + idx,)
                for entry in bucket:
                    heap.append(tick + entry)
        heapq.heapify(heap)
        buckets.clear()
        self._cursor = 0
        self._heap_mode = True

    def _run_heap(self) -> None:
        heap = self._overflow
        pop = heapq.heappop
        while heap:
            entry = pop(heap)
            self._tick = entry[0]
            self._pending -= 1
            entry[2](*entry[3:])

    def _run_calendar_step(self) -> bool:
        """Process the next due bucket.  Returns ``False`` if the loop
        migrated to heap mode instead (caller must re-dispatch)."""
        buckets = self._buckets
        nbuckets = len(buckets)
        cursor = self._cursor
        while cursor < nbuckets and buckets[cursor] is None:
            cursor += 1
        scanned = cursor - self._cursor
        overflow = self._overflow
        if cursor == nbuckets:
            # calendar drained: rebase onto the earliest overflow group
            otick = overflow[0][0]
            self._base = otick
            cursor = 0
            buckets.clear()
            buckets.append(self._pop_overflow_group(otick))
        elif overflow and overflow[0][0] <= self._base + cursor:
            # an overflow group is due at or before the next bucket:
            # fold it into the calendar (merging by seq keeps FIFO)
            otick = overflow[0][0]
            cursor = otick - self._base
            group = self._pop_overflow_group(otick)
            bucket = buckets[cursor]
            if bucket is not None:
                group = sorted(bucket + group)
            buckets[cursor] = group
        bucket = buckets[cursor]
        self._scan_debt += scanned - (len(bucket) << 3)
        if self._scan_debt < 0:
            self._scan_debt = 0
        elif self._scan_debt > _SPARSE_DEBT:
            self._switch_to_heap(cursor)
            return False
        self._tick = self._base + cursor
        self._cursor = cursor
        # same-tick pushes append to this live bucket and must run within
        # the tick, in seq order: a list iterator reaches appended items
        for entry in bucket:
            entry[1](*entry[2:])
        self._pending -= len(bucket)
        buckets[cursor] = None
        cursor += 1
        if cursor >= _COMPACT:
            del buckets[:cursor]
            self._base += cursor
            cursor = 0
        self._cursor = cursor
        return True

    def run(self, until: Any = None) -> None:
        """Run to quiescence (the only mode postal runs need).  A value
        past the log's int64 columns raises TickDomainError, checked
        here once rather than per event."""
        if until is not None:
            raise SimulationError(
                "the turbo engine only runs to quiescence; "
                "use backend='exact' for bounded runs"
            )
        try:
            while self._pending:
                if self._heap_mode:
                    self._run_heap()
                    return
                self._run_calendar_step()
        except OverflowError as exc:
            raise column_overflow(self.domain.scale) from exc


class TurboSystem:
    """``MPS(n, lambda)`` on the turbo loop — same protocol-facing and
    validator-facing surface as :class:`~repro.postal.machine.PostalSystem`,
    none of its per-message process machinery.

    Port bookkeeping is two integer arrays: a send started at tick ``t``
    sets ``send_free[src] = t + one`` (``one`` = ticks per time unit) and
    books the delivery directly on the heap.  The run writes packed rows
    to a :class:`~repro.turbo.runlog.RunLog`; :meth:`audit` and
    :meth:`run_metrics` read them as columns, and :attr:`tracer` turns
    them into real trace records on first read.

    Pair-dependent latencies are converted to ticks lazily; a pair value
    off the run's grid raises :class:`~repro.errors.TickDomainError`
    (turbo is exact or loud, never approximate).
    """

    __slots__ = (
        "env",
        "domain",
        "_n",
        "_lam",
        "_latency_fn",
        "_policy",
        "_tracer",
        "_one",
        "_lam_ticks",
        "_pair_ticks",
        "_strict",
        "_send_free",
        "_recv_free",
        "_inbox_items",
        "_inbox_waiters",
        "_log",
        "_lg_code",
        "_lg_tick",
        "_lg_a",
        "_lg_b",
        "_lg_c",
        "_lg_objs",
        "_completion_tick",
        "_flushed",
        "_columns",
        "_send_views",
        "_recv_views",
    )

    def __init__(
        self,
        env: TurboEnvironment,
        n: int,
        lam: TimeLike,
        *,
        policy: ContentionPolicy = ContentionPolicy.STRICT,
        tracer: Tracer | None = None,
        latency: "Callable[[ProcId, ProcId], TimeLike] | None" = None,
    ):
        if n < 1:
            raise InvalidParameterError(f"need n >= 1 processors, got {n}")
        lam = as_time(lam)
        if lam < 1:
            raise InvalidParameterError(
                f"the postal model requires lambda >= 1, got {lam}"
            )
        self.env = env
        self.domain = env.domain
        self._n = n
        self._lam = lam
        self._latency_fn = latency
        self._policy = policy
        self._tracer = tracer if tracer is not None else Tracer()
        one = self.domain.scale
        self._one = one
        self._lam_ticks = self.domain.to_ticks(lam)
        self._pair_ticks: dict[tuple[int, int], int] = {}
        self._strict = policy is ContentionPolicy.STRICT
        self._send_free = [0] * n
        self._recv_free = [0] * n
        # Per-processor queues, allocated on first use: a run at large n
        # would otherwise keep 2n lists alive for the GC to walk.  A
        # processor's waiting recv events are None, the lone event (the
        # usual case), or a list once several wait at once.
        self._inbox_items: list[list[Message] | None] = [None] * n
        self._inbox_waiters: list[Any] = [None] * n
        log = RunLog()
        self._log = log
        # hot-path column appends, bound once (send/_deliver run per event)
        self._lg_code = log.codes.append
        self._lg_tick = log.ticks.append
        self._lg_a = log.a.append
        self._lg_b = log.b.append
        self._lg_c = log.c.append
        self._lg_objs = log.objs
        self._completion_tick = 0
        self._flushed = False
        self._columns: tuple | None = None
        self._send_views: list[PortView] | None = None
        self._recv_views: list[PortView] | None = None

    # ------------------------------------------------------------ metadata

    @property
    def n(self) -> int:
        return self._n

    @property
    def lam(self) -> Time:
        return self._lam

    @property
    def policy(self) -> ContentionPolicy:
        return self._policy

    @property
    def uniform_latency(self) -> bool:
        return self._latency_fn is None

    def latency(self, src: ProcId, dst: ProcId) -> Time:
        if self._latency_fn is None:
            return self._lam
        lam = as_time(self._latency_fn(src, dst))
        if lam < 1:
            raise InvalidParameterError(
                f"latency({src}, {dst}) = {lam} violates lambda >= 1"
            )
        return lam

    def _latency_ticks(self, src: ProcId, dst: ProcId) -> int:
        if self._latency_fn is None:
            return self._lam_ticks
        key = (src, dst)
        ticks = self._pair_ticks.get(key)
        if ticks is None:
            # may raise TickDomainError: pair latency off this run's grid
            ticks = self.domain.to_ticks(self.latency(src, dst))
            self._pair_ticks[key] = ticks
        return ticks

    # ---------------------------------------------------------- primitives

    def send(
        self, src: ProcId, dst: ProcId, msg: int, payload: Any = None
    ) -> TurboEvent:
        """Start sending message *msg* from *src* to *dst*.

        Returns an event that fires when the **sender** finishes its
        one-unit send, with the send's start time as its value — the same
        pacing contract as :meth:`PostalSystem.send
        <repro.postal.machine.PostalSystem.send>`.  Delivery is booked as
        a *window hop*: a heap entry at ``start + latency - 1`` (the
        instant the receive window opens) that claims the receive port —
        colliding windows raise
        :class:`~repro.errors.SimultaneousIOError` there under the strict
        policy, or serialize FIFO under the queued policy — and re-pushes
        the landing one unit later.  The two-entry chain shadows the
        exact engine's gap-timeout + receive-unit chain, so same-instant
        ties resolve identically (see the ordering note at module top).
        """
        n = self._n
        if not (0 <= src < n and 0 <= dst < n):
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
        self._send_free[src] = start + one
        row = len(self._log.codes)
        self._lg_code(_SEND)
        self._lg_tick(start)
        self._lg_a(src)
        self._lg_b(dst)
        self._lg_c(msg)
        # completion first, window hop second: the exact engine queues the
        # sender's one-unit timeout before the delivery's gap timeout
        done = TurboEvent(env)
        done._ok = True
        done._value = self.domain.to_time(start)
        env._push(start + one, TurboEvent._fire, done)
        if self._latency_fn is None:
            lat = self._lam_ticks
        else:
            lat = self._latency_ticks(src, dst)
        cls = type(self)
        book = cls._book_strict if self._strict else cls._book_queued
        env._push(
            start + lat - one, book, self, row, start, src, dst, msg, payload
        )
        return done

    # The delivery chain carries the send's log row, which the DELIVER row
    # records: the link that makes the log the run's realized columns.

    def _book_strict(
        self, row: int, start: int, src: ProcId, dst: ProcId, msg: int,
        payload: Any,
    ) -> None:
        window = self.env._tick
        free = self._recv_free[dst]
        if free > window:
            to_time = self.domain.to_time
            raise SimultaneousIOError(
                f"p{dst}: a message delivery due at t="
                f"{time_repr(to_time(window))} could not start receiving "
                f"until t={time_repr(to_time(free))} "
                f"(simultaneous-I/O violation)"
            )
        due = window + self._one
        self._recv_free[dst] = due
        self.env._push(
            due, type(self)._deliver, self, row, start, src, dst, msg, payload
        )

    def _book_queued(
        self, row: int, start: int, src: ProcId, dst: ProcId, msg: int,
        payload: Any,
    ) -> None:
        window = self.env._tick
        one = self._one
        free = self._recv_free[dst]
        rstart = window if free <= window else free
        self._recv_free[dst] = rstart + one
        self.env._push(
            rstart + one, type(self)._deliver, self, row, start, src, dst,
            msg, payload,
        )

    def _deliver(
        self, row: int, start: int, src: ProcId, dst: ProcId, msg: int,
        payload: Any,
    ) -> None:
        env = self.env
        arrival = env._tick
        to_time = self.domain.to_time
        record = Message(msg, src, dst, to_time(start), to_time(arrival), payload)
        objs = self._lg_objs
        oid = len(objs)
        objs.append(record)
        self._lg_code(_DELIVER)
        self._lg_tick(arrival)
        self._lg_a(oid)
        self._lg_b(dst)
        self._lg_c(row)
        if arrival > self._completion_tick:
            self._completion_tick = arrival
        # the landing is synchronous (Store.put semantics); only the
        # waiter's consume hop is deferred, behind same-tick deliveries
        waiters = self._inbox_waiters[dst]
        if waiters is not None:
            if type(waiters) is list:
                ev = waiters.pop(0)
                if len(waiters) == 1:
                    self._inbox_waiters[dst] = waiters[0]
            else:
                ev = waiters
                self._inbox_waiters[dst] = None
            ev._ok = True
            ev._value = record
            env._push(arrival, type(self)._fire_recv, self, dst, ev)
        else:
            items = self._inbox_items[dst]
            if items is None:
                self._inbox_items[dst] = [record]
            else:
                items.append(record)

    def recv(self, dst: ProcId) -> TurboEvent:
        """An event yielding the next :class:`~repro.postal.message.Message`
        from *dst*'s inbox (fires immediately if one is waiting)."""
        if not 0 <= dst < self._n:
            self._check_proc(dst)
        env = self.env
        ev = TurboEvent(env)
        items = self._inbox_items[dst]
        if items:
            ev._ok = True
            ev._value = items.pop(0)
            env._push(env._tick, type(self)._fire_recv, self, dst, ev)
        else:
            waiters = self._inbox_waiters[dst]
            if waiters is None:
                self._inbox_waiters[dst] = ev
            elif type(waiters) is list:
                waiters.append(ev)
            else:
                self._inbox_waiters[dst] = [waiters, ev]
        return ev

    def _fire_recv(self, dst: ProcId, ev: TurboEvent) -> None:
        objs = self._lg_objs
        oid = len(objs)
        objs.append(ev._value)
        self._lg_code(_CONSUME)
        self._lg_tick(self.env._tick)
        self._lg_a(oid)
        self._lg_b(dst)
        self._lg_c(0)
        ev._fire()

    def cancel_recv(self, dst: ProcId, event: TurboEvent) -> None:
        """Withdraw a pending :meth:`recv` so it does not swallow a later
        message."""
        self._check_proc(dst)
        waiters = self._inbox_waiters[dst]
        if waiters is event:
            self._inbox_waiters[dst] = None
        elif type(waiters) is list and event in waiters:
            waiters.remove(event)
            if len(waiters) == 1:
                self._inbox_waiters[dst] = waiters[0]
        else:
            raise ValueError(f"{event!r} is not a pending recv of p{dst}")

    def inbox_size(self, proc: ProcId) -> int:
        self._check_proc(proc)
        return len(self._inbox_items[proc] or ())

    # ------------------------------------------------------- fast accessors

    @property
    def completion_time(self) -> Time:
        """Arrival of the last delivered message (``0`` if none)."""
        if self._completion_tick == 0:
            return ZERO
        return self.domain.to_time(self._completion_tick)

    @property
    def send_count(self) -> int:
        """Number of sends started (a C-speed column count, retransmit
        rows included)."""
        return self._log.send_count

    def realized_schedule(self, *, m: int = 1, root: int = 0, validate: bool = False):
        """The run's :class:`~repro.core.schedule.Schedule`, built from
        the log's send rows (strict uniform runs only) — no trace
        materialization, and no events until someone reads them."""
        if self._policy is not ContentionPolicy.STRICT:
            raise ModelError(
                "schedule reconstruction requires the strict contention policy"
            )
        if not self.uniform_latency:
            raise ModelError(
                "schedule reconstruction requires uniform latency; pair-"
                "dependent runs are audited on their columns (audit())"
            )
        log = self._log
        sends = log.where(_SEND)
        ticks, senders, msgs, receivers = (
            array("q", list(map(column.__getitem__, sends)))
            for column in (log.ticks, log.a, log.c, log.b)
        )
        return Schedule.from_columns(
            self._n, self._lam, self._one, ticks, senders, msgs, receivers,
            m=m, root=root, validate=validate,
        )

    # ------------------------------------------- audit and metrics, columnar

    def _realized(self) -> tuple:
        """The finished run as columns over its log rows (cached):
        ``(sends, deliveries, arrivals, order, lats, windows)``.

        ``sends`` / ``deliveries`` are the ``SEND`` / ``DELIVER`` row
        indices in append order; over send rows, ``log.ticks`` holds the
        starts and ``arrivals`` the arrival ticks (0 = never delivered).
        ``order`` is the send rows stable-sorted by start — the loop's
        receive-window order under a uniform latency, since every window
        hop is pushed at send time, in send-row order.  With pair
        latencies, ``lats`` maps each send row to its latency in ticks
        and ``windows`` is the send rows stable-sorted by due tick.
        """
        if self._columns is None:
            log = self._log
            ticks = log.ticks
            sends = log.where(_SEND)
            deliveries = log.where(_DELIVER)
            arrivals = array("q", bytes(8 * len(ticks)))
            for row, tick in zip(
                map(log.c.__getitem__, deliveries),
                map(ticks.__getitem__, deliveries),
            ):
                arrivals[row] = tick
            order = sorted(sends, key=ticks.__getitem__)
            lats = windows = None
            if self._latency_fn is not None:
                pair = self._pair_ticks
                lats = {i: pair[log.a[i], log.b[i]] for i in sends}
                windows = sorted(sends, key=lambda i: ticks[i] + lats[i])
            self._columns = (sends, deliveries, arrivals, order, lats, windows)
        return self._columns

    def audit(self, *, broadcast: bool = True, m: int = 1, root: int = 0) -> None:
        """Audit the finished run on its log columns, with no trace.

        One :func:`~repro.plan.columns.audit_columns` sweep checks the
        postal model (Definitions 1-2): ranges, each arrival against its
        send's start plus its latency (``==`` under the strict policy;
        under the queued one, the work-conserving FIFO completion at the
        receive port), a one-unit gap between uses of every send and
        receive port, and, for *broadcast* semantics (*m* messages from
        *root*), possession, single delivery and full coverage.  Message
        ids of other semantics are not bounded.  A uniform-latency
        broadcast then carries the paper's certificates, Lemma 5 and
        Lemma 8.

        Raises:
            ScheduleError: a structural, causality or coverage violation,
                or a failed certificate.
            SimultaneousIOError: two uses of one port overlap.
            ModelError: a queued arrival the port's contention does not
                explain.
        """
        # local: repro.plan.columns imports repro.turbo (the tick domain)
        from repro.plan.columns import audit_columns

        log = self._log
        _, _, arrivals, order, lats, windows = self._realized()
        queued = not self._strict
        audit_columns(
            log.a, log.c, log.b, log.ticks, arrivals, order,
            n=self._n, scale=self._one, lam_ticks=self._lam_ticks,
            m=m if broadcast else None, root=root, broadcast=broadcast,
            queued=queued, fifo=queued, lats=lats, windows=windows,
        )

    def run_metrics(self) -> RunMetrics:
        """The run's :class:`~repro.obs.metrics.RunMetrics`, counted on the
        log columns (:func:`~repro.turbo.columnar.tally` and
        :func:`~repro.turbo.columnar.count_metrics`).  Equal
        to folding :attr:`tracer` through a
        :class:`~repro.obs.metrics.MetricsCollector`, without building it."""
        log = self._log
        sends, deliveries, *_ = self._realized()
        ticks = log.ticks
        counts = tally(
            self._n,
            map(log.a.__getitem__, sends),
            map(log.b.__getitem__, deliveries),
            map(
                int.__sub__,
                map(ticks.__getitem__, deliveries),
                map(ticks.__getitem__, map(log.c.__getitem__, deliveries)),
            ),
        )
        return count_metrics(
            self._n, self._lam, self.domain, *counts, self.completion_time,
            log=log,
        )

    # ------------------------------------------------------ validator views

    @property
    def tracer(self) -> Tracer:
        """The run's trace, materialized from the log on first read (see
        :meth:`flush_trace`)."""
        return self._trace()

    def flush_trace(self) -> Tracer:
        """Materialize the compact log into :attr:`tracer` (idempotent).

        Entries are stable-sorted by tick, so the tracer's nondecreasing-
        time guarantee holds and every ``deliver`` precedes its
        ``consume``.  This is the *only* place turbo builds trace records
        — a run whose trace is never read allocates none.
        """
        return self._trace()

    def _trace(self) -> Tracer:
        # the one builder behind both `tracer` and `flush_trace`, so a
        # wrapper around either may read the other without recursing
        if not self._flushed:
            self._flushed = True
            self._emit_log(self._tracer.emit)
        return self._tracer

    def _emit_log(self, emit: Callable) -> None:
        """Emit one trace record per log row, stable-sorted by tick.

        Rows only a fault-injecting run logs come out as well: a
        retransmission is a ``send`` record carrying ``retransmit:
        True``, a lost or crash-suppressed delivery a ``drop`` record
        carrying ``reason: "loss"|"crash"``.
        """
        to_time = self.domain.to_time
        log = self._log
        codes, ticks = log.codes, log.ticks
        col_a, col_b, col_c = log.a, log.b, log.c
        objs = log.objs
        for i in log.order_by_tick():
            code = codes[i]
            if code == _SEND or code == _SEND_RT:
                data = {"src": col_a[i], "dst": col_b[i], "msg": col_c[i]}
                if code == _SEND_RT:
                    data["retransmit"] = True
                emit(to_time(ticks[i]), "send", data)
            elif code == _DELIVER:
                record = objs[col_a[i]]
                emit(record.arrived_at, "deliver", record)
            elif code == _CONSUME:
                record = objs[col_a[i]]
                now = to_time(ticks[i])
                emit(
                    now,
                    "consume",
                    {
                        "proc": col_b[i],
                        "msg": record.msg,
                        "src": record.src,
                        "waited": now - record.arrived_at,
                    },
                )
            else:  # _DROP_LOSS or _DROP_CRASH
                emit(
                    to_time(ticks[i]),
                    "drop",
                    {
                        "src": col_a[i],
                        "dst": col_b[i],
                        "msg": col_c[i],
                        "reason": "loss" if code == _DROP_LOSS else "crash",
                    },
                )

    def _build_port_views(self) -> None:
        log = self._log
        ticks = log.ticks
        sends = log.where(_SEND, _SEND_RT)
        deliveries = log.where(_DELIVER)
        one = self._one
        self._send_views = port_views(
            self._n, self.domain,
            map(log.a.__getitem__, sends), map(ticks.__getitem__, sends),
        )
        self._recv_views = port_views(
            self._n, self.domain,
            map(log.b.__getitem__, deliveries),
            (ticks[j] - one for j in deliveries),
        )

    def send_port(self, proc: ProcId) -> PortView:
        """The send port's busy log, reconstructed from the run log (same
        shape :func:`~repro.postal.validator.audit_ports` reads)."""
        if self._send_views is None:
            self._build_port_views()
        return self._send_views[proc]

    def recv_port(self, proc: ProcId) -> PortView:
        """The receive port's busy log (each delivery occupies
        ``[arrival - 1, arrival)``)."""
        if self._recv_views is None:
            self._build_port_views()
        return self._recv_views[proc]

    # ------------------------------------------------------------ internal

    def _check_proc(self, proc: ProcId) -> None:
        if not 0 <= proc < self._n:
            raise InvalidParameterError(
                f"processor p{proc} outside 0..{self._n - 1}"
            )


def build_turbo(
    n: int,
    lam: TimeLike,
    *,
    policy: ContentionPolicy = ContentionPolicy.STRICT,
    tracer: Tracer | None = None,
    latency: "Callable[[ProcId, ProcId], TimeLike] | None" = None,
) -> TurboSystem:
    """A :class:`TurboSystem` on a fresh loop whose tick domain is derived
    from ``lam`` (scale = denominator of ``lam``), the turbo analogue of
    ``PostalSystem(Environment(), n, lam)``.

    >>> system = build_turbo(4, "5/2")
    >>> system.env.domain.scale
    2
    """
    domain = TickDomain.for_values([as_time(lam)])
    env = TurboEnvironment(domain)
    return TurboSystem(
        env, n, lam, policy=policy, tracer=tracer, latency=latency
    )
