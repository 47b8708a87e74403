"""The discrete-event engine: environment, events, timeouts, processes.

Model (deliberately simpy-compatible in spirit):

* An :class:`Event` is a one-shot awaitable.  It is *triggered* when given a
  value (or failure) and *processed* once its callbacks have run.
* A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
  events; the process resumes when the yielded event fires, receiving the
  event's value at the ``yield`` expression (or the exception, raised).
* The :class:`Environment` owns the clock and the pending-event heap.
  Scheduling is deterministic: ties in time break by scheduling order.

The clock is an integer tick count, ``scale`` ticks per time unit, where
``scale`` is the LCM of every denominator the environment has been given
(its initial time, each delay, each ``until``).  Heap keys are
``(tick, priority, seq, event)`` and compare as plain ints, yet nothing
is rounded: every time the run has seen is a whole number of ticks.  A
delay whose denominator does not divide the scale grows it, multiplying
the current tick and every pending tick by the same factor (which keeps
their order, so the heap stays valid as it is).  Python ints have no
width limit, so the scale has no cap.  ``now``, :meth:`Environment.peek`
and ``Timeout.delay`` stay exact :class:`fractions.Fraction`\\ s — the
clock builds one per distinct tick — and delays accept anything
:func:`repro.types.as_time` accepts.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Any, Callable, Generator, Optional

from repro.errors import ProcessInterrupt, SimulationError
from repro.types import Time, TimeLike, as_time

__all__ = ["Environment", "Event", "Timeout", "Process", "NORMAL", "URGENT"]

#: Scheduling priorities: URGENT events at a given time run before NORMAL
#: ones (used internally so a process resumption precedes same-time timeouts
#: created after it).
URGENT = 0
NORMAL = 1

PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Lifecycle: *pending* -> *triggered* (``succeed``/``fail`` called; queued
    on the environment) -> *processed* (callbacks ran).

    Slotted (as are :class:`Timeout` and :class:`Process`): a postal run
    allocates one event per send/delivery/resume, so the per-instance
    ``__dict__`` was measurable.  Subclasses that add attributes and do
    not declare ``__slots__`` themselves (e.g. resource requests) simply
    get a dict again — slotting is an optimization, not a contract.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool | None = None
        #: failure was handed to a waiting process (or explicitly defused)
        self._defused = False

    @property
    def triggered(self) -> bool:
        """The event has a value and is (or was) queued for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._queue_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure.  A failed event re-raises
        *exception* in every waiting process; if nothing waits, the
        environment raises it at processing time (so errors never vanish
        silently)."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._queue_event(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the environment will not
        re-raise it."""
        self._defused = True

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: TimeLike, value: Any = None):
        super().__init__(env)
        d = as_time(delay)
        if d.numerator < 0:  # an int compare, not Fraction.__lt__
            raise SimulationError(f"negative timeout delay {d}")
        self.delay: Time = d
        self._ok = True
        self._value = value
        env._queue_event(self, delay=d)


class Initialize(Event):
    """Internal: starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._queue_event(self, priority=URGENT)


class Process(Event):
    """A running generator.  As an event, it fires when the generator
    returns (value = return value) or raises (failure)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """The generator has not finished yet."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`~repro.errors.ProcessInterrupt` inside the process
        at the current simulation time.

        The process is detached from whatever event it was waiting for; if
        that event was a queued *claim* (a :class:`~repro.sim.resources.
        Resource` request or ``Store.get``), the claim itself stays queued
        and the interrupted process should withdraw it (``Request.cancel``
        / ``Store.cancel_get``) in its interrupt handler, or a later grant
        will be consumed by a dead waiter.  Timeout-and-retry code should
        prefer ``any_of(claim, timeout)`` + explicit cancel over
        interrupts.

        Cost note: detaching scans the old target's callback list
        (``callbacks.remove``), so interrupting is O(w) in the number of
        waiters *w* on that event — fine for the rare-interrupt designs
        this library uses, pathological only if many processes wait on
        one event and all get interrupted."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already terminated")
        if self._target is None:
            raise SimulationError("cannot interrupt a process mid-resume")
        # detach from whatever it was waiting for, then resume with failure
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = ProcessInterrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks = [self._resume]
        old_target = self._target
        if old_target.callbacks is not None and self._resume in old_target.callbacks:
            old_target.callbacks.remove(self._resume)
        self.env._queue_event(interrupt_ev, priority=URGENT)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_ev = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_ev = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._queue_event(self, priority=URGENT)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env._queue_event(self, priority=URGENT)
                break
            if not isinstance(next_ev, Event):
                exc2 = SimulationError(
                    f"process yielded a non-event: {next_ev!r}"
                )
                self._ok = False
                self._value = exc2
                self.env._queue_event(self, priority=URGENT)
                break
            if next_ev.processed:
                # already happened: resume immediately with its value
                event = next_ev
                continue
            self._target = next_ev
            assert next_ev.callbacks is not None
            next_ev.callbacks.append(self._resume)
            break
        self.env._active_process = None


class Environment:
    """The simulation environment: exact tick clock + deterministic event
    loop."""

    def __init__(self, initial_time: TimeLike = 0):
        start = as_time(initial_time)
        #: ticks per time unit: the LCM of every denominator seen so far
        self._scale = start.denominator
        self._tick = start.numerator
        self._now: Time = start
        self._heap: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._active_process: Process | None = None

    @property
    def now(self) -> Time:
        """Current simulation time (exact)."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    # -------------------------------------------------------- construction

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: TimeLike, value: Any = None) -> Timeout:
        """An event firing *delay* from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start *generator* as a process."""
        return Process(self, generator)

    # ----------------------------------------------------------- the clock

    def _to_ticks(self, value: Time) -> int:
        """*value* as a whole number of ticks, growing the scale first
        when *value* is off the current grid."""
        den = value.denominator
        if self._scale % den:
            self._rescale(den // math.gcd(self._scale, den))
        return value.numerator * (self._scale // den)

    def _rescale(self, factor: int) -> None:
        # Multiplying every key's tick by the same positive factor keeps
        # the keys' order, so the heap invariant holds without a
        # re-heapify.  The list is updated in place: profilers hold it.
        self._scale *= factor
        self._tick *= factor
        heap = self._heap
        for i, (at, priority, seq, event) in enumerate(heap):
            heap[i] = (at * factor, priority, seq, event)

    # ----------------------------------------------------------- execution

    def _queue_event(
        self, event: Event, *, delay: Time | None = None, priority: int = NORMAL
    ) -> None:
        # No delay (event triggers, process resumptions — the majority of
        # queue operations) skips the conversion.  Convert before reading
        # the clock: a conversion may rescale it.
        if delay is None:
            at = self._tick
        else:
            step = self._to_ticks(delay)
            at = self._tick + step
        self._seq += 1
        heapq.heappush(self._heap, (at, priority, self._seq, event))

    def peek(self) -> Time | None:
        """Time of the next scheduled event, or ``None`` if none remain."""
        if not self._heap:
            return None
        at = self._heap[0][0]
        return self._now if at == self._tick else Fraction(at, self._scale)

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("no more events")
        at, _prio, _seq, event = heapq.heappop(self._heap)
        if at != self._tick:
            if at < self._tick:
                raise SimulationError("event scheduled in the past")
            self._tick = at
            self._now = Fraction(at, self._scale)
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        if callbacks:
            for cb in callbacks:
                cb(event)
        elif not event._ok and not event._defused:
            # a failure nobody waited for: surface it
            raise event._value

    def run(self, until: "TimeLike | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until no events remain; returns ``None``.
        * ``until=<time>`` — run to that time (clock lands exactly on it);
          returns ``None``.
        * ``until=<event>`` — run until the event fires; returns its value
          (raising if it failed).
        """
        stop_event: Event | None = None
        stop_time: Time | None = None
        stop_tick = stop_scale = 0
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
        elif until is not None:
            stop_time = as_time(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"cannot run until {stop_time}: already at {self._now}"
                )
            stop_tick = self._to_ticks(stop_time)
            stop_scale = self._scale

        heap = self._heap
        while heap:
            if stop_event is not None and stop_event.processed:
                break
            if stop_time is not None:
                if stop_scale != self._scale:  # a delay grew the scale
                    stop_tick *= self._scale // stop_scale
                    stop_scale = self._scale
                if heap[0][0] > stop_tick:
                    break
            self.step()

        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError(
                    "simulation ran out of events before `until` fired"
                )
            if stop_event._ok:
                return stop_event._value
            raise stop_event._value
        if stop_time is not None and stop_time > self._now:
            self._tick = self._to_ticks(stop_time)
            self._now = stop_time
        return None
