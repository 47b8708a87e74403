"""Engine-level profiling: events processed, heap peak, wall time.

The discrete-event engine's cost model is simple — one heap pop on
integer tick keys plus callbacks per event, with the callbacks' own
``Fraction`` arithmetic dominating (see the performance notes in
``docs/simulator.md``).  :class:`EngineProfiler`
instruments a live :class:`~repro.sim.engine.Environment` to measure
exactly that: how many events a run processed, how deep the pending-event
heap got, and how much wall time a simulated time unit costs.

The hook is an instance-attribute wrapper around ``env.step`` — zero
overhead when not installed, no engine-code changes, and removable with
:meth:`EngineProfiler.uninstall`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from repro.sim.engine import Environment
from repro.types import Time, ZERO

__all__ = ["EngineProfile", "EngineProfiler"]


@dataclass(frozen=True)
class EngineProfile:
    """Frozen profiling summary of one (portion of a) simulation run.

    Attributes:
        events_processed: heap pops while the profiler was installed.
        heap_peak: maximum pending-event heap size observed (sampled at
            step boundaries, before the pop and after the callbacks).
        sim_time: simulated time elapsed while installed.
        wall_seconds: wall-clock seconds spent inside ``env.step``.
    """

    events_processed: int
    heap_peak: int
    sim_time: Time
    wall_seconds: float

    @property
    def events_per_second(self) -> float:
        """Throughput; 0.0 when no wall time was accumulated."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.wall_seconds

    @property
    def wall_per_sim_unit(self) -> float:
        """Wall seconds per simulated time unit; 0.0 for zero-span runs."""
        if self.sim_time <= 0:
            return 0.0
        return self.wall_seconds / float(self.sim_time)

    def __str__(self) -> str:
        return (
            f"EngineProfile({self.events_processed} events, "
            f"heap peak {self.heap_peak}, "
            f"{self.wall_seconds * 1e3:.2f} ms wall, "
            f"{self.events_per_second:,.0f} ev/s)"
        )


class EngineProfiler:
    """Wraps ``env.step`` to count events, track heap depth, and time the
    run.  Usage::

        profiler = EngineProfiler(env)   # installed immediately
        env.run()
        print(profiler.report())
        profiler.uninstall()             # optional: restore the bare step
    """

    def __init__(self, env: Environment, *, install: bool = True):
        self.env = env
        self.events_processed = 0
        self.heap_peak = 0
        self.wall_seconds = 0.0
        self._start_sim: Time = env.now
        self._installed = False
        if install:
            self.install()

    def install(self) -> None:
        """Shadow ``env.step`` with the instrumented version."""
        if self._installed:
            raise ValueError("profiler is already installed")
        self._orig_step = self.env.step
        self.env.step = self._step  # type: ignore[method-assign]
        self._start_sim = self.env.now
        self._installed = True

    def uninstall(self) -> None:
        """Restore the un-instrumented ``env.step``."""
        if not self._installed:
            raise ValueError("profiler is not installed")
        del self.env.step  # drop the instance shadow, exposing the method
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    def _step(self) -> None:
        heap = self.env._heap
        if len(heap) > self.heap_peak:
            self.heap_peak = len(heap)
        t0 = _time.perf_counter()
        try:
            self._orig_step()
        finally:
            self.wall_seconds += _time.perf_counter() - t0
            self.events_processed += 1
            if len(heap) > self.heap_peak:
                self.heap_peak = len(heap)

    def report(self) -> EngineProfile:
        """Snapshot the counters as a frozen :class:`EngineProfile`."""
        span = self.env.now - self._start_sim
        return EngineProfile(
            events_processed=self.events_processed,
            heap_peak=self.heap_peak,
            sim_time=span if span > 0 else ZERO,
            wall_seconds=self.wall_seconds,
        )
