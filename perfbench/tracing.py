"""Layer spans for the traced run, recorded from the benchmark's own files.

:class:`LayerTrace` wraps the public functions of each layer where the
calling layer looks them up: a module attribute (``validate_run`` as
imported into :mod:`repro.postal.runner`) or a class attribute
(``ReplaySystem.flush_trace``).  Nothing in ``src/`` is edited, and
:meth:`LayerTrace.uninstall` restores every attribute.

Spans nest.  A layer's *self time* is its span's duration minus the time
of the spans opened inside it, so self times add up to the time spent
inside any layer, with nothing counted twice.  Counts (trace records,
events, plan bytes) are taken at the same boundaries.

``run_batch`` workers are forked after the patches are installed, so
they inherit them.  A worker attaches its own span times to the result
it returns; :meth:`LayerTrace.take_worker_times` moves them into
:attr:`LayerTrace.worker_s` before the results are compared.  Worker
time runs in parallel with the parent and is kept apart from the
parent's self times.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

_WORKER_ATTR = "_perfbench_worker_s"


class LayerTrace:
    """Nested layer spans with self times, plus counts."""

    def __init__(self):
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.worker_s: "defaultdict[str, float]" = defaultdict(float)
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self.heap_peak = 0
        self._stack: list = []  # [name, start, seconds in child spans]
        self._undo: list = []
        self._pid = os.getpid()

    # ----------------------------------------------------------- spans

    def open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[name] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def drop(self) -> None:
        """Discard the innermost open span without recording it."""
        self._stack.pop()

    def reset_stack(self) -> None:
        """Forget spans a raising call left open."""
        self._stack.clear()

    def spanned(self, name: str, fn, after=None):
        """*fn* inside a span; ``after(args, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # --------------------------------------------------------- patching

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        self.patch(owner, attr, self.spanned(name, getattr(owner, attr), after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def install(self) -> "LayerTrace":
        """Wrap every layer's public functions (README.md lists the layer
        each span belongs to)."""
        import repro.batch.runner as batch_runner
        import repro.batch.shared as batch_shared
        import repro.core.bcast as core_bcast
        import repro.core.dtree as core_dtree
        import repro.core.multi as core_multi
        import repro.plan.cache as plan_cache
        import repro.postal.runner as runner
        import repro.postal.validator as validator
        import repro.tune.model as tune_model
        import repro.turbo.fastsim as fastsim
        import repro.turbo.replay as replay
        from repro.plan.columns import SchedulePlan

        count = self.counts

        # replay lane: kernel passes, then the materialized views
        self.wrap(replay, "replay_plan", "replay.kernel")
        self.wrap(batch_runner, "replay_plan", "replay.kernel")
        self.patch(replay.ReplaySystem, "flush_trace", self._counted_flush(
            "replay.flush_trace", "replay.trace_records",
            replay.ReplaySystem.flush_trace,
        ))
        self.wrap(replay.ReplaySystem, "realized_schedule", "replay.materialize")
        self.wrap(replay.ReplaySystem, "_build_port_views", "replay.materialize")

        # turbo lane
        self.patch(fastsim.TurboEnvironment, "run",
                   self._counted_run(fastsim.TurboEnvironment.run))
        self.patch(fastsim.TurboSystem, "flush_trace", self._counted_flush(
            "turbo.flush_trace", "turbo.trace_records",
            fastsim.TurboSystem.flush_trace,
        ))
        self.wrap(fastsim.TurboSystem, "realized_schedule", "turbo.materialize")
        self.wrap(fastsim.TurboSystem, "_build_port_views", "turbo.materialize")

        # the audit, where the runner and the validator look it up
        self.wrap(runner, "validate_run", "validator.validate")
        self.wrap(runner, "audit_ports", "validator.audit_ports")
        self.wrap(validator, "audit_ports", "validator.audit_ports")

        # metrics: the collector's span runs from construction to finalize
        self.patch(runner, "MetricsCollector",
                   _traced_collector(self, runner.MetricsCollector))

        # exact engine, profiled by the repo's own EngineProfiler
        self.patch(runner, "Environment",
                   _traced_environment(self, runner.Environment))

        # plan compiler behind the plan cache
        def plan_bytes(args, plan):
            count["plan.column_bytes"] += plan.nbytes

        self.wrap(plan_cache, "compile_plan", "plan.build", after=plan_bytes)

        # batch tier
        def shared_bytes(args, handle):
            count["batch.shared_bytes"] += 4 * 8 * handle.count

        self.wrap(batch_runner, "_resolve_auto", "batch.resolve")
        self.wrap(SchedulePlan, "to_shared", "batch.share", after=shared_bytes)
        self.wrap(batch_shared, "release_shared", "batch.share")
        self.wrap(batch_runner, "parallel_map", "batch.map")
        self.patch(batch_runner, "_batch_worker",
                   self._worker_side(batch_runner._batch_worker))

        # tuner: selection time, and how many candidates it calibrated
        def calibrations(args, ranking):
            count["tune.calibrations"] += sum(
                1 for c in ranking if c.measured is not None
            )

        self.wrap(tune_model, "select_protocol", "tune.select")
        self.patch(tune_model, "rank", _after(tune_model.rank, calibrations))

        # the Fraction builders the benchmark calls
        self.wrap(core_bcast, "bcast_schedule", "core.build")
        self.wrap(core_multi, "pipeline_schedule", "core.build")
        self.wrap(core_dtree, "dtree_schedule", "core.build")
        return self

    # ------------------------------------------------------ count hooks

    def _counted_flush(self, name: str, key: str, flush):
        # flush_trace is idempotent: count the records each call added
        spanned = self.spanned(name, flush)

        @functools.wraps(flush)
        def wrapper(system):
            before = len(system.tracer)
            tracer = spanned(system)
            self.counts[key] += len(tracer) - before
            return tracer

        return wrapper

    def _counted_run(self, run):
        @functools.wraps(run)
        def wrapper(env, *args, **kwargs):
            seq = env._seq
            self.open("turbo.run")
            try:
                return run(env, *args, **kwargs)
            finally:
                self.close()
                self.counts["turbo.events"] += env._seq - seq

        return wrapper

    def _worker_side(self, worker):
        @functools.wraps(worker)
        def wrapper(item):
            if os.getpid() == self._pid:
                return worker(item)
            before = dict(self.self_s)
            result = worker(item)
            spent = {
                k: v - before.get(k, 0.0) for k, v in self.self_s.items()
            }
            object.__setattr__(result, _WORKER_ATTR, spent)
            return result

        return wrapper

    def take_worker_times(self, results) -> None:
        """Move worker span times off *results* into :attr:`worker_s`."""
        for result in results:
            spent = vars(result).pop(_WORKER_ATTR, None)
            for k, v in (spent or {}).items():
                self.worker_s[k] += v


def _after(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    return wrapper


def _traced_collector(trace: LayerTrace, base):
    """A ``MetricsCollector`` whose span covers construction to
    ``finalize``: on the turbo and replay lanes the runner builds it and
    feeds it the flushed trace right away.  On the exact lane it is
    attached to the live tracer and folds records in during the engine
    run, so only ``finalize`` is timed there."""

    class TracedCollector(base):
        def __init__(self):
            super().__init__()
            self._live = False
            trace.open("metrics.collect")

        def attach(self, tracer, **kwargs):
            trace.drop()
            self._live = True
            return super().attach(tracer, **kwargs)

        def finalize(self, **kwargs):
            if self._live:
                trace.open("metrics.collect")
            try:
                return super().finalize(**kwargs)
            finally:
                trace.close()

    return TracedCollector


def _traced_environment(trace: LayerTrace, base):
    """An ``Environment`` whose ``run`` is a span, profiled by
    :class:`~repro.obs.profile.EngineProfiler` for events and heap peak."""
    from repro.obs.profile import EngineProfiler

    class TracedEnvironment(base):
        def run(self, until=None):
            profiler = EngineProfiler(self)
            trace.open("engine.run")
            try:
                return super().run(until)
            finally:
                trace.close()
                report = profiler.report()
                profiler.uninstall()
                trace.counts["engine.events"] += report.events_processed
                trace.heap_peak = max(trace.heap_peak, report.heap_peak)

    return TracedEnvironment
