"""Run distributed protocols on a postal machine.

:func:`run_protocol` instantiates a fresh environment and
:class:`~repro.postal.machine.PostalSystem`, starts one process per
processor from the protocol's ``program``, runs to quiescence, and returns
a :class:`ProtocolResult` bundling the realized schedule (validated for
broadcast-semantics protocols under the strict policy), the completion
time, run metrics folded live from the trace stream
(:class:`~repro.obs.metrics.RunMetrics`), and the finished system for
trace/port inspection.

Three execution lanes share this entry point:

* ``backend="exact"`` (default) — the general discrete-event engine
  (:mod:`repro.sim.engine`): ``Fraction`` clock, generator processes,
  live tracing.
* ``backend="turbo"`` — the integer-tick fast lane
  (:mod:`repro.turbo.fastsim`): the run's rational times are losslessly
  rescaled to ``int`` ticks, deliveries are direct calendar-queue
  callbacks, and the run is audited and measured on the integer columns
  of its run log.  Results are bit-identical to the exact lane for every
  registered protocol family (pinned by
  ``tests/test_turbo_equivalence.py``); a delay off the fixed tick grid,
  or a tick past int64, raises :class:`~repro.errors.TickDomainError`.
* ``backend="replay"`` — the vectorized plan tier
  (:mod:`repro.turbo.replay`): the protocol is *compiled* to a columnar
  :class:`~repro.plan.columns.SchedulePlan` (cached across runs by
  :func:`repro.plan.build_plan`) and executed as batched column passes —
  no event queue, no generators — then audited and measured on its
  integer columns, which must hold its ticks in int64
  (:class:`~repro.errors.TickDomainError` otherwise).  The schedule,
  completion, sends and ports are byte-identical to the other lanes
  (pinned by ``tests/test_replay_equivalence.py``).  The metrics differ
  only where a replay has nothing to count: no protocol program
  consumes a delivery, so ``total_consumed`` is 0, ``max_inbox_wait``
  is ``None`` and every inbox high-water mark and residual equals the
  processor's receive count.  Only protocols with a registered plan compiler and
  uniform latency qualify; anything else raises
  :class:`~repro.errors.InvalidParameterError`.

The exact lane audits its trace (:func:`~repro.postal.validator.
validate_run`, :func:`~repro.postal.validator.audit_ports`) and folds
its metrics live (:class:`~repro.obs.metrics.MetricsCollector`) — the
independent witness.  The turbo and replay lanes end in one columnar
tail, :func:`_finish`: the system's ``audit`` (one integer sweep plus,
for broadcasts, the Lemma 5 and Lemma 8 certificates), its counted
``run_metrics``, and completion and sends read off the columns.  Their
trace is built only when someone reads ``result.system.tracer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.core.schedule import Schedule
from repro.errors import InvalidParameterError
from repro.obs.metrics import MetricsCollector, RunMetrics
from repro.obs.profile import EngineProfile, EngineProfiler
from repro.postal.machine import ContentionPolicy, PostalSystem
from repro.postal.validator import audit_ports, schedule_from_trace, validate_run
from repro.sim.engine import Environment
from repro.sim.trace import Tracer
from repro.types import Time, ZERO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.turbo.fastsim import TurboSystem

__all__ = ["ProtocolResult", "run_protocol"]

#: Accepted values of ``run_protocol``'s *backend* argument.
BACKENDS = ("exact", "turbo", "replay")


def _protocol_from_family(
    family: str,
    n: "int | None",
    m: int,
    lam,
    *,
    policy: ContentionPolicy,
    backend: str,
):
    """Build a protocol from a family-name (or ``"auto"``) string, resolved
    through the family table
    (:func:`~repro.conformance.oracles.resolve_oracle`)."""
    # local imports: the tuner and the family table both sit above this
    # module in the import graph
    from repro.conformance.oracles import resolve_oracle
    from repro.tune.model import resolve_family
    from repro.types import as_time

    if n is None:
        raise InvalidParameterError(
            f"running protocol {family!r} by name requires n"
        )
    lam_t = as_time(lam)
    resolved = resolve_family(
        family, n, m, lam_t,
        policy=policy.value,
        require_plan=(backend == "replay"),
    )
    oracle = resolve_oracle(resolved, m, lam_t)
    oracle.check_applicable(n, m, lam_t)
    return oracle.protocol(n, m, lam_t)


@dataclass
class ProtocolResult:
    """Outcome of one protocol execution.

    Attributes:
        schedule: the realized schedule (``None`` for non-broadcast
            semantics or under the queued policy, where the broadcast
            schedule IR does not apply).
        completion_time: arrival of the last message.
        system: the (finished) postal system, for trace/port inspection.
        sends: total number of messages transmitted.
        metrics: exact run metrics — folded from the trace stream on
            the exact lane, counted on the integer columns on the turbo
            and replay lanes (``None`` when run with ``collect=False``).
        profile: engine profiling summary (``None`` unless requested
            with ``profile=True``).
    """

    schedule: Schedule | None
    completion_time: Time
    system: PostalSystem
    sends: int
    metrics: RunMetrics | None = None
    profile: EngineProfile | None = None


def run_protocol(
    protocol,
    *,
    policy: ContentionPolicy = ContentionPolicy.STRICT,
    validate: bool = True,
    collect: bool = True,
    profile: bool = False,
    backend: str = "exact",
    n: "int | None" = None,
    m: int = 1,
    lam=1,
) -> ProtocolResult:
    """Execute *protocol* (a :class:`repro.algorithms.base.Protocol`) on a
    fresh ``MPS(n, lambda)`` and audit the run.

    The simulation runs until no events remain (all processor programs
    finished and all messages delivered).

    Args:
        protocol: the distributed program to execute — either a
            :class:`~repro.algorithms.base.Protocol` instance, or a
            family-name string (``"BCAST"``, ``"PIPELINE"``,
            ``"DTREE-3"``, ``"auto"``, ``"auto:allgather"``, ...)
            resolved through the family table and, for auto specs, the
            :mod:`repro.tune` selector.  String protocols require *n* (and take *m* /
            *lam* from the keyword arguments).
        policy: receive-port contention policy.
        validate: audit the run against the postal model.
        collect: populate ``result.metrics`` (the exact lane attaches a
            live :class:`~repro.obs.metrics.MetricsCollector`; the turbo
            and replay lanes count on their columns).
        profile: install an :class:`~repro.obs.profile.EngineProfiler`
            and populate ``result.profile`` (exact backend only).
        backend: ``"exact"`` for the general engine, ``"turbo"`` for the
            integer-tick fast lane (identical results, see
            :mod:`repro.turbo`), ``"replay"`` for the vectorized plan
            tier (plan-compilable protocols only).
        n: machine size (string protocols only).
        m: message count (string protocols only).
        lam: latency (string protocols only).
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if isinstance(protocol, str):
        protocol = _protocol_from_family(
            protocol, n, m, lam, policy=policy, backend=backend
        )
    if backend == "replay":
        return _run_protocol_replay(
            protocol,
            policy=policy,
            validate=validate,
            collect=collect,
            profile=profile,
        )
    if backend == "turbo":
        return _run_protocol_turbo(
            protocol,
            policy=policy,
            validate=validate,
            collect=collect,
            profile=profile,
        )
    env = Environment()
    latency_fn = getattr(protocol, "latency_fn", None)
    tracer = Tracer()
    collector = MetricsCollector().attach(tracer) if collect else None
    profiler = EngineProfiler(env) if profile else None
    system = PostalSystem(
        env,
        protocol.n,
        protocol.lam,
        policy=policy,
        tracer=tracer,
        latency=latency_fn,
    )
    for proc in range(protocol.n):
        gen = protocol.program(proc, system)
        if gen is not None:
            env.process(gen)
    env.run()

    is_broadcast = (
        getattr(protocol, "semantics", "broadcast") == "broadcast"
        and latency_fn is None
    )
    strict = policy is ContentionPolicy.STRICT

    schedule: Schedule | None = None
    if is_broadcast and strict:
        if validate:
            schedule = validate_run(system, m=protocol.m, root=protocol.root)
        else:
            schedule = schedule_from_trace(
                system, m=protocol.m, root=protocol.root, validate=False
            )
        completion = schedule.completion_time()
        sends = len(schedule)
    else:
        if validate:
            audit_ports(system)
        deliveries = system.tracer.records("deliver")
        completion = max(
            (rec.data.arrived_at for rec in deliveries), default=ZERO
        )
        sends = len(system.tracer.records("send"))

    metrics: RunMetrics | None = None
    if collector is not None:
        metrics = collector.finalize(n=system.n, lam=system.lam)
        collector.detach()
    engine_profile: EngineProfile | None = None
    if profiler is not None:
        engine_profile = profiler.report()
        profiler.uninstall()
    return ProtocolResult(
        schedule=schedule,
        completion_time=completion,
        system=system,
        sends=sends,
        metrics=metrics,
        profile=engine_profile,
    )


def _run_protocol_turbo(
    protocol,
    *,
    policy: ContentionPolicy,
    validate: bool,
    collect: bool,
    profile: bool,
) -> ProtocolResult:
    """The ``backend="turbo"`` lane of :func:`run_protocol`.

    The protocol's programs drive a
    :class:`~repro.turbo.fastsim.TurboSystem` whose clock is integer
    ticks (:func:`_run_turbo`); the run is then audited and measured on
    its run-log columns by the shared tail (:func:`_finish`), so a
    default call builds no :class:`~repro.sim.trace.TraceRecord`.
    """
    if profile:
        raise InvalidParameterError(
            "engine profiling requires backend='exact' (the turbo loop has "
            "no per-event step hook to instrument)"
        )
    system = _run_turbo(protocol, policy)
    return _finish(
        system,
        protocol,
        partial(system.audit, m=protocol.m, root=protocol.root),
        policy=policy,
        validate=validate,
        collect=collect,
    )


def _run_turbo(protocol, policy: ContentionPolicy) -> "TurboSystem":
    """Build a turbo system for *protocol*, start its programs and run
    them to quiescence; returns the finished
    :class:`~repro.turbo.fastsim.TurboSystem`."""
    from repro.turbo.fastsim import build_turbo

    system = build_turbo(
        protocol.n,
        protocol.lam,
        policy=policy,
        latency=getattr(protocol, "latency_fn", None),
    )
    for proc in range(protocol.n):
        gen = protocol.program(proc, system)
        if gen is not None:
            system.env.process(gen)
    system.env.run()
    return system


def _finish(
    system,
    protocol,
    audit,
    *,
    policy: ContentionPolicy,
    validate: bool,
    collect: bool,
) -> ProtocolResult:
    """The columnar tail of the turbo and replay lanes.

    *audit* is the finished *system*'s ``audit`` (bound to the
    protocol's broadcast when the system cannot know it).  Completion
    and sends come from the system's columns under both *validate*
    settings; strict uniform broadcasts also get their realized
    schedule, a columnar :class:`~repro.core.schedule.Schedule` over
    the same columns that builds its events only when read.
    """
    broadcast = (
        getattr(protocol, "semantics", "broadcast") == "broadcast"
        and getattr(protocol, "latency_fn", None) is None
    )
    if validate:
        audit(broadcast=broadcast)
    schedule: Schedule | None = None
    if broadcast and policy is ContentionPolicy.STRICT:
        schedule = system.realized_schedule(
            m=protocol.m, root=protocol.root, validate=False
        )
    return ProtocolResult(
        schedule=schedule,
        completion_time=system.completion_time,
        system=system,
        sends=system.send_count,
        metrics=system.run_metrics() if collect else None,
        profile=None,
    )


def _replay_family(protocol) -> str:
    """Map *protocol* to its compiled plan family name.

    Every registered family's protocol ``name`` matches its plan family,
    except the two parameterized ones: DTREE carries its resolved degree
    (``DTREE-<d>``) and PIPELINE resolves to the Lemma 14/16 variant
    inside :func:`~repro.plan.build.canonical_family`.
    """
    name = getattr(protocol, "name", None)
    if name is None:
        raise InvalidParameterError(
            f"{type(protocol).__name__} has no family name; the replay "
            "backend executes compiled plans only — use backend='turbo'"
        )
    if name == "DTREE":
        return f"DTREE-{protocol.d}"
    return name


def _run_protocol_replay(
    protocol,
    *,
    policy: ContentionPolicy,
    validate: bool,
    collect: bool,
    profile: bool,
) -> ProtocolResult:
    """The ``backend="replay"`` lane of :func:`run_protocol`.

    The protocol is not *stepped* at all: its family/parameters select a
    compiled (and cached) :class:`~repro.plan.columns.SchedulePlan`,
    which :func:`~repro.turbo.replay.replay_plan` executes as batched
    column passes.  The shared tail (:func:`_finish`) then reads the two
    realized integer columns (``starts``, ``arrivals``) directly:
    :meth:`ReplaySystem.audit <repro.turbo.replay.ReplaySystem.audit>`,
    :meth:`ReplaySystem.run_metrics
    <repro.turbo.replay.ReplaySystem.run_metrics>`, and the column
    maximum and row count.  No trace record is built unless someone
    reads ``result.system.tracer``.
    """
    from repro.plan import build_plan, canonical_family, plan_m
    from repro.turbo.replay import replay_plan

    if profile:
        raise InvalidParameterError(
            "engine profiling requires backend='exact' (a vectorized "
            "replay has no per-event step to instrument)"
        )
    if getattr(protocol, "latency_fn", None) is not None:
        raise InvalidParameterError(
            "the replay backend compiles uniform-latency plans only; "
            "pair-dependent latencies need backend='exact' or 'turbo'"
        )
    family = canonical_family(
        _replay_family(protocol), protocol.n, protocol.m, protocol.lam
    )
    system = replay_plan(
        build_plan(
            family,
            protocol.n,
            plan_m(family, protocol.n, protocol.m),
            protocol.lam,
        ),
        policy=policy,
    )
    if system.queued_contention:
        # the static plan queued at a receive port; the live protocol
        # would adapt its own send times instead (e.g. the gossip ring),
        # so a replay can no longer claim protocol equivalence
        raise InvalidParameterError(
            f"the compiled {family} plan is contention-adaptive under the "
            "queued policy (its static send times queue at receive ports, "
            "where the protocol would reschedule); use backend='turbo'"
        )

    return _finish(
        system,
        protocol,
        system.audit,
        policy=policy,
        validate=validate,
        collect=collect,
    )
