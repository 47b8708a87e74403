"""Parity of the exact lane's witness on integer ticks with its
``Fraction`` form.

:mod:`repro.postal.validator` and :class:`repro.obs.metrics.
MetricsCollector` compare and fold exact integer ticks.  This module
keeps their ``Fraction`` forms as the reference: the trace checks
(``schedule_from_trace`` through ``SendEvent``\\ s, ``audit_ports``,
``audit_deliveries``, ``audit_broadcast_coverage``) and the collector's
per-record fold.  Seeded mutations of exact runs' port logs and
delivery records must make both forms raise the same error type with
the same text, or both pass; the collector must give an equal
:class:`~repro.obs.metrics.RunMetrics` on the runs, on the mutated
traces and on hand-built tracers.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from repro.core.schedule import Schedule, SendEvent
from repro.errors import ModelError, ScheduleError, SimultaneousIOError
from repro.extensions.hierarchical import (
    HierarchicalBcastProtocol,
    HierarchicalSystem,
)
from repro.obs.metrics import MetricsCollector, RunMetrics, collect_metrics
from repro.postal import validator
from repro.postal.machine import ContentionPolicy
from repro.postal.message import Message
from repro.postal.runner import run_protocol
from repro.sim.trace import TraceRecord, Tracer
from repro.types import ONE, Time, ZERO, time_repr

# ------------------------------------------------ the Fraction reference


def ref_schedule_from_trace(system, *, m, root=0, validate=True):
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


def ref_audit_ports(system):
    for kind, ports in (
        ("send", [system.send_port(p) for p in range(system.n)]),
        ("recv", [system.recv_port(p) for p in range(system.n)]),
    ):
        for port in ports:
            prev = None
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


def ref_audit_deliveries(system):
    strict = system.policy is ContentionPolicy.STRICT
    by_dst = {}
    for rec in system.tracer.records("deliver"):
        by_dst.setdefault(rec.data.dst, []).append(rec.data)
    for dst, msgs in by_dst.items():
        dues = []
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
            clock = None
            finishes = []
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


def ref_audit_broadcast_coverage(system, *, m, root=0):
    held_from = {(root, k): ZERO for k in range(m)}
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
        (p, k) for p in range(system.n) for k in range(m) if (p, k) not in held_from
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


def ref_validate_run(system, *, m, root=0):
    if system.policy is ContentionPolicy.STRICT and system.uniform_latency:
        sched = ref_schedule_from_trace(system, m=m, root=root, validate=True)
        ref_audit_ports(system)
        ref_audit_deliveries(system)
        return sched
    ref_audit_ports(system)
    ref_audit_deliveries(system)
    ref_audit_broadcast_coverage(system, m=m, root=root)
    return None


class RefCollector(MetricsCollector):
    """The collector's ``Fraction`` fold: a latency histogram, sum,
    makespan and longest wait updated per record."""

    def reset(self):
        super().reset()
        self._latency = {}
        self._latency_sum = ZERO
        self._latency_count = 0
        self._max_wait = None
        self._makespan = ZERO

    def on_record(self, rec):
        kind = rec.kind
        if kind == "send":
            src = rec.data["src"]
            self._sends[src] = self._sends.get(src, 0) + 1
        elif kind == "deliver":
            msg = rec.data
            dst = msg.dst
            self._recvs[dst] = self._recvs.get(dst, 0) + 1
            depth = self._depth.get(dst, 0) + 1
            self._depth[dst] = depth
            if depth > self._high_water.get(dst, 0):
                self._high_water[dst] = depth
            latency = msg.arrived_at - msg.sent_at
            self._latency[latency] = self._latency.get(latency, 0) + 1
            self._latency_sum += latency
            self._latency_count += 1
            if msg.arrived_at > self._makespan:
                self._makespan = msg.arrived_at
        elif kind == "consume":
            proc = rec.data["proc"]
            self._consumed[proc] = self._consumed.get(proc, 0) + 1
            self._depth[proc] = self._depth.get(proc, 0) - 1
            waited = rec.data["waited"]
            if self._max_wait is None or waited > self._max_wait:
                self._max_wait = waited
        elif kind == "drop":
            self._drops += 1

    def finalize(self, *, n, lam=None):
        def per_proc(counts):
            return tuple(counts.get(p, 0) for p in range(n))

        sends = per_proc(self._sends)
        recvs = per_proc(self._recvs)
        latencies = sorted(self._latency)
        mean = (
            self._latency_sum / self._latency_count
            if self._latency_count
            else None
        )
        return RunMetrics(
            n=n,
            lam=lam,
            makespan=self._makespan,
            total_sends=sum(sends),
            total_deliveries=sum(recvs),
            total_consumed=sum(self._consumed.values()),
            total_drops=self._drops,
            sends=sends,
            receives=recvs,
            inbox_high_water=per_proc(self._high_water),
            inbox_residual=per_proc(self._depth),
            latency_histogram=tuple(
                (latency, self._latency[latency]) for latency in latencies
            ),
            min_latency=latencies[0] if latencies else None,
            max_latency=latencies[-1] if latencies else None,
            mean_latency=mean,
            max_inbox_wait=self._max_wait,
        )


def ref_collect_metrics(system):
    collector = RefCollector()
    for rec in system.tracer:
        collector.on_record(rec)
    return collector.finalize(n=system.n, lam=system.lam)


# ---------------------------------------------------------- comparison

#: The times a RunMetrics holds besides ``lam``, which it passes through.
TIMES = ("makespan", "min_latency", "max_latency", "mean_latency", "max_inbox_wait")


def assert_same_metrics(got: RunMetrics, want: RunMetrics) -> None:
    """Equal field for field, and every time a :class:`Fraction` — the
    tick fold builds one per value even where a hand-built trace holds
    plain ints, which the reference passes through."""
    assert got == want and hash(got) == hash(want)
    assert got.to_dict() == want.to_dict()
    for field in dataclasses.fields(RunMetrics):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b, field.name
        if field.name in TIMES:
            assert (a is None) == (b is None), field.name
            assert a is None or type(a) is Fraction, field.name
        elif field.name == "latency_histogram":
            for (t, count), (_, ref_count) in zip(a, b):
                assert type(t) is Fraction and type(count) is type(ref_count)
        else:
            assert type(a) is type(b), field.name


def outcome(fn):
    """What *fn* did: ``("ok", value)`` or ``(error type, error text)``."""
    try:
        return ("ok", fn())
    except Exception as exc:  # any error: its type and text are compared
        return (type(exc), str(exc))


def completion(schedule):
    return outcome(schedule.completion_time)


# ---------------------------------------------------------------- runs

LAMS = ("1", "5/2", "7/3")
FAMILIES = (
    ("BCAST", 10, 1, "strict"),
    ("PIPELINE-2", 9, 3, "strict"),
    ("DTREE-BINARY", 9, 3, "strict"),
    ("ALLGATHER", 6, 1, "strict"),
    ("REDUCE", 10, 1, "strict"),
    ("GOSSIP-RING", 6, 1, "queued"),
    # the root sends on whole times only, so lambda alone sets the
    # schedule's scale
    ("STAR", 6, 1, "strict"),
)
#: every family at every lambda, and one pair-latency run: a hierarchy
#: whose local links take 3/2 and global ones 7/3 (ticks of 1/6)
RUNS = [(fam, n, m, lam, policy) for fam, n, m, policy in FAMILIES for lam in LAMS]
RUNS.append(("HIER-BCAST", 12, 1, "3/2+7/3", "strict"))


def run_id(run):
    fam, n, m, lam, policy = run
    return f"{fam}-n{n}-m{m}-{lam}-{policy}"


def execute(run):
    """A finished exact run and its protocol's ``(m, root)``."""
    fam, n, m, lam, policy = run
    if fam == "HIER-BCAST":
        proto = HierarchicalBcastProtocol(HierarchicalSystem.of(3, 4, "3/2", "7/3"))
        result = run_protocol(proto)
        return result, proto.m, proto.root
    result = run_protocol(
        fam, n=n, m=m, lam=lam, policy=ContentionPolicy(policy)
    )
    return result, m, 0


def run_scale(system) -> int:
    """The least tick scale of every time the run traced or logged."""
    times = [system.lam]
    for rec in system.tracer:
        times.append(rec.time)
    for p in range(system.n):
        for port in (system.send_port(p), system.recv_port(p)):
            times.extend(t for interval in port.busy_intervals for t in interval)
    return math.lcm(*{t.denominator for t in times})


# ------------------------------------------------------------ mutations

MUTATIONS = (
    "shift-interval",
    "shift-send",
    "shift-sent-at",
    "shift-arrival",
    "drop-interval",
    "dup-interval",
    "drop-record",
    "dup-record",
    "swap-arrivals",
)


def mutate(rng: random.Random, system, tick: Fraction) -> str:
    """Apply one seeded mutation to *system*'s records in place; returns
    what it did.  A time moves by one *tick* or by 1/7, either way."""
    records = system.tracer._records
    logs = [
        port._busy_log
        for p in range(system.n)
        for port in (system.send_port(p), system.recv_port(p))
        if port._busy_log
    ]
    delta = rng.choice((tick, -tick, Fraction(1, 7), -Fraction(1, 7)))
    kind = rng.choice(MUTATIONS)

    def pick(*kinds):
        return rng.choice([i for i, r in enumerate(records) if r.kind in kinds])

    if kind == "shift-interval":
        log = rng.choice(logs)
        i = rng.randrange(len(log))
        s, e = log[i]
        end = rng.choice(("start", "end", "both"))
        log[i] = (
            s + delta if end != "end" else s,
            e + delta if end != "start" else e,
        )
        return f"{kind} {end} by {delta}"
    if kind == "shift-send":
        i = pick("send")
        rec = records[i]
        records[i] = TraceRecord(rec.time + delta, "send", rec.data)
        return f"{kind} #{i} by {delta}"
    if kind in ("shift-sent-at", "shift-arrival"):
        i = pick("deliver")
        msg = records[i].data
        if kind == "shift-sent-at":
            msg = dataclasses.replace(msg, sent_at=msg.sent_at + delta)
        else:
            msg = dataclasses.replace(msg, arrived_at=msg.arrived_at + delta)
        records[i] = TraceRecord(msg.arrived_at, "deliver", msg)
        return f"{kind} #{i} by {delta}"
    if kind in ("drop-interval", "dup-interval"):
        log = rng.choice(logs)
        i = rng.randrange(len(log))
        if kind == "drop-interval":
            del log[i]
        else:
            log.insert(i, log[i])
        return f"{kind} #{i}"
    if kind in ("drop-record", "dup-record"):
        i = pick("send", "deliver", "consume")
        what = f"{kind} #{i} ({records[i].kind})"
        if kind == "drop-record":
            del records[i]
        else:
            records.insert(i, records[i])
        return what
    # swap the arrivals of two deliveries that arrive at different times
    deliveries = [i for i, r in enumerate(records) if r.kind == "deliver"]
    i, j = rng.sample(deliveries, 2)
    a, b = records[i].data, records[j].data
    if a.arrived_at == b.arrived_at:
        return "swap-arrivals (equal, no change)"
    a2 = dataclasses.replace(a, arrived_at=b.arrived_at)
    b2 = dataclasses.replace(b, arrived_at=a.arrived_at)
    records[i] = TraceRecord(a2.arrived_at, "deliver", a2)
    records[j] = TraceRecord(b2.arrived_at, "deliver", b2)
    return f"{kind} #{i} #{j}"


class Snapshot:
    """A finished system's trace and port logs, restorable in place."""

    def __init__(self, system):
        self.system = system
        self.records = list(system.tracer._records)
        self.logs = [
            (port, list(port._busy_log))
            for p in range(system.n)
            for port in (system.send_port(p), system.recv_port(p))
        ]

    def restore(self):
        self.system.tracer._records[:] = self.records
        for port, log in self.logs:
            port._busy_log[:] = log


def witness_outcomes(system, m, root):
    """Run every check both ways; returns ``(check, error text)`` for
    each check the reference failed.  Fails unless the two forms agree
    on every check and on the collected metrics."""
    checks = {
        "audit_ports": (validator.audit_ports, ref_audit_ports, {}),
        "audit_deliveries": (
            validator.audit_deliveries, ref_audit_deliveries, {}
        ),
        "audit_broadcast_coverage": (
            validator.audit_broadcast_coverage,
            ref_audit_broadcast_coverage,
            {"m": m, "root": root},
        ),
        "validate_run": (
            validator.validate_run, ref_validate_run, {"m": m, "root": root}
        ),
    }
    for check in (True, False):
        checks[f"schedule_from_trace[validate={check}]"] = (
            validator.schedule_from_trace,
            ref_schedule_from_trace,
            {"m": m, "root": root, "validate": check},
        )
    failed = []
    for name, (tick_fn, ref_fn, kwargs) in checks.items():
        got = outcome(lambda: tick_fn(system, **kwargs))
        want = outcome(lambda: ref_fn(system, **kwargs))
        if want[0] != "ok":
            assert got == want, name
            failed.append((name, want[1]))
            continue
        assert got[0] == "ok", (name, got)
        if isinstance(want[1], Schedule):
            assert got[1] == want[1], name
            assert completion(got[1]) == completion(want[1]), name
        else:
            assert got[1] is want[1] is None, name
    assert_same_metrics(collect_metrics(system), ref_collect_metrics(system))
    return failed


#: mutations per run; the seed is the run's index in RUNS
MUTANTS = 60


#: the checks every unmutated run passes; broadcasts pass them all
TRACE_CHECKS = {"audit_ports", "audit_deliveries"}
BROADCASTS = {"BCAST", "PIPELINE-2", "DTREE-BINARY", "STAR", "HIER-BCAST"}


@lru_cache(maxsize=None)
def fuzz(run) -> tuple[str, ...]:
    """Every error text the reference raised on *run*'s mutants (each
    mutant is checked for parity on the way)."""
    result, m, root = execute(run)
    system = result.system
    snapshot = Snapshot(system)
    tick = Fraction(1, run_scale(system))
    rng = random.Random(RUNS.index(run))
    failed = dict(witness_outcomes(system, m, root))
    assert not failed.keys() & TRACE_CHECKS, failed
    if run[0] in BROADCASTS:
        # a pair-latency run has no schedule to rebuild
        assert all(
            text.startswith("schedule reconstruction requires")
            for text in failed.values()
        ), failed
    texts = []
    for k in range(MUTANTS):
        snapshot.restore()
        what = mutate(rng, system, tick)
        try:
            texts.extend(text for _, text in witness_outcomes(system, m, root))
        except AssertionError as exc:
            raise AssertionError(f"mutant {k}: {what}: {exc}") from exc
    snapshot.restore()
    return tuple(texts)


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_tick_witness_matches_the_fraction_reference(run):
    assert fuzz(run)  # some mutants were caught


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_live_metrics_match_the_fraction_fold(run):
    result, _, _ = execute(run)
    want = ref_collect_metrics(result.system)
    assert_same_metrics(result.metrics, want)
    assert_same_metrics(collect_metrics(result.system), want)


def test_every_kind_of_error_is_reached():
    """The fuzz is not vacuous: across the runs, the mutants reach every
    trace check's error and the schedule audit's."""
    texts = [text for run in RUNS for text in fuzz(run)]
    for needle in (
        "is not one unit",
        "driven twice at once",
        "arrives before sent_at + lambda",
        "arrival differs from sent_at + lambda",
        "do not match the recv-port busy log",
        "work-conserving FIFO completion",
        "more than once",
        "incomplete broadcast",
        "only holds it from",
        "never obtains it",
    ):
        assert any(needle in text for text in texts), needle


# ---------------------------------------------------- hand-built traces


def _msg(k, src, dst, sent, arrived):
    return Message(k, src, dst, sent, arrived)


def _feed(tracer, records):
    for time, kind, data in records:
        tracer.emit(time, kind, data)


def _both(records, split=0):
    """The tick collector and the reference, both attached to one tracer
    after its first *split* records were emitted and fed the rest."""
    tracer = Tracer()
    _feed(tracer, records[:split])
    got = MetricsCollector().attach(tracer)
    want = RefCollector().attach(tracer)
    _feed(tracer, records[split:])
    return got, want


INT_TIMES = [
    (0, "send", {"src": 0, "dst": 1, "msg": 0}),
    (1, "send", {"src": 0, "dst": 2, "msg": 0}),
    (2, "deliver", _msg(0, 0, 1, 0, 2)),
    (2, "send", {"src": 1, "dst": 3, "msg": 0}),
    (3, "deliver", _msg(0, 0, 2, 1, 3)),
    (4, "consume", {"proc": 1, "msg": 0, "src": 0, "waited": 2}),
    (5, "deliver", _msg(0, 1, 3, 2, 5)),
    (5, "consume", {"proc": 2, "msg": 0, "src": 0, "waited": 2}),
]

F = Fraction
MIXED = [
    (F(0), "send", {"src": 0, "dst": 1, "msg": 0}),
    (F(1), "send", {"src": 0, "dst": 2, "msg": 0}),
    (F(3, 2), "deliver", _msg(0, 0, 1, F(0), F(3, 2))),
    (F(3, 2), "send", {"src": 1, "dst": 3, "msg": 0}),
    (F(10, 3), "deliver", _msg(0, 0, 2, F(1), F(10, 3))),
    (F(7, 2), "consume", {"proc": 1, "msg": 0, "src": 0, "waited": F(2)}),
    (F(23, 6), "deliver", _msg(0, 1, 3, F(3, 2), F(23, 6))),
    (F(4), "consume", {"proc": 2, "msg": 0, "src": 0, "waited": F(2, 3)}),
    # the longest wait falls on sevenths, a denominator no time above has
    (F(251, 42), "consume", {"proc": 3, "msg": 0, "src": 1, "waited": F(15, 7)}),
]

FAULTY = [
    (F(0), "send", {"src": 0, "dst": 1, "msg": 0}),
    (F(0), "drop", {"src": 0, "dst": 1, "msg": 0, "reason": "loss"}),
    (F(3), "send", {"src": 0, "dst": 1, "msg": 0, "retransmit": True}),
    (F(11, 2), "deliver", _msg(0, 0, 1, F(3), F(11, 2))),
    (F(4), "send", {"src": 0, "dst": 2, "msg": 0}),
    (F(4), "drop", {"src": 0, "dst": 2, "msg": 0, "reason": "crash"}),
    (F(6), "consume", {"proc": 1, "msg": 0, "src": 0, "waited": F(1, 2)}),
]


@pytest.mark.parametrize(
    "records, n, lam",
    [
        (INT_TIMES, 4, 2),
        (MIXED, 4, F(3, 2)),
        (FAULTY, 3, F(5, 2)),
        ([], 3, None),
        ([], 1, F(7, 3)),
    ],
    ids=[
        "int-times", "latencies-3/2-and-7/3", "drop-and-retransmit", "empty",
        "empty-n1",
    ],
)
def test_hand_built_traces_match_the_fraction_fold(records, n, lam):
    got, want = _both(records)
    assert_same_metrics(got.finalize(n=n, lam=lam), want.finalize(n=n, lam=lam))


def test_finalize_twice_and_after_more_records():
    tracer = Tracer()
    got = MetricsCollector().attach(tracer)
    want = RefCollector().attach(tracer)
    _feed(tracer, MIXED[:5])
    first = got.finalize(n=4, lam=F(3, 2))
    assert_same_metrics(first, want.finalize(n=4, lam=F(3, 2)))
    assert_same_metrics(got.finalize(n=4, lam=F(3, 2)), first)
    _feed(tracer, MIXED[5:])
    later = got.finalize(n=4, lam=F(3, 2))
    assert_same_metrics(later, want.finalize(n=4, lam=F(3, 2)))
    assert later != first
    got.reset()
    want.reset()
    assert_same_metrics(got.finalize(n=4), want.finalize(n=4))


@pytest.mark.parametrize("split", [1, 4, len(MIXED)])
def test_attach_replays_a_half_filled_tracer(split):
    got, want = _both(MIXED, split)
    assert_same_metrics(got.finalize(n=4), want.finalize(n=4))
    assert_same_metrics(got.finalize(n=4), _both(MIXED)[1].finalize(n=4))


def test_int_times_come_out_as_fractions():
    got, want = _both(INT_TIMES)
    metrics = got.finalize(n=4)
    assert metrics.makespan == 5 and type(metrics.makespan) is Fraction
    # the reference passes a trace's own ints through
    assert type(want.finalize(n=4).makespan) is int
    assert metrics.mean_latency == Time(7, 3)
