"""The turbo lane's columnar audit, counted metrics and lazy trace.

``run_protocol(..., backend="turbo")`` checks and measures a run on its
run-log columns: every ``DELIVER`` row points at its ``SEND`` row, so
the log holds each send's start and arrival tick.  This suite pins:

* every branch of the sweep (:func:`repro.plan.columns.audit_columns`)
  a turbo run reaches — including the queued policy's work-conservation
  check and the pair-latency window order — and of the Lemma 5 /
  Lemma 8 certificates it ends with.  A correct run never reaches them,
  so each test tampers a finished run's log into one violation, or hands
  the certificates (:func:`repro.plan.columns.check_certificates`)
  tampered arrivals;
* the counted :class:`~repro.obs.metrics.RunMetrics` against the trace
  fold, consume fields included, under both policies;
* the lazy tracer: nothing is built by a default run, the built trace
  still passes ``validate_run``, and reading it from inside a wrapper of
  ``flush_trace`` does not recurse.
"""

from fractions import Fraction

import pytest

import repro.postal.runner as runner
from repro.conformance.oracles import families, get_oracle
from repro.errors import ModelError, ScheduleError, SimultaneousIOError
from repro.extensions.hierarchical import (
    HierarchicalBcastProtocol,
    HierarchicalSystem,
)
from repro.obs.metrics import collect_metrics
from repro.plan.columns import check_certificates
from repro.postal.machine import ContentionPolicy
from repro.postal.runner import run_protocol
from repro.postal.validator import validate_run
from repro.turbo import TurboSystem
from repro.turbo.runlog import DELIVER, DROP_LOSS, SEND
from repro.types import as_time

STRICT = ContentionPolicy.STRICT
QUEUED = ContentionPolicy.QUEUED


def _finished(protocol, n=None, m=1, lam="2", policy=STRICT):
    """A finished turbo system, neither audited nor measured."""
    return run_protocol(
        protocol, n=n, m=m, lam=lam, policy=policy, backend="turbo",
        validate=False, collect=False,
    ).system


def _rows(system, code):
    log = system._log
    return [i for i in range(len(log)) if log.codes[i] == code]


def _delivery_of(system, send_row):
    """The ``DELIVER`` row whose ``c`` column points at *send_row*."""
    log = system._log
    (row,) = [j for j in _rows(system, DELIVER) if log.c[j] == send_row]
    return row


def _move(system, send_row, start, arrival):
    """Tamper one send's start and arrival ticks in the log."""
    log = system._log
    log.ticks[send_row] = start
    log.ticks[_delivery_of(system, send_row)] = arrival


class _Collider:
    """p0 and p1 both send to p2 at t=0: a receive-port conflict, illegal
    under the strict policy and queued under the queued one."""

    name = "COLLIDER"
    semantics = "p2p"
    n, m, root = 3, 1, 0
    lam = as_time(2)

    def program(self, proc, system):
        if proc == 2:
            return None

        def prog():
            yield system.send(proc, 2, 0)

        return prog()


class _CrossTraffic:
    """p0 and p1 both send to p2, p0 first over a slow link: p1's message
    opens its receive window first, so window order is not start order.
    """

    name = "CROSS"
    semantics = "p2p"
    n, m, root = 3, 1, 0
    lam = as_time(1)

    @staticmethod
    def latency_fn(src, dst):
        return 5 if src == 0 else 1

    def program(self, proc, system):
        if proc == 2:
            return None

        def prog():
            if proc == 1:
                yield system.env.timeout(2)
            yield system.send(proc, 2, 0)

        return prog()


# ------------------------------------------------------------ the sweep


def test_sweep_rejects_a_strict_arrival_off_its_due_tick():
    system = _finished("BCAST", n=8)
    log = system._log
    log.ticks[_rows(system, DELIVER)[-1]] += system.domain.scale
    with pytest.raises(ScheduleError, match="not at sent_at \\+ lambda"):
        system.audit()


def test_sweep_rejects_an_early_queued_arrival():
    system = _finished("BCAST", n=8, policy=QUEUED)
    system._log.ticks[_rows(system, DELIVER)[-1]] -= 1
    with pytest.raises(ScheduleError, match="before sent_at \\+ lambda"):
        system.audit()


def test_sweep_rejects_a_queued_delivery_that_idles():
    # no other message queues at the receiver: a late arrival has no
    # contention to blame
    system = _finished("BCAST", n=8, policy=QUEUED)
    system._log.ticks[_rows(system, DELIVER)[-1]] += system.domain.scale
    with pytest.raises(ModelError, match="work-conserving FIFO"):
        system.audit()


def test_sweep_accepts_queued_contention():
    # two messages due at p2 together: the second waits one unit in the
    # receive queue, and the FIFO completion explains it
    result = run_protocol(_Collider(), policy=QUEUED, backend="turbo")
    system = result.system
    log = system._log
    late = [
        j for j in _rows(system, DELIVER)
        if log.ticks[j] > log.ticks[log.c[j]] + system._lam_ticks
    ]
    assert len(late) == 1
    system.audit(broadcast=False)
    assert result.metrics == collect_metrics(system)


def test_sweep_rejects_a_send_port_collision():
    system = _finished("BCAST", n=8)
    log = system._log
    first, second = [i for i in _rows(system, SEND) if log.a[i] == 0][:2]
    _move(system, second, log.ticks[first], log.ticks[first] + system._lam_ticks)
    with pytest.raises(SimultaneousIOError, match="two sends"):
        system.audit()


def test_sweep_rejects_a_receive_port_collision():
    # GATHER: every processor sends to the root; pull one send onto
    # another's so the root receives both in one window
    system = _finished("GATHER", n=3)
    log = system._log
    first, second = _rows(system, SEND)[:2]
    assert log.b[first] == log.b[second] and log.a[first] != log.a[second]
    _move(
        system, second, log.ticks[first],
        log.ticks[_delivery_of(system, first)],
    )
    with pytest.raises(SimultaneousIOError, match="two receives"):
        system.audit(broadcast=False)


def test_sweep_rejects_a_duplicate_delivery():
    system = _finished("BCAST", n=8, lam="5/2")
    log = system._log
    first, second = sorted(_rows(system, SEND), key=log.ticks.__getitem__)[:2]
    log.b[second] = log.b[first]  # re-deliver to the same processor
    with pytest.raises(ScheduleError, match="more than once"):
        system.audit()


def test_sweep_rejects_a_sender_that_does_not_hold_the_message():
    system = _finished("BCAST", n=8)
    log = system._log
    held = {log.b[j]: log.ticks[j] for j in _rows(system, DELIVER)}
    # a relay's first send, pulled one unit before its own arrival
    row = next(
        i for i in _rows(system, SEND)
        if log.a[i] != 0 and log.ticks[i] == held[log.a[i]]
    )
    one = system.domain.scale
    _move(system, row, log.ticks[row] - one,
          log.ticks[row] - one + system._lam_ticks)
    with pytest.raises(ScheduleError, match="only holds it from|never obtains"):
        system.audit()


def test_sweep_rejects_incomplete_coverage():
    # the last send informs a leaf; erase it and its delivery
    system = _finished("BCAST", n=8)
    log = system._log
    last = max(_rows(system, SEND), key=log.ticks.__getitem__)
    log.codes[_delivery_of(system, last)] = DROP_LOSS
    log.codes[last] = DROP_LOSS
    with pytest.raises(ScheduleError, match="incomplete broadcast"):
        system.audit()


def test_non_broadcast_message_ids_are_not_bounded_by_m():
    # ALLTOALL at n = 8 sends ids 0..6 with m = 1; the default audit passes
    result = run_protocol("ALLTOALL", n=8, lam="2", backend="turbo")
    log = result.system._log
    assert max(log.c[i] for i in _rows(result.system, SEND)) == 6


def test_run_protocol_audits_turbo_runs_by_default(monkeypatch):
    calls = []
    monkeypatch.setattr(
        TurboSystem, "audit",
        lambda self, broadcast, m, root: calls.append((broadcast, m, root)),
    )
    run_protocol("PIPELINE-2", n=8, m=3, lam="2", backend="turbo")
    run_protocol("GATHER", n=8, lam="2", backend="turbo")
    run_protocol("BCAST", n=8, lam="2", backend="turbo", validate=False)
    assert calls == [(True, 3, 0), (False, 1, 0)]


def test_turbo_calls_no_trace_audit_or_trace_metrics(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the turbo lane left its columns")

    for name in ("validate_run", "audit_ports", "MetricsCollector"):
        monkeypatch.setattr(runner, name, refuse)
    monkeypatch.setattr(TurboSystem, "flush_trace", refuse)
    for family, m, policy in (
        ("DTREE-BINARY", 2, STRICT),
        ("GOSSIP-RING", 1, QUEUED),
    ):
        result = run_protocol(
            family, n=12, m=m, lam="7/3", policy=policy, backend="turbo"
        )
        assert result.metrics.total_sends == result.sends


# ------------------------------------------------ pair-dependent latency


def test_pair_latency_receives_are_checked_in_window_order():
    for policy in (STRICT, QUEUED):
        result = run_protocol(_CrossTraffic(), policy=policy, backend="turbo")
        system = result.system
        log = system._log
        starts = [log.ticks[i] for i in _rows(system, SEND)]
        arrivals = [log.ticks[j] for j in _rows(system, DELIVER)]
        assert starts == [0, 2] and arrivals == [3, 5]  # p1's lands first
        assert result.metrics == collect_metrics(system)


def test_pair_latency_arrival_off_its_pairs_due_tick():
    # a local hop (lambda_local = 1) that arrives after the machine's
    # nominal (global) latency is late for its own pair
    hierarchy = HierarchicalSystem.of(4, 8, 1, 6)
    system = _finished(HierarchicalBcastProtocol(hierarchy))
    log = system._log
    row = next(
        i for i in _rows(system, SEND)
        if hierarchy.latency(log.a[i], log.b[i]) == 1
    )
    log.ticks[_delivery_of(system, row)] = log.ticks[row] + system._lam_ticks
    with pytest.raises(ScheduleError, match="not at sent_at \\+ lambda"):
        system.audit(broadcast=False)


def test_pair_latency_receive_port_collision():
    system = _finished(_CrossTraffic())
    _move(system, _rows(system, SEND)[1], 4, 5)  # p1's window meets p0's
    with pytest.raises(SimultaneousIOError, match="two receives"):
        system.audit(broadcast=False)


def test_pair_latency_queued_delivery_that_idles():
    system = _finished(_CrossTraffic(), policy=QUEUED)
    first = _rows(system, SEND)[0]
    system._log.ticks[_delivery_of(system, first)] += 1
    with pytest.raises(ModelError, match="work-conserving FIFO"):
        system.audit(broadcast=False)


# ---------------------------------------------------- the certificates
#
# Lemmas 5 and 8 are theorems about runs that pass the sweep, and the
# sweep runs them last, so a tampered run never reaches them.  Each test
# hands the certificates the arrival lists the sweep would collect.


def _arrived(system, m):
    """Each message's arrival ticks in the log, grouped as the sweep
    collects them."""
    log = system._log
    arrived = [[] for _ in range(m)]
    for j in _rows(system, DELIVER):
        arrived[log.c[log.c[j]]].append(log.ticks[j])
    return arrived


def test_audit_rejects_a_lemma5_violation():
    system = _finished("BCAST", n=8)
    (m1,) = _arrived(system, 1)
    everyone_at_lambda = [system._lam_ticks] * len(m1)
    with pytest.raises(
        ScheduleError,
        match=r"Lemma 5: 3 processors know M1 at t=2 but F_lambda\(t\) = 2",
    ):
        check_certificates(8, 1, system._lam, system._one, [everyone_at_lambda])


def test_audit_rejects_a_lemma8_violation():
    # REPEAT, m = 2: give M2 the arrival ticks of M1, an optimal BCAST.
    # Each message alone respects Lemma 5; together they finish at
    # f_2(8) = 5, one unit under (m-1) + f_2(8) = 6.
    system = _finished("REPEAT", n=8, m=2)
    m1, _ = _arrived(system, 2)
    with pytest.raises(ScheduleError, match="Lemma 8: makespan 5 beats"):
        check_certificates(8, 2, system._lam, system._one, [m1, m1])


# ------------------------------------------------------------- metrics


@pytest.mark.parametrize("lam_str", ["1", "5/2", "7/3"])
@pytest.mark.parametrize("family", families())
def test_counted_metrics_equal_the_trace_fold(family, lam_str):
    oracle = get_oracle(family)
    lam = as_time(lam_str)
    checked = 0
    for n in (2, 5, 8, 13):
        for m in (1, 3):
            if not oracle.applicable(n, m, lam):
                continue
            policies = [STRICT] + ([QUEUED] if oracle.supports_queued else [])
            for policy in policies:
                ctx = f"{family} n={n} m={m} lam={lam_str} {policy.value}"
                try:
                    result = run_protocol(
                        oracle.protocol(n=n, m=m, lam=lam),
                        policy=policy, backend="turbo",
                    )
                except SimultaneousIOError:
                    continue  # strict collisions: pinned by the equivalence suite
                assert result.metrics == collect_metrics(result.system), ctx
                checked += 1
    if checked == 0:
        pytest.skip(f"no applicable (n, m) for {family} at lambda={lam_str}")


@pytest.mark.parametrize("policy", [STRICT, QUEUED])
def test_counted_metrics_of_backed_up_inboxes(policy):
    # Bruck's allgather receives faster than it consumes: inboxes hold up
    # to three messages, one of them for 5/2 units
    result = run_protocol(
        "BRUCK-ALLGATHER", n=13, lam="5/2", policy=policy, backend="turbo"
    )
    metrics = result.metrics
    assert metrics == collect_metrics(result.system)
    assert max(metrics.inbox_high_water) == 3
    assert metrics.max_inbox_wait == Fraction(5, 2)
    assert metrics.total_consumed == 156


class _SlowReader:
    """p0 sends three messages to p1 back to back; p1 takes one out of
    its inbox every ten units, so each waits a different time."""

    name = "SLOW-READER"
    semantics = "p2p"
    n, m, root = 2, 3, 0
    lam = as_time(2)

    def program(self, proc, system):
        def sender():
            for k in range(3):
                yield system.send(0, 1, k)

        def reader():
            for _ in range(3):
                yield system.env.timeout(10)
                yield system.recv(1)

        return sender() if proc == 0 else reader()


def test_counted_metrics_pair_each_consume_with_its_message():
    # arrivals at 2, 3, 4; consumes at 10, 20, 30: the FIFO inbox makes
    # the third message wait 26 units (a LIFO one would make the first
    # wait 28)
    result = run_protocol(_SlowReader(), backend="turbo")
    metrics = result.metrics
    assert metrics == collect_metrics(result.system)
    assert metrics.max_inbox_wait == 26
    assert metrics.inbox_high_water == (0, 3)
    assert metrics.inbox_residual == (0, 0)


# ---------------------------------------------------------- lazy trace


def test_default_turbo_run_builds_no_trace_until_read(monkeypatch):
    import repro.sim.trace

    emitted = []
    emit = repro.sim.trace.Tracer.emit

    def counting_emit(self, *args, **kwargs):
        emitted.append(args[1])
        return emit(self, *args, **kwargs)

    monkeypatch.setattr(repro.sim.trace.Tracer, "emit", counting_emit)
    result = run_protocol("PIPELINE-2", n=16, m=4, lam="5/2", backend="turbo")
    assert result.metrics is not None and result.schedule is not None
    assert emitted == []
    assert len(result.system.tracer) == len(result.system._log)
    assert len(emitted) == len(result.system._log)
    schedule = validate_run(result.system, m=4, root=0)
    assert schedule.events == result.schedule.events
    assert result.system.flush_trace() is result.system.tracer


def test_tracer_read_inside_a_flush_trace_wrapper_does_not_recurse(monkeypatch):
    flush = TurboSystem.flush_trace
    seen = []

    def wrapper(system):
        seen.append(len(system.tracer))  # read the trace before flushing
        return flush(system)

    monkeypatch.setattr(TurboSystem, "flush_trace", wrapper)
    system = _finished("BCAST", n=13, lam="5/2")
    tracer = system.flush_trace()
    assert seen == [len(system._log)]
    assert len(tracer) == len(system._log)
    assert system.tracer is tracer
