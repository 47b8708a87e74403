"""The replay lane's columnar audit, metrics and lazy trace.

``run_protocol(..., backend="replay")`` checks and measures a run on the
two realized integer columns (``starts``, ``arrivals``) the kernel
returns, and builds trace records only when someone reads
``system.tracer``.  This suite pins:

* every branch of the realized-column sweep
  (:func:`repro.plan.columns.audit_columns`) and of the Lemma 5 / Lemma 8
  certificates it ends with.  A correct kernel never reaches them, so
  each test tampers a :class:`~repro.turbo.ReplaySystem`'s columns (or
  its plan's) into one violation, or hands the certificates
  (:func:`repro.plan.columns.check_certificates`) tampered arrivals;
* the shared Lemma 5 check (:func:`repro.core.fibfunc.
  check_informed_bound`) against the per-arrival ``postal_F`` loop it
  replaced, and its violation text on the conformance path;
* the columnar :class:`~repro.obs.metrics.RunMetrics` against the trace
  fold and against the turbo lane, on the replay equivalence grid;
* the lazy tracer: nothing is built by a default run, and reading it
  from inside a wrapper of ``flush_trace`` does not recurse;
* the lane's claimed scale: an audited BCAST replay at n = 10^6
  (``slow``, nightly).
"""

from array import array
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.certify import CertResult, ConformanceConfig, _certify_schedule
from repro.conformance.oracles import families, get_oracle
from repro.core.fibfunc import check_informed_bound, postal_F
from repro.core.schedule import Schedule, SendEvent
from repro.errors import ScheduleError, SimultaneousIOError
from repro.obs.metrics import collect_metrics
from repro.plan import PlanCache, SchedulePlan, compile_plan
from repro.plan.columns import check_certificates
from repro.postal.machine import ContentionPolicy
from repro.postal.runner import run_protocol
from repro.postal.validator import validate_run
from repro.turbo import ReplaySystem, replay_plan
from repro.types import as_time, time_repr

from tests.test_replay_equivalence import LAMBDAS, MCOUNTS, SIZES

STRICT = ContentionPolicy.STRICT
QUEUED = ContentionPolicy.QUEUED

#: Metric fields a replay cannot share with a protocol run: no program
#: consumes a delivery, so nothing leaves an inbox.
CONSUME_FIELDS = {
    "total_consumed",
    "inbox_high_water",
    "inbox_residual",
    "max_inbox_wait",
}


def _plan(plan, **columns):
    """*plan* with some of its four columns replaced."""
    cols = {
        "ticks": plan.ticks,
        "senders": plan.senders,
        "msgs": plan.msgs,
        "receivers": plan.receivers,
        **columns,
    }
    return SchedulePlan(
        plan.family, plan.n, plan.m, plan.lam, plan.domain,
        cols["ticks"], cols["senders"], cols["msgs"], cols["receivers"],
        root=plan.root,
    )


def _system(system, *, plan=None, starts=None, arrivals=None, policy=None):
    """A :class:`ReplaySystem` like *system* but with tampered columns;
    the window order is re-derived (stable by start) from *starts*."""
    starts = array("q", system._starts if starts is None else starts)
    arrivals = array("q", system._arrivals if arrivals is None else arrivals)
    order = sorted(range(len(starts)), key=starts.__getitem__)
    return ReplaySystem(
        system.plan if plan is None else plan,
        system.policy if policy is None else policy,
        starts,
        arrivals,
        order,
    )


def _bcast(n=8, lam="2", policy=STRICT):
    return replay_plan(compile_plan("BCAST", n, 1, lam), policy=policy)


# ------------------------------------------------------------ the sweep


def test_sweep_rejects_starts_out_of_window_order():
    system = _bcast()
    starts = array("q", system._starts)
    arrivals = array("q", system._arrivals)
    first = system._order[0]  # keep the window order, move its head last
    starts[first] = max(starts) + 1
    arrivals[first] = starts[first] + system.plan.lam_ticks
    tampered = ReplaySystem(system.plan, STRICT, starts, arrivals, system._order)
    with pytest.raises(ScheduleError, match="not tick-sorted"):
        tampered.audit()


def test_sweep_rejects_a_strict_arrival_off_start_plus_lambda():
    system = _bcast()
    arrivals = array("q", system._arrivals)
    arrivals[-1] += system.domain.scale  # one unit late
    with pytest.raises(ScheduleError, match="not at sent_at \\+ lambda"):
        _system(system, arrivals=arrivals).audit()


def test_sweep_accepts_a_late_queued_arrival_but_not_an_early_one():
    system = _bcast(policy=QUEUED)
    last = max(range(system.send_count), key=system._arrivals.__getitem__)
    late = array("q", system._arrivals)
    late[last] += system.domain.scale  # queued: a NIC queue may delay it
    _system(system, arrivals=late).audit()
    early = array("q", system._arrivals)
    early[last] -= 1
    with pytest.raises(ScheduleError, match="before sent_at \\+ lambda"):
        _system(system, arrivals=early).audit()
    with pytest.raises(ScheduleError, match="not at sent_at \\+ lambda"):
        _system(system, arrivals=late, policy=STRICT).audit()


def test_sweep_rejects_a_send_port_collision():
    system = _bcast(lam="2")
    root_rows = [i for i in range(system.send_count) if system.plan.senders[i] == 0]
    first, second = root_rows[0], root_rows[1]
    starts = array("q", system._starts)
    arrivals = array("q", system._arrivals)
    starts[second] = starts[first]
    arrivals[second] = arrivals[first]
    with pytest.raises(SimultaneousIOError, match="two sends"):
        _system(system, starts=starts, arrivals=arrivals).audit()


def test_sweep_rejects_a_receive_port_collision():
    # GATHER: p_i sends to the root at tick i - 1; pull p2's send onto
    # p1's so the root receives both in one window
    system = replay_plan(compile_plan("GATHER", 3, 1, "2"))
    starts = array("q", system._starts)
    arrivals = array("q", system._arrivals)
    starts[1], arrivals[1] = starts[0], arrivals[0]
    with pytest.raises(SimultaneousIOError, match="two receives"):
        _system(system, starts=starts, arrivals=arrivals).audit(broadcast=False)


def test_sweep_rejects_a_duplicate_delivery():
    system = replay_plan(compile_plan("BCAST", 8, 1, "5/2"))
    receivers = system.plan.receivers[:]
    receivers[1] = receivers[0]  # second event re-delivers to the same proc
    with pytest.raises(ScheduleError, match="more than once"):
        _system(system, plan=_plan(system.plan, receivers=receivers)).audit()


def test_sweep_rejects_a_sender_that_does_not_hold_the_message():
    system = _bcast()
    plan = system.plan
    held = dict(zip(plan.receivers, system._arrivals))
    # a relay's first send, pulled one unit before its own arrival
    i = next(
        i
        for i in range(system.send_count)
        if plan.senders[i] != 0 and system._starts[i] == held[plan.senders[i]]
    )
    starts = array("q", system._starts)
    arrivals = array("q", system._arrivals)
    starts[i] -= system.domain.scale
    arrivals[i] = starts[i] + plan.lam_ticks
    with pytest.raises(ScheduleError, match="only holds it from|never obtains"):
        _system(system, starts=starts, arrivals=arrivals).audit()


def test_sweep_rejects_incomplete_coverage():
    system = _bcast()
    keep = system.send_count - 1
    plan = system.plan
    short = _plan(
        plan,
        ticks=plan.ticks[:keep],
        senders=plan.senders[:keep],
        msgs=plan.msgs[:keep],
        receivers=plan.receivers[:keep],
    )
    tampered = _system(
        system, plan=short,
        starts=system._starts[:keep], arrivals=system._arrivals[:keep],
    )
    with pytest.raises(ScheduleError, match="incomplete broadcast"):
        tampered.audit()


def test_run_protocol_audits_replays_by_default(monkeypatch):
    calls = []
    monkeypatch.setattr(
        ReplaySystem, "audit", lambda self, broadcast: calls.append(broadcast)
    )
    run_protocol("BCAST", n=8, lam="2", backend="replay")
    run_protocol("GATHER", n=8, lam="2", backend="replay")
    run_protocol("BCAST", n=8, lam="2", backend="replay", validate=False)
    assert calls == [True, False]


# ---------------------------------------------------- the certificates
#
# Lemmas 5 and 8 are theorems about runs that pass the sweep, and the
# sweep runs them last, so a tampered run never reaches them.  Each test
# hands the certificates the arrival lists the sweep would collect.


def _arrived(m, msgs, arrivals):
    """Each message's arrival ticks, grouped as the sweep collects them."""
    arrived = [[] for _ in range(m)]
    for k, tick in zip(msgs, arrivals):
        arrived[k].append(tick)
    return arrived


def test_audit_rejects_a_lemma5_violation():
    plan = compile_plan("BCAST", 8, 1, "2")
    everyone_at_lambda = [plan.lam_ticks] * len(plan)
    with pytest.raises(
        ScheduleError,
        match=r"Lemma 5: 3 processors know M1 at t=2 but F_lambda\(t\) = 2",
    ):
        check_certificates(8, 1, plan.lam, plan.domain.scale, [everyone_at_lambda])


def test_audit_rejects_a_lemma8_violation():
    # REPEAT, m = 2: give M2 the arrival ticks of M1, an optimal BCAST.
    # Each message alone respects Lemma 5; together they finish at
    # f_2(8) = 5, one unit under (m-1) + f_2(8) = 6.
    system = replay_plan(compile_plan("REPEAT", 8, 2, "2"))
    plan = system.plan
    m1, _ = _arrived(plan.m, plan.msgs, system._arrivals)
    with pytest.raises(ScheduleError, match="Lemma 8: makespan 5 beats"):
        check_certificates(plan.n, plan.m, plan.lam, plan.domain.scale, [m1, m1])


def _lemma5_by_postal_F(lam, arrivals_by_msg):
    """The per-arrival loop the integer check replaced (the reference)."""
    for k in sorted(arrivals_by_msg):
        informed = 1
        for t in sorted(arrivals_by_msg[k]):
            informed += 1
            bound = postal_F(lam, t)
            if informed > bound:
                return (
                    f"Lemma 5: {informed} processors know M{k + 1} at "
                    f"t={time_repr(t)} but F_lambda(t) = {bound}"
                )
    return None


@settings(max_examples=200, deadline=None)
@given(
    lam=st.sampled_from(["1", "3/2", "2", "5/2", "7/3", "4"]),
    ticks=st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 60)), max_size=40
    ),
)
def test_integer_lemma5_check_matches_the_postal_F_loop(lam, ticks):
    lam = as_time(lam)
    scale = lam.denominator * 2  # any multiple of lambda's denominator
    by_msg = {}
    for k, t in ticks:
        by_msg.setdefault(k, []).append(Fraction(t, scale))
    expected = _lemma5_by_postal_F(lam, by_msg)
    arrived = [[t for j, t in ticks if j == k] for k in range(3)]
    try:
        check_informed_bound(lam, scale, arrived)
    except ScheduleError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_certify_keeps_its_lemma5_violation_text():
    # three sends leave the root at t=0: the port audit fails, and three
    # processors know M1 at t=2 where F_2(2) = 2
    events = [SendEvent(Fraction(0), 0, 0, r) for r in (1, 2, 3)]
    schedule = Schedule(4, 2, events, validate=False)
    result = CertResult(ConformanceConfig("BCAST", 4, 1, "2"))
    result.predicted = Fraction(3)
    _certify_schedule(result, get_oracle("BCAST"), schedule)
    assert (
        "Lemma 5: 3 processors know M1 at t=2 but F_lambda(t) = 2"
        in result.violations
    )


# ------------------------------------------------------------- metrics


@pytest.mark.parametrize("lam_str", LAMBDAS)
@pytest.mark.parametrize("family", families())
def test_columnar_metrics_equal_the_trace_fold_and_turbo(family, lam_str):
    """On the replay equivalence grid: the counted metrics equal the
    trace fold exactly, and turbo's on every field a consume cannot
    touch."""
    oracle = get_oracle(family)
    lam = as_time(lam_str)
    checked = 0
    for n in SIZES:
        for m in MCOUNTS:
            if not oracle.applicable(n, m, lam):
                continue
            policies = [STRICT] + ([QUEUED] if oracle.supports_queued else [])
            for policy in policies:
                ctx = f"{family} n={n} m={m} lam={lam_str} {policy.value}"
                try:
                    turbo = run_protocol(
                        oracle.protocol(n=n, m=m, lam=lam),
                        policy=policy, backend="turbo",
                    )
                except Exception:
                    continue  # the equivalence suite pins exception parity
                replay = run_protocol(
                    oracle.protocol(n=n, m=m, lam=lam),
                    policy=policy, backend="replay",
                )
                metrics = replay.metrics
                assert metrics == collect_metrics(replay.system), ctx
                for f in fields(metrics):
                    if f.name not in CONSUME_FIELDS:
                        assert getattr(metrics, f.name) == getattr(
                            turbo.metrics, f.name
                        ), f"{ctx}: {f.name}"
                # to_dict() also lists the busy and utilization tuples
                mine, theirs = metrics.to_dict(), turbo.metrics.to_dict()
                for name in CONSUME_FIELDS:
                    del mine[name], theirs[name]
                assert mine == theirs, ctx
                assert metrics.total_consumed == 0, ctx
                assert metrics.max_inbox_wait is None, ctx
                assert (
                    metrics.inbox_high_water
                    == metrics.inbox_residual
                    == metrics.receives
                ), ctx
                checked += 1
    if checked == 0:
        pytest.skip(f"no applicable (n, m) for {family} at lambda={lam_str}")


# ---------------------------------------------------------- lazy trace


def test_default_replay_builds_no_trace_until_read(monkeypatch):
    import repro.turbo.replay

    built = []

    class CountingTracer(repro.turbo.replay.Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(repro.turbo.replay, "Tracer", CountingTracer)
    result = run_protocol("BCAST", n=64, m=1, lam="5/2", backend="replay")
    assert result.metrics is not None and result.schedule is not None
    assert built == []
    schedule = validate_run(result.system, m=1, root=0)
    assert len(built) == 1
    assert len(built[0]) == 2 * result.sends
    assert schedule.events == result.schedule.events
    assert result.system.flush_trace() is built[0]


def test_tracer_read_inside_a_flush_trace_wrapper_does_not_recurse(monkeypatch):
    flush = ReplaySystem.flush_trace
    seen = []

    def wrapper(system):
        seen.append(len(system.tracer))  # read the trace before flushing
        return flush(system)

    monkeypatch.setattr(ReplaySystem, "flush_trace", wrapper)
    system = _bcast(n=13, lam="5/2")
    tracer = system.flush_trace()
    assert seen == [2 * system.send_count]
    assert len(tracer) == 2 * system.send_count
    assert system.tracer is tracer


# ------------------------------------------------------ the claimed scale


@pytest.mark.slow
def test_audited_replay_at_a_million_processors(monkeypatch):
    """The replay lane is the large-n tier: BCAST at n = 10^6, lambda = 2,
    with the default audit, completes at the closed form with n - 1
    sends.  The plan goes to a private in-memory cache, so no plan of
    this size outlives the test (about 5 s and 0.5 GB)."""
    import repro.plan.cache

    monkeypatch.setattr(repro.plan.cache, "_DEFAULT", PlanCache(mode="mem"))
    n = 10**6
    result = run_protocol("BCAST", n=n, lam=2, backend="replay")
    assert result.completion_time == get_oracle("BCAST").time(n, 1, as_time(2))
    assert result.sends == n - 1
