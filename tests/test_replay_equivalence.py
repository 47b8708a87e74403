"""Differential equivalence for the vectorized replay tier.

Two layers, matching the two promises of :mod:`repro.turbo.replay`:

* **plan level** — :func:`replay_plan` must be *byte-identical* to
  executing the same compiled :class:`~repro.plan.columns.SchedulePlan`
  through ``SchedulePlan.replay()`` on the turbo event loop: same trace
  record sequence, realized schedule, completion time, send count, and
  port busy intervals, and the same exception text at the same first
  strict collision.
* **protocol level** — ``run_protocol(..., backend="replay")`` must
  agree with the ``exact`` and ``turbo`` lanes on everything the
  machine observes: completion, send count, and realized schedule,
  for every registered family over the grid, raising the same
  exception type where the model itself raises.

Plus unit tests for the calendar-queue scheduler (overflow, rebase,
sparse fallback to heap mode), the columnar :class:`RunLog`, and tick
domains at and past scale ``2**24``.
"""

from array import array
from fractions import Fraction

import pytest

from repro.conformance.oracles import families, get_oracle
from repro.errors import (
    InvalidParameterError,
    SimultaneousIOError,
)
from repro.plan import compile_plan, plan_families, plan_m
from repro.postal.machine import ContentionPolicy
from repro.postal.message import Message
from repro.postal.runner import run_protocol
from repro.turbo import ReplaySystem, TickDomain, replay_plan
from repro.turbo.fastsim import TurboEnvironment
from repro.turbo.runlog import (
    CONSUME,
    DELIVER,
    DROP_LOSS,
    SEND,
    SEND_RETRANSMIT,
    RunLog,
)
from repro.types import as_time

#: The coarse grids, then two fine ones: 1 + 1/(2**24 + 1) and the binary
#: float 2.1 (denominator 2**51).
LAMBDAS = ["1", "3/2", "2", "5/2", "7/3", "4", "16777218/16777217", 2.1]
SIZES = [2, 3, 5, 8, 13]
MCOUNTS = [1, 2, 3]


def _trace_tuples(system):
    """The flushed trace as a comparable sequence (order matters)."""
    out = []
    for rec in system.flush_trace().records():
        data = rec.data
        if isinstance(data, Message):
            data = (
                "msg",
                data.msg,
                data.src,
                data.dst,
                data.sent_at,
                data.arrived_at,
                data.payload,
            )
        elif isinstance(data, dict):
            data = tuple(sorted(data.items()))
        out.append((rec.time, rec.kind, data))
    return out


def _ports(system, n):
    return (
        [system.send_port(p).busy_intervals for p in range(n)],
        [system.recv_port(p).busy_intervals for p in range(n)],
    )


# ------------------------------------------------- plan-level identity


@pytest.mark.parametrize("lam_str", LAMBDAS)
@pytest.mark.parametrize("family", plan_families())
def test_replay_matches_event_loop_plan_replay(family, lam_str):
    """replay_plan(plan) is byte-identical to plan.replay() on turbo."""
    lam = as_time(lam_str)
    checked = 0
    for n in SIZES:
        for m in MCOUNTS:
            try:
                plan = compile_plan(family, n, plan_m(family, n, m), lam)
            except InvalidParameterError:
                continue
            for policy_name, policy in (
                ("strict", ContentionPolicy.STRICT),
                ("queued", ContentionPolicy.QUEUED),
            ):
                ctx = f"{family} n={n} m={m} lam={lam_str} {policy_name}"
                loop_sys = plan.replay(policy=policy_name)
                fast_sys = replay_plan(plan, policy=policy)
                assert isinstance(fast_sys, ReplaySystem)
                assert fast_sys.send_count == loop_sys.send_count, ctx
                assert (
                    fast_sys.completion_time == loop_sys.completion_time
                ), ctx
                assert _trace_tuples(fast_sys) == _trace_tuples(
                    loop_sys
                ), f"{ctx}: trace records differ"
                assert _ports(fast_sys, n) == _ports(
                    loop_sys, n
                ), f"{ctx}: port busy intervals differ"
                if policy is ContentionPolicy.STRICT:
                    a = loop_sys.realized_schedule(m=plan.m, validate=False)
                    b = fast_sys.realized_schedule(m=plan.m, validate=False)
                    assert a.events == b.events, f"{ctx}: schedules differ"
                checked += 1
    if checked == 0:
        pytest.skip(f"no applicable (n, m) for {family} at lambda={lam_str}")


# -------------------------------------------- protocol-level identity


@pytest.mark.parametrize("lam_str", LAMBDAS)
@pytest.mark.parametrize("family", families())
def test_replay_backend_matches_protocol_runs(family, lam_str):
    """backend="replay" agrees with backend="turbo" on the machine-level
    outcome of every registered family (the turbo-vs-exact suite already
    pins turbo to the exact engine)."""
    oracle = get_oracle(family)
    lam = as_time(lam_str)
    checked = 0
    for n in SIZES:
        for m in MCOUNTS:
            if not oracle.applicable(n, m, lam):
                continue
            policies = [ContentionPolicy.STRICT]
            if oracle.supports_queued:
                policies.append(ContentionPolicy.QUEUED)
            for policy in policies:
                ctx = f"{family} n={n} m={m} lam={lam_str} {policy.value}"
                try:
                    turbo = run_protocol(
                        oracle.protocol(n=n, m=m, lam=lam),
                        policy=policy,
                        backend="turbo",
                    )
                except Exception as exc:
                    with pytest.raises(type(exc)):
                        run_protocol(
                            oracle.protocol(n=n, m=m, lam=lam),
                            policy=policy,
                            backend="replay",
                        )
                    checked += 1
                    continue
                replay = run_protocol(
                    oracle.protocol(n=n, m=m, lam=lam),
                    policy=policy,
                    backend="replay",
                )
                assert (
                    replay.completion_time == turbo.completion_time
                ), f"{ctx}: completion differs"
                assert replay.sends == turbo.sends, f"{ctx}: sends differ"
                if turbo.schedule is not None:
                    assert replay.schedule is not None, ctx
                    assert (
                        replay.schedule.events == turbo.schedule.events
                    ), f"{ctx}: schedules differ"
                checked += 1
    if checked == 0:
        pytest.skip(f"no applicable (n, m) for {family} at lambda={lam_str}")


def test_replay_refuses_protocols_without_a_plan():
    """A protocol with no registered plan family cannot replay."""

    class _Anon:
        n = 3
        m = 1
        root = 0
        lam = as_time(2)

        def program(self, proc, system):
            return None

    with pytest.raises(InvalidParameterError, match="no family name"):
        run_protocol(_Anon(), backend="replay")


def test_replay_refuses_engine_profiling():
    proto = get_oracle("BCAST").protocol(n=4, m=1, lam=as_time(2))
    with pytest.raises(InvalidParameterError, match="profil"):
        run_protocol(proto, backend="replay", profile=True)


# --------------------------------------------------- exception parity


def _colliding_plan():
    """Two senders hit p2's receive port in the same window."""
    from repro.plan.columns import SchedulePlan

    domain = TickDomain(1)
    return SchedulePlan(
        "BCAST",
        3,
        1,
        as_time(2),
        domain,
        array("q", [0, 0]),
        array("q", [0, 1]),
        array("q", [0, 0]),
        array("q", [2, 2]),
    )


def test_strict_collision_raises_identical_message():
    plan = _colliding_plan()
    with pytest.raises(SimultaneousIOError) as loop_exc:
        plan.replay(policy="strict")
    with pytest.raises(SimultaneousIOError) as fast_exc:
        replay_plan(plan, policy=ContentionPolicy.STRICT)
    assert str(fast_exc.value) == str(loop_exc.value)


def test_queued_collision_serializes_and_flags_contention():
    plan = _colliding_plan()
    loop_sys = plan.replay(policy="queued")
    fast_sys = replay_plan(plan, policy=ContentionPolicy.QUEUED)
    assert fast_sys.queued_contention is True
    assert fast_sys.completion_time == loop_sys.completion_time
    assert _trace_tuples(fast_sys) == _trace_tuples(loop_sys)


def test_int64_headroom_guard_falls_back_to_the_python_passes():
    """Three senders over a tick span of ``2^61``: the kernels' lifted
    cumulative maximum would pass ``2^62``, so :func:`replay_passes`
    declines and :func:`replay_plan` runs the Python passes, which must
    still equal the event loop."""
    from repro.batch.kernels import replay_passes
    from repro.core.schedule import Schedule, SendEvent
    from repro.plan import SchedulePlan

    far = 2**61
    events = [
        SendEvent(Fraction(0), 0, 0, 1),
        SendEvent(Fraction(1), 0, 0, 2),
        SendEvent(Fraction(far), 1, 0, 3),
        SendEvent(Fraction(far + 1), 2, 0, 4),
    ]
    plan = SchedulePlan.from_schedule(Schedule(5, 2, events))
    plan.audit()
    for policy in ContentionPolicy:
        assert replay_passes(plan, policy) is None, policy
        loop_sys = plan.replay(policy=policy.value)
        fast_sys = replay_plan(plan, policy=policy)
        fast_sys.audit()
        assert fast_sys.completion_time == loop_sys.completion_time
        assert fast_sys.completion_time == far + 1 + 2
        # the send and deliver records carry every start and arrival
        assert _trace_tuples(fast_sys) == _trace_tuples(loop_sys), policy
    assert list(fast_sys._starts) == [0, 1, far, far + 1]
    assert list(fast_sys._arrivals) == [2, 3, far + 2, far + 3]


def test_contention_free_plan_does_not_flag():
    plan = compile_plan("BCAST", 13, 1, as_time("5/2"))
    assert (
        replay_plan(plan, policy=ContentionPolicy.QUEUED).queued_contention
        is False
    )


# ---------------------------------------------------- calendar queue


def _run_env(pushes):
    """Push ``(tick, label)`` events into a bare environment; return the
    labels in execution order."""
    env = TurboEnvironment(TickDomain(1))
    seen = []
    for tick, label in pushes:
        env._push(tick, seen.append, label)
    env.run()
    return env, seen


def test_calendar_far_future_overflow_preserves_order():
    """Pushes beyond the calendar span go to the overflow heap but still
    execute in (tick, push-order) sequence."""
    far = 1 << 20  # far beyond the 2**16 look-ahead span
    env, seen = _run_env(
        [(far, "c"), (0, "a"), (far + 1, "d"), (1, "b"), (far, "c2")]
    )
    assert seen == ["a", "b", "c", "c2", "d"]


def test_calendar_rebase_on_drain():
    """A drained calendar rebases onto the overflow's next tick instead
    of scanning the gap bucket by bucket."""
    gap = 1 << 18
    env, seen = _run_env([(0, "a"), (gap, "b"), (3 * gap, "c")])
    assert seen == ["a", "b", "c"]
    assert not env._heap_mode  # rebasing handled the gaps, no fallback


def test_calendar_sparse_spread_falls_back_to_heap():
    """Widely spaced occupied ticks inside the span accrue scan debt and
    flip the scheduler into classic heap mode, with order preserved."""
    spacing = 4096  # sparse but within the 2**16 look-ahead span
    pushes = [(i * spacing, f"e{i}") for i in range(12)]
    env, seen = _run_env(pushes)
    assert seen == [f"e{i}" for i in range(12)]
    assert env._heap_mode


def test_calendar_same_tick_fifo_with_live_appends():
    """Callbacks scheduled *for the current tick* during the current tick
    run within that tick, in append order."""
    env = TurboEnvironment(TickDomain(1))
    seen = []

    def first():
        seen.append("first")
        env._push(0, seen.append, "nested")

    env._push(0, first)
    env._push(0, seen.append, "second")
    env.run()
    assert seen == ["first", "second", "nested"]
    assert env.now == env.domain.to_time(0)


def test_calendar_rejects_past_events():
    from repro.errors import SimulationError

    env = TurboEnvironment(TickDomain(1))
    env._push(5, lambda: None)
    env.run()
    with pytest.raises(SimulationError):
        env._push(1, lambda: None)


# ---------------------------------------------------------- run log


def test_runlog_columns_and_counts():
    log = RunLog()
    log.append(SEND, 10, 0, 1, 7)
    log.append(DELIVER, 12, 0, 1)
    log.append(SEND_RETRANSMIT, 11, 0, 1, 7)
    log.append(DROP_LOSS, 13, 0, 1, 7)
    log.append(CONSUME, 14, 0, 1)
    assert len(log) == 5
    assert log.send_count == 2  # SEND + SEND_RETRANSMIT
    assert log.count(SEND) == 1
    assert log.count(SEND, SEND_RETRANSMIT) == 2
    assert list(log.rows())[0] == (SEND, 10, 0, 1, 7)
    assert log.nbytes > 0


def test_runlog_order_by_tick_is_stable():
    log = RunLog()
    log.append(SEND, 5, 0)
    log.append(SEND, 3, 1)
    log.append(DELIVER, 5, 2)
    log.append(SEND, 3, 3)
    order = log.order_by_tick()
    # ticks sort ascending; equal ticks keep append order (stable)
    assert [log.a[i] for i in order] == [1, 3, 0, 2]


# ------------------------------------------------ tick-domain scales


SCALE_2_24 = 1 << 24


def test_tick_domain_round_trips_at_scale_2_24():
    domain = TickDomain(SCALE_2_24)
    one = Fraction(1, SCALE_2_24)
    assert domain.to_time(domain.to_ticks(one)) == one


def test_tick_domain_round_trips_one_past_scale_2_24():
    domain = TickDomain(SCALE_2_24 + 1)
    one = Fraction(1, SCALE_2_24 + 1)
    assert domain.to_time(domain.to_ticks(one)) == one


def test_for_values_takes_the_mixed_denominator_lcm():
    """Each denominator alone is coarser than the grid both need: the
    domain takes their LCM and represents both exactly."""
    values = [Fraction(1, 3), Fraction(1, 1 << 23)]
    domain = TickDomain.for_values(values)
    assert domain.scale == 3 << 23
    for v in values:
        assert domain.to_time(domain.to_ticks(v)) == v


def test_for_values_at_scale_2_24_round_trips():
    values = [Fraction(1, 1 << 12), Fraction(1, 1 << 24)]
    domain = TickDomain.for_values(values)
    assert domain.scale == SCALE_2_24
    for v in values:
        assert domain.to_time(domain.to_ticks(v)) == v
