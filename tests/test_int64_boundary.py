"""One tick rule: every lane takes every lambda whose ticks fit int64.

A rational lambda gives an exact integer clock at its own denominator,
so the fast lanes have no scale cap.  Their one limit is the width of
their ``array('q')`` columns, checked once at each lane's entry:

* the turbo loop's ``run`` (which also serves ``plan.replay()``, the
  resilience runner and the tuner's calibration runs);
* ``replay_plan``'s Python passes (the NumPy passes decline first);
* ``SchedulePlan`` construction (``from_sorted_keys``, ``from_schedule``).

Each turns a column overflow into :class:`~repro.errors.TickDomainError`.
The forced tests below sit one tick either side of ``2**63``; the entry
tests run every front door at the float ``2.1`` (denominator ``2**51``)
and at ``1 + 1/(2**61 - 1)``, whose ticks pass ``2**63`` from ``t = 4``.
"""

from array import array
from fractions import Fraction

import pytest

from repro.batch import BatchPoint, run_batch
from repro.core.schedule import Schedule, SendEvent
from repro.errors import TickDomainError
from repro.plan import SchedulePlan, build_plan, compile_plan
from repro.plan.build import compile_schedule
from repro.postal.machine import ContentionPolicy
from repro.postal.runner import run_protocol
from repro.resilience import run_resilient
from repro.turbo import TickDomain, replay_plan
from repro.turbo.fastsim import build_turbo
from repro.types import time_repr

INT64_MAX = (1 << 63) - 1

#: Ticks at scale 2**61 - 1 pass 2**63 from t = 4: BCAST at n = 100
#: (completion about 7) fits the exact lane only.
PAST_INT64 = 1 + Fraction(1, (1 << 61) - 1)

BACKENDS = ["exact", "turbo", "replay"]


@pytest.fixture(params=["numpy", "python"])
def kernels(request, monkeypatch):
    """Run a test with the NumPy kernels, then with the Python passes."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_NUMPY", "off")
    return request.param


# ------------------------------------------------ forced boundaries


def test_turbo_loop_turns_an_int64_overflow_into_tick_domain_error():
    """A delivery landing at tick 2**63 cannot be logged: the loop's one
    check raises TickDomainError, chained to the OverflowError."""
    system = build_turbo(2, 1)
    env = system.env

    def late_sender():
        yield env.timeout(INT64_MAX)
        yield system.send(0, 1, 0)  # starts at 2**63 - 1, arrives at 2**63

    env.process(late_sender())
    with pytest.raises(TickDomainError, match="int64") as info:
        env.run()
    assert isinstance(info.value.__cause__, OverflowError)


def _late_plan() -> SchedulePlan:
    """Two sends planned at tick 2**63 - 2 from p0 (lambda = 1): the
    planned ticks fit, but the second send is realized one unit later
    and arrives at tick 2**63."""
    columns = ([INT64_MAX - 1] * 2, [0, 0], [0, 0], [1, 2])
    return SchedulePlan(
        "LATE", 3, 1, 1, TickDomain(1), *(array("q", c) for c in columns)
    )


@pytest.mark.parametrize("policy", list(ContentionPolicy), ids=lambda p: p.value)
def test_replay_passes_turn_an_int64_overflow_into_tick_domain_error(
    policy, kernels
):
    plan = _late_plan()
    with pytest.raises(TickDomainError, match="int64"):
        replay_plan(plan, policy=policy)
    with pytest.raises(TickDomainError, match="int64"):
        plan.replay(policy=policy.value)  # the event loop agrees


def test_plan_from_sorted_keys_refuses_a_tick_past_int64(kernels):
    def key(tick):  # n = 2, m = 1: p0 sends to p1
        return (tick * 2 + 0) * 2 + 1

    # the key itself passes int64 (the NumPy decode declines); its tick fits
    plan = SchedulePlan.from_sorted_keys(
        "EDGE", 2, 1, 1, TickDomain(1), [key(INT64_MAX)]
    )
    assert list(plan.ticks) == [INT64_MAX]
    with pytest.raises(TickDomainError, match="int64"):
        SchedulePlan.from_sorted_keys(
            "EDGE", 2, 1, 1, TickDomain(1), [key(INT64_MAX + 1)]
        )


def test_plan_from_schedule_refuses_a_tick_past_int64():
    def schedule(tick):
        return Schedule(2, 1, [SendEvent(Fraction(tick), 0, 0, 1)])

    plan = SchedulePlan.from_schedule(schedule(INT64_MAX))
    assert list(plan.ticks) == [INT64_MAX]
    with pytest.raises(TickDomainError, match="int64"):
        SchedulePlan.from_schedule(schedule(INT64_MAX + 1))


# ------------------------------------------------------ front doors


def test_every_front_door_answers_at_the_float_2_1(kernels):
    """The float 2.1 is 2.1000000000000000888… (denominator 2**51): every
    lane, ``auto``, the batch tier and the resilience runner take it."""
    lam = 2.1
    exact = run_protocol("BCAST", n=100, lam=lam)
    assert exact.completion_time.denominator == 1 << 51
    for backend in BACKENDS:
        res = run_protocol("BCAST", n=100, lam=lam, backend=backend)
        assert res.completion_time == exact.completion_time, backend
        assert res.schedule.events == exact.schedule.events, backend
    autos = {
        run_protocol("auto", n=100, lam=lam, backend=backend).completion_time
        for backend in BACKENDS
    }
    assert autos == {exact.completion_time}
    (point,) = run_batch([BatchPoint("BCAST", 100, 1, lam)])
    assert point.completion == time_repr(exact.completion_time)
    assert run_resilient(50, lam).certified


def test_every_fast_entry_refuses_ticks_past_int64(kernels):
    lam = PAST_INT64
    exact = run_protocol("BCAST", n=100, lam=lam)
    assert exact.completion_time > 4
    assert compile_schedule("BCAST", 100, 1, lam).events == exact.schedule.events
    refusals = {
        "turbo": lambda: run_protocol("BCAST", n=100, lam=lam, backend="turbo"),
        "replay": lambda: run_protocol("BCAST", n=100, lam=lam, backend="replay"),
        "compile_plan": lambda: compile_plan("BCAST", 100, 1, lam),
        "build_plan": lambda: build_plan("BCAST", 100, 1, lam),
        "run_batch": lambda: run_batch([BatchPoint("BCAST", 100, 1, lam)]),
        "run_resilient": lambda: run_resilient(50, lam),
    }
    for backend in BACKENDS:  # the tuner calibrates on the turbo loop
        refusals[f"auto-{backend}"] = lambda backend=backend: run_protocol(
            "auto", n=100, lam=lam, backend=backend
        )
    for name, call in refusals.items():
        try:
            call()
        except TickDomainError as exc:
            assert "int64" in str(exc), name
        else:
            pytest.fail(f"{name} answered past int64")
