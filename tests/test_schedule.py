"""Tests for the Schedule IR and its postal-model validation."""

from fractions import Fraction

import pytest

import repro.plan.columns
from repro.core.bcast import bcast_schedule
from repro.core.schedule import Schedule, SendEvent, tick_columns
from repro.errors import (
    InvalidParameterError,
    ScheduleError,
    SimultaneousIOError,
)
from repro.extensions.hierarchical import (
    HierarchicalBcastProtocol,
    HierarchicalSystem,
)
from repro.plan import compile_plan
from repro.postal.runner import run_protocol
from repro.turbo import replay_plan
from repro.types import Time


def ev(t, src, dst, msg=0):
    return SendEvent(Time(t), src, msg, dst)


class TestSendEvent:
    def test_arrival(self):
        e = ev(3, 0, 1)
        assert e.arrival_time(Fraction(5, 2)) == Fraction(11, 2)

    def test_ordering_chronological(self):
        events = [ev(5, 0, 1), ev(0, 0, 2), ev(2, 1, 3)]
        assert [e.send_time for e in sorted(events)] == [0, 2, 5]

    def test_str(self):
        assert "p0 --M1--> p1" in str(ev(0, 0, 1))


class TestValidSchedules:
    def test_trivial(self):
        s = Schedule(1, 2, [])
        assert s.completion_time() == 0
        assert len(s) == 0

    def test_two_processors(self):
        s = Schedule(2, Fraction(5, 2), [ev(0, 0, 1)])
        assert s.completion_time() == Fraction(5, 2)
        assert s.arrival_of(1) == Fraction(5, 2)
        assert s.arrival_of(0) == 0  # root holds from the start

    def test_relay(self):
        # 0 -> 1 at t=0 (arrives 2); 1 -> 2 at t=2 (arrives 4)
        s = Schedule(3, 2, [ev(0, 0, 1), ev(2, 1, 2)])
        assert s.completion_time() == 4

    def test_full_duplex_legal(self):
        # p1 receives during [1,2) and sends during [2,3): fine; even a
        # send overlapping its own receive window is legal simultaneous I/O
        s = Schedule(
            3, 2, [ev(0, 0, 1), ev(1, 0, 2)]
        )  # p0 sends twice back-to-back
        assert s.completion_time() == 3

    def test_informed_count(self):
        s = Schedule(3, 2, [ev(0, 0, 1), ev(2, 1, 2)])
        a = s.informed_count()
        assert a(0) == 1
        assert a(Fraction(3, 2)) == 1
        assert a(2) == 2
        assert a(4) == 3
        assert a(1000) == 3  # saturates

    def test_sends_receives_queries(self):
        s = Schedule(3, 2, [ev(0, 0, 1), ev(2, 1, 2)])
        assert len(s.sends_by(0)) == 1
        assert len(s.sends_by(1)) == 1
        assert s.receives_by(2)[0].sender == 1

    def test_shift(self):
        s = Schedule(2, 2, [ev(0, 0, 1)]).shifted(3)
        assert s.events[0].send_time == 3
        assert s.completion_time() == 5

    def test_negative_shift_guard(self):
        with pytest.raises(InvalidParameterError):
            Schedule(2, 2, [ev(0, 0, 1)]).shifted(-1)

    def test_merge(self):
        a = Schedule(2, 2, [ev(0, 0, 1, msg=0)], m=1, validate=False)
        b = Schedule(2, 2, [ev(1, 0, 1, msg=1)], m=2, validate=False)
        merged = Schedule.merged([a, b])
        assert merged.m == 2
        assert merged.completion_time() == 3  # M2 sent at 1 arrives at 3

    def test_merge_mismatch(self):
        a = Schedule(2, 2, [ev(0, 0, 1)])
        b = Schedule(3, 2, [ev(0, 0, 1), ev(2, 1, 2)])
        with pytest.raises(InvalidParameterError):
            Schedule.merged([a, b])

    def test_equality(self):
        a = Schedule(2, 2, [ev(0, 0, 1)])
        b = Schedule(2, 2, [ev(0, 0, 1)])
        assert a == b and not (a != b)


class TestInvalidSchedules:
    def test_lambda_range(self):
        with pytest.raises(InvalidParameterError):
            Schedule(2, Fraction(1, 2), [ev(0, 0, 1)])

    def test_uninformed_sender(self):
        # p1 sends before it ever receives
        with pytest.raises(ScheduleError):
            Schedule(3, 2, [ev(0, 0, 1), ev(1, 1, 2)])

    def test_sender_too_early(self):
        # p1 receives at 2 but forwards at 3/2
        with pytest.raises(ScheduleError):
            Schedule(3, 2, [ev(0, 0, 1), ev(Fraction(3, 2), 1, 2)])

    def test_duplicate_delivery(self):
        with pytest.raises(ScheduleError):
            Schedule(3, 2, [ev(0, 0, 1), ev(1, 0, 1)])

    def test_incomplete_broadcast(self):
        with pytest.raises(ScheduleError):
            Schedule(3, 2, [ev(0, 0, 1)])

    def test_self_send(self):
        with pytest.raises(ScheduleError):
            Schedule(2, 2, [ev(0, 0, 0), ev(1, 0, 1)])

    def test_processor_out_of_range(self):
        with pytest.raises(ScheduleError):
            Schedule(2, 2, [ev(0, 0, 5)])

    def test_msg_out_of_range(self):
        with pytest.raises(ScheduleError):
            Schedule(2, 2, [ev(0, 0, 1, msg=3)], m=1)

    def test_negative_send_time(self):
        with pytest.raises(ScheduleError):
            Schedule(2, 2, [ev(-1, 0, 1)])

    def test_send_port_conflict(self):
        # two sends by p0 overlapping: [0,1) and [1/2,3/2)
        with pytest.raises(SimultaneousIOError):
            Schedule(
                3, 2, [ev(0, 0, 1), ev(Fraction(1, 2), 0, 2)]
            )

    def test_recv_port_conflict(self):
        # lambda=1, m=2: p2 receives M1 from p1 (busy [1,2)) and M2 from
        # p0 (busy [1,2)) simultaneously -- only the receive ports clash;
        # everything else about this schedule is legal.
        events = [
            ev(0, 0, 1, msg=0),  # p1 gets M1 at 1
            ev(1, 1, 2, msg=0),  # p2 gets M1 at 2, busy [1,2)
            ev(1, 0, 2, msg=1),  # p2 gets M2 at 2, busy [1,2)  -> clash
            ev(2, 0, 1, msg=1),  # p1 gets M2 at 3
        ]
        with pytest.raises(SimultaneousIOError):
            Schedule(3, 1, events, m=2)

    def test_recv_port_partial_overlap(self):
        # fractional overlap: windows [1,2) and [3/2,5/2) at p2
        events = [
            ev(0, 0, 1, msg=0),  # p1 gets M1 at 1
            ev(1, 1, 2, msg=0),  # p2: busy [1,2)
            ev(Fraction(3, 2), 0, 2, msg=1),  # p2: busy [3/2,5/2) -> clash
            ev(Fraction(5, 2), 0, 1, msg=1),
        ]
        with pytest.raises(SimultaneousIOError):
            Schedule(3, 1, events, m=2)

    def test_two_receives_same_instant(self):
        # p1 and p2 both informed, both send M1 copies to p3 arriving
        # at the same time -> duplicate delivery error (caught before
        # port check)
        events = [
            ev(0, 0, 1),
            ev(1, 0, 2),
            ev(2, 1, 3),
            ev(3, 2, 3),
        ]
        with pytest.raises(ScheduleError):
            Schedule(4, 2, events)

    def test_arrival_of_missing(self):
        s = Schedule(2, 2, [ev(0, 0, 1)])
        with pytest.raises(ScheduleError):
            s.arrival_of(1, msg=5)


def _clash(schedule):
    """*schedule* with its first repeat sender's second send moved onto
    that sender's previous send."""
    events = list(schedule.events)
    first = {}
    for i, e in enumerate(events):
        if e.sender in first:
            events[i] = SendEvent(first[e.sender], e.sender, e.msg, e.receiver)
            return Schedule(
                schedule.n, schedule.lam, events, m=schedule.m, validate=False
            )
        first[e.sender] = e.send_time
    raise AssertionError("no processor sends twice")


class TestOffGrid:
    """Any rational times run on the one integer sweep: the common
    denominator is a plain int, with no cap and no Fraction fallback."""

    def test_binary_float_lambda(self):
        schedule = bcast_schedule(100, 2.1)  # validates
        assert tick_columns(schedule.lam, schedule.events)[0] == 2**51
        with pytest.raises(SimultaneousIOError, match="p0 drives two sends"):
            _clash(schedule).validate()

    def test_common_denominator_past_int64(self):
        # the root sends at i + 1/p for five primes p near 2**16, largest
        # first, so its sends stay at least a unit apart
        primes = (65521, 65519, 65497, 65479, 65449)
        events = [ev(i + Fraction(1, p), 0, i + 1) for i, p in enumerate(primes)]
        schedule = Schedule(6, 2, events)
        assert schedule.completion_time() == 6 + Fraction(1, 65449)
        clash = Schedule(6, 2, events[:4] + [ev(events[3].send_time, 0, 5)],
                         validate=False)
        for s in (schedule, clash):
            assert tick_columns(s.lam, s.events)[0] > 2**63
        with pytest.raises(SimultaneousIOError, match="p0 drives two sends"):
            clash.validate()


def _lift_lower_bound(monkeypatch, makespan):
    """Lemma 8's bound, as the certificate looks it up, one unit over
    *makespan*."""
    monkeypatch.setattr(
        repro.plan.columns, "multi_lower_bound",
        lambda n, m, lam: Fraction(makespan) + 1,
    )


def _turbo_bcast():
    return run_protocol(
        "BCAST", n=8, lam="2", backend="turbo", validate=False
    ).system


# BCAST at n = 8, lambda = 2 is optimal: its makespan is f_2(8) = 5
CERTIFIED_AUDITS = {
    "Schedule.validate": lambda: bcast_schedule(8, 2, validate=False).validate(),
    "SchedulePlan.audit": lambda: compile_plan("BCAST", 8, 1, "2").audit(),
    "exact run_protocol": lambda: run_protocol("BCAST", n=8, lam="2"),
    "ReplaySystem.audit": lambda: replay_plan(
        compile_plan("BCAST", 8, 1, "2")
    ).audit(),
    "TurboSystem.audit": lambda: _turbo_bcast().audit(),
}

UNCERTIFIED_AUDITS = {
    "SchedulePlan.audit_ports": lambda: compile_plan(
        "BCAST", 8, 1, "2"
    ).audit_ports(),
    "ReplaySystem.audit, broadcast=False": lambda: replay_plan(
        compile_plan("BCAST", 8, 1, "2")
    ).audit(broadcast=False),
    "TurboSystem.audit, broadcast=False": lambda: _turbo_bcast().audit(
        broadcast=False
    ),
}


@pytest.mark.parametrize("audit", CERTIFIED_AUDITS)
def test_every_broadcast_audit_carries_lemma8(monkeypatch, audit):
    _lift_lower_bound(monkeypatch, 5)
    with pytest.raises(ScheduleError, match="Lemma 8"):
        CERTIFIED_AUDITS[audit]()


@pytest.mark.parametrize("audit", UNCERTIFIED_AUDITS)
def test_audits_without_broadcast_semantics_carry_no_certificates(
    monkeypatch, audit
):
    _lift_lower_bound(monkeypatch, 5)
    UNCERTIFIED_AUDITS[audit]()


def test_pair_latency_broadcasts_carry_no_certificates(monkeypatch):
    # Lemma 8 assumes one latency: this run beats f_6(32) = 17 through
    # its local hops, and its audit must not apply the bound
    result = run_protocol(
        HierarchicalBcastProtocol(HierarchicalSystem.of(4, 8, 1, 6)),
        backend="turbo",
    )
    assert result.completion_time == 11
    _lift_lower_bound(monkeypatch, result.completion_time)
    result.system.audit()

