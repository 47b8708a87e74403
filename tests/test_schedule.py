"""Tests for the Schedule IR and its postal-model validation."""

from fractions import Fraction

import pytest

import repro.plan.columns
from repro.core.bcast import bcast_schedule
from repro.core.fibfunc import postal_f
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



# ------------------------------------------------------- columnar schedule


@pytest.fixture
def send_events(monkeypatch):
    """A list that grows by one entry per :class:`SendEvent` built."""
    built = []
    init = SendEvent.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SendEvent, "__init__", counting_init)
    return built


class TestColumnarSchedule:
    """The columns are the schedule; its events are built only when read."""

    @pytest.mark.parametrize("backend", ["replay", "turbo"])
    def test_default_fast_lane_call_builds_no_event(self, send_events, backend):
        result = run_protocol("BCAST", n=64, lam="5/2", backend=backend)
        assert result.completion_time == bcast_schedule(64, "5/2").completion_time()
        assert len(result.schedule) == 63
        assert send_events == []
        exact = run_protocol("BCAST", n=64, lam="5/2").schedule
        assert list(result.schedule) == list(exact.events)

    def test_validated_builder_completion_builds_no_event(self, send_events):
        assert bcast_schedule(64, "5/2").completion_time() == postal_f(Fraction(5, 2), 64)
        assert send_events == []

    def test_validated_completion_reads_the_audit(self, monkeypatch):
        schedule = bcast_schedule(64, "5/2")

        def no_arrivals(self):
            raise AssertionError("arrivals rebuilt")

        monkeypatch.setattr(Schedule, "arrivals", no_arrivals)
        assert schedule.completion_time() == postal_f(Fraction(5, 2), 64)
        assert Schedule(1, 2, []).completion_time() == 0

    def test_unvalidated_duplicate_delivery_still_raises(self):
        for schedule in (
            Schedule(3, 2, [ev(0, 0, 1), ev(1, 0, 1)], validate=False),
            Schedule.from_columns(
                3, 2, 1, [0, 1], [0, 0], [0, 0], [1, 1], validate=False
            ),
        ):
            with pytest.raises(ScheduleError, match="more than once"):
                schedule.completion_time()

    def test_equality_across_scales_builds_no_event(self, send_events):
        events = [ev(0, 0, 1), ev(1, 0, 2), ev(Fraction(5, 2), 1, 3)]
        built = Schedule(4, "5/2", events)
        send_events.clear()
        # the same rows at scale 4, out of order
        columns = Schedule.from_columns(
            4, "5/2", 4, [10, 0, 4], [1, 0, 0], [0, 0, 0], [3, 1, 2]
        )
        assert columns == built and built == columns
        assert columns != Schedule.from_columns(
            4, "5/2", 4, [10, 0, 4], [1, 0, 0], [0, 0, 0], [3, 2, 1],
            validate=False,
        )
        assert send_events == []
        assert columns.events == built.events
        assert columns.completion_time() == 5

    def test_rows_out_of_event_order_report_the_events_first_violation(self):
        # two senders that hold nothing at t = 0; in event order p1's send
        # comes first, in row order p3's
        rows = [(0, 3, 0, 1), (0, 1, 0, 2), (0, 0, 0, 3)]
        events = [ev(t, s, r, k) for t, s, k, r in rows]
        with pytest.raises(ScheduleError) as by_events:
            Schedule(4, 2, events)
        with pytest.raises(ScheduleError) as by_columns:
            Schedule.from_columns(4, 2, 1, *map(list, zip(*rows)))
        assert "p1 sends M1" in str(by_events.value)
        assert str(by_columns.value) == str(by_events.value)

    def test_unsorted_ticks_validate_in_tick_order(self):
        schedule = bcast_schedule(13, "5/2")
        rows = list(zip(*schedule._columns))[::-1]
        reversed_rows = Schedule.from_columns(
            13, "5/2", 2, *map(list, zip(*rows))
        )
        assert reversed_rows == schedule
        assert reversed_rows.completion_time() == schedule.completion_time()

    def test_bad_columns(self):
        with pytest.raises(InvalidParameterError, match="positive int"):
            Schedule.from_columns(2, 2, 0, [0], [0], [0], [1])
        with pytest.raises(InvalidParameterError, match="tick grid"):
            Schedule.from_columns(2, "5/2", 3, [0], [0], [0], [1])
        with pytest.raises(InvalidParameterError, match="disagree"):
            Schedule.from_columns(2, 2, 1, [0, 1], [0], [0], [1])

    def test_ticks_past_int64(self):
        from repro.plan.build import compile_schedule

        lam = 1 + Fraction(1, 2**61 - 1)
        schedule = compile_schedule("BCAST", 64, 1, lam, validate=True)
        exact = run_protocol("BCAST", n=64, lam=lam).schedule
        assert schedule.completion_time() == exact.completion_time()
        assert max(schedule._columns[0]) >= 2**63  # Python ints, not int64
        assert schedule.events == exact.events
        assert schedule == exact

    @pytest.mark.parametrize("read_events", [False, True])
    def test_pickle_round_trip(self, read_events):
        import pickle

        for schedule in (
            bcast_schedule(64, "5/2"),
            run_protocol("PIPELINE-2", n=16, m=3, lam="5/2",
                         backend="replay").schedule,
        ):
            if read_events:
                schedule.events
            clone = pickle.loads(pickle.dumps(schedule))
            assert clone == schedule
            assert clone.events == schedule.events
            assert clone.completion_time() == schedule.completion_time()

    def test_fast_lanes_and_builders_leave_numpy_unloaded(self):
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro\n"
            "from repro.core.bcast import bcast_schedule\n"
            "repro.run_protocol('BCAST', n=100, lam='5/2', backend='turbo')\n"
            "repro.run_protocol('PIPELINE-2', n=50, m=3, lam='5/2')\n"
            "bcast_schedule(100, '5/2').events\n"
            "print('numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.plan.columns.__file__))
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.dirname(src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == "False"
