"""Tests for the collective operations (repro.collectives)."""

from fractions import Fraction

import pytest

from repro.collectives.allgather import AllgatherProtocol, allgather_time
from repro.collectives.barrier import BarrierProtocol, barrier_time
from repro.collectives.gossip import (
    GossipRingProtocol,
    gossip_lower_bound,
    gossip_ring_time,
)
from repro.collectives.reduce import (
    ReduceProtocol,
    ReductionSchedule,
    reduce_schedule,
    reduce_time,
)
from repro.collectives.scatter import ScatterProtocol, scatter_time
from repro.core.fibfunc import postal_f
from repro.core.schedule import SendEvent
from repro.errors import InvalidParameterError, ScheduleError, SimultaneousIOError
from repro.postal import ContentionPolicy, run_protocol
from repro.types import Time

from tests.grids import LAMBDAS

NS = [1, 2, 3, 5, 14, 27]


class TestReduce:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", NS)
    def test_reversed_schedule_optimal(self, lam, n):
        rs = reduce_schedule(n, lam)  # validates
        assert rs.completion_time() == reduce_time(n, lam) == postal_f(lam, n)

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", NS)
    def test_protocol_time_and_value(self, lam, n):
        proto = ReduceProtocol(n, lam)
        res = run_protocol(proto)
        assert res.completion_time == reduce_time(n, lam)
        assert proto.result == sum(range(n))

    def test_custom_op_and_values(self):
        proto = ReduceProtocol(
            5, 2, op=max, values=[3, 1, 4, 1, 5]
        )
        run_protocol(proto)
        assert proto.result == 5

    def test_non_commutative_op_applies(self):
        # op need only be associative; order of fold is children order
        proto = ReduceProtocol(
            4, 1, op=lambda a, b: a + b, values=["a", "b", "c", "d"]
        )
        run_protocol(proto)
        assert sorted(proto.result) == ["a", "b", "c", "d"]

    def test_eager_collides_on_plateau(self):
        """lambda=5/2, n=3: the root has two leaf children; eager sends
        collide — exactly the subtlety the paced protocol avoids."""
        with pytest.raises(SimultaneousIOError):
            run_protocol(ReduceProtocol(3, Fraction(5, 2), eager=True))

    def test_eager_works_queued(self):
        proto = ReduceProtocol(3, Fraction(5, 2), eager=True)
        res = run_protocol(proto, policy=ContentionPolicy.QUEUED)
        assert proto.result == 3
        # queued eager is no faster than the paced optimum
        assert res.completion_time >= reduce_time(3, Fraction(5, 2))

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            ReduceProtocol(3, 2, values=[1])

    def test_reduction_schedule_validation(self):
        # a non-root processor that never sends is invalid
        with pytest.raises(ScheduleError):
            ReductionSchedule(3, 2, [SendEvent(Time(0), 1, 0, 0)])

    def test_reduction_premature_forward(self):
        # p1 forwards at t=0 but its own child p2 arrives at t=2
        events = [
            SendEvent(Time(0), 2, 0, 1),
            SendEvent(Time(0), 1, 0, 0),  # departs before p2's value lands
        ]
        with pytest.raises(ScheduleError):
            ReductionSchedule(3, 2, events)

    def test_reduction_receive_clash(self):
        # p1 and p2 each send their value to p0 once, half a unit apart:
        # the receive windows [1,2) and [3/2,5/2) overlap at p0
        events = [
            SendEvent(Time(0), 1, 0, 0),
            SendEvent(Fraction(1, 2), 2, 0, 0),
        ]
        with pytest.raises(SimultaneousIOError, match="p0 drives two receives"):
            ReductionSchedule(3, 2, events)

    @pytest.mark.parametrize(
        "n, lam, root",
        [(0, 2, 0), (2, Fraction(1, 2), 0), (2, 2, 2)],
        ids=["no processors", "lambda below 1", "root out of range"],
    )
    def test_reduction_outside_the_model(self, n, lam, root):
        with pytest.raises(InvalidParameterError):
            ReductionSchedule(n, lam, [SendEvent(Time(0), 1, 0, 0)], root=root)

    def test_reduction_receiver_out_of_range(self):
        with pytest.raises(ScheduleError, match="receiver p7 out of range"):
            ReductionSchedule(2, 2, [SendEvent(Time(0), 1, 0, 7)])

    def test_reduction_negative_send_time(self):
        with pytest.raises(ScheduleError, match="negative send time t=-3"):
            ReductionSchedule(2, 2, [SendEvent(Time(-3), 1, 0, 0)])


class TestGossip:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_ring_time_and_completeness(self, lam, n):
        proto = GossipRingProtocol(n, lam)
        res = run_protocol(proto)
        assert res.completion_time == gossip_ring_time(n, lam)
        assert all(proto.known[p] == set(range(n)) for p in range(n))

    def test_lower_bound_below_ring(self, lam):
        for n in (2, 5, 9):
            assert gossip_lower_bound(n, lam) <= gossip_ring_time(n, lam)

    def test_ring_far_from_optimal_at_high_lambda(self):
        # the open-problem gap: ring pays (n-1)*lambda vs ~f_lambda(n)
        n, lam = 16, 10
        assert gossip_ring_time(n, lam) > 3 * gossip_lower_bound(n, lam)


class TestScatter:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", NS)
    def test_time_and_delivery(self, lam, n):
        proto = ScatterProtocol(n, lam)
        res = run_protocol(proto)
        assert res.completion_time == scatter_time(n, lam)
        assert proto.received == {i: i for i in range(n)}

    def test_custom_values(self):
        proto = ScatterProtocol(3, 2, values=["root", "x", "y"])
        run_protocol(proto)
        assert proto.received == {0: "root", 1: "x", 2: "y"}

    def test_scatter_cannot_be_beaten_by_relay(self):
        """The root must transmit n-1 distinct atomic messages itself, so
        no algorithm beats (n-2)+lambda; DTREE-style relaying of the same
        payload count only adds latency."""
        for lam in (1, Fraction(5, 2), 4):
            for n in (3, 8):
                assert scatter_time(n, lam) == (n - 2) + lam


class TestAllgather:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 14])
    def test_time_and_completeness(self, lam, n):
        proto = AllgatherProtocol(n, lam)
        res = run_protocol(proto)
        assert res.completion_time == allgather_time(n, lam)
        for p in range(n):
            assert proto.known[p] == {k: k for k in range(n)}

    def test_rumor_values_survive(self):
        rumors = ["r0", "r1", "r2", "r3"]
        proto = AllgatherProtocol(4, 2, rumors=rumors)
        run_protocol(proto)
        assert proto.known[3] == dict(enumerate(rumors))

    def test_allgather_vs_ring_crossover(self):
        """At high lambda the tree-based allgather beats the ring; at
        lambda=1 with small n the ring can win."""
        assert allgather_time(16, 10) < gossip_ring_time(16, 10)


class TestBarrier:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", NS)
    def test_barrier_time(self, lam, n):
        proto = BarrierProtocol(n, lam)
        run_protocol(proto)
        assert max(proto.released.values()) == barrier_time(n, lam)

    def test_everyone_released_after_everyone_arrived(self):
        proto = BarrierProtocol(5, 2, arrivals=[0, 0, 7, 0, 0])
        run_protocol(proto)
        # nobody may be released before the late arrival reached the
        # barrier (plus the time for its token to reach the root and the
        # release to come back: at least lambda each way)
        assert min(proto.released.values()) >= 7 + 2 * 2

    def test_arrivals_length_checked(self):
        with pytest.raises(ValueError):
            BarrierProtocol(3, 2, arrivals=[0])
