"""Tests for the personalized collectives (gather, alltoall) and
allreduce."""

from fractions import Fraction

import pytest

from repro.collectives.allreduce import (
    AllreduceProtocol,
    allreduce_lower_bound,
    allreduce_time,
)
from repro.collectives.alltoall import (
    AllToAllProtocol,
    alltoall_schedule,
    alltoall_time,
)
from repro.collectives.gather import GatherProtocol, gather_schedule, gather_time
from repro.collectives.scatter import scatter_time
from repro.core.fibfunc import postal_f
from repro.postal import run_protocol

from tests.grids import LAMBDAS

NS = [1, 2, 3, 5, 9, 14]


class TestGather:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", NS)
    def test_time_and_contents(self, lam, n):
        proto = GatherProtocol(n, lam)
        res = run_protocol(proto)
        assert res.completion_time == gather_time(n, lam)
        assert proto.collected == {i: i for i in range(n)}

    def test_custom_values(self):
        proto = GatherProtocol(3, 2, values=["a", "b", "c"])
        run_protocol(proto)
        assert proto.collected == {0: "a", 1: "b", 2: "c"}

    def test_mirror_of_scatter(self, lam):
        for n in (2, 8, 14):
            assert gather_time(n, lam) == scatter_time(n, lam)

    def test_schedule_root_port_serializes(self):
        lam = Fraction(5, 2)
        events = gather_schedule(9, lam)
        # back to back: unit receive windows, disjoint and with no idle gap
        arrivals = sorted(e.arrival_time(lam) for e in events)
        assert all(b - a == 1 for a, b in zip(arrivals, arrivals[1:]))

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            GatherProtocol(3, 2, values=[1])


class TestAllToAll:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", NS)
    def test_time_and_transpose(self, lam, n):
        proto = AllToAllProtocol(n, lam)
        res = run_protocol(proto)
        assert res.completion_time == alltoall_time(n, lam)
        for j in range(n):
            expected = {i: f"{i}->{j}" for i in range(n) if i != j}
            expected[j] = f"{j}->{j}"
            assert proto.received[j] == expected

    def test_rotation_schedule_is_permutation_rounds(self):
        n = 7
        events = alltoall_schedule(n, 2)
        by_round: dict[int, list] = {}
        for e in events:
            by_round.setdefault(int(e.send_time), []).append(e)
        for r, evs in by_round.items():
            senders = [e.sender for e in evs]
            receivers = [e.receiver for e in evs]
            assert sorted(senders) == list(range(n))
            assert sorted(receivers) == list(range(n))
            assert all(e.sender != e.receiver for e in evs)

    def test_send_count(self):
        proto = AllToAllProtocol(6, 2)
        res = run_protocol(proto)
        assert res.sends == 6 * 5

    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            AllToAllProtocol(3, 2, values=[[1, 2, 3]])

    def test_optimality_argument(self, lam):
        # each port must move n-1 units: the rotation meets the port bound
        for n in (2, 8):
            assert alltoall_time(n, lam) == (n - 2) + lam


class TestAllreduce:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 14])
    def test_time_and_result(self, lam, n):
        proto = AllreduceProtocol(n, lam)
        res = run_protocol(proto)
        assert res.completion_time == allreduce_time(n, lam) == 2 * postal_f(lam, n)
        assert all(v == sum(range(n)) for v in proto.results.values())
        assert len(proto.results) == n

    def test_single_processor(self):
        proto = AllreduceProtocol(1, 2, values=[42])
        run_protocol(proto)
        assert proto.results == {0: 42}

    def test_custom_op(self):
        proto = AllreduceProtocol(6, 2, op=max, values=[3, 9, 1, 7, 2, 5])
        run_protocol(proto)
        assert all(v == 9 for v in proto.results.values())

    def test_lower_bound_relation(self, lam):
        for n in (2, 8, 14):
            lb = allreduce_lower_bound(n, lam)
            t = allreduce_time(n, lam)
            assert lb <= t <= 2 * lb  # within factor 2 of the combine LB

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            AllreduceProtocol(3, 2, values=[1])


class TestSimCommIntegration:
    def test_new_collectives_via_facade(self):
        from repro.mpi import SimComm

        comm = SimComm(6, Fraction(5, 2))
        out = comm.gather(list("abcdef"))
        assert out.values == list("abcdef")
        assert out.time == gather_time(6, Fraction(5, 2))

        matrix = [[f"{i}{j}" for j in range(6)] for i in range(6)]
        out = comm.alltoall(matrix)
        assert out.values[2][4] == "42"  # rank 4's message for rank 2
        assert out.time == alltoall_time(6, Fraction(5, 2))

        out = comm.allreduce([1, 2, 3, 4, 5, 6])
        assert out.values == [21] * 6
        assert out.time == allreduce_time(6, Fraction(5, 2))
