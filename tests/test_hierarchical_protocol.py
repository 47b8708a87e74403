"""Tests for pair-dependent latency and the event-driven hierarchical
broadcast."""

from fractions import Fraction

import pytest

from repro.errors import InvalidParameterError, ModelError
from repro.extensions.hierarchical import (
    HierarchicalBcastProtocol,
    HierarchicalSystem,
    flat_bcast_time,
    hierarchical_bcast_time,
)
from repro.postal import run_protocol
from repro.postal.machine import PostalSystem
from repro.postal.validator import schedule_from_trace
from repro.sim.engine import Environment

CASES = [
    (8, 32, 1, 12),
    (16, 16, 2, 8),
    (4, 64, 1, 30),
    (1, 16, 2, 5),
    (5, 1, 1, 3),
    (4, 4, 3, 3),
    (3, 7, Fraction(3, 2), Fraction(5, 2)),
]


class TestPairLatencyMachine:
    def test_latency_lookup(self):
        env = Environment()
        sys_ = PostalSystem(
            env, 4, 10, latency=lambda s, d: 2 if (s // 2) == (d // 2) else 10
        )
        assert not sys_.uniform_latency
        assert sys_.latency(0, 1) == 2
        assert sys_.latency(0, 2) == 10

    def test_uniform_by_default(self):
        sys_ = PostalSystem(Environment(), 4, 3)
        assert sys_.uniform_latency
        assert sys_.latency(0, 3) == 3

    def test_bad_latency_value_rejected(self):
        env = Environment()
        sys_ = PostalSystem(env, 2, 2, latency=lambda s, d: Fraction(1, 2))
        with pytest.raises(InvalidParameterError):
            sys_.latency(0, 1)

    def test_delivery_uses_pair_latency(self):
        env = Environment()
        sys_ = PostalSystem(env, 3, 10, latency=lambda s, d: 2 + d)
        arrivals = {}

        def tx():
            yield sys_.send(0, 1, 0)
            yield sys_.send(0, 2, 0)

        def rx(p):
            message = yield sys_.recv(p)
            arrivals[p] = message.arrived_at

        env.process(tx())
        env.process(rx(1))
        env.process(rx(2))
        env.run()
        assert arrivals[1] == 0 + 3  # latency 2+1
        assert arrivals[2] == 1 + 4  # sent at 1, latency 2+2

    def test_schedule_reconstruction_refused(self):
        env = Environment()
        sys_ = PostalSystem(env, 2, 2, latency=lambda s, d: 2)

        def tx():
            yield sys_.send(0, 1, 0)

        env.process(tx())
        env.run()
        with pytest.raises(ModelError):
            schedule_from_trace(sys_, m=1)


class TestHierarchicalProtocol:
    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_matches_closed_form(self, case):
        k, c, ll, lg = case
        sys_ = HierarchicalSystem.of(k, c, ll, lg)
        proto = HierarchicalBcastProtocol(sys_)
        run_protocol(proto)  # port audit runs; no schedule (pair latency)
        assert len(proto.informed_at) == sys_.n
        assert max(proto.informed_at.values()) == hierarchical_bcast_time(
            sys_, overlap=True
        )

    def test_everyone_informed_once(self):
        sys_ = HierarchicalSystem.of(4, 8, 1, 6)
        proto = HierarchicalBcastProtocol(sys_)
        res = run_protocol(proto)
        assert set(proto.informed_at) == set(range(32))
        assert res.sends == 31  # one delivery per non-root processor

    def test_beats_flat_baseline_in_simulation(self):
        sys_ = HierarchicalSystem.of(8, 32, 1, 12)
        proto = HierarchicalBcastProtocol(sys_)
        run_protocol(proto)
        assert max(proto.informed_at.values()) < flat_bcast_time(sys_)

    def test_overlap_at_least_as_good_in_simulation(self):
        for case in CASES:
            sys_ = HierarchicalSystem.of(*case)
            proto = HierarchicalBcastProtocol(sys_)
            run_protocol(proto)
            assert max(proto.informed_at.values()) <= hierarchical_bcast_time(
                sys_, overlap=False
            )

    @pytest.mark.parametrize(
        "case", [(4, 8, 1, 6), (8, 32, 1, 12), (3, 5, 2, 7)], ids=str
    )
    def test_turbo_lane_matches_exact(self, case):
        """Pair latencies on the turbo lane: audited on its columns, the
        same completion, sends and metrics as the exact engine."""
        sys_ = HierarchicalSystem.of(*case)
        exact = run_protocol(HierarchicalBcastProtocol(sys_))
        turbo = run_protocol(HierarchicalBcastProtocol(sys_), backend="turbo")
        assert turbo.schedule is None
        assert turbo.completion_time == exact.completion_time
        assert turbo.completion_time == hierarchical_bcast_time(sys_)
        assert turbo.sends == exact.sends == sys_.n - 1
        assert turbo.metrics == exact.metrics
