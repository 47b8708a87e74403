"""Tests for the observability metrics layer (repro.obs.metrics).

Covers: exact-Fraction metric values against closed forms, determinism of
repeated runs, the busy and utilization tuples derived on first read (on
every lane), the consume/drop trace kinds, collector lifecycle, and the
docs <-> code schema-sync contract (every kind in TRACE_KINDS is both
documented in docs/observability.md and exercised by a run).
"""

import dataclasses
import pathlib
import pickle
from fractions import Fraction

import pytest

from repro.algorithms.bcast_protocol import BcastProtocol
from repro.algorithms.pack_protocol import PackProtocol
from repro.algorithms.pipeline_protocol import PipelineProtocol
from repro.algorithms.repeat_protocol import RepeatProtocol
from repro.core.analysis import bcast_time, pipeline_time
from repro.extensions.faulty import LossyPostalSystem
from repro.obs import MetricsCollector, collect_metrics
from repro.postal.machine import ContentionPolicy
from repro.postal.runner import run_protocol
from repro.sim.engine import Environment
from repro.sim.trace import TRACE_KINDS, Tracer
from repro.types import Time

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


class TestRunMetricsValues:
    def test_bcast_makespan_is_theorem_6(self):
        result = run_protocol(BcastProtocol(14, "5/2"))
        metrics = result.metrics
        assert metrics is not None
        assert metrics.makespan == bcast_time(14, "5/2") == Fraction(15, 2)
        assert metrics.total_sends == 13  # one send per non-root processor
        assert metrics.total_deliveries == 13

    def test_pipeline_closed_form_and_histogram(self):
        result = run_protocol(PipelineProtocol(14, 4, "5/2"))
        metrics = result.metrics
        assert metrics.makespan == pipeline_time(14, 4, "5/2")
        # strict policy, uniform latency: exactly one histogram bucket at lam
        assert metrics.latency_histogram == (
            (Fraction(5, 2), metrics.total_deliveries),
        )
        assert metrics.min_latency == metrics.max_latency == Fraction(5, 2)
        assert metrics.mean_latency == Fraction(5, 2)

    def test_busy_time_equals_event_count(self):
        metrics = run_protocol(PipelineProtocol(8, 2, 2)).metrics
        for p in range(metrics.n):
            assert metrics.send_busy[p] == Time(metrics.sends[p])
            assert metrics.recv_busy[p] == Time(metrics.receives[p])

    def test_utilization_bounded_by_one(self):
        metrics = run_protocol(RepeatProtocol(13, 3, 2)).metrics
        for p in range(metrics.n):
            assert 0 <= metrics.send_utilization[p] <= 1
            assert 0 <= metrics.recv_utilization[p] <= 1

    def test_root_sends_receives_nothing(self):
        metrics = run_protocol(BcastProtocol(21, 2)).metrics
        assert metrics.receives[0] == 0
        assert metrics.sends[0] > 0
        assert metrics.busiest_sender() == 0

    def test_conservation_under_strict(self):
        metrics = run_protocol(PackProtocol(13, 3, "5/2")).metrics
        # lossless machine: every send is delivered
        assert metrics.total_deliveries == metrics.total_sends
        assert metrics.total_drops == 0

    def test_inbox_accounting(self):
        metrics = run_protocol(PipelineProtocol(8, 3, 2)).metrics
        for p in range(metrics.n):
            assert metrics.inbox_high_water[p] >= metrics.inbox_residual[p]
            assert metrics.inbox_high_water[p] <= metrics.receives[p]
        # residual = delivered but never consumed
        assert sum(metrics.inbox_residual) == (
            metrics.total_deliveries - metrics.total_consumed
        )

    def test_to_dict_is_json_safe(self):
        import json

        metrics = run_protocol(BcastProtocol(5, "3/2")).metrics
        text = json.dumps(metrics.to_dict())
        data = json.loads(text)
        assert data["n"] == 5
        assert data["makespan"] == str(metrics.makespan)

    def test_str(self):
        metrics = run_protocol(BcastProtocol(5, 2)).metrics
        assert "n=5" in str(metrics) and "lambda=2" in str(metrics)


class TestDeterminism:
    @pytest.mark.parametrize(
        "proto",
        [
            lambda: BcastProtocol(14, "5/2"),
            lambda: PipelineProtocol(14, 4, "5/2"),
            lambda: RepeatProtocol(8, 3, 2),
        ],
        ids=["bcast", "pipeline", "repeat"],
    )
    def test_repeated_runs_equal(self, proto):
        a = run_protocol(proto()).metrics
        b = run_protocol(proto()).metrics
        assert a == b  # RunMetrics is a frozen dataclass: field equality

    def test_post_hoc_replay_matches_live(self):
        result = run_protocol(PipelineProtocol(14, 4, "5/2"))
        replayed = collect_metrics(result.system)
        assert replayed == result.metrics

    def test_collect_false_skips(self):
        result = run_protocol(BcastProtocol(5, 2), collect=False)
        assert result.metrics is None


#: (family, n, m, lambda): every lane and policy runs each point; at
#: n = 1 nothing is sent and the makespan is 0
DERIVED_GRID = [
    ("BCAST", 9, 1, "5/2"),
    ("PIPELINE", 9, 3, "5/2"),
    ("ALLGATHER", 6, 1, "7/3"),
    ("BCAST", 1, 1, "2"),
    ("PIPELINE", 1, 2, "2"),
    ("ALLGATHER", 1, 1, "2"),
]
DERIVED = ("send_busy", "recv_busy", "send_utilization", "recv_utilization")


def _eager(metrics):
    """The four tuples by their defining formula, built eagerly."""
    makespan = metrics.makespan
    send_busy = tuple(Time(c) for c in metrics.sends)
    recv_busy = tuple(Time(c) for c in metrics.receives)
    if makespan > 0:
        send_util = tuple(b / makespan for b in send_busy)
        recv_util = tuple(b / makespan for b in recv_busy)
    else:
        send_util = recv_util = tuple(Fraction(0) for _ in range(metrics.n))
    return dict(zip(DERIVED, (send_busy, recv_busy, send_util, recv_util)))


@pytest.mark.parametrize("backend", ["exact", "turbo", "replay"])
@pytest.mark.parametrize(
    "policy",
    [ContentionPolicy.STRICT, ContentionPolicy.QUEUED],
    ids=lambda p: p.value,
)
@pytest.mark.parametrize(
    "point", DERIVED_GRID, ids=lambda p: f"{p[0]}-n{p[1]}-m{p[2]}"
)
class TestDerivedTuples:
    """``send_busy``, ``recv_busy`` and the two utilizations are built
    on first read, and reading them changes nothing a caller compares."""

    @staticmethod
    def _run(point, policy, backend):
        family, n, m, lam = point
        return run_protocol(
            family, n=n, m=m, lam=lam, policy=policy, backend=backend
        ).metrics

    def test_each_tuple_equals_the_eager_formula(self, point, policy, backend):
        metrics = self._run(point, policy, backend)
        assert not set(DERIVED) & vars(metrics).keys()  # none built yet
        for name, want in _eager(metrics).items():
            got = getattr(metrics, name)
            assert type(got) is tuple and len(got) == metrics.n, name
            for a, b in zip(got, want):
                assert a == b and type(a) is Fraction, name
            assert getattr(metrics, name) is got  # cached
        if point[1] == 1:
            assert metrics.makespan == 0
            assert metrics.send_utilization == metrics.recv_utilization == (0,)

    def test_reading_the_tuples_changes_no_comparison(
        self, point, policy, backend
    ):
        unread, read = (self._run(point, policy, backend) for _ in range(2))
        for name in DERIVED:
            getattr(read, name)
        assert unread == read and hash(unread) == hash(read)
        assert repr(unread) == repr(read)
        assert not set(DERIVED) & vars(unread).keys()
        assert unread.to_dict() == read.to_dict()

    def test_pickle_and_replace_give_equal_objects(self, point, policy, backend):
        metrics = self._run(point, policy, backend)
        want = _eager(metrics)
        unread_pickle = pickle.dumps(metrics)
        for read in (False, True):
            if read:
                for name in DERIVED:
                    getattr(metrics, name)
                # the cache stays out of the pickle
                assert pickle.dumps(metrics) == unread_pickle
            for copy in (
                pickle.loads(pickle.dumps(metrics)),
                dataclasses.replace(metrics),
            ):
                assert copy == metrics and hash(copy) == hash(metrics)
                assert copy.to_dict() == metrics.to_dict()
        # a replaced field is read afresh, not from the original's cache
        doubled = dataclasses.replace(metrics, makespan=2 * metrics.makespan)
        assert doubled.send_busy == want["send_busy"]
        if metrics.makespan:
            assert doubled.send_utilization == tuple(
                u / 2 for u in want["send_utilization"]
            )


class TestCollectorLifecycle:
    def test_double_attach_rejected(self):
        collector = MetricsCollector()
        collector.attach(Tracer())
        with pytest.raises(ValueError):
            collector.attach(Tracer())

    def test_detach_without_attach_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().detach()

    def test_attach_replay_folds_existing_records(self):
        tracer = Tracer()
        tracer.emit(Time(0), "send", {"src": 0, "dst": 1, "msg": 0})
        collector = MetricsCollector().attach(tracer)
        metrics = collector.finalize(n=2)
        assert metrics.total_sends == 1
        assert collector.attached
        collector.detach()
        assert not collector.attached

    def test_attach_no_replay(self):
        tracer = Tracer()
        tracer.emit(Time(0), "send", {"src": 0, "dst": 1, "msg": 0})
        collector = MetricsCollector()
        collector.attach(tracer, replay=False)
        assert collector.finalize(n=2).total_sends == 0

    def test_unknown_kind_ignored(self):
        collector = MetricsCollector()
        collector.on_record(
            Tracer().emit(Time(1), "future-extension", {"x": 1})
        )
        assert collector.finalize(n=1).total_sends == 0

    def test_reset_zeroes_counters(self):
        tracer = Tracer()
        collector = MetricsCollector().attach(tracer)
        tracer.emit(Time(0), "send", {"src": 0, "dst": 1, "msg": 0})
        collector.reset()
        assert collector.finalize(n=2).total_sends == 0


class TestTraceKinds:
    """Every documented kind is emitted by a real run."""

    def test_consume_records_emitted(self):
        result = run_protocol(PipelineProtocol(8, 2, 2))
        consumes = result.system.tracer.records("consume")
        assert consumes, "protocol runs must emit consume records"
        for rec in consumes:
            assert set(rec.data) == {"proc", "msg", "src", "waited"}
            assert rec.data["waited"] >= 0

    def test_consume_counted(self):
        metrics = run_protocol(PipelineProtocol(8, 2, 2)).metrics
        assert metrics.total_consumed > 0
        assert metrics.max_inbox_wait is not None
        assert metrics.max_inbox_wait >= 0

    def test_drop_records_counted(self):
        env = Environment()
        system = LossyPostalSystem(env, 2, 2, loss=0.99, seed=7)

        def prog():
            for k in range(30):
                yield system.send(0, 1, k)

        env.process(prog())
        env.run()
        metrics = collect_metrics(system)
        assert metrics.total_drops == system.dropped > 0
        assert metrics.total_deliveries == 30 - metrics.total_drops

    def test_all_kinds_exercised(self):
        seen = set()
        result = run_protocol(PipelineProtocol(8, 2, 2))
        seen.update(r.kind for r in result.system.tracer)
        env = Environment()
        lossy = LossyPostalSystem(env, 2, 2, loss=0.99, seed=7)

        def prog():
            for k in range(30):
                yield lossy.send(0, 1, k)

        env.process(prog())
        env.run()
        seen.update(r.kind for r in lossy.tracer)
        assert seen == set(TRACE_KINDS)

    def test_docs_schema_in_sync(self):
        """docs/observability.md documents exactly the kinds in
        TRACE_KINDS (the satellite's doc <-> code sync contract)."""
        text = (DOCS / "observability.md").read_text()
        for kind in TRACE_KINDS:
            assert f"| `{kind}` |" in text, (
                f"trace kind {kind!r} missing from the schema table in "
                "docs/observability.md"
            )
