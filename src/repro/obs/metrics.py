"""Run metrics, computed live from the trace stream.

A :class:`MetricsCollector` subscribes to a
:class:`~repro.sim.trace.Tracer` and folds every record into
per-processor integer counters, keeping each delivery's send and arrival
times and each consumption's wait as they come;
:meth:`MetricsCollector.finalize` converts those times once to exact
integer ticks (at the least scale that holds them all) and freezes the
whole into a :class:`RunMetrics` summary.  The summary's times are exact
:class:`fractions.Fraction`\\ s, one per distinct value, so they compare
against the paper's closed forms with ``==``:

* **makespan** — arrival of the last message, the paper's ``T_A(n, m,
  lambda)`` (Lemmas 10/12/14/16 give it in closed form for
  REPEAT/PACK/PIPELINE).
* **send/receive busy time** — one unit per traced send/delivery
  (Definition 1: ports are unit-rate), so busy time is exactly the event
  count.
* **port utilization** — busy time over makespan.  Lemma 8's lower bound
  ``(m-1) + f_lambda(n)`` is at heart a *root send-port utilization*
  argument: the root alone must emit ``m`` distinct messages.
* **inbox high-water mark** — peak queue depth between delivery
  (``"deliver"``) and consumption (``"consume"``); bounded streams are
  what make PIPELINE's order preservation cheap.
* **latency histogram** — exact ``arrived_at - sent_at`` per delivery:
  a single bucket at ``lambda`` under the strict uniform policy, a
  spread under the queued policy or pair-dependent latencies.

The collector never inspects the system it observes — everything derives
from the trace stream alone, which is what makes the numbers auditable
(the trace is one of the three independent records ``validate_run``
cross-checks).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import sub
from typing import TYPE_CHECKING, Any, Mapping

from repro.sim.trace import TraceRecord, Tracer
from repro.types import Time, ZERO, time_repr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.postal.machine import PostalSystem

__all__ = [
    "RunMetrics",
    "MetricsCollector",
    "collect_metrics",
    "cross_check_metrics",
]


def _per_proc(counts: Mapping[int, Any], n: int, default: Any) -> tuple:
    return tuple(counts.get(p, default) for p in range(n))


@dataclass(frozen=True)
class RunMetrics:
    """Frozen summary of one run's trace stream.

    All times are exact :class:`~fractions.Fraction`; per-processor
    sequences are indexed by processor id.  Two runs of the same
    deterministic protocol produce *equal* ``RunMetrics`` (asserted in the
    test suite).

    The per-processor busy times and utilizations are functions of
    ``sends``, ``receives`` and ``makespan``, so they are no fields:
    each is built on first read and cached.  ``==``, ``hash``,
    ``repr`` and pickling see the fields alone; :meth:`to_dict` lists
    all four.
    """

    n: int
    lam: Time | None
    makespan: Time
    total_sends: int
    total_deliveries: int
    total_consumed: int
    total_drops: int
    sends: tuple[int, ...]
    receives: tuple[int, ...]
    inbox_high_water: tuple[int, ...]
    inbox_residual: tuple[int, ...]
    latency_histogram: tuple[tuple[Time, int], ...]
    min_latency: Time | None
    max_latency: Time | None
    mean_latency: Time | None
    max_inbox_wait: Time | None

    def __reduce__(self):
        # the derived tuples are a cache: a pickle carries the fields only
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    # ---------------------------------------------------- derived on read

    @cached_property
    def send_busy(self) -> tuple[Time, ...]:
        """Each send port's busy time: one unit per send (Definition 1)."""
        return tuple(map(Time, self.sends))

    @cached_property
    def recv_busy(self) -> tuple[Time, ...]:
        """Each receive port's busy time: one unit per delivery."""
        return tuple(map(Time, self.receives))

    @cached_property
    def send_utilization(self) -> tuple[Time, ...]:
        """Send busy time over the makespan (``ZERO`` at makespan 0)."""
        return self._utilization(self.send_busy)

    @cached_property
    def recv_utilization(self) -> tuple[Time, ...]:
        """Receive busy time over the makespan (``ZERO`` at makespan 0)."""
        return self._utilization(self.recv_busy)

    def _utilization(self, busy: tuple[Time, ...]) -> tuple[Time, ...]:
        makespan = self.makespan
        if not makespan:
            return (ZERO,) * len(busy)
        return tuple(b / makespan for b in busy)

    # ------------------------------------------------------------ queries

    def busiest_sender(self) -> int:
        """Processor with the most sends (ties break low)."""
        return max(range(self.n), key=lambda p: (self.sends[p], -p))

    def deepest_inbox(self) -> int:
        """Processor with the highest inbox high-water mark (ties low)."""
        return max(range(self.n), key=lambda p: (self.inbox_high_water[p], -p))

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict: Fractions rendered via ``str`` (``"5/2"``)."""

        def t(v):
            return None if v is None else str(v)

        return {
            "n": self.n,
            "lam": t(self.lam),
            "makespan": t(self.makespan),
            "total_sends": self.total_sends,
            "total_deliveries": self.total_deliveries,
            "total_consumed": self.total_consumed,
            "total_drops": self.total_drops,
            "sends": list(self.sends),
            "receives": list(self.receives),
            "send_busy": [t(v) for v in self.send_busy],
            "recv_busy": [t(v) for v in self.recv_busy],
            "send_utilization": [t(v) for v in self.send_utilization],
            "recv_utilization": [t(v) for v in self.recv_utilization],
            "inbox_high_water": list(self.inbox_high_water),
            "inbox_residual": list(self.inbox_residual),
            "latency_histogram": [
                [t(latency), count] for latency, count in self.latency_histogram
            ],
            "min_latency": t(self.min_latency),
            "max_latency": t(self.max_latency),
            "mean_latency": t(self.mean_latency),
            "max_inbox_wait": t(self.max_inbox_wait),
        }

    def __str__(self) -> str:
        lam = "?" if self.lam is None else time_repr(self.lam)
        return (
            f"RunMetrics(n={self.n}, lambda={lam}, "
            f"makespan={time_repr(self.makespan)}, "
            f"sends={self.total_sends}, drops={self.total_drops})"
        )


class MetricsCollector:
    """Folds a trace stream into exact run metrics.

    Typical lifecycle (what :func:`repro.postal.runner.run_protocol`
    does)::

        collector = MetricsCollector()
        collector.attach(tracer)        # live subscription
        ...                             # run the simulation
        metrics = collector.finalize(n=system.n, lam=system.lam)
        collector.detach()              # explicit teardown

    A collector may also be applied *post hoc* to a finished tracer —
    :meth:`attach` with ``replay=True`` (the default) folds in records
    that were emitted before the subscription.
    """

    def __init__(self) -> None:
        self._tracer: Tracer | None = None
        self.reset()

    def reset(self) -> None:
        """Zero every counter (the attachment, if any, is kept)."""
        self._sends: dict[int, int] = {}
        self._recvs: dict[int, int] = {}
        self._consumed: dict[int, int] = {}
        self._drops = 0
        self._depth: dict[int, int] = {}
        self._high_water: dict[int, int] = {}
        # times as traced; finalize converts them to ticks once
        self._sent_at: list[Time] = []
        self._arrived_at: list[Time] = []
        self._waited: list[Time] = []

    # -------------------------------------------------------- subscription

    def attach(self, tracer: Tracer, *, replay: bool = True) -> "MetricsCollector":
        """Subscribe to *tracer* (optionally replaying its existing
        records first).  Returns ``self`` for chaining."""
        if self._tracer is not None:
            raise ValueError("collector is already attached to a tracer")
        if replay:
            for rec in tracer:
                self.on_record(rec)
        tracer.subscribe(self.on_record)
        self._tracer = tracer
        return self

    def detach(self) -> None:
        """Unsubscribe from the attached tracer."""
        if self._tracer is None:
            raise ValueError("collector is not attached to a tracer")
        self._tracer.unsubscribe(self.on_record)
        self._tracer = None

    @property
    def attached(self) -> bool:
        return self._tracer is not None

    # ------------------------------------------------------------ folding

    def on_record(self, rec: TraceRecord) -> None:
        """Fold one trace record (the subscriber callback)."""
        kind = rec.kind
        if kind == "send":
            src = rec.data["src"]
            self._sends[src] = self._sends.get(src, 0) + 1
        elif kind == "deliver":
            msg = rec.data
            dst = msg.dst
            self._recvs[dst] = self._recvs.get(dst, 0) + 1
            depth = self._depth.get(dst, 0) + 1
            self._depth[dst] = depth
            if depth > self._high_water.get(dst, 0):
                self._high_water[dst] = depth
            self._sent_at.append(msg.sent_at)
            self._arrived_at.append(msg.arrived_at)
        elif kind == "consume":
            data = rec.data
            proc = data["proc"]
            self._consumed[proc] = self._consumed.get(proc, 0) + 1
            self._depth[proc] = self._depth.get(proc, 0) - 1
            self._waited.append(data["waited"])
        elif kind == "drop":
            self._drops += 1
        # unknown kinds are ignored: forward-compatible with extensions

    # ----------------------------------------------------------- summary

    def finalize(self, *, n: int, lam: Time | None = None) -> RunMetrics:
        """Freeze the counters into a :class:`RunMetrics` for an
        ``n``-processor machine with nominal latency *lam*.

        The kept times are converted to ticks here, on every call, so a
        later call also counts the records folded since."""
        sends = _per_proc(self._sends, n, 0)
        recvs = _per_proc(self._recvs, n, 0)
        # every time at one scale, the least that holds them all
        times = (self._sent_at, self._arrived_at, self._waited)
        scale = math.lcm(*{t.denominator for t in chain(*times)})
        sent, arrived, waits = (
            [t.numerator * (scale // t.denominator) for t in column]
            for column in times
        )
        latency = Counter(map(sub, arrived, sent))
        histogram = tuple(
            (Fraction(tick, scale), latency[tick]) for tick in sorted(latency)
        )
        return RunMetrics(
            n=n,
            lam=lam,
            makespan=Fraction(max([0, *arrived]), scale),
            total_sends=sum(sends),
            total_deliveries=sum(recvs),
            total_consumed=sum(self._consumed.values()),
            total_drops=self._drops,
            sends=sends,
            receives=recvs,
            inbox_high_water=_per_proc(self._high_water, n, 0),
            inbox_residual=_per_proc(self._depth, n, 0),
            latency_histogram=histogram,
            min_latency=histogram[0][0] if histogram else None,
            max_latency=histogram[-1][0] if histogram else None,
            mean_latency=(
                Fraction(sum(arrived) - sum(sent), scale * len(arrived))
                if arrived
                else None
            ),
            max_inbox_wait=Fraction(max(waits), scale) if waits else None,
        )


def cross_check_metrics(metrics: RunMetrics, schedule) -> list[str]:
    """Diff a trace-derived :class:`RunMetrics` against an independently
    built :class:`~repro.core.schedule.Schedule` — the observability half
    of the conformance certificate (``repro.conformance``).

    Returns a list of human-readable discrepancy strings (empty = the two
    records agree).  Checked: makespan vs completion time, total sends vs
    event count, per-processor send/receive counts, and (uniform strict
    runs) the latency histogram collapsing to a single ``lambda`` bucket.
    """
    problems: list[str] = []
    completion = schedule.completion_time()
    if metrics.makespan != completion:
        problems.append(
            f"makespan {time_repr(metrics.makespan)} != schedule completion "
            f"{time_repr(completion)}"
        )
    if metrics.total_sends != len(schedule.events):
        problems.append(
            f"total_sends {metrics.total_sends} != "
            f"{len(schedule.events)} schedule events"
        )
    if metrics.total_deliveries != len(schedule.events):
        problems.append(
            f"total_deliveries {metrics.total_deliveries} != "
            f"{len(schedule.events)} schedule events"
        )
    sends: dict[int, int] = {}
    recvs: dict[int, int] = {}
    for ev in schedule.events:
        sends[ev.sender] = sends.get(ev.sender, 0) + 1
        recvs[ev.receiver] = recvs.get(ev.receiver, 0) + 1
    for p in range(metrics.n):
        if metrics.sends[p] != sends.get(p, 0):
            problems.append(
                f"p{p}: {metrics.sends[p]} traced sends != "
                f"{sends.get(p, 0)} schedule events"
            )
        if metrics.receives[p] != recvs.get(p, 0):
            problems.append(
                f"p{p}: {metrics.receives[p]} traced deliveries != "
                f"{recvs.get(p, 0)} schedule events"
            )
    if metrics.lam is not None and metrics.latency_histogram:
        buckets = [latency for latency, _ in metrics.latency_histogram]
        if buckets != [metrics.lam]:
            problems.append(
                f"latency histogram buckets "
                f"{[time_repr(b) for b in buckets]} != [lambda] — "
                f"a uniform strict run must pay exactly lambda per hop"
            )
    return problems


def collect_metrics(system: "PostalSystem") -> RunMetrics:
    """Post-hoc metrics for a finished :class:`~repro.postal.machine.
    PostalSystem`: replay its trace through a fresh collector."""
    collector = MetricsCollector()
    for rec in system.tracer:
        collector.on_record(rec)
    return collector.finalize(n=system.n, lam=system.lam)
