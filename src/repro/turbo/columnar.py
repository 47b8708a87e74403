"""Metrics and views over a finished run's integer columns.

A turbo or replay run is, after the fact, a few integer columns per
send: who sent which message to whom, the tick the send started and the
tick it arrived.  :class:`~repro.turbo.fastsim.TurboSystem` and
:class:`~repro.turbo.replay.ReplaySystem` both hand those columns to
the functions here instead of materializing a trace:

* :func:`count_metrics` — the run's
  :class:`~repro.obs.metrics.RunMetrics` from its counts, equal to
  folding the trace through a
  :class:`~repro.obs.metrics.MetricsCollector`.  The counts are
  :func:`tally`'s row-by-row loop, or, on the replay lane with NumPy,
  :func:`repro.batch.kernels.count_columns`'s ``bincount`` and
  ``unique`` over whole columns;
* :func:`port_views` — the port busy logs, built on demand.

The audit of those columns, the paper's certificates included, is
:func:`repro.plan.columns.audit_columns` (behind a NumPy accept test on
the replay lane, :func:`repro.plan.columns.accept_or_audit`), and the
realized schedule is
a :class:`~repro.core.schedule.Schedule` over them
(:meth:`~repro.core.schedule.Schedule.from_columns`), which builds its
events only when read.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Sequence

from repro.obs.metrics import RunMetrics
from repro.turbo.runlog import CONSUME, DELIVER, RunLog
from repro.turbo.ticks import TickDomain
from repro.types import ProcId, Time

__all__ = [
    "PortView",
    "count_metrics",
    "port_views",
    "tally",
]


def tally(
    n: int,
    senders: Iterable[ProcId],
    receivers: Iterable[ProcId],
    latencies: Iterable[int],
) -> "tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, int]]]":
    """A run's counts, row by row: the sends and receives of every
    processor, and the sorted ``(latency ticks, count)`` pairs of its
    deliveries — the inputs of :func:`count_metrics`.  The two
    per-processor tuples are the ones the metrics store.

    Args:
        senders: the sender of every send.
        receivers / latencies: the receiver and the ``arrival - start``
            ticks of every delivery.
    """
    sent = [0] * n
    for p in senders:
        sent[p] += 1
    got = [0] * n
    for p in receivers:
        got[p] += 1
    return tuple(sent), tuple(got), sorted(Counter(latencies).items())


def count_metrics(
    n: int,
    lam: Time,
    domain: TickDomain,
    sends: "tuple[int, ...]",
    receives: "tuple[int, ...]",
    by_latency: "Sequence[tuple[int, int]]",
    makespan: Time,
    *,
    log: "RunLog | None" = None,
) -> RunMetrics:
    """A run's :class:`~repro.obs.metrics.RunMetrics`, from its counts.

    Args:
        n / lam / domain: the machine and its tick grid.
        sends / receives: each processor's send and delivery counts,
            stored as given.
        by_latency: the sorted ``(arrival - start ticks, count)`` pairs
            of the deliveries (:func:`tally` counts all three).
        makespan: the last arrival.
        log: the run's :class:`~repro.turbo.runlog.RunLog`, when its
            programs consume deliveries.  Its ``DELIVER`` and ``CONSUME``
            rows, in append order, replay every inbox: a receive queues
            its arrival tick, a consume takes the oldest one (inboxes are
            FIFO), so depth, high-water mark, residual, consume count
            and the longest wait follow.  Without a log nothing is
            consumed: each inbox only fills, to its receive count.

    Equal, field for field, to folding the run's trace through a
    :class:`~repro.obs.metrics.MetricsCollector`.
    """
    deliveries = sum(receives)
    to_time = domain.to_time
    histogram = tuple((to_time(lat), count) for lat, count in by_latency)

    consumed = 0
    max_wait: Time | None = None
    if log is None:
        high_water = residual = receives
    else:
        queues: list[deque] = [deque() for _ in range(n)]
        high = [0] * n
        longest = 0
        for code, tick, proc in zip(log.codes, log.ticks, log.b):
            if code == DELIVER:
                queue = queues[proc]
                queue.append(tick)
                if len(queue) > high[proc]:
                    high[proc] = len(queue)
            elif code == CONSUME:
                consumed += 1
                wait = tick - queues[proc].popleft()
                if wait > longest:
                    longest = wait
        high_water = tuple(high)
        residual = tuple(map(len, queues))
        if consumed:
            max_wait = to_time(longest)

    return RunMetrics(
        n=n,
        lam=lam,
        makespan=makespan,
        total_sends=sum(sends),
        total_deliveries=deliveries,
        total_consumed=consumed,
        total_drops=0,
        sends=sends,
        receives=receives,
        inbox_high_water=high_water,
        inbox_residual=residual,
        latency_histogram=histogram,
        min_latency=histogram[0][0] if histogram else None,
        max_latency=histogram[-1][0] if histogram else None,
        mean_latency=(
            Time(
                sum(lat * count for lat, count in by_latency),
                domain.scale * deliveries,
            )
            if deliveries
            else None
        ),
        max_inbox_wait=max_wait,
    )


class PortView:
    """A finished port's busy log, duck-typing the auditor-facing slice of
    :class:`~repro.postal.ports._Port`."""

    __slots__ = ("proc", "busy_intervals")

    def __init__(self, proc: ProcId, busy_intervals: list[tuple[Time, Time]]):
        self.proc = proc
        self.busy_intervals = busy_intervals


def port_views(
    n: int, domain: TickDomain, procs: Iterable[ProcId], ticks: Iterable[int]
) -> list[PortView]:
    """One :class:`PortView` per processor: each ``(proc, tick)`` pair
    occupies *proc*'s port for ``[tick, tick + 1)``."""
    one = domain.scale
    per_proc: list[list[int]] = [[] for _ in range(n)]
    for p, t in zip(procs, ticks):
        per_proc[p].append(t)
    to_time = domain.to_time
    return [
        PortView(p, [(to_time(t), to_time(t + one)) for t in sorted(busy)])
        for p, busy in enumerate(per_proc)
    ]
