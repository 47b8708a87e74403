"""Metric names, units, and how each is computed from one run.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced run (see ``perfbench/README.md`` for which workload each is meant
to move).  Per-layer times and counts are *per call*: the layer's total
over the traced calls divided by the number of calls.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from workloads import TAIL_PERCENTILE

#: Wall seconds :func:`host_reference` takes on the nominal host: an idle
#: 2-core 2.1 GHz Xeon VM.  End-to-end times are reported as seconds on
#: that host (see README.md).
REFERENCE_S = 0.085

END_TO_END = {
    "call_p50_s": "s",
    "call_tail_s": "s",
    "sends_per_s": "1/s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer time metric -> the span it sums (self time, per call)
SPAN_TIMES = {
    "replay.kernel_s": "replay.kernel",
    "replay.materialize_s": "replay.materialize",
    "replay.flush_trace_s": "replay.flush_trace",
    "validator.validate_s": "validator.validate",
    "validator.audit_ports_s": "validator.audit_ports",
    "metrics.collect_s": "metrics.collect",
    "plan.build_s": "plan.build",
    "batch.resolve_s": "batch.resolve",
    "batch.share_s": "batch.share",
    "batch.map_s": "batch.map",
    "turbo.run_s": "turbo.run",
    "turbo.flush_trace_s": "turbo.flush_trace",
    "turbo.materialize_s": "turbo.materialize",
    "tune.select_s": "tune.select",
    "engine.run_s": "engine.run",
    "core.build_s": "core.build",
}

#: per-layer count metric -> the counter it divides by the call count
PER_CALL_COUNTS = {
    "replay.trace_records": "replay.trace_records",
    "plan.misses": "plan.misses",
    "plan.column_bytes": "plan.column_bytes",
    "batch.shared_bytes": "batch.shared_bytes",
    "turbo.events": "turbo.events",
    "turbo.trace_records": "turbo.trace_records",
    "tune.calibrations": "tune.calibrations",
    "engine.events": "engine.events",
}

PER_LAYER = {
    **{name: "s" for name in SPAN_TIMES},
    "replay.trace_records": "count",
    "replay.numpy": "flag",
    "replay.tail_over_kernel": "x",
    "plan.misses": "count",
    "plan.hit_ratio": "ratio",
    "plan.column_bytes": "B",
    "batch.shared_bytes": "B",
    "turbo.events": "count",
    "turbo.trace_records": "count",
    "tune.calibrations": "count",
    "tune.cache_hit_ratio": "ratio",
    "engine.events": "count",
    "engine.heap_peak": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def tail(times: list) -> float:
    """The :data:`TAIL_PERCENTILE` percentile of *times*, interpolated
    between the two nearest calls."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(
        times, n=100, method="inclusive"
    )[TAIL_PERCENTILE - 1]


def host_reference() -> float:
    """Wall seconds of one fixed pure-Python computation, the kind of
    work :mod:`repro` does: ``Fraction`` arithmetic, a few MB of small
    objects, a dict and a sort.  It takes about :data:`REFERENCE_S` on
    the nominal host."""
    start = time.perf_counter()
    rows = [
        (Fraction(i % 97, 7) + Fraction(i % 13, 3), i, str(i))
        for i in range(6000)
    ]
    by_key = {row[1]: row for row in rows}
    rows.sort()
    sum(len(row[2]) for row in by_key.values())
    return time.perf_counter() - start


def normalized(seconds: float, host_seconds: float) -> float:
    """*seconds* measured while the host reference took *host_seconds*,
    scaled to a host on which it takes :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S / host_seconds


def end_to_end(passes: list, rss_mb: float, *, scale: float = 1.0) -> dict:
    """Every end-to-end metric except ``setup_s`` (measured by run.py).

    *passes* holds one ``[(seconds, outcome)]`` list per pass over the
    call list; every time is multiplied by *scale* (see
    :func:`normalized`).  Call times count verified calls only.  Rates
    are verified work per second of a pass (failed calls add time, not
    work), taken as the median over passes."""
    times = [s * scale for p in passes for s, o in p if o.ok]
    if not times:
        return {}

    def rate(work) -> float:
        return statistics.median(
            sum(work(o) for _, o in p if o.ok)
            / (scale * sum(s for s, _ in p))
            for p in passes
        )

    return {
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail(times),
        "sends_per_s": rate(lambda o: o.sends),
        "points_per_s": rate(lambda o: o.points),
        "peak_rss_mb": rss_mb,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(trace, *, calls: int, untraced_s: float, traced_s: float,
              replay_call_s: float, kernels: bool) -> dict:
    """Every per-layer metric from a :class:`~tracing.LayerTrace`.

    Args:
        calls: calls in the traced pass.
        untraced_s / traced_s: summed call times of the same calls
            without and with tracing.
        replay_call_s: untraced time of the audited
            ``run_protocol(backend="replay")`` calls among them.
        kernels: whether ``kernels_enabled()`` was true.
    """
    own, workers, counts = trace.self_s, trace.worker_s, trace.counts
    out = {
        name: (own[span] + workers[span]) / calls
        for name, span in SPAN_TIMES.items()
    }
    out.update(
        {name: counts[key] / calls for name, key in PER_CALL_COUNTS.items()}
    )
    out["replay.numpy"] = 1.0 if kernels else 0.0
    out["replay.tail_over_kernel"] = _ratio(
        replay_call_s, own["replay.kernel"] if replay_call_s else 0.0
    )
    out["plan.hit_ratio"] = _ratio(
        counts["plan.hits"], counts["plan.hits"] + counts["plan.misses"]
    )
    out["tune.cache_hit_ratio"] = _ratio(
        counts["tune.hits"], counts["tune.hits"] + counts["tune.misses"]
    )
    out["engine.heap_peak"] = float(trace.heap_peak)
    out["trace.coverage"] = _ratio(sum(own.values()), untraced_s)
    out["trace.overhead"] = _ratio(traced_s, untraced_s)
    return out
