"""Run one workload in this (fresh) process and report it as JSON.

``run.py`` starts this script in a new interpreter with ``PYTHONPATH``
set to the checkout's ``src`` and the plan and tune cache directories
set to a private temporary directory.  Two modes:

* ``--mode setup``: import :mod:`repro`, make the workload's first call
  with cold caches, verify it, print ``READY`` and exit.  ``run.py``
  times this from process start, for ``setup_s``.
* ``--mode run``: the same, then the measured loop, a closed loop of
  back-to-back calls.  Untraced (``--trace 0``) it runs whole passes over
  the call list for ``--seconds`` and at least ``MIN_CALLS`` calls.
  Traced (``--trace 1``) it makes every call twice in a row, untraced
  and with the layer spans installed, and fails unless both give the
  same answers.

The last line printed is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import metrics
from workloads import MIN_CALLS, WORKLOADS, Outcome, check, execute

#: Seconds between host reference timings in the measured loop.
REFERENCE_EVERY_S = 1.0


def _fresh_plan_cache() -> None:
    from repro.plan.cache import configure

    configure(mode="mem")


def _cache_counts():
    from repro.plan.cache import default_cache
    from repro.tune.cache import default_tune_cache

    plan, tune = default_cache(), default_tune_cache()
    return plan.hits, plan.misses, tune.hits, tune.misses


def _one_call(workload, call, expect, reference, trace):
    """Make and check one call; returns ``(seconds, outcome)``."""
    if call.op == "run_batch":
        _fresh_plan_cache()
    before = _cache_counts()
    start = time.perf_counter()
    try:
        result = execute(call, jobs=workload.jobs)
    except Exception as exc:  # a failed call is counted, not fatal
        elapsed = time.perf_counter() - start
        print(f"perfbench: {call.op} {call.family} n={call.n} raised "
              f"{exc!r}", file=sys.stderr)
        if trace is not None:
            trace.reset_stack()
        return elapsed, Outcome(False, repr(exc), 0, 0)
    elapsed = time.perf_counter() - start
    if trace is not None:
        if call.op == "run_batch":
            trace.take_worker_times(result)
        after = _cache_counts()
        for key, b, a in zip(
            ("plan.hits", "plan.misses", "tune.hits", "tune.misses"),
            before, after,
        ):
            trace.counts[key] += a - b
    outcome = check(call, result, expect, reference)
    if not outcome.ok:
        print(f"perfbench: {call.op} {call.family} n={call.n} m={call.m} "
              f"lam={call.lam} answered wrong: {outcome.answer!r:.200}",
              file=sys.stderr)
    return elapsed, outcome


def _loop(workload, calls, references, *, budget_s, min_calls):
    """Whole passes over *calls* until *budget_s* has passed and at least
    *min_calls* calls were made.  Returns one ``[(seconds, outcome)]``
    list per pass, and the median time of the host reference, which is
    timed between calls about once a second (one sample alone is too
    noisy)."""
    passes = []
    refs = [metrics.host_reference()]
    start = last_ref = time.perf_counter()
    while True:
        done = []
        for call in calls:
            done.append(_one_call(
                workload, call, workload.expect(call), references.get(call),
                None,
            ))
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(metrics.host_reference())
                last_ref = time.perf_counter()
        passes.append(done)
        made = len(passes) * len(calls)
        if time.perf_counter() - start >= budget_s and made >= min_calls:
            refs.append(metrics.host_reference())
            return passes, statistics.median(refs)


def _paired(workload, calls, references, *, budget_s):
    """Whole passes over *calls*, making each call twice in a row, once
    untraced and once under a :class:`~tracing.LayerTrace`, alternating
    which goes first.  Returns ``(trace, untraced, traced)``, the last two
    as ``[(call, seconds, outcome)]`` in the same call order."""
    from tracing import LayerTrace

    trace = LayerTrace()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        for call in calls:
            expect, reference = workload.expect(call), references.get(call)
            for with_trace in ((False, True), (True, False))[len(traced) % 2]:
                if not with_trace:
                    untraced.append((call, *_one_call(
                        workload, call, expect, reference, None)))
                    continue
                trace.install()
                try:
                    traced.append((call, *_one_call(
                        workload, call, expect, reference, trace)))
                finally:
                    trace.uninstall()
        if time.perf_counter() - start >= budget_s:
            return trace, untraced, traced


def _host() -> dict:
    from repro.batch import kernels_enabled, numpy_version

    return {
        "numpy": numpy_version(),
        "kernels": kernels_enabled(),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (set-up time includes the import)

    workload = WORKLOADS[args.workload]
    calls = workload.generate(args.seed, args.tiny)
    first = calls[0]
    references = {}
    if first.op == "run_batch":
        # the jobs=1 reference every later sweep must reproduce
        _fresh_plan_cache()
        result = execute(first, jobs=1)
    else:
        result = execute(first)
    outcome = check(first, result, workload.expect(first))
    if not outcome.ok:
        print(f"perfbench: the first {args.workload} call answered wrong",
              file=sys.stderr)
        return 1
    if first.op == "run_batch":
        references[first] = outcome.answer
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    workload.prepare(calls)
    min_calls = 1 if args.tiny else MIN_CALLS
    report = {"host": _host(), "jobs": workload.jobs}
    if not args.trace:
        passes, host = _loop(workload, calls, references,
                             budget_s=args.seconds, min_calls=min_calls)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["metrics"] = metrics.end_to_end(
            passes, rss_mb, scale=metrics.REFERENCE_S / host
        )
        report["raw_metrics"] = metrics.end_to_end(passes, rss_mb)
        outcomes = [o for p in passes for _, o in p]
        report["calls"] = len(outcomes)
    else:
        from repro.batch import kernels_enabled

        trace, untraced, traced = _paired(workload, calls, references,
                                          budget_s=args.seconds)
        same = all(
            a[2].answer == b[2].answer for a, b in zip(untraced, traced)
        )
        if not same:
            print("perfbench: the traced calls answered differently from "
                  "the untraced calls", file=sys.stderr)
        report["metrics"] = metrics.per_layer(
            trace,
            calls=len(traced),
            untraced_s=sum(s for _, s, _ in untraced),
            traced_s=sum(s for _, s, _ in traced),
            replay_call_s=sum(
                s for c, s, _ in untraced
                if c.op == "run_protocol" and c.backend == "replay"
            ),
            kernels=kernels_enabled(),
        )
        report["traced_answers_match"] = same
        outcomes = [o for _, _, o in untraced + traced]
        report["calls"] = len(traced)
    report["attempted"] = len(outcomes)
    report["failed"] = sum(1 for o in outcomes if not o.ok)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
