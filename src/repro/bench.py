"""The perf regression harness behind ``python -m repro bench``.

One table, :data:`SECTIONS`, lists what the harness measures.  An entry
(:class:`Section`) has a name, which is both its key in the document and
its ``repro bench --section`` value; a ``run(mode, jobs)`` that returns
the entry's document section; and a ``report(section)`` that returns the
lines the CLI prints.  Every section carries a ``gate`` block whose
``ok`` is the entry's verdict, so a new measurement is one more entry.

* ``cases`` — the case grid (:func:`bench_grid`) timed on the exact,
  turbo and replay lanes, with the turbo gate at :data:`GATE_CASE` and
  the collective gate at :data:`COLLECTIVE_GATE_CASE`, and the exact
  call's audit and metrics stages at :data:`GATE_CASE`;
* ``plan`` — columnar plan construction against the event-object
  builder (:func:`bench_plan_layer`);
* ``replay`` — the replay lane against the exact engine at BCAST
  ``n =`` :data:`REPLAY_GATE_N`, and against its own bare kernel
  (:func:`bench_replay`);
* ``resilience`` — fault-injected recovery: determinism, certificates
  and the loss-0 ceiling, never wall time (:func:`bench_resilience`);
* ``batch`` — the batch tier's sweep, parallel and kernel gates
  (:func:`bench_batch`; the only entry that uses ``jobs``);
* ``tune`` — the autotuner's picks against every fixed family, in exact
  arithmetic (:func:`bench_tune`).

Every lane is timed on the call users make, ``run_protocol`` with its
default audit and metrics, through one helper (:func:`_best_of`).  The
case grid runs serially: two workers on a 2-CPU host skew each other's
timings.  :func:`to_json` writes the document (schema :data:`SCHEMA`)
with the runner and whether the NumPy kernels ran;
:func:`compare_to_baseline` diffs its case rows against a committed
``BENCH_turbo.json``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from repro.errors import InvalidParameterError
from repro.parallel import effective_jobs
from repro.types import Time, as_time, time_repr

__all__ = [
    "BASELINE_TOLERANCE",
    "BATCH_GATE_MIN_SPEEDUP",
    "BATCH_PARALLEL_GATE_MIN_SPEEDUP",
    "BATCH_KERNEL_GATE_N",
    "BATCH_KERNEL_GATE_MIN_SPEEDUP",
    "BenchCase",
    "BenchResult",
    "COLLECTIVE_GATE_CASE",
    "COLLECTIVE_GATE_MIN_SPEEDUP",
    "GATE_CASE",
    "GATE_MIN_SPEEDUP",
    "PLAN_GATE_N",
    "PLAN_GATE_MIN_SPEEDUP",
    "PLAN_GATE_MIN_MEM_RATIO",
    "REPLAY_GATE_N",
    "REPLAY_GATE_MIN_SPEEDUP",
    "REPLAY_TAIL_GATE_MAX",
    "RESILIENCE_CASES",
    "RESILIENCE_GATE_N",
    "SCHEMA",
    "SECTIONS",
    "Section",
    "TUNE_GATE_POINTS",
    "TUNE_GATE_TOLERANCE",
    "batch_grid",
    "bench_batch",
    "bench_cases",
    "bench_grid",
    "bench_plan_layer",
    "bench_replay",
    "bench_resilience",
    "bench_tune",
    "compare_to_baseline",
    "load_baseline",
    "profile_case",
    "profile_spec",
    "run_case",
    "select_sections",
    "to_json",
]

#: Schema tag written into every ``BENCH_turbo.json``; the only schema
#: :func:`compare_to_baseline` reads.
SCHEMA = "repro-bench-turbo/8"

#: A case regresses when a lane's fresh wall time exceeds the baseline's
#: by more than this fraction.  Loose, because shared runners are noisy;
#: being faster never fails.
BASELINE_TOLERANCE = 0.30

#: The acceptance gate: ``(family, n)`` that must clear the speedup bar.
GATE_CASE = ("BCAST", 10_000)

#: Minimum turbo-vs-exact speedup required at :data:`GATE_CASE`.
GATE_MIN_SPEEDUP = 3.0

#: The collective acceptance gate: allgather at the 10^4-send scale
#: (``n = 100`` is 9,999 sends, the same event count as the BCAST gate).
#: It is stated in sends, not processors: allgather delivers Theta(n^2)
#: messages, so ``n = 10^4`` processors would mean ~10^8 sends and hours
#: of exact-engine time per measurement.
COLLECTIVE_GATE_CASE = ("ALLGATHER", 100)

#: Minimum turbo-vs-exact speedup at :data:`COLLECTIVE_GATE_CASE`.
COLLECTIVE_GATE_MIN_SPEEDUP = 3.0

#: The plan-layer gate case: BCAST at this ``n`` (single message).
PLAN_GATE_N = 100_000

#: Minimum columnar-vs-event construction speedup at the plan gate case.
PLAN_GATE_MIN_SPEEDUP = 3.0

#: Minimum event-storage ratio (event objects over plan columns).
PLAN_GATE_MIN_MEM_RATIO = 5.0

#: The replay gate case: BCAST at this ``n`` (single message) — the same
#: point as the plan gate, so the two sections describe the same plan.
REPLAY_GATE_N = 100_000

#: Minimum replay-vs-exact speedup at the replay gate case.  Deliberately
#: an order of magnitude above :data:`GATE_MIN_SPEEDUP`: the replay tier
#: has no event loop to pay for, so "only" event-loop-fast is a
#: regression of the vectorization itself.
REPLAY_GATE_MIN_SPEEDUP = 20.0

#: Most a default, audited replay call at :data:`REPLAY_GATE_N` may take
#: over its bare NumPy kernel (``replay_plan`` on the same warm plan):
#: the audit, the metrics and the rest of the call together may cost at
#: most nine kernels.  Enforced only when the NumPy kernels run — the
#: slower Python passes are no bar for the tail.
REPLAY_TAIL_GATE_MAX = 10.0

#: Minimum cold-cache batch-vs-per-point speedup on the 64-point grid
#: (see :func:`batch_grid`): ``run_batch`` against a loop that builds
#: and replays each point's plan (:func:`_per_point_sweep`).  Equal
#: work on 2 CPUs is about even, so the bar is a floor, not a win: the
#: lowest of 13 ``jobs=2`` readings before the schedule went lazy
#: (0.76x), rounded down.
BATCH_GATE_MIN_SPEEDUP = 0.7

#: Minimum cold-cache ``jobs=2`` over ``jobs=1`` speedup of the
#: :func:`batch_grid` sweep, enforced when the host has at least two
#: CPUs: a parallel sweep may not be slower than a serial one.
BATCH_PARALLEL_GATE_MIN_SPEEDUP = 1.0

#: Single-case NumPy-kernel gate point: BCAST at this ``n`` (the same
#: plan the replay and plan gates describe).
BATCH_KERNEL_GATE_N = 100_000

#: Minimum speedup of the default, audited replay call at
#: :data:`BATCH_KERNEL_GATE_N` with the NumPy kernels over the same call
#: with ``REPRO_NUMPY=off`` — enforced only when NumPy is installed (the
#: section records ``numpy: null`` and passes vacuously otherwise).
BATCH_KERNEL_GATE_MIN_SPEEDUP = 2.0

#: Auto-selection gate points: ``(n, m, lam)`` broadcast queries the
#: tuner must answer at least as well as the *worst* applicable fixed
#: family, and within :data:`TUNE_GATE_TOLERANCE` of the *best* one.
#: Completion times are exact rationals, so this gate is deterministic —
#: it measures decision quality, never wall clocks.
TUNE_GATE_POINTS = (
    (64, 1, "2"),
    (64, 4, "2"),
    (256, 1, "5/2"),
    (256, 4, "5/2"),
    (1024, 1, "2"),
    (1024, 2, "4"),
)

#: Relative slack over the best fixed family's exact completion time the
#: auto-selected family is allowed (the tuner ranks upper-bound families
#: by their bounds when calibration is capped, so "within 25% of
#: optimal" is the contract, "never worse than the worst" the floor).
TUNE_GATE_TOLERANCE = 0.25

#: Machine size for the resilience gate cases (recovery at n = 10^3 is
#: thousands of fault draws per case — enough to make a determinism or
#: accounting slip visible — while the doubled runs stay CI-cheap).
RESILIENCE_GATE_N = 1_000

#: Resilience gate cases as ``(loss, crash)`` pairs: the fault-free
#: ceiling check, a loss-only point, and a combined loss + crash point.
RESILIENCE_CASES = ((0.0, 0.0), (0.05, 0.0), (0.2, 0.05))

#: The bench grid: family -> ``(m, smoke sizes, full sizes)``.  ``m``
#: scales work for the multi-message families without drowning the run
#: in parameters; the collectives are all single-message protocols.
#: Smoke keeps the multi-message families at ``n <= 10^3`` so the CI job
#: stays fast while still exercising every family; BCAST goes to
#: ``10^4`` because the acceptance gate is measured there, and the
#: quadratic-delivery exchanges (ALLGATHER and friends: Theta(n^2)
#: sends) stop at ``10^2`` — the collective gate's 10^4-send point.
#: Full extends the broadcast families to ``10^5``, the tree-shaped
#: collectives to ``10^4``, and the quadratic exchanges to ``3*10^2``
#: (~9*10^4 sends each).
_GRID: "dict[str, tuple[int, Sequence[int], Sequence[int]]]" = {
    "BCAST": (1, (100, 1_000, 10_000), (100, 1_000, 10_000, 100_000)),
    "PIPELINE-2": (4, (100, 1_000), (100, 1_000, 10_000, 100_000)),
    "DTREE-BINARY": (2, (100, 1_000), (100, 1_000, 10_000, 100_000)),
    "ALLGATHER": (1, (100,), (100, 300)),
    "BRUCK-ALLGATHER": (1, (100,), (100, 300)),
    "ALLTOALL": (1, (100,), (100, 300)),
    "GOSSIP-RING": (1, (100,), (100, 300)),
    "REDUCE": (1, (1_000,), (1_000, 10_000)),
    "ALLREDUCE": (1, (1_000,), (1_000, 10_000)),
    "BARRIER": (1, (1_000,), (1_000, 10_000)),
}

#: Uniform latency for every grid case — integer, so the gate measures
#: the common case (tick scale 1, no rescaling advantage for turbo).
_LAM = as_time(2)

#: The lanes a case runs on, in timing order.
_BACKENDS = ("exact", "turbo", "replay")


@dataclass(frozen=True)
class BenchCase:
    """One grid point: a protocol family at machine size ``n``."""

    family: str
    n: int
    m: int
    lam: Time

    def protocol(self):
        """A *fresh* protocol instance (protocols hold run state)."""
        from repro.conformance.oracles import resolve_oracle

        return resolve_oracle(self.family, self.m, self.lam).protocol(
            n=self.n, m=self.m, lam=self.lam
        )


@dataclass(frozen=True)
class BenchResult:
    """Measured wall times for one :class:`BenchCase`."""

    case: BenchCase
    exact_s: float
    turbo_s: float
    sends: int
    replay_s: float = 0.0

    @property
    def speedup(self) -> float:
        """Exact wall time over turbo wall time (higher is better)."""
        return self.exact_s / self.turbo_s if self.turbo_s > 0 else float("inf")

    @property
    def replay_speedup(self) -> float:
        """Exact wall time over replay wall time (higher is better)."""
        return (
            self.exact_s / self.replay_s if self.replay_s > 0 else float("inf")
        )


@dataclass(frozen=True)
class Section:
    """One entry of :data:`SECTIONS`.

    ``run(mode, jobs)`` measures and returns the document section, whose
    ``["gate"]["ok"]`` is the entry's verdict; ``report(section)``
    returns the lines ``repro bench`` prints for it.  *mode* is
    ``"smoke"`` or ``"full"``; *jobs* is the resolved worker count.
    """

    name: str
    run: Callable[[str, int], dict]
    report: Callable[[dict], "list[str]"]


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else float("inf")


# ------------------------------------------------------------- timing


def _best_of(
    run: Callable[[Any], Any], setup: Callable[[], Any] = lambda: None
) -> "tuple[float, Any]":
    """Best wall time of ``run(setup())`` over a fixed 3 repetitions,
    and the last repetition's result.

    Only ``run`` is timed; ``setup`` builds what one repetition needs
    afresh (a protocol, which holds run state; an empty plan cache).
    A repetition of half a second or more ends the loop — repeating a
    30 s exact run buys nothing.  One full collection runs before the
    first repetition, so a collection the previous measurement's garbage
    set up does not land in this one.
    """
    gc.collect()
    best = float("inf")
    for _ in range(3):
        out = None  # free the previous repetition's result before the next
        arg = setup()
        t0 = time.perf_counter()
        out = run(arg)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        if elapsed >= 0.5:
            break
    return best, out


def _time_backend(case: BenchCase, backend: str) -> "tuple[float, int]":
    """Best wall time and send count of the default, audited
    ``run_protocol(proto, backend=backend)`` call on *case*."""
    from repro.postal.runner import run_protocol

    best, result = _best_of(
        lambda proto: run_protocol(proto, backend=backend), case.protocol
    )
    return best, result.sends


def _cold_s(fn: Callable[[], object]) -> float:
    """Best wall time of *fn*, each repetition on a fresh, empty
    process-wide plan cache (the caller's cache is restored after)."""
    from repro.plan import cache as plan_cache

    saved = plan_cache.default_cache()
    try:
        return _best_of(
            lambda _: fn(), lambda: plan_cache.configure(mode="mem")
        )[0]
    finally:
        plan_cache._DEFAULT = saved


# ------------------------------------------------------------- the grid


def bench_grid(mode: str = "smoke") -> "list[BenchCase]":
    """The case grid for *mode* (``"smoke"`` or ``"full"``): every
    :data:`_GRID` family at its ``m`` and the mode's sizes."""
    if mode not in ("smoke", "full"):
        raise ValueError(f"unknown bench mode {mode!r}")
    full = mode == "full"
    return [
        BenchCase(family, n, m, _LAM)
        for family, (m, smoke, big) in _GRID.items()
        for n in (big if full else smoke)
    ]


def run_case(case: BenchCase) -> BenchResult:
    """Measure *case* on all three backends.

    Every grid family has a registered plan compiler, so the replay tier
    runs for each case; its first repetition pays the (cached) plan
    compile, later repetitions measure a warm replay — best-of keeps the
    warm number, which is what the tier costs in steady state.
    """
    times = {}
    sends = {}
    for backend in _BACKENDS:
        times[backend], sends[backend] = _time_backend(case, backend)
    if len(set(sends.values())) != 1:  # pragma: no cover - equivalence suite
        raise AssertionError(
            f"{case.family} n={case.n}: backends disagree on send count "
            f"{sends}"
        )
    return BenchResult(
        case, times["exact"], times["turbo"], sends["exact"], times["replay"]
    )


def _speedup_gate(
    results: "Sequence[BenchResult]", case: "tuple[str, int]", bar: float
) -> dict:
    """The turbo-vs-exact verdict at *case* (a ``(family, n)`` pair)."""
    family, n = case
    for res in results:
        if (res.case.family, res.case.n) == case:
            return {
                "family": family,
                "n": n,
                "sends": res.sends,
                "min_speedup": bar,
                "speedup": round(res.speedup, 3),
                "ok": res.speedup >= bar,
            }
    raise LookupError(f"bench grid did not include the gate case {case}")


def bench_cases(mode: str = "smoke") -> dict:
    """The ``cases`` section: every case of the *mode* grid
    (:func:`run_case`, serially), the turbo gate at :data:`GATE_CASE`
    and the collective gate at :data:`COLLECTIVE_GATE_CASE`, and two
    stages of the exact call at the gate case (:func:`_exact_stages`)."""
    from repro.batch.kernels import kernels_enabled

    # import NumPy before any case is timed, so no first replay pays for it
    kernels_enabled()
    grid = bench_grid(mode)
    results = [run_case(case) for case in grid]
    gate_case = next(c for c in grid if (c.family, c.n) == GATE_CASE)
    return _cases_section(results, _exact_stages(gate_case))


def _exact_stages(case: BenchCase) -> dict:
    """Two stages of the default exact call at *case*, each timed by
    :func:`_best_of` on one finished run: ``audit_s``, the trace audit
    (:func:`~repro.postal.validator.validate_run`), and ``metrics_s``,
    the trace fold (:func:`~repro.obs.metrics.collect_metrics`).  No
    gate reads them."""
    from repro.obs.metrics import collect_metrics
    from repro.postal.runner import run_protocol
    from repro.postal.validator import validate_run

    system = run_protocol(case.protocol(), validate=False, collect=False).system
    audit_s, _ = _best_of(lambda _: validate_run(system, m=case.m))
    metrics_s, _ = _best_of(lambda _: collect_metrics(system))
    return {
        "family": case.family,
        "n": case.n,
        "audit_s": round(audit_s, 6),
        "metrics_s": round(metrics_s, 6),
    }


def _cases_section(results: "Sequence[BenchResult]", stages: dict) -> dict:
    turbo = _speedup_gate(results, GATE_CASE, GATE_MIN_SPEEDUP)
    collective = _speedup_gate(
        results, COLLECTIVE_GATE_CASE, COLLECTIVE_GATE_MIN_SPEEDUP
    )
    return {
        "rows": [
            {
                "family": r.case.family,
                "n": r.case.n,
                "m": r.case.m,
                "lam": time_repr(r.case.lam),
                "sends": r.sends,
                "exact_s": round(r.exact_s, 6),
                "turbo_s": round(r.turbo_s, 6),
                "replay_s": round(r.replay_s, 6),
                "speedup": round(r.speedup, 3),
                "replay_speedup": round(r.replay_speedup, 3),
            }
            for r in results
        ],
        "exact_stages": stages,
        "gate": {
            "turbo": turbo,
            "collective": collective,
            "ok": turbo["ok"] and collective["ok"],
        },
    }


def _report_cases(section: dict) -> "list[str]":
    from repro.report.tables import format_table

    table = format_table(
        ["family", "n", "m", "sends", "exact (s)", "turbo (s)",
         "replay (s)", "turbo x", "replay x"],
        [
            [
                row["family"],
                f"{row['n']:,}",
                str(row["m"]),
                f"{row['sends']:,}",
                f"{row['exact_s']:.4f}",
                f"{row['turbo_s']:.4f}",
                f"{row['replay_s']:.4f}",
                f"{row['speedup']:.2f}x",
                f"{row['replay_speedup']:.2f}x",
            ]
            for row in section["rows"]
        ],
    )
    turbo = section["gate"]["turbo"]
    collective = section["gate"]["collective"]
    stages = section["exact_stages"]
    return table.splitlines() + [
        f"exact call stages at {stages['family']} n={stages['n']:,}: "
        f"audit {stages['audit_s']:.4f}s, metrics {stages['metrics_s']:.4f}s",
        f"gate: turbo >= {turbo['min_speedup']:.0f}x exact for "
        f"{turbo['family']} at n={turbo['n']:,} — measured "
        f"{turbo['speedup']:.2f}x [{_verdict(turbo['ok'])}]",
        f"collective gate: turbo >= {collective['min_speedup']:.0f}x "
        f"exact for {collective['family']} at n={collective['n']:,} "
        f"({collective['sends']:,} sends, the 10^4-send scale) — measured "
        f"{collective['speedup']:.2f}x [{_verdict(collective['ok'])}]",
    ]


# ------------------------------------------------------------ plan layer


def bench_plan_layer(*, n: int = PLAN_GATE_N, lam: Time = _LAM) -> dict:
    """Benchmark columnar plan construction against the event-object
    builder at BCAST size *n* (the ``"plan"`` section of the document).

    Both paths run the same integer-tick compiler
    (:mod:`repro.plan.build`) and decode its keys into columns; the
    event side then reads the builder's ``Schedule.events``, which
    builds one ``SendEvent`` per send.  The speedup is therefore the
    cost of event materialization, not of a second recurrence.

    Times and memory are measured in separate passes (``tracemalloc``
    slows allocation-heavy code several-fold, so timing under it would
    flatter the allocation-light plan path).  ``storage`` is the memory
    holding the finished events: the ``Schedule`` with its event tuple
    read, for the classic path (tracemalloc-retained bytes), the four
    integer columns (:attr:`~repro.plan.columns.SchedulePlan.nbytes`)
    for the plan.  The warm-cache row is the point of the cache: with
    the plan already resident, "construction" is one LRU lookup.
    """
    import tracemalloc

    from repro.core.bcast import bcast_schedule
    from repro.plan import PlanCache, build_plan, compile_plan

    lam = as_time(lam)

    # -- timing passes (no tracemalloc)
    events_build_s, _ = _best_of(
        lambda _: bcast_schedule(n, lam, validate=False).events
    )
    plan_build_s, _ = _best_of(lambda _: compile_plan("BCAST", n, 1, lam))
    cache = PlanCache(mode="mem")
    build_plan("BCAST", n, 1, lam, cache=cache)  # warm it
    plan_cached_s, _ = _best_of(
        lambda _: build_plan("BCAST", n, 1, lam, cache=cache)
    )

    # -- memory passes
    tracemalloc.start()
    schedule = bcast_schedule(n, lam, validate=False)
    schedule.events
    events_storage, events_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del schedule
    tracemalloc.start()
    plan = compile_plan("BCAST", n, 1, lam)
    _, plan_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    construction_speedup = _ratio(events_build_s, plan_build_s)
    storage_ratio = _ratio(events_storage, plan.nbytes)
    return {
        "family": "BCAST",
        "n": n,
        "m": 1,
        "lam": time_repr(lam),
        "events": len(plan),
        "events_build_s": round(events_build_s, 6),
        "plan_build_s": round(plan_build_s, 6),
        "plan_cached_s": round(plan_cached_s, 6),
        "events_storage_bytes": events_storage,
        "events_peak_bytes": events_peak,
        "plan_storage_bytes": plan.nbytes,
        "plan_peak_bytes": plan_peak,
        "construction_speedup": round(construction_speedup, 3),
        "storage_ratio": round(storage_ratio, 3),
        "gate": {
            "min_construction_speedup": PLAN_GATE_MIN_SPEEDUP,
            "min_storage_ratio": PLAN_GATE_MIN_MEM_RATIO,
            "ok": (
                construction_speedup >= PLAN_GATE_MIN_SPEEDUP
                and storage_ratio >= PLAN_GATE_MIN_MEM_RATIO
            ),
        },
    }


def _report_plan(section: dict) -> "list[str]":
    gate = section["gate"]
    return [
        f"plan gate: columnar build >= "
        f"{gate['min_construction_speedup']:.0f}x and storage >= "
        f"{gate['min_storage_ratio']:.0f}x at BCAST n={section['n']:,} — "
        f"measured {section['construction_speedup']:.2f}x build, "
        f"{section['storage_ratio']:.2f}x storage, warm cache "
        f"{section['plan_cached_s'] * 1e6:.0f}us [{_verdict(gate['ok'])}]"
    ]


# ------------------------------------------------------------ replay tier


def bench_replay(*, n: int = REPLAY_GATE_N, lam: Time = _LAM) -> dict:
    """Benchmark the vectorized replay tier at BCAST size *n* (the
    ``"replay"`` section of the document).

    Three wall times of the same default, audited ``run_protocol``
    call: the exact engine, the turbo event loop, and
    ``backend="replay"`` executing the compiled plan as batched column
    passes; and ``kernel_s``, bare :func:`~repro.turbo.replay.
    replay_plan` on the same warm plan.  ``audit_s`` and ``metrics_s``
    time two stages of the call, ``system.audit()`` and
    ``system.run_metrics()``, on the kernel's last replay; no gate
    reads them.  ``compile_s`` records plan
    compilation separately (steady-state replays hit the plan cache, so
    the per-run numbers are measured warm — same convention as
    :func:`bench_plan_layer`'s ``plan_cached_s`` row).  Two gates:
    replay-vs-exact at :data:`REPLAY_GATE_MIN_SPEEDUP`, and the call
    over its kernel (``tail_over_kernel``) at most
    :data:`REPLAY_TAIL_GATE_MAX` when the NumPy kernels run.
    """
    from repro.batch.kernels import kernels_enabled
    from repro.plan import build_plan, compile_plan
    from repro.turbo.replay import replay_plan

    lam = as_time(lam)
    case = BenchCase("BCAST", n, 1, lam)
    compile_s, _ = _best_of(lambda _: compile_plan("BCAST", n, 1, lam))
    exact_s, sends = _time_backend(case, "exact")
    turbo_s, _ = _time_backend(case, "turbo")
    replay_s, replay_sends = _time_backend(case, "replay")
    if replay_sends != sends:  # pragma: no cover - equivalence suite's job
        raise AssertionError(
            f"BCAST n={n}: backends disagree on send count "
            f"(exact {sends}, replay {replay_sends})"
        )
    plan = build_plan("BCAST", n, 1, lam)  # the replay calls' cached plan
    kernel_s, system = _best_of(lambda _: replay_plan(plan))
    audit_s, _ = _best_of(lambda _: system.audit())
    metrics_s, _ = _best_of(lambda _: system.run_metrics())
    speedup = _ratio(exact_s, replay_s)
    tail = _ratio(replay_s, kernel_s)
    kernels = kernels_enabled()
    speedup_ok = speedup >= REPLAY_GATE_MIN_SPEEDUP
    tail_ok = tail <= REPLAY_TAIL_GATE_MAX or not kernels
    return {
        "family": "BCAST",
        "n": n,
        "m": 1,
        "lam": time_repr(lam),
        "sends": sends,
        "exact_s": round(exact_s, 6),
        "turbo_s": round(turbo_s, 6),
        "replay_s": round(replay_s, 6),
        "kernel_s": round(kernel_s, 6),
        "audit_s": round(audit_s, 6),
        "metrics_s": round(metrics_s, 6),
        "compile_s": round(compile_s, 6),
        "speedup": round(speedup, 3),
        "turbo_ratio": round(_ratio(turbo_s, replay_s), 3),
        "tail_over_kernel": round(tail, 3),
        "kernels": kernels,
        "gate": {
            "min_speedup": REPLAY_GATE_MIN_SPEEDUP,
            "max_tail_over_kernel": REPLAY_TAIL_GATE_MAX,
            "speedup_ok": speedup_ok,
            "tail_ok": tail_ok,
            "ok": speedup_ok and tail_ok,
        },
    }


def _report_replay(section: dict) -> "list[str]":
    gate = section["gate"]
    lines = [
        f"replay gate: replay >= {gate['min_speedup']:.0f}x exact for "
        f"BCAST at n={section['n']:,} — measured "
        f"{section['speedup']:.2f}x (exact {section['exact_s']:.4f}s, "
        f"turbo {section['turbo_s']:.4f}s, replay "
        f"{section['replay_s']:.4f}s) [{_verdict(gate['speedup_ok'])}]"
    ]
    stages = (
        f"call {section['replay_s']:.4f}s, kernel {section['kernel_s']:.4f}s, "
        f"audit {section['audit_s']:.4f}s, metrics {section['metrics_s']:.4f}s"
    )
    if section["kernels"]:
        lines.append(
            f"tail gate: default replay call <= "
            f"{gate['max_tail_over_kernel']:.0f}x its NumPy kernel for "
            f"BCAST at n={section['n']:,} — measured "
            f"{section['tail_over_kernel']:.2f}x ({stages}) "
            f"[{_verdict(gate['tail_ok'])}]"
        )
    else:
        lines.append(
            f"tail gate: NumPy kernels off — the Python passes are no bar "
            f"for the tail ({stages}) [SKIP]"
        )
    return lines


# ------------------------------------------------------------ batch tier


def batch_grid():
    """The 64-point batch gate grid: a BCAST size sweep and a
    PIPELINE-2 ``(n, m)`` grid, all at the integer gate latency — the
    same two broadcast regimes the case grid leans on (tree fan-out vs
    long per-processor send chains)."""
    from repro.batch import BatchPoint

    points = [
        BatchPoint("BCAST", n, 1, "2")
        for n in range(500, 16_500, 500)  # 32 sizes
    ]
    points.extend(
        BatchPoint("PIPELINE-2", n, m, "2")
        for n in (250, 500, 750, 1_000, 1_250, 1_500, 1_750, 2_000)
        for m in (2, 3, 4, 5)  # 8 x 4 = 32 points
    )
    return points


def _per_point_sweep(points) -> None:
    """The loop the batch gate measures against: for each point, the
    work of a default ``run_protocol(backend="replay")`` call up to the
    outputs :func:`repro.batch.run_batch` returns — build the plan,
    replay it, read its completion and send count."""
    from repro.plan import build_plan
    from repro.turbo.replay import replay_plan

    for point in points:
        system = replay_plan(
            build_plan(point.family, point.n, point.m, as_time(point.lam))
        )
        system.completion_time, system.send_count


def bench_batch(*, jobs: int = 1, kernel_n: int = BATCH_KERNEL_GATE_N) -> dict:
    """The ``"batch"`` section: three measurements, three gates.

    * **sweep gate** — wall time of the 64-point :func:`batch_grid`
      through :func:`repro.batch.run_batch` at *jobs* vs a per-point
      loop doing the same work (:func:`_per_point_sweep`), both from a
      cold plan cache: compiling where it replays is what the batch
      tier is for.  Must clear :data:`BATCH_GATE_MIN_SPEEDUP`.
    * **parallel gate** — the same grid from a cold plan cache at
      ``jobs=2`` vs ``jobs=1``.  Must clear
      :data:`BATCH_PARALLEL_GATE_MIN_SPEEDUP` when the host has at
      least two CPUs; recorded as skipped on one.
    * **kernel gate** — the default, audited BCAST replay call at
      *kernel_n* (warm plan) with the NumPy kernels vs the same call
      with ``REPRO_NUMPY=off``: the replay passes, the audit's accept
      test and the metric counts against their Python forms, at equal
      work.  Must clear :data:`BATCH_KERNEL_GATE_MIN_SPEEDUP` when NumPy
      is installed; records ``numpy: null`` and passes vacuously
      otherwise.
    """
    from repro.batch import run_batch
    from repro.batch.kernels import kernels_enabled, numpy_version
    from repro.plan import build_plan
    from repro.postal.runner import run_protocol

    points = batch_grid()
    parallel: dict = {
        "jobs": 2,
        "min_speedup": BATCH_PARALLEL_GATE_MIN_SPEEDUP,
        "skipped": (os.cpu_count() or 1) < 2,
    }
    if parallel["skipped"]:
        parallel.update(serial_s=None, parallel_s=None, speedup=None, ok=True)
    else:
        serial_s = _cold_s(lambda: run_batch(points, jobs=1))
        parallel_s = _cold_s(lambda: run_batch(points, jobs=2))
        parallel_speedup = _ratio(serial_s, parallel_s)
        parallel.update(
            serial_s=round(serial_s, 6),
            parallel_s=round(parallel_s, 6),
            speedup=round(parallel_speedup, 3),
            ok=parallel_speedup >= BATCH_PARALLEL_GATE_MIN_SPEEDUP,
        )

    per_point_s = _cold_s(lambda: _per_point_sweep(points))
    batch_s = _cold_s(lambda: run_batch(points, jobs=jobs))
    speedup = _ratio(per_point_s, batch_s)
    sweep_ok = speedup >= BATCH_GATE_MIN_SPEEDUP

    case = BenchCase("BCAST", kernel_n, 1, _LAM)
    build_plan("BCAST", kernel_n, 1, _LAM)  # both sides replay it warm

    def default_call_s() -> float:
        return _best_of(
            lambda proto: run_protocol(proto, backend="replay"), case.protocol
        )[0]

    kernel = {
        "family": "BCAST",
        "n": kernel_n,
        "m": 1,
        "lam": time_repr(_LAM),
        "numpy": numpy_version(),
    }
    saved = os.environ.get("REPRO_NUMPY")
    try:
        os.environ["REPRO_NUMPY"] = "off"
        python_s = default_call_s()
    finally:
        if saved is None:
            os.environ.pop("REPRO_NUMPY", None)
        else:
            os.environ["REPRO_NUMPY"] = saved
    kernel["python_s"] = round(python_s, 6)
    if kernels_enabled():
        numpy_s = default_call_s()
        kernel_speedup = _ratio(python_s, numpy_s)
        kernel["numpy_s"] = round(numpy_s, 6)
        kernel["speedup"] = round(kernel_speedup, 3)
        kernel_ok = kernel_speedup >= BATCH_KERNEL_GATE_MIN_SPEEDUP
    else:
        kernel["numpy_s"] = None
        kernel["speedup"] = None
        kernel_ok = True  # no NumPy: the fallback *is* the implementation
    kernel["gate"] = {
        "min_speedup": BATCH_KERNEL_GATE_MIN_SPEEDUP,
        "ok": kernel_ok,
    }

    return {
        "points": len(points),
        "families": sorted({p.family for p in points}),
        "lam": time_repr(_LAM),
        "jobs": jobs,
        "per_point_s": round(per_point_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(speedup, 3),
        "parallel": parallel,
        "kernel": kernel,
        "gate": {
            "min_speedup": BATCH_GATE_MIN_SPEEDUP,
            "sweep_ok": sweep_ok,
            "parallel_ok": parallel["ok"],
            "kernel_ok": kernel_ok,
            "ok": sweep_ok and parallel["ok"] and kernel_ok,
        },
    }


def _report_batch(section: dict) -> "list[str]":
    gate = section["gate"]
    lines = [
        f"batch gate: run_batch >= {gate['min_speedup']:.1f}x per-point "
        f"build + replay over {section['points']} points at "
        f"jobs={section['jobs']}, cold plan cache — measured "
        f"{section['speedup']:.2f}x (per-point "
        f"{section['per_point_s']:.4f}s, batch {section['batch_s']:.4f}s) "
        f"[{_verdict(gate['sweep_ok'])}]"
    ]
    par = section["parallel"]
    if par["skipped"]:
        lines.append("parallel gate: one CPU — no parallel sweep to time [SKIP]")
    else:
        lines.append(
            f"parallel gate: cold-cache run_batch at jobs=2 >= "
            f"{par['min_speedup']:.1f}x jobs=1 — measured "
            f"{par['speedup']:.2f}x (jobs=1 {par['serial_s']:.4f}s, "
            f"jobs=2 {par['parallel_s']:.4f}s) [{_verdict(par['ok'])}]"
        )
    kernel = section["kernel"]
    if kernel["numpy_s"] is None:
        why = (
            "disabled by REPRO_NUMPY"
            if kernel["numpy"] is not None
            else "not installed"
        )
        lines.append(
            f"kernel gate: NumPy {why} — pure-Python passes "
            "are the implementation [SKIP]"
        )
    else:
        lines.append(
            f"kernel gate: default replay call with NumPy >= "
            f"{kernel['gate']['min_speedup']:.0f}x REPRO_NUMPY=off for BCAST "
            f"at n={kernel['n']:,} — measured {kernel['speedup']:.2f}x "
            f"(python {kernel['python_s']:.4f}s, numpy "
            f"{kernel['numpy_s']:.4f}s, NumPy {kernel['numpy']}) "
            f"[{_verdict(kernel['gate']['ok'])}]"
        )
    return lines


# ------------------------------------------------------------- resilience


def bench_resilience(
    *, n: int = RESILIENCE_GATE_N, lam: Time = _LAM, seed: int = 0
) -> dict:
    """The ``"resilience"`` section: fault-injected recovery runs over
    :data:`RESILIENCE_CASES`, each executed **twice** with the same seed.

    The gate is correctness-shaped, not wall-clock-shaped (fault
    realizations are exact, so it can be sharp on a noisy runner):

    * ``deterministic`` — both executions of every case produced equal
      results, trace/metrics digest included;
    * ``certified`` — every case passed the full inequality certificate
      (:func:`repro.resilience.certify.certify_resilient`);
    * ``within_depth`` — the fault-free case honored the documented
      ``loss = 0`` ceiling ``f_lambda(n) + depth``.

    Wall time of the first execution is recorded per case for the
    trajectory, but never gated.
    """
    from repro.resilience import run_resilient

    lam = as_time(lam)
    cases = []
    deterministic = True
    certified = True
    within_depth = True
    for loss, crash in RESILIENCE_CASES:
        keep: list = []
        t0 = time.perf_counter()
        first = run_resilient(
            n, lam, loss=loss, crash=crash, seed=seed, keep=keep
        )
        wall_s = time.perf_counter() - t0
        again = run_resilient(n, lam, loss=loss, crash=crash, seed=seed)
        deterministic = deterministic and first == again
        certified = certified and first.certified
        if loss == 0.0 and crash == 0.0:
            _, protocol, _ = keep[0]
            ceiling = first.fault_free + protocol.tree_depth
            within_depth = within_depth and first.completion <= ceiling
        row = first.row()
        row["wall_s"] = round(wall_s, 6)
        cases.append(row)
    return {
        "n": n,
        "lam": time_repr(lam),
        "seed": seed,
        "cases": cases,
        "gate": {
            "deterministic": deterministic,
            "certified": certified,
            "within_depth": within_depth,
            "ok": deterministic and certified and within_depth,
        },
    }


def _report_resilience(section: dict) -> "list[str]":
    gate = section["gate"]
    return [
        f"resilience gate: {len(section['cases'])} fault cases at "
        f"n={section['n']:,} — deterministic="
        f"{'yes' if gate['deterministic'] else 'NO'}, certified="
        f"{'yes' if gate['certified'] else 'NO'}, loss-0 ceiling "
        f"{'held' if gate['within_depth'] else 'BROKEN'} "
        f"[{_verdict(gate['ok'])}]"
    ]


# ------------------------------------------------------------- autotuner


def bench_tune(points=TUNE_GATE_POINTS) -> dict:
    """The auto-selection gate: the ``"tune"`` section.

    For every pinned broadcast point, measure the **exact** completion
    time of each applicable fixed family on the turbo lane, ask the
    tuner for its pick, and require the pick to be (a) no slower than
    the worst fixed family and (b) within :data:`TUNE_GATE_TOLERANCE`
    of the best.  Everything here is exact rational arithmetic — the
    gate is deterministic and machine-independent.
    """
    from repro.conformance.oracles import REGISTRY
    from repro.tune import measure, select_protocol

    rows = []
    all_ok = True
    for n, m, lam in points:
        lam_t = as_time(lam)
        completions = {
            fam: measure(fam, n, m, lam_t)[0]
            for fam, oracle in sorted(REGISTRY.items())
            if oracle.semantics == "broadcast"
            and oracle.applicable(n, m, lam_t)
        }
        auto = select_protocol("broadcast", n, m=m, lam=lam_t)
        auto_completion = completions[auto]
        best_family = min(completions, key=lambda f: (completions[f], f))
        worst_family = max(completions, key=lambda f: (completions[f], f))
        best = completions[best_family]
        worst = completions[worst_family]
        bar = best * (1 + Fraction(TUNE_GATE_TOLERANCE).limit_denominator())
        ok = auto_completion <= worst and auto_completion <= bar
        all_ok = all_ok and ok
        rows.append(
            {
                "n": n,
                "m": m,
                "lam": time_repr(lam_t),
                "auto": auto,
                "auto_completion": time_repr(auto_completion),
                "best_family": best_family,
                "best_completion": time_repr(best),
                "worst_family": worst_family,
                "worst_completion": time_repr(worst),
                "families": len(completions),
                "ok": ok,
            }
        )
    return {
        "points": rows,
        "gate": {
            "ok": all_ok,
            "tolerance": TUNE_GATE_TOLERANCE,
            "points": len(rows),
        },
    }


def _report_tune(section: dict) -> "list[str]":
    gate = section["gate"]
    return [
        f"tune gate: auto selection within {gate['tolerance']:.0%} of "
        f"the best fixed family (and never past the worst) over "
        f"{gate['points']} pinned points — exact arithmetic "
        f"[{_verdict(gate['ok'])}]"
    ] + [
        f"  FAIL at n={row['n']} m={row['m']} lam={row['lam']}: auto "
        f"{row['auto']} = {row['auto_completion']} vs best "
        f"{row['best_family']} = {row['best_completion']}"
        for row in section["points"]
        if not row["ok"]
    ]


# ------------------------------------------------------------- the table

#: Every measurement ``repro bench`` knows, in run order.  Sizes are
#: each function's defaults; tests call the functions with small sizes.
SECTIONS: "list[Section]" = [
    Section("cases", lambda mode, jobs: bench_cases(mode), _report_cases),
    Section("plan", lambda mode, jobs: bench_plan_layer(), _report_plan),
    Section("replay", lambda mode, jobs: bench_replay(), _report_replay),
    Section(
        "resilience", lambda mode, jobs: bench_resilience(), _report_resilience
    ),
    Section("batch", lambda mode, jobs: bench_batch(jobs=jobs), _report_batch),
    Section("tune", lambda mode, jobs: bench_tune(), _report_tune),
]


def select_sections(names: "Sequence[str] | None") -> "list[Section]":
    """The :data:`SECTIONS` entries *names* selects, in table order
    (every entry when *names* is empty or ``None``).  An unknown name
    raises :class:`~repro.errors.InvalidParameterError`."""
    known = [entry.name for entry in SECTIONS]
    unknown = [name for name in names or () if name not in known]
    if unknown:
        raise InvalidParameterError(
            f"unknown bench section {unknown[0]!r} (sections: "
            f"{', '.join(known)})"
        )
    return [entry for entry in SECTIONS if not names or entry.name in names]


# ------------------------------------------------------------- document


def to_json(sections: dict, *, mode: str, jobs: int = 1) -> str:
    """The ``BENCH_turbo.json`` document: the runner header, then each
    measured section (a ``{name: section}`` dict) under its name.

    *jobs* records the requested worker count; ``effective_jobs`` the
    resolved one (``jobs=0`` means one per CPU).  ``numpy`` is the
    installed NumPy version (or ``null``) and ``kernels`` whether the
    replay lane ran the NumPy kernels — :func:`compare_to_baseline`
    diffs replay times only between runs in the same kernel mode.
    """
    from repro.batch.kernels import kernels_enabled, numpy_version

    doc = {
        "schema": SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": numpy_version(),
        "kernels": kernels_enabled(),
        "jobs": jobs,
        "effective_jobs": effective_jobs(jobs),
        **sections,
    }
    return json.dumps(doc, indent=2) + "\n"


def load_baseline(path: str) -> dict:
    """The baseline document at *path*.  An unreadable file or any
    schema but :data:`SCHEMA` raises
    :class:`~repro.errors.InvalidParameterError`."""
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(
            f"cannot read baseline {path}: {exc}"
        ) from exc
    _check_schema(baseline)
    return baseline


def _check_schema(baseline: object) -> None:
    schema = baseline.get("schema") if isinstance(baseline, dict) else None
    if schema != SCHEMA:
        raise InvalidParameterError(
            f"baseline schema {schema!r} is not {SCHEMA!r}; record a new "
            f"baseline with `repro bench --out`"
        )


def compare_to_baseline(
    sections: dict, baseline: dict
) -> "tuple[list[str], list[str]]":
    """``(regressions, notes)`` of the measured *sections* against a
    committed *baseline* document.

    A case regresses when a lane's fresh wall time exceeds the
    baseline's by more than :data:`BASELINE_TOLERANCE`.  The exact and
    turbo columns never load NumPy and are always diffed; the replay
    column is diffed only when the baseline's ``kernels`` matches this
    process's kernel mode, and a note says when it was skipped.  Cases
    missing from the baseline are skipped (the grid may grow); being
    faster is never a failure.  A baseline in any schema but
    :data:`SCHEMA` raises :class:`~repro.errors.InvalidParameterError`.
    """
    from repro.batch.kernels import kernels_enabled

    _check_schema(baseline)
    if "cases" not in sections or "cases" not in baseline:
        return [], ["this run or the baseline has no cases section; nothing to diff"]
    lanes = ["exact", "turbo"]
    notes = []
    kernels = kernels_enabled()
    if baseline.get("kernels") == kernels:
        lanes.append("replay")
    else:
        notes.append(
            f"replay column skipped: the baseline was taken with kernels="
            f"{baseline.get('kernels')}, this run with kernels={kernels}"
        )
    base = {
        (c["family"], c["n"], c["m"], c["lam"]): c
        for c in baseline["cases"]["rows"]
    }
    regressions: "list[str]" = []
    for row in sections["cases"]["rows"]:
        ref = base.get((row["family"], row["n"], row["m"], row["lam"]))
        if ref is None:
            continue
        for lane in lanes:
            fresh, committed = row[f"{lane}_s"], ref[f"{lane}_s"]
            if committed > 0 and fresh > committed * (1.0 + BASELINE_TOLERANCE):
                regressions.append(
                    f"{row['family']} n={row['n']} [{lane}]: "
                    f"{fresh:.4f}s vs baseline {committed:.4f}s "
                    f"(+{(fresh / committed - 1.0):.0%} > "
                    f"{BASELINE_TOLERANCE:.0%} tolerance)"
                )
    return regressions, notes


# ------------------------------------------------------------- profiling


def profile_spec(spec: str) -> "tuple[BenchCase, str]":
    """The case and backend of a ``--profile FAMILY:N[:BACKEND]`` spec
    (backend defaults to turbo; ``m`` is the family's grid ``m``, else
    1).  A malformed spec, an unknown family or backend, or a point
    outside the family's domain raises
    :class:`~repro.errors.InvalidParameterError`."""
    from repro.conformance.oracles import resolve_oracle

    parts = spec.split(":")
    backend = parts[2] if len(parts) == 3 else "turbo"
    if len(parts) not in (2, 3) or not parts[1].isdecimal():
        raise InvalidParameterError(
            f"--profile expects FAMILY:N[:BACKEND], got {spec!r}"
        )
    if backend not in _BACKENDS:
        raise InvalidParameterError(
            f"--profile backend must be one of {', '.join(_BACKENDS)}, "
            f"got {backend!r}"
        )
    family, n = parts[0].upper(), int(parts[1])
    m = _GRID[family][0] if family in _GRID else 1
    oracle = resolve_oracle(family, m, _LAM)
    oracle.check_applicable(n, m, _LAM)
    case = BenchCase(oracle.family, n, m, _LAM)
    case.protocol()  # refuses a machine size the protocol cannot run
    return case, backend


def profile_case(
    case: BenchCase, *, backend: str = "turbo", out: "str | None" = None
) -> str:
    """Run *case*'s default, audited call once under :mod:`cProfile`;
    return a top-20 cumulative table and (optionally) dump the raw
    stats for ``snakeviz``/``pstats``.

    Follows the :mod:`repro.obs` exporter conventions: the artifact is
    written next to the results document under a self-describing name
    (``repro bench --profile`` passes ``<out>.profile.pstats``), and the
    human-readable view is returned as text for the caller to print —
    the function never writes to stdout itself.
    """
    import cProfile
    import io
    import pstats

    from repro.postal.runner import run_protocol

    proto = case.protocol()
    profiler = cProfile.Profile()
    profiler.enable()
    run_protocol(proto, backend=backend)
    profiler.disable()
    if out is not None:
        profiler.dump_stats(out)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(20)
    header = (
        f"profile: {case.family} n={case.n:,} m={case.m} "
        f"lam={time_repr(case.lam)} backend={backend}\n"
    )
    return header + buf.getvalue()
