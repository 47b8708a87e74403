"""The perf regression harness behind ``python -m repro bench``.

Measures end-to-end wall time of :func:`repro.postal.runner.run_protocol`
(``validate=False, collect=False`` — pure engine cost) for a fixed case
grid on **all three** execution backends (``exact``, ``turbo``, and
since ``/5`` the vectorized ``replay`` tier) and reports the
turbo-vs-exact and replay-vs-exact speedups per case.  The broadcast families cover the three structural
regimes — BCAST (single message, Fibonacci tree fan-out), PIPELINE-2
(multi-message pipelining, long per-processor send chains),
DTREE-BINARY (degree-bounded tree, mixed fan-out) — and since ``/3``
the grid also covers every :mod:`repro.collectives` workload: the
Theta(n^2)-delivery exchanges (ALLGATHER, BRUCK-ALLGATHER, ALLTOALL,
GOSSIP-RING) and the tree-shaped combines (REDUCE, ALLREDUCE, BARRIER).

Two grids:

* ``smoke`` — the CI gate: ``n`` up to ``10^4`` (BCAST and the tree
  collectives) / ``10^3`` (multi-message) / ``10^2`` (the quadratic
  exchanges); finishes in well under a minute.
* ``full``  — the nightly trajectory: broadcast families to
  ``n = 10^5``, tree collectives to ``10^4``, quadratic exchanges to
  ``3*10^2``.

Results serialize to the committed ``BENCH_turbo.json`` (schema
``repro-bench-turbo/6``; see ``docs/performance.md``).  Since ``/2`` the
document also records the runner (``cpu_count``, ``platform``), the
``jobs`` the sweep ran with, and a ``plan`` section benchmarking the
columnar plan layer (:mod:`repro.plan`) against classic event-object
schedule construction at BCAST ``n = 10^5``; ``/3`` adds the collective
cases and a second speedup gate; ``/4`` adds the ``resilience`` section
(:func:`bench_resilience`); ``/5`` adds a ``replay_s`` wall time per
case, the standalone ``replay`` gate section (:func:`bench_replay`),
and records ``effective_jobs`` next to the requested ``jobs``; ``/6``
adds the installed NumPy version (or ``null``) to the header and the
``bench_batch`` section (:func:`bench_batch`) gating the
:mod:`repro.batch` tier.  Seven checks gate CI:

* **speedup gate** — turbo must be at least :data:`GATE_MIN_SPEEDUP`
  times faster than exact for BCAST at ``n = 10^4`` (uniform integer
  latency), per the acceptance criterion of the turbo lane;
* **collective gate** — same bar for ALLGATHER at the 10^4-**send**
  scale, i.e. :data:`COLLECTIVE_GATE_CASE` ``n = 100`` (9,999 sends —
  the same event count as the BCAST gate).  The gate is deliberately
  stated in sends, not processors: allgather delivers Theta(n^2)
  messages, so ``n = 10^4`` *processors* would mean ~10^8 sends and
  hours of exact-engine wall time per measurement — not a CI gate.
  What CI must pin is the turbo lane's per-event advantage on the
  collective code path, which the 10^4-send point measures exactly as
  the BCAST gate does for broadcast;
* **replay gate** — the vectorized plan-replay tier
  (``backend="replay"``) must be at least
  :data:`REPLAY_GATE_MIN_SPEEDUP` times faster than exact for BCAST at
  ``n =`` :data:`REPLAY_GATE_N`.  The bar is an order of magnitude
  above the turbo gates because the tier skips the event loop entirely:
  a compiled plan replays as a handful of batched column passes, so
  anything *near* event-loop speed means the vectorization regressed;
* **batch gate** (``repro bench --batch``) — the :mod:`repro.batch`
  tier must run the 64-point :func:`batch_grid` (at the ``--jobs``
  given) at least :data:`BATCH_GATE_MIN_SPEEDUP` times as fast as a
  per-point loop that builds and replays each plan, both from a cold
  plan cache; on a host with two or
  more CPUs a cold-cache sweep at ``jobs=2`` must be at least
  :data:`BATCH_PARALLEL_GATE_MIN_SPEEDUP` times as fast as at
  ``jobs=1``; and (NumPy installed) one strict replay at BCAST
  ``n = 10^5`` must run :data:`BATCH_KERNEL_GATE_MIN_SPEEDUP` faster
  under the kernels than under the pure-Python passes;
* **plan gate** — columnar construction must be at least
  :data:`PLAN_GATE_MIN_SPEEDUP` times faster and hold its events in at
  least :data:`PLAN_GATE_MIN_MEM_RATIO` times less storage than the
  event-object builder at BCAST ``n = 10^5``;
* **resilience gate** — every fault-injected recovery case at
  ``n =`` :data:`RESILIENCE_GATE_N` must (a) replay bit-identically
  when run twice with the same seed (trace + metrics digests equal),
  (b) come back certificate-clean (survivor lower bound, coverage,
  order preservation, exact fault accounting — see
  :mod:`repro.resilience.certify`), and (c) in the fault-free case
  honor the documented ``loss = 0`` ceiling ``f_lambda(n) + depth``.
  Deliberately *not* a wall-clock gate: fault realizations are exact,
  so the gate can be sharp where speedup gates must be loose — wall
  times are recorded informationally per case;
* **baseline comparison** — optionally, each measured wall time must not
  exceed the committed baseline's by more than a relative tolerance
  (default ±30%; wall clocks on shared CI runners are noisy, so the
  tolerance is deliberately loose and only *slower* is a failure).
  ``/1`` and ``/2`` baselines remain readable — the per-case layout is
  unchanged; cases they predate are simply skipped.

The grid itself can run sharded over worker processes (``run_bench(...,
jobs=N)``, ``repro bench --jobs N``): cases are independent and merge in
grid order, so the document is identical for any ``jobs`` — only the
wall clock changes.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from repro.parallel import effective_jobs, parallel_map, warn_if_oversubscribed
from repro.types import Time, as_time, time_repr

__all__ = [
    "BATCH_GATE_MIN_SPEEDUP",
    "BATCH_PARALLEL_GATE_MIN_SPEEDUP",
    "BATCH_KERNEL_GATE_N",
    "BATCH_KERNEL_GATE_MIN_SPEEDUP",
    "BenchCase",
    "BenchResult",
    "BASELINE_SCHEMAS",
    "COLLECTIVE_GATE_CASE",
    "COLLECTIVE_GATE_MIN_SPEEDUP",
    "GATE_CASE",
    "GATE_MIN_SPEEDUP",
    "PLAN_GATE_N",
    "PLAN_GATE_MIN_SPEEDUP",
    "PLAN_GATE_MIN_MEM_RATIO",
    "REPLAY_GATE_N",
    "REPLAY_GATE_MIN_SPEEDUP",
    "RESILIENCE_CASES",
    "RESILIENCE_GATE_N",
    "SCHEMA",
    "TUNE_GATE_POINTS",
    "TUNE_GATE_TOLERANCE",
    "batch_grid",
    "bench_batch",
    "bench_grid",
    "bench_plan_layer",
    "bench_replay",
    "bench_resilience",
    "bench_tune",
    "collective_gate_result",
    "compare_to_baseline",
    "format_results",
    "gate_result",
    "profile_case",
    "run_bench",
    "run_case",
    "to_json",
]

#: Schema tag written into every ``BENCH_turbo.json``.
SCHEMA = "repro-bench-turbo/7"

#: Schemas :func:`compare_to_baseline` accepts (the per-case layout has
#: been stable since ``/1``; ``/2`` added runner metadata and the plan
#: section, ``/3`` the collective cases and gate, ``/4`` the resilience
#: section, ``/5`` the per-case ``replay_s`` and the replay gate, ``/6``
#: the ``numpy`` header field and the ``bench_batch`` section, ``/7``
#: the ``bench_tune`` section — extra top-level keys and case fields
#: older readers simply ignore).
BASELINE_SCHEMAS = (
    "repro-bench-turbo/1",
    "repro-bench-turbo/2",
    "repro-bench-turbo/3",
    "repro-bench-turbo/4",
    "repro-bench-turbo/5",
    "repro-bench-turbo/6",
    "repro-bench-turbo/7",
)

#: The acceptance gate: ``(family, n)`` that must clear the speedup bar.
GATE_CASE = ("BCAST", 10_000)

#: Minimum turbo-vs-exact speedup required at :data:`GATE_CASE`.
GATE_MIN_SPEEDUP = 3.0

#: The collective acceptance gate: allgather at the 10^4-send scale
#: (``n = 100`` is 9,999 sends — the same event count as the BCAST gate;
#: see the module docstring for why the gate is stated in sends).
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

#: Minimum kernel-vs-pure-Python speedup of one strict replay at
#: :data:`BATCH_KERNEL_GATE_N` — enforced only when NumPy is installed
#: (the section records ``numpy: null`` and passes vacuously otherwise).
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


def bench_grid(mode: str = "smoke") -> list[BenchCase]:
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


def _time_backend(case: BenchCase, backend: str) -> tuple[float, int]:
    """Best-of-3 wall time of one backend on *case*.

    A fresh protocol is built per repetition (protocols are stateful).
    A repetition of half a second or more ends the loop — repeating a
    30 s exact run buys nothing.  One full collection runs before the
    first repetition, so a collection the previous side's garbage set
    up does not land in this side's timing.
    """
    from repro.postal.runner import run_protocol

    gc.collect()
    best = float("inf")
    sends = 0
    for _ in range(3):
        proto = case.protocol()
        t0 = time.perf_counter()
        result = run_protocol(
            proto, validate=False, collect=False, backend=backend
        )
        elapsed = time.perf_counter() - t0
        sends = result.sends
        best = min(best, elapsed)
        if elapsed >= 0.5:
            break
    return best, sends


def run_case(case: BenchCase) -> BenchResult:
    """Measure *case* on all three backends.

    Every grid family has a registered plan compiler, so the replay tier
    runs for each case; its first repetition pays the (cached) plan
    compile, later repetitions measure pure replay — best-of keeps the
    warm number, which is what the tier costs in steady state.
    """
    exact_s, sends = _time_backend(case, "exact")
    turbo_s, turbo_sends = _time_backend(case, "turbo")
    replay_s, replay_sends = _time_backend(case, "replay")
    if turbo_sends != sends:  # pragma: no cover - equivalence suite's job
        raise AssertionError(
            f"{case.family} n={case.n}: backends disagree on send count "
            f"(exact {sends}, turbo {turbo_sends})"
        )
    if replay_sends != sends:  # pragma: no cover - equivalence suite's job
        raise AssertionError(
            f"{case.family} n={case.n}: backends disagree on send count "
            f"(exact {sends}, replay {replay_sends})"
        )
    return BenchResult(case, exact_s, turbo_s, sends, replay_s)


def run_bench(
    mode: str = "smoke",
    *,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
) -> list[BenchResult]:
    """Run the whole *mode* grid; *progress* gets one line per case.

    With ``jobs > 1`` the cases run across worker processes and merge
    back in grid order — measurements are per-case wall times either
    way, so the resulting document layout is identical (though parallel
    timings share cores and are noisier; the committed baseline is
    recorded serially).
    """
    from repro.batch.kernels import kernels_enabled

    grid = bench_grid(mode)
    warn_if_oversubscribed(jobs, what="bench")
    # import NumPy before any case is timed (and before workers fork), so
    # no case's first replay pays for the import
    kernels_enabled()
    if jobs > 1:
        if progress is not None:
            progress(f"  {len(grid)} cases across {jobs} workers ...")
        return parallel_map(run_case, grid, jobs=jobs, chunksize=1)
    results = []
    for case in grid:
        if progress is not None:
            progress(
                f"  {case.family:<14} n={case.n:>7,} m={case.m} "
                f"lam={time_repr(case.lam)} ..."
            )
        results.append(run_case(case))
    return results


# ------------------------------------------------------------ plan layer


def _best_of(fn: Callable[[], object], *, budget_s: float = 0.5, reps: int = 3) -> float:
    """Minimum wall time of *fn* over up to *reps* calls (stop early once
    *budget_s* of total measurement is spent)."""
    best = float("inf")
    total = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        total += elapsed
        if total >= budget_s:
            break
    return best


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
    events_build_s = _best_of(
        lambda: bcast_schedule(n, lam, validate=False).events
    )
    plan_build_s = _best_of(lambda: compile_plan("BCAST", n, 1, lam))
    cache = PlanCache(mode="mem")
    build_plan("BCAST", n, 1, lam, cache=cache)  # warm it
    plan_cached_s = _best_of(
        lambda: build_plan("BCAST", n, 1, lam, cache=cache), reps=5
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

    construction_speedup = (
        events_build_s / plan_build_s if plan_build_s > 0 else float("inf")
    )
    storage_ratio = (
        events_storage / plan.nbytes if plan.nbytes > 0 else float("inf")
    )
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


# ------------------------------------------------------------ replay tier


def bench_replay(*, n: int = REPLAY_GATE_N, lam: Time = _LAM) -> dict:
    """Benchmark the vectorized replay tier against both event-loop
    backends at BCAST size *n* (the ``"replay"`` section of the
    document).

    Three wall times for the same protocol run: the exact engine, the
    turbo event loop, and ``backend="replay"`` executing the compiled
    plan as batched column passes.  ``compile_s`` records the one-time
    plan compilation separately (steady-state replays hit the plan
    cache, so the per-run numbers are measured warm — same convention
    as :func:`bench_plan_layer`'s ``plan_cached_s`` row).  The gate is
    replay-vs-exact at :data:`REPLAY_GATE_MIN_SPEEDUP`.
    """
    from repro.plan import compile_plan

    lam = as_time(lam)
    case = BenchCase("BCAST", n, 1, lam)
    compile_s = _best_of(lambda: compile_plan("BCAST", n, 1, lam), reps=1)
    exact_s, sends = _time_backend(case, "exact")
    turbo_s, _ = _time_backend(case, "turbo")
    replay_s, replay_sends = _time_backend(case, "replay")
    if replay_sends != sends:  # pragma: no cover - equivalence suite's job
        raise AssertionError(
            f"BCAST n={n}: backends disagree on send count "
            f"(exact {sends}, replay {replay_sends})"
        )
    speedup = exact_s / replay_s if replay_s > 0 else float("inf")
    turbo_ratio = turbo_s / replay_s if replay_s > 0 else float("inf")
    return {
        "family": "BCAST",
        "n": n,
        "m": 1,
        "lam": time_repr(lam),
        "sends": sends,
        "exact_s": round(exact_s, 6),
        "turbo_s": round(turbo_s, 6),
        "replay_s": round(replay_s, 6),
        "compile_s": round(compile_s, 6),
        "speedup": round(speedup, 3),
        "turbo_ratio": round(turbo_ratio, 3),
        "gate": {
            "min_speedup": REPLAY_GATE_MIN_SPEEDUP,
            "ok": speedup >= REPLAY_GATE_MIN_SPEEDUP,
        },
    }


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


def _cold_s(fn: Callable[[], object]) -> float:
    """Best wall time of *fn*, each call on a fresh, empty process-wide
    plan cache (restored afterwards)."""
    from repro.plan import cache as plan_cache

    saved = plan_cache.default_cache()

    def cold():
        plan_cache.configure(mode="mem")
        fn()

    try:
        return _best_of(cold, budget_s=2.0)
    finally:
        plan_cache._DEFAULT = saved


def bench_batch(*, jobs: int = 1, kernel_n: int = BATCH_KERNEL_GATE_N) -> dict:
    """The ``"bench_batch"`` section (schema ``/6``): three
    measurements, three gates.

    * **sweep gate** — wall time of the 64-point :func:`batch_grid`
      through :func:`repro.batch.run_batch` at *jobs* vs a per-point
      loop doing the same work (:func:`_per_point_sweep`), both from a
      cold plan cache: compiling where it replays is what the batch
      tier is for.  Must clear :data:`BATCH_GATE_MIN_SPEEDUP`.
    * **parallel gate** — the same grid from a cold plan cache at
      ``jobs=2`` vs ``jobs=1``.  Must clear
      :data:`BATCH_PARALLEL_GATE_MIN_SPEEDUP` when the host has at
      least two CPUs; recorded as skipped on one.
    * **kernel gate** — one strict BCAST replay at *kernel_n* with the
      NumPy kernels vs the pure-Python passes (forced via
      ``REPRO_NUMPY=off``).  Must clear
      :data:`BATCH_KERNEL_GATE_MIN_SPEEDUP` when NumPy is installed;
      records ``numpy: null`` and passes vacuously otherwise.
    """
    from repro.batch import run_batch
    from repro.batch.kernels import kernels_enabled, numpy_version
    from repro.plan import build_plan
    from repro.turbo.replay import replay_plan

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
        parallel_speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
        parallel.update(
            serial_s=round(serial_s, 6),
            parallel_s=round(parallel_s, 6),
            speedup=round(parallel_speedup, 3),
            ok=parallel_speedup >= BATCH_PARALLEL_GATE_MIN_SPEEDUP,
        )

    per_point_s = _cold_s(lambda: _per_point_sweep(points))
    batch_s = _cold_s(lambda: run_batch(points, jobs=jobs))
    speedup = per_point_s / batch_s if batch_s > 0 else float("inf")
    sweep_ok = speedup >= BATCH_GATE_MIN_SPEEDUP

    plan = build_plan("BCAST", kernel_n, 1, _LAM)
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
        python_s = _best_of(lambda: replay_plan(plan), budget_s=1.0, reps=5)
    finally:
        if saved is None:
            os.environ.pop("REPRO_NUMPY", None)
        else:
            os.environ["REPRO_NUMPY"] = saved
    kernel["python_s"] = round(python_s, 6)
    if kernels_enabled():
        numpy_s = _best_of(lambda: replay_plan(plan), budget_s=1.0, reps=5)
        kernel_speedup = python_s / numpy_s if numpy_s > 0 else float("inf")
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


# ------------------------------------------------------------- profiling


def profile_case(
    case: BenchCase, *, backend: str = "turbo", out: "str | None" = None
) -> str:
    """Run *case* once under :mod:`cProfile`; return a top-20 cumulative
    table and (optionally) dump the raw stats for ``snakeviz``/``pstats``.

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
    run_protocol(proto, validate=False, collect=False, backend=backend)
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


def bench_tune(points=TUNE_GATE_POINTS) -> dict:
    """The auto-selection gate: the ``bench_tune`` section.

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


# ------------------------------------------------------------- reporting


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


def gate_result(results: Iterable[BenchResult]) -> dict:
    """The acceptance-gate verdict over *results*.

    Returns a JSON-ready dict: the gate case, the bar, the measured
    speedup, and ``ok``.  Raises :class:`LookupError` if the grid did
    not include the gate case.
    """
    family, n = GATE_CASE
    for res in results:
        if res.case.family == family and res.case.n == n:
            return {
                "family": family,
                "n": n,
                "min_speedup": GATE_MIN_SPEEDUP,
                "speedup": round(res.speedup, 3),
                "ok": res.speedup >= GATE_MIN_SPEEDUP,
            }
    raise LookupError(f"bench grid did not include the gate case {GATE_CASE}")


def collective_gate_result(results: Iterable[BenchResult]) -> dict:
    """The collective acceptance-gate verdict over *results* — ALLGATHER
    at the 10^4-send point (:data:`COLLECTIVE_GATE_CASE`).  Same shape as
    :func:`gate_result`; raises :class:`LookupError` if the grid did not
    include the case."""
    family, n = COLLECTIVE_GATE_CASE
    for res in results:
        if res.case.family == family and res.case.n == n:
            return {
                "family": family,
                "n": n,
                "sends": res.sends,
                "min_speedup": COLLECTIVE_GATE_MIN_SPEEDUP,
                "speedup": round(res.speedup, 3),
                "ok": res.speedup >= COLLECTIVE_GATE_MIN_SPEEDUP,
            }
    raise LookupError(
        f"bench grid did not include the collective gate case "
        f"{COLLECTIVE_GATE_CASE}"
    )


def to_json(
    results: Sequence[BenchResult],
    *,
    mode: str,
    jobs: int = 1,
    plan: "dict | None" = None,
    resilience: "dict | None" = None,
    replay: "dict | None" = None,
    batch: "dict | None" = None,
    tune: "dict | None" = None,
) -> str:
    """Serialize *results* to the ``BENCH_turbo.json`` document.

    *plan* is the :func:`bench_plan_layer` section (measured separately
    because it benchmarks construction, not simulation); *resilience*
    the :func:`bench_resilience` section (correctness-gated, so its
    rows never enter the baseline wall-time diff); *replay* the
    :func:`bench_replay` section carrying the replay gate; *batch* the
    :func:`bench_batch` section carrying the batch-tier gates; *tune*
    the :func:`bench_tune` section carrying the (deterministic,
    exact-arithmetic) auto-selection gate; *jobs*
    records how the sweep was *requested* — the resolved worker count
    lands in ``effective_jobs`` (``jobs=0`` means one per CPU, so the
    two differ exactly when the request was left to the machine).
    Parallel timings share cores, so a baseline diff across different
    ``effective_jobs`` values deserves suspicion.  Since ``/6`` the
    header also records the installed NumPy version (or ``null``) —
    the replay wall times depend on whether the kernels ran, so a
    baseline diff should compare like with like.
    """
    from repro.batch.kernels import numpy_version

    doc = {
        "schema": SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": numpy_version(),
        "jobs": jobs,
        "effective_jobs": effective_jobs(jobs),
        "cases": [
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
        "gate": gate_result(results),
        "collective_gate": collective_gate_result(results),
    }
    if plan is not None:
        doc["plan"] = plan
    if resilience is not None:
        doc["resilience"] = resilience
    if replay is not None:
        doc["replay"] = replay
    if batch is not None:
        doc["bench_batch"] = batch
    if tune is not None:
        doc["bench_tune"] = tune
    return json.dumps(doc, indent=2) + "\n"


def compare_to_baseline(
    results: Sequence[BenchResult],
    baseline: dict,
    *,
    tolerance: float = 0.30,
) -> list[str]:
    """Regressions of *results* against a committed *baseline* document.

    A case regresses when its fresh wall time exceeds the baseline's by
    more than *tolerance* (relative), on any backend.  Cases missing
    from the baseline are skipped (the grid may grow); being *faster*
    is never a failure.  Returns human-readable regression lines.

    Baselines in any of :data:`BASELINE_SCHEMAS` are accepted — ``/1``
    files predate the runner metadata and plan section but share the
    per-case layout; pre-``/5`` files have no ``replay_s``, so the
    replay column is only diffed when the baseline recorded it.
    """
    if baseline.get("schema") not in BASELINE_SCHEMAS:
        raise ValueError(
            f"baseline schema {baseline.get('schema')!r} not in "
            f"{BASELINE_SCHEMAS!r}"
        )
    base = {
        (c["family"], c["n"], c["m"], c["lam"]): c
        for c in baseline.get("cases", [])
    }
    regressions: list[str] = []
    for r in results:
        key = (r.case.family, r.case.n, r.case.m, time_repr(r.case.lam))
        ref = base.get(key)
        if ref is None:
            continue
        for label, fresh, committed in (
            ("exact", r.exact_s, ref["exact_s"]),
            ("turbo", r.turbo_s, ref["turbo_s"]),
            ("replay", r.replay_s, ref.get("replay_s", 0.0)),
        ):
            if committed > 0 and fresh > committed * (1.0 + tolerance):
                regressions.append(
                    f"{r.case.family} n={r.case.n} [{label}]: "
                    f"{fresh:.4f}s vs baseline {committed:.4f}s "
                    f"(+{(fresh / committed - 1.0):.0%} > "
                    f"{tolerance:.0%} tolerance)"
                )
    return regressions


def format_results(results: Sequence[BenchResult]) -> str:
    """Fixed-width table of the measured grid."""
    from repro.report.tables import format_table

    rows = [
        [
            r.case.family,
            f"{r.case.n:,}",
            str(r.case.m),
            f"{r.sends:,}",
            f"{r.exact_s:.4f}",
            f"{r.turbo_s:.4f}",
            f"{r.replay_s:.4f}",
            f"{r.speedup:.2f}x",
            f"{r.replay_speedup:.2f}x",
        ]
        for r in results
    ]
    return format_table(
        [
            "family",
            "n",
            "m",
            "sends",
            "exact (s)",
            "turbo (s)",
            "replay (s)",
            "turbo x",
            "replay x",
        ],
        rows,
    )
