"""``run_batch``: execute a grid of plan replays as one batch.

The per-point path (``run_protocol(proto, backend="replay")``) pays,
for every point, protocol construction, plan-cache lookup *and* the
materialization of a full event-object
:class:`~repro.core.schedule.Schedule` with ``Fraction`` times.  A
batch sweep needs none of that: every point is "replay this compiled
plan under this policy and summarize".  :func:`run_batch` therefore

1. resolves ``family="auto"`` points through the tuner (memoized per
   query) and **groups the points by plan key** — points sharing a
   ``(family, n, m, lambda)`` key share one plan;
2. deals whole groups to shards, longest first, weighing each group by
   the sends its points replay (:func:`repro.plan.build.plan_sends`,
   known without compiling);
3. runs every shard through :func:`_batch_worker`, one point at a time:
   the worker takes the plan from its own process's
   :func:`~repro.plan.cache.build_plan` cache (the first point of a key
   compiles, the rest hit) and replays it through
   :func:`repro.turbo.replay.replay_plan` (NumPy kernels when
   available, pure-Python fallback otherwise — byte-identical either
   way).

With ``jobs > 1`` the shards run in worker processes through
:func:`repro.parallel.parallel_map`.  Only points go in and only
:class:`BatchResult` summaries come out: each worker compiles the plans
of the keys it owns, so no plan ever crosses a process boundary, and
the compiles run in parallel rather than serially in the parent.  A
sweep too small to repay a pool (:data:`SHARD_MIN_SENDS`) runs as one
shard in-process: same function, no pool.  Results go back in by input
index, so the output is element-for-element identical for any ``jobs``
(the per-point summaries are exact integers/strings, not wall times).

Every :class:`BatchResult` carries a SHA-256 digest over the realized
``starts`` and ``arrivals`` columns, so "byte-identical" is checkable
with ``==`` across serial/parallel and kernel/fallback runs —
``tests/test_batch_differential.py`` does exactly that for every
plan-compiled family under both policies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InvalidParameterError
from repro.parallel import effective_jobs, parallel_map, warn_if_oversubscribed
from repro.plan.build import plan_sends
from repro.plan.cache import PlanCache, build_plan
from repro.plan.columns import SchedulePlan
from repro.postal.machine import ContentionPolicy
from repro.turbo.replay import replay_plan
from repro.types import as_time, time_repr

__all__ = ["BatchPoint", "BatchResult", "run_batch"]

_POLICIES = ("strict", "queued")

#: Sends a sweep must replay per extra shard.  Below it a worker pool
#: costs more than it saves.  On a 2-core Xeon VM (CPython 3.11, NumPy
#: 2.4), 16-point mixed sweeps over the ten broadcast families, both
#: policies, with a cold plan cache (medians of 15 interleaved runs, the
#: pool forced at ``jobs=2``) took, at ``jobs=1`` against ``jobs=2``:
#: 16–24 vs 27–34 ms at 40k sends, 26–30 vs 33–34 ms at 50k, 36–37 vs
#: 35–37 ms at 60k, 38–42 vs 37–41 ms at 70k and 53–55 vs 44–50 ms at
#: 100k.  A sweep of ``S`` sends uses at most
#: ``ceil(S / SHARD_MIN_SENDS)`` shards; one shard runs in-process.
SHARD_MIN_SENDS = 60_000


@dataclass(frozen=True)
class BatchPoint:
    """One grid point: a plan-compiled family at ``(n, m, lambda)``
    under a contention policy.  ``lam`` is kept as the string/number
    given (normalized via :func:`repro.types.as_time` at execution), so
    points pickle small and hash cleanly."""

    family: str
    n: int
    m: int = 1
    lam: "str | int" = 2
    policy: str = "strict"

    def __post_init__(self):
        if self.policy not in _POLICIES:
            raise InvalidParameterError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}"
            )


@dataclass(frozen=True)
class BatchResult:
    """The exact, wall-clock-free summary of one replayed point.

    Attributes:
        family / n / m / lam / policy: the point, with ``lam``
            canonicalized by :func:`repro.types.time_repr`.
        completion: the replay's completion time (exact, rendered).
        sends: send events in the plan.
        contended: queued policy only — whether FIFO booking delayed
            any receive (always ``False`` under strict).
        digest: SHA-256 over the realized ``starts`` and ``arrivals``
            columns — equal digests mean byte-identical replays.
    """

    family: str
    n: int
    m: int
    lam: str
    policy: str
    completion: str
    sends: int
    contended: bool
    digest: str


def _resolve_auto(point: BatchPoint) -> BatchPoint:
    """Resolve ``family="auto"`` / ``"auto:<workload>"`` points through
    the tuner (restricted to plan-compilable families, since the batch
    tier replays compiled plans); concrete points pass through."""
    from repro.tune.model import auto_workload, select_protocol

    if auto_workload(point.family) is None:
        return point
    family = select_protocol(
        auto_workload(point.family) or "broadcast",
        point.n,
        m=point.m,
        lam=as_time(point.lam),
        policy=point.policy,
        require_plan=True,
    )
    return replace(point, family=family)


def _replay_point(plan: SchedulePlan, point: BatchPoint) -> BatchResult:
    policy = (
        ContentionPolicy.STRICT
        if point.policy == "strict"
        else ContentionPolicy.QUEUED
    )
    system = replay_plan(plan, policy=policy)
    return BatchResult(
        family=plan.family,
        n=plan.n,
        m=plan.m,
        lam=time_repr(plan.lam),
        policy=point.policy,
        completion=time_repr(system.completion_time),
        sends=system.send_count,
        contended=system.queued_contention,
        digest=system.column_digest(),
    )


# ---------------------------------------------------------------- workers


def _batch_worker(point: BatchPoint) -> BatchResult:
    """Replay one point on the plan from this process's plan cache."""
    plan = build_plan(point.family, point.n, point.m, as_time(point.lam))
    return _replay_point(plan, point)


def _run_shard(points) -> list[BatchResult]:
    # through the module global, so a patched _batch_worker runs here too
    return [_batch_worker(point) for point in points]


def _shards(points, jobs: int) -> "list[list[int]]":
    """Point indices per shard: whole plan-key groups, dealt longest
    first to the least-loaded shard, each group's points consecutive so
    one compile serves them all."""
    groups: "dict[tuple, list[int]]" = {}
    for i, point in enumerate(points):
        key = PlanCache.key(point.family, point.n, point.m, as_time(point.lam))
        groups.setdefault(key, []).append(i)
    weighed = sorted(
        (
            (plan_sends(*key[:3]) * len(members), members)
            for key, members in groups.items()
        ),
        key=lambda item: (-item[0], item[1][0]),
    )
    count = min(jobs, len(groups))
    if SHARD_MIN_SENDS > 0:
        total = sum(weight for weight, _ in weighed)
        count = min(count, -(-total // SHARD_MIN_SENDS))
    count = max(1, count)
    shards: "list[list[int]]" = [[] for _ in range(count)]
    loads = [0] * count
    for weight, members in weighed:
        lightest = loads.index(min(loads))
        shards[lightest].extend(members)
        loads[lightest] += weight
    return shards


# ---------------------------------------------------------------- the API


def run_batch(
    points,
    *,
    backend: str = "replay",
    jobs: int = 1,
) -> list[BatchResult]:
    """Replay every :class:`BatchPoint` in *points*; results come back
    in submission order, byte-identical for any ``jobs`` value.

    Args:
        points: an iterable of :class:`BatchPoint`.
        backend: only ``"replay"`` — the batch tier *is* the vectorized
            replay lane (protocol-stepping backends are inherently
            per-point; use :func:`repro.postal.runner.run_protocol`).
        jobs: worker processes (``0`` = one per CPU, as everywhere).
            Points sharing a plan key stay on one worker, which
            compiles the plan itself; a sweep below
            :data:`SHARD_MIN_SENDS` sends per extra worker runs
            in-process.

    >>> from repro.batch import BatchPoint, run_batch
    >>> [r.sends for r in run_batch([BatchPoint("BCAST", 64, 1, "5/2")])]
    [63]
    """
    if backend != "replay":
        raise InvalidParameterError(
            f"run_batch supports backend='replay' only, got {backend!r}"
        )
    points = [_resolve_auto(p) for p in points]
    jobs = effective_jobs(jobs)
    warn_if_oversubscribed(jobs, what="batch")
    shards = _shards(points, jobs)
    work = [tuple(points[i] for i in shard) for shard in shards]
    results: "list[BatchResult | None]" = [None] * len(points)
    for shard, done in zip(
        shards, parallel_map(_run_shard, work, jobs=len(shards))
    ):
        for i, result in zip(shard, done):
            results[i] = result
    return results  # type: ignore[return-value]
