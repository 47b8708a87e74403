"""Byte-identity of the batch sweep engine across every execution mode.

:func:`repro.batch.run_batch` promises that its result stream is
*identical* — field for field, digest for digest — no matter how the
sweep executes.  This suite pins that promise differentially over every
plan-compiled family (broadcast and collective) under both contention
policies, one comparison per axis:

* **fallback** — ``REPRO_NUMPY=off`` forces the pure-Python replay
  passes; results must match the NumPy kernels exactly (the kernel
  contract is byte-identity, not approximate agreement).
* **pickle** — ``jobs=4`` through the worker pool with a cold plan
  cache: every worker compiles the plans of the keys it owns, and only
  pickled points and results cross the process boundary.
* **shared** — ``jobs=4`` through the pool with the parent's plan cache
  warm: the forked workers read the plans the parent compiled (pages
  shared with it) instead of compiling their own.

The grids here replay tens of sends, far below
:data:`~repro.batch.runner.SHARD_MIN_SENDS`, so the pool fixtures set
the cutoff to 0 and check that the results really came from worker
processes; a separate test pins that the real cutoff keeps such a sweep
in-process.  The serial reference itself is also pinned against a direct
:func:`~repro.turbo.replay.replay_plan` execution, closing the loop to
the already-pinned replay tier (``tests/test_replay_equivalence.py``).
"""

import os
import warnings
from contextlib import contextmanager

import pytest

from repro.batch import run_batch
from repro.batch import runner as batch_runner
from repro.batch.runner import BatchPoint
from repro.errors import InvalidParameterError
from repro.plan import PlanCache, build_plan, plan_families
from repro.plan import cache as plan_cache
from repro.plan.build import collective_plan_families
from repro.postal import run_protocol

#: One applicable-by-construction grid point per family (PIPELINE-1
#: needs ``m <= floor(lam)``, PIPELINE-2 ``m >= ceil(lam)``, the
#: single-message families pin ``m = 1``).  Rational lambdas on the
#: pipelines exercise the tick-domain scaling.
CONFIGS = {
    "BCAST": (12, 1, "2"),
    "BINOMIAL": (12, 1, "2"),
    "DTREE-BINARY": (12, 1, "2"),
    "DTREE-LATENCY": (12, 1, "2"),
    "DTREE-LINE": (12, 1, "2"),
    "PACK": (10, 3, "2"),
    "PIPELINE-1": (10, 2, "5/2"),
    "PIPELINE-2": (10, 3, "5/2"),
    "REPEAT": (10, 3, "2"),
    "STAR": (12, 1, "2"),
    "ALLGATHER": (8, 1, "2"),
    "ALLREDUCE": (8, 1, "2"),
    "ALLTOALL": (8, 1, "2"),
    "BARRIER": (8, 1, "2"),
    "BRUCK-ALLGATHER": (8, 1, "2"),
    "GATHER": (8, 1, "2"),
    "GOSSIP-RING": (8, 1, "2"),
    "REDUCE": (8, 1, "2"),
    "SCATTER": (8, 1, "2"),
}

FAMILIES = sorted(CONFIGS)
POLICIES = ("strict", "queued")

POINTS = [
    BatchPoint(family, *CONFIGS[family], policy=policy)
    for family in FAMILIES
    for policy in POLICIES
]


def test_config_table_covers_every_plan_family():
    """The suite must grow with the registry: a newly plan-compiled
    family without a CONFIGS row fails here, not silently."""
    registered = set(plan_families()) | set(collective_plan_families())
    assert registered == set(CONFIGS)


def _by_key(results):
    table = {(r.family, r.policy): r for r in results}
    assert len(table) == len(results)  # no duplicate grid points
    return table


@contextmanager
def _quiet_oversubscription():
    """``jobs=4`` legitimately exceeds small CI runners' CPU counts; the
    once-per-process warning is the tested behavior of
    ``tests/test_bench_sections.py``, noise here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.fixture(scope="session")
def serial_results():
    """The reference: in-process, one worker, default transport."""
    return _by_key(run_batch(POINTS, jobs=1))


@pytest.fixture(scope="session")
def fallback_results():
    """Pure-Python replay passes (``REPRO_NUMPY=off``)."""
    saved = os.environ.get("REPRO_NUMPY")
    os.environ["REPRO_NUMPY"] = "off"
    try:
        return _by_key(run_batch(POINTS, jobs=1))
    finally:
        if saved is None:
            os.environ.pop("REPRO_NUMPY", None)
        else:
            os.environ["REPRO_NUMPY"] = saved


_PARENT = os.getpid()
_REAL_WORKER = batch_runner._batch_worker


def _pid_stamping_worker(point):
    """The real worker, with the process that ran it noted on the result
    (a plain attribute: dataclass equality ignores it)."""
    result = _REAL_WORKER(point)
    object.__setattr__(result, "_pid", os.getpid())
    return result


def _warm_cache(points) -> PlanCache:
    cache = PlanCache(mode="mem")
    for point in points:
        build_plan(point.family, point.n, point.m, point.lam, cache=cache)
    return cache


def _pool_run(points, jobs, cache=None):
    """``run_batch(points, jobs=jobs)`` forced through the worker pool
    (cutoff 0), with *cache* (default: a fresh one) as the parent's plan
    cache.  Fails unless every result came from a worker process."""
    with pytest.MonkeyPatch.context() as mp, _quiet_oversubscription():
        mp.setattr(batch_runner, "SHARD_MIN_SENDS", 0)
        mp.setattr(batch_runner, "_batch_worker", _pid_stamping_worker)
        mp.setattr(plan_cache, "_DEFAULT",
                   PlanCache(mode="mem") if cache is None else cache)
        results = run_batch(points, jobs=jobs)
    pids = {vars(r).pop("_pid") for r in results}
    assert pids and _PARENT not in pids, "the sweep did not use the pool"
    return results


@pytest.fixture(scope="session")
def pickle_results():
    """Four workers, each compiling the plans of the keys it owns."""
    return _by_key(_pool_run(POINTS, 4))


@pytest.fixture(scope="session")
def shared_results():
    """Four workers reading the plans the parent already compiled."""
    return _by_key(_pool_run(POINTS, 4, _warm_cache(POINTS)))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("family", FAMILIES)
class TestByteIdentity:
    def test_numpy_vs_fallback(self, serial_results, fallback_results, family, policy):
        assert serial_results[family, policy] == fallback_results[family, policy]

    def test_serial_vs_shared_jobs4(self, serial_results, shared_results, family, policy):
        assert serial_results[family, policy] == shared_results[family, policy]

    def test_serial_vs_pickle_jobs4(self, serial_results, pickle_results, family, policy):
        assert serial_results[family, policy] == pickle_results[family, policy]


@pytest.mark.parametrize("family", FAMILIES)
def test_serial_matches_direct_replay(serial_results, family):
    """Close the loop: run_batch's digest/completion are exactly what a
    direct replay of the same plan produces."""
    from repro.postal.machine import ContentionPolicy
    from repro.turbo.replay import replay_plan
    from repro.types import time_repr

    n, m, lam = CONFIGS[family]
    plan = build_plan(family, n, m, lam)
    system = replay_plan(plan, policy=ContentionPolicy.STRICT)
    got = serial_results[family, "strict"]
    assert got.completion == time_repr(system.completion_time)
    assert got.digest == system.column_digest()
    assert got.sends == len(plan)


def test_results_stream_in_submission_order():
    pts = [BatchPoint("BCAST", n, 1, "2") for n in (9, 3, 17, 5)]
    got = run_batch(pts, jobs=1)
    assert [r.n for r in got] == [9, 3, 17, 5]


def test_jobs_beyond_point_count_is_exact(serial_results):
    with _quiet_oversubscription():
        got = _by_key(run_batch(POINTS[:3] + POINTS[-3:], jobs=16))
    for key, result in got.items():
        assert result == serial_results[key]


@pytest.mark.parametrize("backend", ["exact", "turbo", "replay"])
def test_run_protocol_takes_the_batch_names(backend):
    """``run_protocol`` resolves family names as ``run_batch`` does:
    ``PIPELINE`` picks its Lemma 14/16 variant and ``DTREE-<d>`` names a
    degree, on every backend."""
    names = ("PIPELINE", "DTREE-3")
    batch = run_batch([BatchPoint(name, 10, 3, 2) for name in names])
    assert [r.completion for r in batch] == ["11", "13"]
    for name, result in zip(names, batch):
        run = run_protocol(name, n=10, m=3, lam=2, backend=backend)
        assert str(run.completion_time) == result.completion
        assert run.sends == result.sends


def test_rejects_unknown_backend():
    with pytest.raises(InvalidParameterError, match="backend"):
        run_batch([BatchPoint("BCAST", 4)], backend="exact")


def test_point_rejects_unknown_policy():
    with pytest.raises(InvalidParameterError, match="policy"):
        BatchPoint("BCAST", 4, policy="lax")


def test_empty_batch_is_empty():
    with _quiet_oversubscription():
        assert run_batch([], jobs=4) == []


# ------------------------------------------------------------ sharding

#: A mixed grid: ``auto`` specs under both policies, plan keys repeated
#: under both policies (``PIPELINE`` is an alias of ``PIPELINE-2`` here,
#: and a collective at ``m = 1`` shares its key with its ``plan_m``).
MIXED = [
    BatchPoint("auto", 24, 1, "5/2", "strict"),
    BatchPoint("auto", 24, 1, "5/2", "queued"),
    BatchPoint("auto", 16, 4, "2", "queued"),
    BatchPoint("auto:allgather", 8, 1, "2", "strict"),
    BatchPoint("PIPELINE", 10, 3, "5/2", "queued"),
    BatchPoint("GATHER", 8, 7, "2", "strict"),
    *(
        BatchPoint(family, *CONFIGS[family], policy=policy)
        for family in ("BCAST", "PIPELINE-2", "GATHER", "ALLTOALL", "STAR")
        for policy in POLICIES
    ),
    BatchPoint("BCAST", 12, 1, "2", "queued"),
]


@pytest.fixture(scope="module")
def mixed_serial():
    return run_batch(MIXED, jobs=1)


@pytest.mark.parametrize("jobs", [2, 4])
def test_mixed_grid_is_identical_for_any_jobs(mixed_serial, jobs):
    got = _pool_run(MIXED, jobs)
    assert got == mixed_serial
    # results come back by input index, whichever shard ran them
    assert [(r.n, r.policy) for r in got] == [(p.n, p.policy) for p in MIXED]


def test_below_the_cutoff_no_pool_starts(monkeypatch, serial_results):
    import repro.parallel

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool started below the send cutoff")

    monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", NoPool)
    with _quiet_oversubscription():
        got = _by_key(run_batch(POINTS, jobs=4))
    assert got == serial_results


def test_pool_sweep_leaves_the_parent_cache_untouched():
    cache = PlanCache(mode="mem")
    _pool_run(POINTS, 2, cache)
    # the workers compiled every plan; the parent never looked one up
    assert cache.stats()["entries"] == cache.hits == cache.misses == 0


def test_shards_keep_plan_keys_whole_and_balance_sends(monkeypatch):
    points = [BatchPoint("BCAST", n, 1, "2") for n in (400, 100, 300, 200)]
    points += [BatchPoint("BCAST", 400, 1, "2", "queued")]
    monkeypatch.setattr(batch_runner, "SHARD_MIN_SENDS", 0)
    shards = batch_runner._shards(points, 2)
    # the n=400 key replays 2 x 399 sends and fills one shard alone
    assert shards == [[0, 4], [2, 3, 1]]
    assert batch_runner._shards(points, 8) == [[0, 4], [2], [3], [1]]


def test_shard_count_follows_the_send_cutoff(monkeypatch):
    points = [BatchPoint("BCAST", 101, 1, "2", p) for p in POLICIES]
    points += [BatchPoint("STAR", 101, 1, "2"), BatchPoint("BINOMIAL", 101)]
    # four points of 100 sends each: 400 sends in three plan keys
    for cutoff, count in ((0, 3), (100, 3), (150, 3), (200, 2), (400, 1)):
        monkeypatch.setattr(batch_runner, "SHARD_MIN_SENDS", cutoff)
        assert len(batch_runner._shards(points, 4)) == count
