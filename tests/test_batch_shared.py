"""Shared-memory plan distribution: zero-copy fidelity and crash safety.

Three properties of :mod:`repro.batch.shared` (the plan transport of
the conformance fuzzer's ``--batch`` sweep) are load-bearing:

* **fidelity** — a plan rebuilt from a shared segment
  (:meth:`SchedulePlan.from_shared`) is *equal* to the original and
  replays byte-identically (same column digest), even though its
  columns are memoryviews of mapped pages rather than ``array('q')``;
* **ownership** — only the creating process unlinks; attachments (in
  any process) merely close their own mapping, so release order never
  races;
* **crash safety** — segments are unlinked even when workers die hard
  (``os._exit`` mid-batch): the owner releases in a ``finally``, and
  POSIX keeps attached mappings alive in survivors after the unlink.
  No test here may leave a segment behind — the leak assertions scan
  ``/dev/shm`` directly.

:func:`repro.batch.run_batch` itself ships no plans (its workers
compile their own); its worker-crash retry is pinned here too.
"""

import multiprocessing
import os
import pickle
import warnings
from pathlib import Path

import pytest

from repro.batch import run_batch
from repro.batch.runner import BatchPoint
from repro.batch import runner as batch_runner
from repro.batch.shared import (
    SharedPlanSet,
    attach_columns,
    release_shared,
)
from repro.plan import build_plan
from repro.plan.columns import SchedulePlan

FAMILIES = ("BCAST", "PIPELINE-2", "ALLGATHER", "GOSSIP-RING")


def _segments() -> "set[str]":
    """Names of live POSIX shared-memory segments (Linux)."""
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm to scan for leaks")
    return {p.name for p in shm.iterdir()}


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = _segments()
    yield
    assert _segments() <= before, "test leaked a shared-memory segment"


@pytest.mark.parametrize("family", FAMILIES)
def test_roundtrip_equals_original(family):
    plan = build_plan(family, 9, 2 if family == "PIPELINE-2" else 1, "2")
    handle = plan.to_shared()
    try:
        clone = SchedulePlan.from_shared(handle)
        assert clone == plan
        assert clone.family == plan.family
        assert clone.completion_time() == plan.completion_time()
        assert bytes(memoryview(clone.ticks)) == plan.ticks.tobytes()
    finally:
        release_shared(handle)


@pytest.mark.parametrize("family", FAMILIES)
def test_attached_replay_is_byte_identical(family):
    from repro.postal.machine import ContentionPolicy
    from repro.turbo.replay import replay_plan

    plan = build_plan(family, 9, 2 if family == "PIPELINE-2" else 1, "2")
    handle = plan.to_shared()
    try:
        clone = SchedulePlan.from_shared(handle)
        for policy in (ContentionPolicy.STRICT, ContentionPolicy.QUEUED):
            assert (
                replay_plan(clone, policy=policy).column_digest()
                == replay_plan(plan, policy=policy).column_digest()
            )
    finally:
        release_shared(handle)


def test_handle_pickles_small_and_roundtrips():
    plan = build_plan("BCAST", 4096, 1, "7/2")
    handle = plan.to_shared()
    try:
        blob = pickle.dumps(handle)
        # the whole point: the handle is O(1), not O(plan)
        assert len(blob) < 512 < len(plan.to_bytes())
        assert pickle.loads(blob) == handle
        clone = SchedulePlan.from_shared(pickle.loads(blob))
        assert clone == plan
    finally:
        release_shared(handle)


def test_release_unlinks_segment():
    handle = build_plan("BCAST", 8, 1, "2").to_shared()
    columns, attachment = attach_columns(handle)
    release_shared(handle)
    # survivors keep reading their mapping after the unlink...
    assert list(columns[0])  # ticks still readable
    attachment.close()
    # ...but the name is gone: nobody new can attach
    with pytest.raises(FileNotFoundError):
        attach_columns(handle)


def test_release_is_idempotent_and_ignores_foreign_handles():
    handle = build_plan("BCAST", 8, 1, "2").to_shared()
    release_shared(handle)
    release_shared(handle)  # second release: no-op, no raise


def test_attachment_close_is_idempotent():
    handle = build_plan("BCAST", 8, 1, "2").to_shared()
    try:
        _, attachment = attach_columns(handle)
        attachment.close()
        attachment.close()
    finally:
        release_shared(handle)


def test_shared_plan_set_unlinks_on_exit():
    plans = [build_plan(f, 8, 1, "2") for f in ("BCAST", "STAR")]
    with SharedPlanSet(plans) as shared:
        handles = list(shared.handles)
        assert len(handles) == 2
        assert SchedulePlan.from_shared(handles[0]) == plans[0]
    for handle in handles:
        with pytest.raises(FileNotFoundError):
            attach_columns(handle)


def test_shared_plan_set_rejects_non_sequence():
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        SharedPlanSet(build_plan("BCAST", 4, 1, "2"))


def test_child_process_crash_does_not_leak():
    """A worker that attaches and dies hard must not pin the segment:
    the owner's unlink still removes it."""
    handle = build_plan("BCAST", 32, 1, "2").to_shared()

    def victim(h):
        SchedulePlan.from_shared(h)  # map it, never clean up
        os._exit(17)

    proc = multiprocessing.get_context("fork").Process(
        target=victim, args=(handle,)
    )
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 17
    release_shared(handle)
    with pytest.raises(FileNotFoundError):
        attach_columns(handle)


# --------------------------------------------------- run_batch crash path

_MAIN_PID = os.getpid()
_REAL_WORKER = batch_runner._batch_worker


def _crashing_worker(point):
    """Kills every pool worker instantly; behaves normally in-parent so
    the deterministic serial retry still yields correct results."""
    if os.getpid() != _MAIN_PID:
        os._exit(13)
    return _REAL_WORKER(point)


def test_run_batch_survives_worker_crash_without_leaking(monkeypatch):
    """Hard-crash every pool worker mid-batch: run_batch must fall back
    to the serial retry, whose results equal ``jobs=1``, and leave no
    segment behind."""
    monkeypatch.setattr(batch_runner, "_batch_worker", _crashing_worker)
    monkeypatch.setattr(batch_runner, "SHARD_MIN_SENDS", 0)
    points = [
        BatchPoint("BCAST", n, 1, "2", policy)
        for n in (8, 16, 24, 32)
        for policy in ("strict", "queued")
    ]
    before = _segments()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = run_batch(points, jobs=2)
    assert _segments() <= before, "run_batch leaked a segment after crash"
    monkeypatch.setattr(batch_runner, "_batch_worker", _REAL_WORKER)
    assert got == run_batch(points, jobs=1)
