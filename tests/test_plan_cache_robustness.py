"""Disk-level robustness of the plan cache.

A corrupt, truncated, or foreign ``*.plan`` file must never crash a
sweep — the cache treats it as a miss, rebuilds, and overwrites — but it
must also never be *silent*: every discarded file logs a ``WARNING`` on
``repro.plan.cache``, because a quietly self-healing cache is exactly
where real corruption (bad disk, racing writers, tampering) hides.

The fresh-subprocess test pins the end-to-end behavior a CI shard would
see: a new interpreter with a poisoned disk cache exits 0 and surfaces
the discard on stderr (the ``logging`` last-resort handler — no logging
configuration required).

The race tests pin the other half of "racing writers": two processes
storing the same disk key at once, for the plan cache and for the
tuning-table cache that shares its machinery, must leave one readable
file and nothing else.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.plan import build_plan
from repro.plan.cache import PlanCache
from repro.tune import TuneQuery
from repro.tune.cache import TuneCache
from repro.tune.derive import derive_table

_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def disk_cache(tmp_path):
    return PlanCache(mode="disk", directory=tmp_path)


def _poison(cache: PlanCache, key: tuple, data: bytes):
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def test_truncated_file_is_discarded_and_rebuilt(disk_cache, caplog):
    plan = build_plan("BCAST", 12, 1, "2", cache=disk_cache)
    key = disk_cache.key("BCAST", 12, 1, "2")
    path = _poison(disk_cache, key, plan.to_bytes()[:17])
    disk_cache.clear()  # drop the memory level, force the disk read

    with caplog.at_level("WARNING", logger="repro.plan.cache"):
        rebuilt = build_plan("BCAST", 12, 1, "2", cache=disk_cache)
    assert rebuilt == plan
    assert "discarding corrupt plan cache file" in caplog.text
    assert str(path) in caplog.text
    # the rebuild overwrote the poisoned file with a good one
    disk_cache.clear()
    with caplog.at_level("WARNING", logger="repro.plan.cache"):
        caplog.clear()
        again = build_plan("BCAST", 12, 1, "2", cache=disk_cache)
    assert again == plan
    assert caplog.text == ""
    assert disk_cache.disk_hits == 1


def test_garbage_bytes_are_discarded(disk_cache, caplog):
    key = disk_cache.key("STAR", 8, 1, "2")
    _poison(disk_cache, key, b"\x00not a plan at all\xff" * 3)
    with caplog.at_level("WARNING", logger="repro.plan.cache"):
        plan = build_plan("STAR", 8, 1, "2", cache=disk_cache)
    assert plan.family == "STAR"
    assert "discarding corrupt plan cache file" in caplog.text


def test_wrong_content_under_right_hash_is_discarded(disk_cache, caplog):
    """A *well-formed* plan file whose header contradicts the key (hash
    collision, tampering, or a renamed file) is rejected too."""
    impostor = build_plan("STAR", 8, 1, "2", cache=PlanCache(mode="off"))
    key = disk_cache.key("BCAST", 12, 1, "2")
    _poison(disk_cache, key, impostor.to_bytes())
    with caplog.at_level("WARNING", logger="repro.plan.cache"):
        plan = build_plan("BCAST", 12, 1, "2", cache=disk_cache)
    assert (plan.family, plan.n) == ("BCAST", 12)
    assert "hash collision or tampered file" in caplog.text
    assert "STAR" in caplog.text and "BCAST" in caplog.text


def test_empty_file_is_discarded(disk_cache, caplog):
    key = disk_cache.key("BCAST", 6, 1, "3")
    _poison(disk_cache, key, b"")
    with caplog.at_level("WARNING", logger="repro.plan.cache"):
        plan = build_plan("BCAST", 6, 1, "3", cache=disk_cache)
    assert plan.n == 6
    assert "discarding corrupt plan cache file" in caplog.text


def test_fresh_subprocess_recovers_loudly(tmp_path):
    """A brand-new interpreter hitting a poisoned disk cache: exit 0,
    correct plan, and the discard visible on stderr without any logging
    setup (the last-resort handler)."""
    seed_cache = PlanCache(mode="disk", directory=tmp_path)
    plan = build_plan("BCAST", 12, 1, "2", cache=seed_cache)
    key = seed_cache.key("BCAST", 12, 1, "2")
    _poison(seed_cache, key, plan.to_bytes()[:9])

    script = (
        "from repro.plan import build_plan\n"
        "p = build_plan('BCAST', 12, 1, '2')\n"
        "print(p.completion_time())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            "REPRO_PLAN_CACHE": "disk",
            "REPRO_PLAN_CACHE_DIR": str(tmp_path),
            "PATH": "/usr/bin:/bin",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert "discarding corrupt plan cache file" in proc.stderr
    assert proc.stdout.strip() == str(plan.completion_time())


# ------------------------------------------------------------ racing writers

#: Stores one disk key 200 times, starting when stdin says "go".
_WRITER = """
import json, sys
from pathlib import Path

kind, directory, payload, key = sys.argv[1:]
data = Path(payload).read_bytes()
if kind == "plan":
    from repro.plan import PlanCache, SchedulePlan

    cache = PlanCache(mode="disk", directory=directory)
    obj = SchedulePlan.from_bytes(data)
    key = cache.key(obj.family, obj.n, obj.m, obj.lam)
else:
    from repro.tune import TuningTable
    from repro.tune.cache import TuneCache

    cache = TuneCache(mode="disk", directory=directory)
    obj = TuningTable.from_json(data.decode())
    key = tuple(json.loads(key))
print("ready", flush=True)
sys.stdin.readline()
for _ in range(200):
    cache.store(key, obj)
"""


def _race(tmp_path, kind, payload: bytes, key=()):
    """Run two writer processes released together; return the cache
    directory they both wrote."""
    source = tmp_path / "payload"
    source.write_bytes(payload)
    directory = tmp_path / "cache"
    argv = [sys.executable, "-X", "dev", "-c", _WRITER, kind, str(directory),
            str(source), json.dumps(key)]
    env = {"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"}
    procs = [
        subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(2)
    ]
    try:
        for proc in procs:  # both imported and ready before either writes
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert err == ""  # no warning, no discarded file
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return directory


def test_two_processes_storing_one_plan_key(tmp_path, caplog):
    plan = build_plan("BCAST", 2000, 1, "5/2", cache=PlanCache(mode="off"))
    directory = _race(tmp_path, "plan", plan.to_bytes())
    fresh = PlanCache(mode="disk", directory=directory)
    key = fresh.key("BCAST", 2000, 1, "5/2")
    assert [p.name for p in directory.iterdir()] == [fresh.path_for(key).name]
    with caplog.at_level("WARNING"):
        assert fresh.lookup(key) == plan
    assert caplog.text == ""
    assert fresh.disk_hits == 1


def test_two_processes_storing_one_tuning_table_key(tmp_path, caplog):
    queries = (TuneQuery("broadcast", 4, 1, "2"),)
    table = derive_table(queries, grid="race/1")
    key = TuneCache.key("race/1", queries)
    directory = _race(tmp_path, "tune", table.to_json().encode(), key)
    fresh = TuneCache(mode="disk", directory=directory)
    assert [p.name for p in directory.iterdir()] == [fresh.path_for(key).name]
    with caplog.at_level("WARNING"):
        assert fresh.lookup(key) == table
    assert caplog.text == ""
    assert fresh.disk_hits == 1
