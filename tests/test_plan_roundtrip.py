"""Round-trip and cache tests for the columnar plan layer (:mod:`repro.plan`).

The plan layer's contract is *byte identity*: for every family it can
compile, ``compile_plan(...).to_schedule()`` must produce events equal —
as exact ``(Fraction, int, int, int)`` tuples — to the schedule the
family's event-driven protocol realizes on the exact engine, a witness
that shares no scheduling code with the compilers.  This suite pins
that across all plan-compatible conformance families and rational
latencies (5/2, 7/3 included), plus:

* the lossless ``SchedulePlan.from_schedule`` inverse,
* the key decode: the NumPy kernel and the pure-Python passes give the
  same columns for every family, and keys past int64 decode exactly,
* turbo replay equivalence (the plan drives the event loop directly),
* the in-place columnar ``audit`` (both that valid plans pass and that
  corrupted columns raise the *right* exception),
* the ``to_bytes``/``from_bytes`` disk format and its corruption modes,
* the :class:`~repro.plan.PlanCache` levels — mem hit identity, LRU
  eviction, disk persistence across a *fresh process*, off mode,
* the recursion-limit guard: builders and compilers stay iterative,
* the copied subtrees: at sizes where most subranges repeat, the split
  compilers' shifted copies and DTREE's per-node lattices still equal
  the protocols, and each subrange size is split once.
"""

import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.batch.kernels import decode_keys, kernels_enabled
from repro.conformance.oracles import get_oracle
from repro.errors import (
    InvalidParameterError,
    PlanCacheError,
    ScheduleError,
    SimultaneousIOError,
)
from repro.plan import (
    PlanCache,
    SchedulePlan,
    build_plan,
    canonical_family,
    compile_plan,
    plan_families,
)
from repro.plan.build import collective_plan_families
from repro.postal import run_protocol
from repro.turbo import TickDomain
from repro.types import as_time

#: The latencies the issue calls out: integer, the paper's running
#: example 5/2, and 7/3 (denominator not a power of two).
LAMBDAS = ["2", "5/2", "7/3"]

SIZES = [2, 3, 5, 8, 13, 21]
MCOUNTS = [1, 2, 3]


def _grid(family, lam):
    """Applicable ``(n, m)`` pairs for *family* at latency *lam*."""
    oracle = get_oracle(family)
    return [
        (n, m)
        for n in SIZES
        for m in MCOUNTS
        if oracle.applicable(n, m, lam)
    ]


# ------------------------------------------------------------ byte identity


@pytest.mark.parametrize("lam_str", LAMBDAS)
@pytest.mark.parametrize("family", plan_families())
def test_plan_events_byte_identical_to_builder(family, lam_str):
    """``compile_plan(...).to_schedule()`` equals the schedule the
    family's event-driven protocol realizes on the exact engine, event
    for event, with exact ``Fraction`` times.  (The static builders are
    views of the same compilers, so they are no independent witness.)"""
    oracle = get_oracle(family)
    lam = as_time(lam_str)
    grid = _grid(family, lam)
    if not grid:
        pytest.skip(f"no applicable (n, m) for {family} at lambda={lam_str}")
    for n, m in grid:
        ref = run_protocol(oracle.protocol(n, m, lam), collect=False).schedule
        plan = compile_plan(family, n, m, lam, validate=True)
        got = plan.to_schedule(validate=True)
        assert got.events == ref.events, f"{family} n={n} m={m} lam={lam_str}"
        assert plan.completion_time() == ref.completion_time()
        assert plan.event_count == len(ref.events)


#: Sizes where most subranges repeat an earlier size, so the split
#: compilers emit most keys as shifted copies and DTREE most nodes as
#: shifted lattices.
COPY_GRID = [(700, 1), (1001, 4)]


@pytest.mark.parametrize("lam_str", ["5/2", "37/3"])
@pytest.mark.parametrize("family", plan_families())
def test_copied_subtrees_match_the_protocol(family, lam_str):
    """Where copies dominate, the plan still equals the schedule the
    family's event-driven protocol realizes (on the turbo lane, which
    the turbo suite pins equal to the exact engine)."""
    oracle = get_oracle(family)
    lam = as_time(lam_str)
    grid = [(n, m) for n, m in COPY_GRID if oracle.applicable(n, m, lam)]
    if not grid:
        pytest.skip(f"no applicable (n, m) for {family} at lambda={lam_str}")
    for n, m in grid:
        ref = run_protocol(
            oracle.protocol(n, m, lam), backend="turbo", collect=False
        ).schedule
        got = compile_plan(family, n, m, lam).to_schedule()
        assert got.events == ref.events, f"{family} n={n} m={m}"


@pytest.mark.parametrize(
    "d, n, m",
    [
        (3, 700, 2),  # 699 = 3*233: every internal node full
        (3, 701, 3),  # the last internal node has one child of three
        (5, 703, 2),  # ... two children of five
        (5, 1000, 4),  # ... four children of five
        (5, 4, 3),  # n - 1 < d: the star of the three others
    ],
)
@pytest.mark.parametrize("lam_str", ["5/2", "37/3"])
def test_dtree_lattice_matches_the_protocol(d, n, m, lam_str):
    """DTREE's closed-form drain equals the event-driven protocol, also
    where the last internal node is short of children or ``d`` exceeds
    ``n - 1``."""
    from repro.algorithms import DTreeProtocol

    lam = as_time(lam_str)
    ref = run_protocol(
        DTreeProtocol(n, m, lam, d), backend="turbo", collect=False
    ).schedule
    assert compile_plan(f"DTREE-{d}", n, m, lam).to_schedule().events == (
        ref.events
    )


def test_each_subrange_size_is_split_once(monkeypatch):
    """BCAST expands one subrange per distinct size and copies the rest:
    n = 10^5 needs a few dozen split points, not one per send."""
    from repro.core.fibfunc import IntPrefix

    calls = []
    split = IntPrefix.split

    def counting_split(self, size):
        calls.append(size)
        return split(self, size)

    monkeypatch.setattr(IntPrefix, "split", counting_split)
    plan = compile_plan("BCAST", 10**5, 1, "5/2")
    assert plan.event_count == 10**5 - 1
    assert len(calls) == len(set(calls))
    assert len(calls) < 1000


@pytest.mark.parametrize("lam_str", LAMBDAS)
@pytest.mark.parametrize("family", plan_families())
def test_from_schedule_round_trip_is_identity(family, lam_str):
    """plan -> Schedule -> plan reproduces the exact columns and domain."""
    lam = as_time(lam_str)
    grid = _grid(family, lam)
    if not grid:
        pytest.skip(f"no applicable (n, m) for {family} at lambda={lam_str}")
    n, m = grid[-1]
    plan = compile_plan(family, n, m, lam)
    back = SchedulePlan.from_schedule(plan.to_schedule(), family=plan.family)
    assert back == plan


# ------------------------------------------------------------ key decode


def _pack(rows, n, m):
    """The compilers' key of each ``(tick, sender, msg, receiver)`` row."""
    return [((t * n + s) * m + k) * n + r for t, s, k, r in rows]


@pytest.fixture(params=["numpy", "python"])
def decode(request, monkeypatch):
    """Run the test body on one decode: the NumPy kernel (skipped when
    NumPy is absent) or the pure-Python passes (``REPRO_NUMPY=off``)."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_NUMPY", "off")
    elif not kernels_enabled():
        pytest.skip("NumPy is not installed (or REPRO_NUMPY=off)")
    return request.param


@pytest.mark.parametrize("lam_str", ["1", "5/2", "7/3"])
@pytest.mark.parametrize(
    "family", plan_families() + collective_plan_families()
)
def test_numpy_and_python_decodes_give_the_same_plan(
    family, lam_str, monkeypatch
):
    """Every broadcast and collective family compiles to the same
    columns, row for row, whichever decode runs."""
    checked = 0
    for n, m in [(2, 1), (5, 2), (13, 3), (64, 8)]:
        try:
            fast = compile_plan(family, n, m, lam_str)
        except InvalidParameterError:
            continue
        monkeypatch.setenv("REPRO_NUMPY", "off")
        slow = compile_plan(family, n, m, lam_str)
        monkeypatch.delenv("REPRO_NUMPY")
        assert fast == slow, f"{family} n={n} m={m} lam={lam_str}"
        assert fast.to_bytes() == slow.to_bytes()
        checked += 1
    assert checked


#: Rows of a 2-processor, 3-message schedule, sorted.  The last tick is
#: 2^62, so its keys pass 2^63 although every column value fits int64.
_FAR_ROWS = [
    (0, 0, 0, 1),
    (0, 0, 2, 1),
    (3, 1, 1, 0),
    (2**62, 0, 1, 1),
    (2**62, 1, 0, 0),
]


def test_keys_past_int64_decode_exactly_on_the_python_path():
    n, m = 2, 3
    keys = _pack(_FAR_ROWS, n, m)
    assert max(keys) >= 2**63 > max(row[0] for row in _FAR_ROWS)
    # the kernel declines rather than wrap; with NumPy absent it always
    # declines, and the Python decode is the only one
    assert decode_keys(keys, n, m, presorted=True) is None
    plan = SchedulePlan.from_sorted_keys(
        "CUSTOM", n, m, 2, TickDomain(1), keys[::-1]
    )
    assert list(plan.rows()) == _FAR_ROWS
    assert plan.ticks.typecode == "q"


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("presorted", [False, True])
def test_decode_edge_cases(decode, presorted, m):
    """Both ``presorted`` values, ``m = 1`` against ``m > 1``, on each
    decode: ``presorted=True`` keeps the given order, ``False`` sorts."""
    n = 5
    rows = [(0, 0, 0, 1), (2, 1, m - 1, 3), (2, 1, 0, 4), (9, 4, 0, 0)]
    order = [2, 0, 3, 1]
    keys = [_pack(rows, n, m)[i] for i in order]
    plan = SchedulePlan.from_sorted_keys(
        "CUSTOM", n, m, 2, TickDomain(1), keys, presorted=presorted
    )
    expect = [rows[i] for i in order] if presorted else sorted(rows)
    assert list(plan.rows()) == expect
    columns = (plan.ticks, plan.senders, plan.msgs, plan.receivers)
    assert [col.typecode for col in columns] == ["q"] * 4
    if m == 1:
        assert set(plan.msgs) == {0}


@pytest.mark.parametrize("presorted", [False, True])
def test_decode_of_no_keys_is_an_empty_plan(decode, presorted):
    plan = SchedulePlan.from_sorted_keys(
        "CUSTOM", 3, 2, 2, TickDomain(1), [], presorted=presorted
    )
    assert len(plan) == 0 and plan.nbytes == 0
    assert plan.ticks == array("q")
    assert plan.completion_ticks() == 0


@pytest.mark.parametrize("family", ["BCAST", "REPEAT", "PACK", "PIPELINE-1"])
def test_replay_realizes_the_planned_schedule(family):
    """Feeding the columns straight into the turbo loop realizes the same
    schedule the plan describes."""
    lam = as_time("5/2")
    n, m = (13, 1) if family == "BCAST" else (13, 2)
    plan = compile_plan(family, n, m, lam)
    system = plan.replay()
    realized = system.realized_schedule(m=plan.m)
    assert realized.events == plan.to_schedule().events


def test_pipeline_alias_resolves_by_variant():
    assert canonical_family("PIPELINE", 8, 2, as_time(3)) == "PIPELINE-1"
    assert canonical_family("PIPELINE", 8, 4, as_time(3)) == "PIPELINE-2"
    plan = compile_plan("PIPELINE", 8, 2, "3")
    assert plan.family == "PIPELINE-1"


def test_explicit_dtree_degree_matches_named_shape():
    # DTREE-LATENCY at lambda=2 is the degree-3 tree
    lam = as_time(2)
    named = compile_plan("DTREE-LATENCY", 10, 2, lam)
    explicit = compile_plan("DTREE-3", 10, 2, lam)
    assert named.to_schedule().events == explicit.to_schedule().events


@pytest.mark.parametrize(
    "spelling",
    [
        "DTREE-0",
        "DTREE--5",
        "DTREE-+3",
        "DTREE- 2",
        "DTREE-1_0",
        pytest.param("DTREE-" + "9" * 5000, id="DTREE-<5000 digits>"),
    ],
)
def test_dtree_degree_spellings_are_strict(capsys, spelling):
    """``DTREE-<d>`` takes a positive decimal degree and nothing else, at
    every front door."""
    from repro.cli import main

    message = f"unknown family {spelling!r}"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        compile_plan(spelling, 6, 2, 2)
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        build_plan(spelling, 6, 2, 2, cache=PlanCache(mode="mem"))
    code = main(["gantt", "--n", "6", "--lam", "2", "--algorithm", spelling])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_dtree_degree_has_one_name():
    """``DTREE-03`` is ``DTREE-3``: one plan family, one cache entry."""
    cache = PlanCache(mode="mem")
    plan = build_plan("DTREE-3", 10, 2, 2, cache=cache)
    assert build_plan("dtree-03", 10, 2, 2, cache=cache) is plan
    assert compile_plan("DTREE-03", 10, 2, 2).family == "DTREE-3"
    assert canonical_family("DTREE-03", 10, 2, 2) == "DTREE-3"
    # the integer API keeps resolve_degree's clamp: degree 0 is the line
    from repro.algorithms import DTreeProtocol
    from repro.core.dtree import dtree_schedule

    line = compile_plan("DTREE-LINE", 10, 2, 2).to_schedule().events
    assert dtree_schedule(10, 2, 2, 0).events == line
    assert DTreeProtocol(10, 2, 2, 0).d == 1


def test_unknown_family_raises():
    with pytest.raises(InvalidParameterError):
        compile_plan("TELEGRAPH", 4, 1, 2)
    with pytest.raises(InvalidParameterError):
        compile_plan("DTREE-XL", 4, 1, 2)
    with pytest.raises(InvalidParameterError):
        compile_plan("BCAST", 4, 2, 2)  # BCAST is single-message


# ------------------------------------------------------------------ audit


def _tampered(plan, **cols):
    """A copy of *plan* with some columns replaced."""
    return SchedulePlan(
        plan.family,
        plan.n,
        plan.m,
        plan.lam,
        plan.domain,
        cols.get("ticks", plan.ticks[:]),
        cols.get("senders", plan.senders[:]),
        cols.get("msgs", plan.msgs[:]),
        cols.get("receivers", plan.receivers[:]),
    )


def test_audit_rejects_duplicate_delivery():
    plan = compile_plan("BCAST", 8, 1, "5/2")
    receivers = plan.receivers[:]
    receivers[1] = receivers[0]  # second event re-delivers to the same proc
    with pytest.raises(ScheduleError, match="more than once"):
        _tampered(plan, receivers=receivers).audit()


def test_audit_rejects_self_send():
    plan = compile_plan("BCAST", 8, 1, 2)
    receivers = plan.receivers[:]
    receivers[0] = plan.senders[0]
    with pytest.raises(ScheduleError, match="self-send"):
        _tampered(plan, receivers=receivers).audit()


def test_audit_rejects_uninformed_sender():
    plan = compile_plan("BCAST", 8, 1, 2)
    senders = plan.senders[:]
    senders[0] = plan.n - 1  # the last-informed processor sends at t = 0
    with pytest.raises(ScheduleError, match="holds it from|never obtains"):
        _tampered(plan, senders=senders).audit()


def test_audit_rejects_unsorted_columns():
    plan = compile_plan("BCAST", 8, 1, 2)
    ticks = plan.ticks[:]
    ticks[0], ticks[-1] = ticks[-1], ticks[0]
    with pytest.raises(ScheduleError, match="not tick-sorted"):
        _tampered(plan, ticks=ticks).audit()


def test_audit_rejects_incomplete_broadcast():
    plan = compile_plan("BCAST", 8, 1, 2)
    short = _tampered(
        plan,
        ticks=plan.ticks[:-1],
        senders=plan.senders[:-1],
        msgs=plan.msgs[:-1],
        receivers=plan.receivers[:-1],
    )
    with pytest.raises(ScheduleError, match="incomplete"):
        short.audit()


def test_audit_rejects_simultaneous_sends():
    # REPEAT with a fabricated zero stride: both iterations' first sends
    # leave the root at the same instant.
    plan = compile_plan("BCAST", 4, 1, 1)
    ticks = plan.ticks[:]
    # root sends at ticks 0, 1, ...; drag its second send onto the first
    ticks[1] = ticks[0]
    with pytest.raises(SimultaneousIOError, match="two sends"):
        _tampered(plan, ticks=ticks).audit()


def test_audit_rejects_simultaneous_receives():
    # n=4, m=2, lambda=2 (scale 1): p3 is sent different messages by two
    # different senders in the same time unit.
    n, m = 4, 2
    lam = as_time(2)
    domain = TickDomain.for_values([lam])

    def key(t, s, k, r):
        return ((t * n + s) * m + k) * n + r

    keys = [key(0, 0, 0, 1), key(2, 0, 1, 3), key(2, 1, 0, 3)]
    plan = SchedulePlan.from_sorted_keys("CUSTOM", n, m, lam, domain, keys)
    with pytest.raises(SimultaneousIOError, match="two receives"):
        plan.audit()


# ------------------------------------------------------------ serialization


def test_bytes_round_trip():
    plan = compile_plan("REPEAT", 13, 3, "7/3")
    clone = SchedulePlan.from_bytes(plan.to_bytes())
    assert clone == plan
    assert clone.domain.scale == plan.domain.scale
    assert clone.to_schedule().events == plan.to_schedule().events


@pytest.mark.parametrize(
    "mangle",
    [
        lambda raw: b"not a plan at all",
        lambda raw: raw[:20],  # truncated header
        lambda raw: raw[:-8],  # truncated payload
        lambda raw: raw + b"trailing junk",  # payload length mismatch
        lambda raw: raw.replace(b'"n": 13', b'"n": oops', 1),  # broken JSON
    ],
)
def test_from_bytes_rejects_corruption(mangle):
    raw = compile_plan("BCAST", 13, 1, "5/2").to_bytes()
    with pytest.raises(PlanCacheError):
        SchedulePlan.from_bytes(mangle(raw))


# ------------------------------------------------------------------- cache


def test_mem_cache_hit_returns_same_object():
    cache = PlanCache(mode="mem")
    a = build_plan("BCAST", 21, 1, "5/2", cache=cache)
    b = build_plan("BCAST", 21, 1, "5/2", cache=cache)
    assert a is b
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_off_mode_always_rebuilds():
    cache = PlanCache(mode="off")
    a = build_plan("BCAST", 21, 1, 2, cache=cache)
    b = build_plan("BCAST", 21, 1, 2, cache=cache)
    assert a is not b
    assert a == b
    assert cache.stats()["hits"] == 0


def test_pipeline_alias_shares_cache_entry():
    cache = PlanCache(mode="mem")
    a = build_plan("PIPELINE", 8, 2, 3, cache=cache)
    b = build_plan("PIPELINE-1", 8, 2, 3, cache=cache)
    assert a is b


def test_lru_evicts_oldest_entry():
    cache = PlanCache(mode="mem", capacity=2)
    a = build_plan("BCAST", 5, 1, 2, cache=cache)
    build_plan("BCAST", 8, 1, 2, cache=cache)
    build_plan("BCAST", 13, 1, 2, cache=cache)  # evicts n=5
    again = build_plan("BCAST", 5, 1, 2, cache=cache)
    assert again is not a
    assert again == a


def test_disk_cache_survives_a_fresh_cache(tmp_path):
    first = PlanCache(mode="disk", directory=tmp_path)
    plan = build_plan("PACK", 13, 2, "5/2", cache=first)
    assert first.path_for(first.key("PACK", 13, 2, "5/2")).exists()

    fresh = PlanCache(mode="disk", directory=tmp_path)  # empty memory level
    loaded = build_plan("PACK", 13, 2, "5/2", cache=fresh)
    assert loaded == plan
    assert fresh.stats()["disk_hits"] == 1


def test_corrupt_disk_file_is_a_miss_not_an_error(tmp_path):
    cache = PlanCache(mode="disk", directory=tmp_path)
    build_plan("BCAST", 8, 1, 2, cache=cache)
    path = cache.path_for(cache.key("BCAST", 8, 1, 2))
    path.write_bytes(b"garbage")
    fresh = PlanCache(mode="disk", directory=tmp_path)
    plan = build_plan("BCAST", 8, 1, 2, cache=fresh)  # silently rebuilt
    plan.audit()
    assert fresh.stats()["disk_hits"] == 0


def test_disk_cache_survives_a_fresh_process(tmp_path):
    """The real satellite claim: a *new process* (CI shard, nightly run)
    skips construction by loading the persisted plan."""
    warm = PlanCache(mode="disk", directory=tmp_path)
    plan = build_plan("BCAST", 21, 1, "5/2", cache=warm)

    code = (
        "from repro.plan import PlanCache, build_plan\n"
        "cache = PlanCache()\n"
        "plan = build_plan('BCAST', 21, 1, '5/2', cache=cache)\n"
        "plan.audit()\n"
        "print(cache.stats()['disk_hits'], plan.event_count)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={
            "REPRO_PLAN_CACHE": "disk",
            "REPRO_PLAN_CACHE_DIR": str(tmp_path),
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            "PATH": "/usr/bin:/bin",
        },
        check=True,
    )
    disk_hits, count = proc.stdout.split()
    assert disk_hits == "1"
    assert int(count) == plan.event_count


def test_bad_cache_mode_rejected():
    with pytest.raises(InvalidParameterError):
        PlanCache(mode="ram")


# ------------------------------------------------- recursion-limit guard


@pytest.mark.parametrize(
    "build",
    [
        lambda: compile_plan("BCAST", 3000, 1, "5/2"),
        lambda: compile_plan("PIPELINE", 3000, 3, "5/2"),
        lambda: compile_plan("REPEAT", 3000, 2, 2),
        lambda: compile_plan("PACK", 3000, 2, "5/2"),
        lambda: compile_plan("BINOMIAL", 3000, 1, 2),
        lambda: compile_plan("DTREE-LINE", 3000, 1, "5/2"),
    ],
    ids=["bcast", "pipeline", "repeat", "pack", "binomial", "dtree-line"],
)
def test_compilers_are_iterative(build):
    """No compiler touches the recursion limit, at any n (satellite of
    the turbo PR, re-pinned here for the plan layer)."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        plan = build()
    finally:
        sys.setrecursionlimit(limit)
    assert plan.event_count >= 2999


def test_core_builders_are_iterative_too():
    from repro.core.bcast import bcast_schedule
    from repro.core.multi import pipeline_schedule

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        s1 = bcast_schedule(3000, "5/2", validate=False)
        s2 = pipeline_schedule(3000, 3, "5/2", validate=False)
    finally:
        sys.setrecursionlimit(limit)
    assert len(s1.events) == 2999
    assert len(s2.events) == 2999 * 3


def test_large_plan_matches_builder_exactly():
    """One big differential point: n = 20000 at the paper's lambda,
    against the BCAST protocol run on the turbo lane."""
    from repro.algorithms import BcastProtocol

    plan = compile_plan("BCAST", 20_000, 1, "5/2")
    ref = run_protocol(
        BcastProtocol(20_000, "5/2"), backend="turbo", collect=False
    ).schedule
    assert plan.to_schedule().events == ref.events
