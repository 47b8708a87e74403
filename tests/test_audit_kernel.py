"""The replay lane's NumPy accept test and counts against the Python sweep.

Where NumPy is loaded, :meth:`ReplaySystem.audit
<repro.turbo.ReplaySystem.audit>` and :meth:`SchedulePlan.audit
<repro.plan.SchedulePlan.audit>` first ask
:func:`repro.batch.kernels.audit_accepts` whether the postal sweep
(:func:`repro.plan.columns.audit_columns`) would accept a run, and run
the sweep only when it declines.  This suite pins:

* every plan family under both policies passes both ways;
* seeded mutations of realized columns (ranges, starts and arrivals
  moved by a tick or a unit, swapped receivers and window-order
  entries, dropped and duplicated rows, another root): the accept test
  accepts exactly when the sweep does, and every rejection raises the
  same exception type and text with the kernels on and with
  ``REPRO_NUMPY=off``;
* forged certificate violations are rejected the same way on both
  paths;
* every forced decline — a column of Python ints past int64, ticks
  within lambda of ``2^63`` — takes the sweep and gives its answer;
* :meth:`ReplaySystem.run_metrics` equals its ``REPRO_NUMPY=off``
  counterpart field for field.

Without NumPy (or with ``REPRO_NUMPY=off``) the accept test always
declines; the tests that need it to accept are skipped, and the rest
check that the fallback is the sweep.
"""

import random
from array import array
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import pytest

import repro.plan.columns as columns
from repro.batch.kernels import audit_accepts, count_columns, kernels_enabled
from repro.errors import ModelError, ScheduleError, SimultaneousIOError
from repro.plan import compile_plan, plan_families, plan_m
from repro.plan.columns import accept_or_audit, audit_columns
from repro.postal.machine import ContentionPolicy
from repro.turbo import ReplaySystem, replay_plan

from tests.test_batch_differential import CONFIGS

STRICT = ContentionPolicy.STRICT
QUEUED = ContentionPolicy.QUEUED

needs_kernels = pytest.mark.skipif(
    not kernels_enabled(), reason="NumPy kernels unavailable or disabled"
)

#: Broadcast bases of the mutation fuzz: rational lambdas give a tick
#: finer than the unit, so "one tick" and "one unit" differ.
FUZZ_BASES = [
    ("BCAST", 13, 1, "2"),
    ("BCAST", 11, 1, "5/2"),
    ("PIPELINE-2", 9, 3, "5/2"),
    ("REPEAT", 7, 3, "2"),
    ("DTREE-BINARY", 12, 1, "3/2"),
    ("PACK", 8, 3, "7/3"),
    ("BINOMIAL", 10, 1, "2"),
    ("STAR", 9, 1, "2"),
]

#: Collective bases: the sweep without broadcast semantics.
FUZZ_COLLECTIVES = [("GATHER", 8, 1, "2"), ("ALLGATHER", 6, 1, "5/2")]

MUTATIONS_PER_BASE = 220


@dataclass(frozen=True)
class Run:
    """One audit's input: the six columns and the machine."""

    senders: array
    msgs: array
    receivers: array
    starts: array
    arrivals: array
    order: array
    n: int
    scale: int
    lam_ticks: int
    m: int
    root: int
    broadcast: bool
    queued: bool

    def machine(self) -> dict:
        return dict(
            n=self.n, scale=self.scale, lam_ticks=self.lam_ticks, m=self.m,
            root=self.root, broadcast=self.broadcast, queued=self.queued,
        )

    def cols(self) -> tuple:
        return (
            self.senders, self.msgs, self.receivers,
            self.starts, self.arrivals, self.order,
        )


def _run(family, n, m, lam, *, policy=STRICT, broadcast=True) -> Run:
    plan = compile_plan(family, n, plan_m(family, n, m), lam)
    system = replay_plan(plan, policy=policy)
    return Run(
        array("q", plan.senders), array("q", plan.msgs),
        array("q", plan.receivers), array("q", system._starts),
        array("q", system._arrivals), array("q", system._order),
        n=plan.n, scale=plan.domain.scale, lam_ticks=plan.lam_ticks,
        m=plan.m, root=plan.root, broadcast=broadcast,
        queued=policy is not STRICT,
    )


def _outcome(audit, run: Run):
    """``None`` when *audit* accepts *run*, else its exception's type
    and text."""
    try:
        audit(*run.cols(), **run.machine())
    except ModelError as exc:
        return type(exc), str(exc)
    return None


def _both_ways(run: Run, monkeypatch):
    """The audit's outcome with the kernels on, then with
    ``REPRO_NUMPY=off``."""
    with monkeypatch.context() as env:
        env.delenv("REPRO_NUMPY", raising=False)
        on = _outcome(accept_or_audit, run)
    with monkeypatch.context() as env:
        env.setenv("REPRO_NUMPY", "off")
        off = _outcome(accept_or_audit, run)
    return on, off


# ------------------------------------------------------ every family


@pytest.mark.parametrize("policy", [STRICT, QUEUED], ids=lambda p: p.value)
@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_every_plan_family_passes_both_ways(family, policy, monkeypatch):
    n, m, lam = CONFIGS[family]
    plan = compile_plan(family, n, plan_m(family, n, m), lam)
    broadcast = family in plan_families()
    run = _run(family, n, m, lam, policy=policy, broadcast=broadcast)
    assert _both_ways(run, monkeypatch) == (None, None)
    assert _outcome(audit_columns, run) is None
    if kernels_enabled():
        assert audit_accepts(*run.cols(), **run.machine()) is not None
        # the plan's own times: arrivals None, order None
        assert audit_accepts(
            plan.senders, plan.msgs, plan.receivers, plan.ticks, None, None,
            **{**run.machine(), "queued": False},
        ) is not None
    if broadcast:
        plan.audit()
    else:
        plan.audit_ports()


# ---------------------------------------------------------- mutations


def _swap(col: array, i: int, j: int) -> array:
    col = array("q", col)
    col[i], col[j] = col[j], col[i]
    return col


def _set(col: array, i: int, value: int) -> array:
    col = array("q", col)
    col[i] = value
    return col


def _resorted(run: Run) -> Run:
    """*run* with its window order re-derived (stable by start)."""
    starts = run.starts
    order = sorted(range(len(starts)), key=starts.__getitem__)
    return replace(run, order=array("q", order))


def _mutate(rng: random.Random, run: Run) -> Run:
    """One seeded mutation of *run*'s columns."""
    E = len(run.starts)
    i, j = rng.randrange(E), rng.randrange(E)
    kind = rng.randrange(10)
    if kind == 0:  # sender: out of range or another processor
        value = rng.choice([-1, run.n, rng.randrange(run.n)])
        return replace(run, senders=_set(run.senders, i, value))
    if kind == 1:  # receiver
        value = rng.choice([-1, run.n, run.root, rng.randrange(run.n)])
        return replace(run, receivers=_set(run.receivers, i, value))
    if kind == 2:  # message
        value = rng.choice([-1, run.m, rng.randrange(run.m)])
        return replace(run, msgs=_set(run.msgs, i, value))
    if kind == 3:  # a start one tick or one unit off, its arrival with it or not
        step = rng.choice([1, run.scale]) * rng.choice([-1, 1])
        moved = replace(run, starts=_set(run.starts, i, run.starts[i] + step))
        if rng.random() < 0.5:
            moved = replace(
                moved, arrivals=_set(run.arrivals, i, run.arrivals[i] + step)
            )
        return _resorted(moved) if rng.random() < 0.5 else moved
    if kind == 4:  # an arrival one tick or one unit off
        step = rng.choice([1, run.scale]) * rng.choice([-1, 1])
        return replace(run, arrivals=_set(run.arrivals, i, run.arrivals[i] + step))
    if kind == 5:  # two receivers swapped
        return replace(run, receivers=_swap(run.receivers, i, j))
    if kind == 6:  # two window-order entries swapped, often neighbours
        if rng.random() < 0.7:
            j = min(i + 1, E - 1)
        return replace(run, order=_swap(run.order, i, j))
    if kind == 7:  # a row dropped
        cols = [array("q", c[:i] + c[i + 1:]) for c in run.cols()[:5]]
        order = array("q", (o - (o > i) for o in run.order if o != i))
        return Run(*cols, order, **run.machine())
    if kind == 8:  # audited for another root: it receives, its source does not
        return replace(run, root=rng.randrange(run.n))
    # a row duplicated, visited right after the original
    cols = [array("q", c[:] + c[i:i + 1]) for c in run.cols()[:5]]
    at = list(run.order).index(i)
    order = array("q", run.order[: at + 1])
    order.append(E)
    order.extend(run.order[at + 1:])
    return Run(*cols, order, **run.machine())


def _bases():
    for base in FUZZ_BASES:
        yield _run(*base)
        yield _run(*base, policy=QUEUED)
    for base in FUZZ_COLLECTIVES:
        yield _run(*base, broadcast=False)


def test_mutations_are_accepted_exactly_when_the_sweep_accepts(monkeypatch):
    rng = random.Random(20_24)
    total = rejected = 0
    for base in _bases():
        for _ in range(MUTATIONS_PER_BASE):
            run = _mutate(rng, base)
            sweep = _outcome(audit_columns, run)
            if kernels_enabled():
                accepted = audit_accepts(*run.cols(), **run.machine())
                assert (accepted is not None) == (sweep is None), (run, sweep)
            assert _both_ways(run, monkeypatch) == (sweep, sweep), run
            total += 1
            rejected += sweep is not None
    assert total >= 2_000
    assert 0.2 * total < rejected < 0.95 * total  # both sides exercised


# ------------------------------------------------------- certificates


def test_forged_runs_that_break_the_lemmas_are_rejected_both_ways(monkeypatch):
    # Lemma 5: the root sends M1 to everyone at t=0 (three processors
    # know it at t=lambda, F_2(2) = 2); Lemma 8: REPEAT m=2 with M2 sent
    # along M1's tree at M1's times.  The port audit rejects both.
    star = _run("STAR", 4, 1, "2")
    at_zero = array("q", [0] * len(star.starts))
    forged5 = replace(
        star, starts=at_zero,
        arrivals=array("q", [star.lam_ticks] * len(star.starts)),
    )
    repeat = _run("REPEAT", 8, 2, "2")
    first = [i for i in range(len(repeat.starts)) if repeat.msgs[i] == 0]
    second = [i for i in range(len(repeat.starts)) if repeat.msgs[i] == 1]
    starts = array("q", repeat.starts)
    arrivals = array("q", repeat.arrivals)
    for a, b in zip(first, second):
        starts[b], arrivals[b] = starts[a], arrivals[a]
    forged8 = _resorted(replace(repeat, starts=starts, arrivals=arrivals))
    for forged in (forged5, forged8):
        on, off = _both_ways(forged, monkeypatch)
        assert on == off == _outcome(audit_columns, forged)
        assert on[0] is SimultaneousIOError


@pytest.mark.parametrize("base", FUZZ_BASES, ids=lambda b: f"{b[0]}-{b[3]}")
def test_a_raised_lemma8_bound_fails_both_ways_with_one_text(base, monkeypatch):
    bound = columns.multi_lower_bound
    monkeypatch.setattr(
        columns, "multi_lower_bound", lambda n, m, lam: bound(n, m, lam) + 99
    )
    run = _run(*base)
    on, off = _both_ways(run, monkeypatch)
    assert on == off == (ScheduleError, on[1])
    assert on[1].startswith("Lemma 8: makespan")


@pytest.mark.parametrize("base", FUZZ_BASES, ids=lambda b: f"{b[0]}-{b[3]}")
def test_a_lowered_lemma5_bound_fails_both_ways_with_one_text(base, monkeypatch):
    # F_{lambda+1} <= F_lambda: every run breaks it
    check = columns.check_informed_bound
    monkeypatch.setattr(
        columns, "check_informed_bound",
        lambda lam, scale, arrived: check(lam + 1, scale, arrived),
    )
    on, off = _both_ways(_run(*base), monkeypatch)
    assert on == off == (ScheduleError, on[1])
    assert on[1].startswith("Lemma 5:")


@pytest.mark.parametrize("policy", [STRICT, QUEUED], ids=lambda p: p.value)
@pytest.mark.parametrize("base", FUZZ_BASES, ids=lambda b: f"{b[0]}-{b[3]}")
def test_both_paths_certify_the_same_arrivals(base, policy, monkeypatch):
    seen = []
    check = columns.check_informed_bound

    def spy(lam, scale, arrived):
        seen.append((lam, scale, [sorted(ticks) for ticks in arrived]))
        return check(lam, scale, arrived)  # the last tick, for Lemma 8

    monkeypatch.setattr(columns, "check_informed_bound", spy)
    run = _run(*base, policy=policy)
    assert _both_ways(run, monkeypatch) == (None, None)
    on, off = seen
    assert on == off


# ------------------------------------------------------ forced declines


def _shifted(run: Run, offset: int, *, as_lists: bool) -> Run:
    make = list if as_lists else (lambda values: array("q", values))
    return replace(
        run,
        starts=make(t + offset for t in run.starts),
        arrivals=make(a + offset for a in run.arrivals),
    )


@pytest.mark.parametrize(
    "case",
    ["python-ints-past-int64", "ticks-within-lambda-of-2^63"],
)
def test_forced_declines_take_the_sweep_and_give_its_answer(case, monkeypatch):
    run = _run("BCAST", 13, 1, "5/2")
    top = max(run.arrivals)
    if case == "python-ints-past-int64":
        far = _shifted(run, 2**63, as_lists=True)
    else:  # the last start plus lambda lands on 2^63 - 1
        far = _shifted(run, 2**63 - 1 - top, as_lists=False)
        assert max(far.starts) + far.lam_ticks == 2**63 - 1
    assert audit_accepts(*far.cols(), **far.machine()) is None
    assert _both_ways(far, monkeypatch) == (None, None)
    assert _outcome(audit_columns, far) is None
    # and a rejection there is the sweep's, word for word
    broken = replace(far, receivers=_swap(far.receivers, 0, 1))
    assert audit_accepts(*broken.cols(), **broken.machine()) is None
    sweep = _outcome(audit_columns, broken)
    assert sweep is not None
    assert _both_ways(broken, monkeypatch) == (sweep, sweep)


@needs_kernels
def test_a_run_shifted_by_2_to_the_61_is_still_accepted():
    run = _run("BCAST", 13, 1, "5/2")
    near = _shifted(run, 2**61, as_lists=False)
    assert audit_accepts(*near.cols(), **near.machine()) is not None


def test_plan_audit_of_python_int_ticks_is_the_sweeps(monkeypatch):
    # a SchedulePlan over list columns: the accept test declines, the
    # sweep audits the planned times
    plan = compile_plan("BCAST", 8, 1, "2")
    ticks = [t + 2**63 for t in plan.ticks]
    run = Run(
        plan.senders, plan.msgs, plan.receivers, ticks, None, None,
        n=plan.n, scale=plan.domain.scale, lam_ticks=plan.lam_ticks,
        m=plan.m, root=plan.root, broadcast=True, queued=False,
    )
    assert audit_accepts(*run.cols(), **run.machine()) is None
    assert _both_ways(run, monkeypatch) == (None, None)


# ------------------------------------------------------------ metrics


@pytest.mark.parametrize("policy", [STRICT, QUEUED], ids=lambda p: p.value)
@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_run_metrics_match_with_kernels_off(family, policy, monkeypatch):
    n, m, lam = CONFIGS[family]
    plan = compile_plan(family, n, plan_m(family, n, m), lam)
    monkeypatch.delenv("REPRO_NUMPY", raising=False)
    on = replay_plan(plan, policy=policy).run_metrics()
    monkeypatch.setenv("REPRO_NUMPY", "off")
    off = replay_plan(plan, policy=policy).run_metrics()
    for field in fields(on):
        a, b = getattr(on, field.name), getattr(off, field.name)
        assert a == b and type(a) is type(b), field.name
    assert repr(on) == repr(off)  # no NumPy scalar inside a tuple
    assert on.to_dict() == off.to_dict()  # the busy and utilization tuples


def test_run_metrics_over_list_columns_count_in_python():
    # a column that is not array('q'): count_columns declines, tally counts
    system = replay_plan(compile_plan("PIPELINE-2", 9, 3, "5/2"))
    listed = ReplaySystem(
        system.plan, STRICT, list(system._starts), list(system._arrivals),
        system._order,
    )
    plan = system.plan
    counted = count_columns(
        plan.n, plan.senders, plan.receivers, listed._starts, listed._arrivals
    )
    assert counted is None
    assert listed.run_metrics() == system.run_metrics()


def test_run_metrics_of_a_one_processor_run():
    plan = compile_plan("BCAST", 1, 1, "2")
    metrics = replay_plan(plan).run_metrics()
    assert metrics.sends == (0,) and metrics.send_busy == (Fraction(0),)
    assert metrics.latency_histogram == () and metrics.mean_latency is None
