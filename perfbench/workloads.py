"""The benchmark's workloads: seeded user calls and their correctness checks.

Every workload is a list of *user calls* generated from a seed.  A call
is one of the public entry points a user of :mod:`repro` makes, always
with its default arguments (``validate=True, collect=True`` for
``run_protocol``):

* ``run_protocol(family, n=, m=, lam=, policy=, backend=)``;
* one of the ``Fraction`` schedule builders (``bcast_schedule``,
  ``pipeline_schedule``, ``dtree_schedule``);
* one whole ``run_batch(points, jobs=)`` sweep.

Each call's answer is checked against values computed before the timed
loop: the oracle's closed form (exact ``Fraction`` equality for exact
families; the Lemma 8 lower bound and Lemma 18 upper bound plus an
independent witness for the DTREE bound families), a populated
``result.metrics``, the turbo lane for exact-engine runs, and a
``jobs=1`` reference for batch digests.  A call that raises or answers
wrong counts as failed and is never timed as a success.

Sizes are scaled so that one run of ``--seconds 20`` holds at least
:data:`MIN_CALLS` calls on every workload; ``perfbench/README.md``
records how they relate to the sizes the paper and ROADMAP quote.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

#: The percentile reported as ``call_tail_s``.  With at least
#: :data:`MIN_CALLS` calls in a run, at least ten calls lie beyond it.
TAIL_PERCENTILE = 75
MIN_CALLS = 40


@dataclass(frozen=True)
class Call:
    """One user call.  ``op`` names the public function; ``points`` is
    set for ``run_batch`` only, ``degree`` for ``dtree_schedule`` only."""

    op: str
    family: str = ""
    n: int = 0
    m: int = 1
    lam: str = "1"
    policy: str = "strict"
    backend: str = "exact"
    degree: int = 0
    points: tuple = ()


@dataclass(frozen=True)
class Expect:
    """What a verified completion time must satisfy: equal every value
    in ``equals`` and lie within ``[lo, hi]``."""

    equals: tuple
    lo: Fraction
    hi: Fraction

    def holds(self, completion: Fraction) -> bool:
        return self.lo <= completion <= self.hi and all(
            completion == v for v in self.equals
        )


@dataclass
class Outcome:
    """A checked call: its comparable answer, and the work it verified."""

    ok: bool
    answer: object
    sends: int
    points: int


# ------------------------------------------------------------ generation


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """``count`` log-uniform integers in ``[lo, hi]``, one per stratum of
    equal log width (so every seed draws nearly the same size mix)."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    return [
        min(hi, max(lo, round(math.exp(a + (k + rng.random()) * width))))
        for k in range(count)
    ]


def _jitter(rng: random.Random, anchor: int, share: float = 0.03) -> int:
    """*anchor* moved by a seeded share of at most *share* either way."""
    return round(anchor * (1 + rng.uniform(-share, share)))


def _shuffled_after_first(rng: random.Random, calls: list) -> list:
    """*calls* in a seeded order, except that the first stays first: it is
    the call set-up time is measured on, so its size must not vary."""
    rest = calls[1:]
    rng.shuffle(rest)
    return calls[:1] + rest


def _cycle(rng: random.Random, count: int, choices) -> list:
    """``count`` values cycling through ``choices`` in a seeded order."""
    picks = list(choices) * (count // len(choices) + 1)
    rng.shuffle(picks)
    return picks[:count]


def jobs_for_host() -> int:
    """Worker count for ``run_batch``: two, but never more than the CPUs
    this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


# -------------------------------------------------------------- checking


def _oracle_expect(family: str, n: int, m: int, lam: Fraction, *,
                   witness: bool) -> Expect:
    """The oracle's closed form at a point.  Exact families must equal
    it.  Bound families must lie between the Lemma 8 lower bound and the
    Lemma 18 upper bound and, with *witness*, equal the independent
    ``Fraction`` builder's completion."""
    from repro.conformance.oracles import get_oracle

    oracle = get_oracle(family)
    value = oracle.time(n, m, lam)
    if oracle.exact:
        return Expect((value,), value, value)
    lower = oracle.lower_bound(n, m, lam) or Fraction(0)
    equals = ()
    if witness and oracle.schedule is not None:
        equals = (oracle.schedule(n, m, lam).completion_time(),)
    return Expect(equals, lower, value)


def _resolved(call: Call) -> str:
    """The concrete family an ``auto`` spec resolves to (deterministic:
    the tuner's ranking uses exact times, never a wall clock)."""
    from repro.tune.model import resolve_family
    from repro.types import as_time

    return resolve_family(
        call.family, call.n, call.m, as_time(call.lam),
        policy=call.policy, require_plan=(call.backend == "replay"),
    )


def _point_family(point) -> str:
    """The oracle family a batch point replays."""
    from repro.plan.build import canonical_family
    from repro.tune.model import auto_workload, select_protocol
    from repro.types import as_time

    lam = as_time(point.lam)
    family = point.family
    if auto_workload(family) is not None:
        family = select_protocol(
            auto_workload(family), point.n, m=point.m, lam=lam,
            policy=point.policy, require_plan=True,
        )
    return canonical_family(family, point.n, point.m, lam)


def execute(call: Call, jobs: int = 1):
    """Make the user call (module attributes are looked up at call time,
    so a traced run times exactly the same calls)."""
    import repro
    import repro.batch
    import repro.core.bcast
    import repro.core.dtree
    import repro.core.multi

    if call.op == "run_protocol":
        return repro.run_protocol(
            call.family, n=call.n, m=call.m, lam=call.lam,
            policy=repro.ContentionPolicy(call.policy), backend=call.backend,
        )
    if call.op == "run_batch":
        return repro.batch.run_batch(list(call.points), jobs=jobs)
    if call.op == "bcast_schedule":
        return repro.core.bcast.bcast_schedule(call.n, call.lam)
    if call.op == "pipeline_schedule":
        return repro.core.multi.pipeline_schedule(call.n, call.m, call.lam)
    if call.op == "dtree_schedule":
        return repro.core.dtree.dtree_schedule(
            call.n, call.m, call.lam, call.degree
        )
    raise ValueError(f"unknown call op {call.op!r}")


def check(call: Call, result, expect, reference=None) -> Outcome:
    """Check one call's result.  *expect* is an :class:`Expect` (one per
    batch point for ``run_batch``); *reference* is the answer a previous
    verified run of the same call gave, which this one must repeat."""
    if call.op == "run_batch":
        answer = tuple((r.completion, r.sends, r.digest) for r in result)
        ok = len(result) == len(call.points) and all(
            e.holds(Fraction(r.completion)) for e, r in zip(expect, result)
        )
        sends = sum(r.sends for r in result)
        points = len(result)
    elif call.op == "run_protocol":
        answer = (result.completion_time, result.sends)
        metrics = result.metrics
        ok = (
            expect.holds(result.completion_time)
            and metrics is not None
            and metrics.total_sends == result.sends
        )
        sends, points = result.sends, 1
    else:
        answer = (result.completion_time(), len(result))
        ok = expect.holds(result.completion_time())
        sends, points = len(result), 1
    if reference is not None and answer != reference:
        ok = False
    return Outcome(ok, answer, sends, points)


# ------------------------------------------------------------- workloads


@dataclass
class Workload:
    """One workload: its seeded call list and how its answers are
    checked.  ``jobs`` is the worker count ``run_batch`` calls use."""

    name: str
    jobs: int = 1
    _cache: dict = field(default_factory=dict, repr=False)

    def generate(self, seed: int, tiny: bool) -> list:
        raise NotImplementedError

    def expect(self, call: Call):
        """The check for *call* (cached per call)."""
        if call not in self._cache:
            self._cache[call] = self._expect(call)
        return self._cache[call]

    def _expect(self, call: Call):
        from repro.types import as_time

        lam = as_time(call.lam)
        if call.op == "run_batch":
            return [_point_expect(p) for p in call.points]
        if call.op == "bcast_schedule":
            return _oracle_expect("BCAST", call.n, 1, lam, witness=False)
        if call.op == "pipeline_schedule":
            from repro.core.multi import pipeline_variant

            return _oracle_expect(pipeline_variant(call.m, lam), call.n,
                                  call.m, lam, witness=False)
        if call.op == "dtree_schedule":
            family = "DTREE-BINARY" if call.degree == 2 else "DTREE-LATENCY"
            return _oracle_expect(family, call.n, call.m, lam, witness=False)
        family = _resolved(call)
        return _oracle_expect(family, call.n, call.m, lam, witness=True)

    def prepare(self, calls: list) -> None:
        """Work done once after set-up, before anything is timed."""
        for call in calls:
            self.expect(call)


def _point_expect(point) -> Expect:
    """The oracle check for one batch point (collectives carry m = 1)."""
    from repro.conformance.oracles import get_oracle
    from repro.types import as_time

    family = _point_family(point)
    broadcast = get_oracle(family).semantics == "broadcast"
    return _oracle_expect(family, point.n, point.m if broadcast else 1,
                          as_time(point.lam), witness=False)


class BcastReplayAudited(Workload):
    """BCAST on the replay lane with the default audit and a warm plan
    cache: the kernel is a sliver of the call, the audit tail is the rest."""

    def generate(self, seed, tiny):
        rng = random.Random(seed)
        anchor, count = (288, 3) if tiny else (4096, 8)
        return [
            Call("run_protocol", "BCAST", _jitter(rng, anchor), 1, "2",
                 backend="replay")
            for _ in range(count)
        ]

    def prepare(self, calls):
        from repro.plan import build_plan

        super().prepare(calls)
        for call in calls:  # a warm plan cache, as the workload says
            build_plan(call.family, call.n, call.m, call.lam)


class SweepBatchMixed(Workload):
    """One ``run_batch`` sweep per call over a seeded mixed grid, with a
    fresh in-memory plan cache each time."""

    PLAN_FAMILIES = (
        "BCAST", "BINOMIAL", "REPEAT", "PACK", "PIPELINE",
        "DTREE-LINE", "DTREE-BINARY", "DTREE-LATENCY", "STAR",
    )
    COLLECTIVES = (
        "GATHER", "SCATTER", "REDUCE", "ALLTOALL", "BRUCK-ALLGATHER",
        "ALLGATHER", "ALLREDUCE", "BARRIER",
    )

    def generate(self, seed, tiny):
        from repro.batch import BatchPoint

        rng = random.Random(seed)
        if tiny:
            n_plan, n_coll, n_auto, n_repeat, n_hi = 6, 2, 1, 3, 96
        else:
            n_plan, n_coll, n_auto, n_repeat, n_hi = 80, 8, 2, 40, 1024
        # families, m and policies follow the size strata in a fixed
        # pattern, so every seed asks for nearly the same sends
        lams = _cycle(rng, n_plan + n_coll + n_auto, ("1", "2", "5/2", "7/3"))
        policies = ("strict", "queued")
        points = []
        for k, n in enumerate(_strata(rng, n_plan, 64, n_hi)):
            fam = self.PLAN_FAMILIES[k % len(self.PLAN_FAMILIES)]
            m = 1 if fam in ("BCAST", "BINOMIAL") else (1, 2, 4, 8)[k // 9 % 4]
            points.append(BatchPoint(fam, n, m, lams[k], policies[k % 2]))
        for k, n in enumerate(_strata(rng, n_coll, 16, 128)):
            points.append(BatchPoint(self.COLLECTIVES[k], n, 1,
                                     lams[n_plan + k], policies[k % 2]))
        for k, n in enumerate(_strata(rng, n_auto, 64, 128)):
            points.append(BatchPoint("auto", n, 1 + 3 * (k % 2),
                                     lams[n_plan + n_coll + k],
                                     policies[k % 2]))
        # about a third of the points repeat an earlier plan key, every
        # other one under the other contention policy
        for j, p in enumerate(points[:2 * n_repeat:2]):
            points.append(BatchPoint(p.family, p.n, p.m, p.lam,
                                     policies[(j + (p.policy == "queued")) % 2]))
        rng.shuffle(points)
        return [Call("run_batch", points=tuple(points))]


class MultiTurboMixed(Workload):
    """Seeded ``run_protocol(..., backend="turbo")`` calls: multi-message
    plan families, collectives (gossip under the queued policy) and
    ``family="auto"`` specs that the tuner resolves on every call."""

    PLAN_FAMILIES = (
        "REPEAT", "PIPELINE-2", "DTREE-BINARY", "DTREE-LATENCY",
        "DTREE-LINE", "PACK",
    )

    def generate(self, seed, tiny):
        rng = random.Random(seed)
        if tiny:
            sizes, coll_sizes, auto_sizes = ((64, 4),), (12,), ((64, 4),)
        else:
            sizes = ((256, 4), (128, 16), (512, 4))
            coll_sizes = (24, 32, 48)
            auto_sizes = tuple((n, m) for m in (1, 4) for n in (128, 256, 512))
        # lambda alternates through the list, so only n and the order
        # depend on the seed
        specs = [(fam, n, m, "strict") for n, m in sizes
                 for fam in self.PLAN_FAMILIES]
        specs += [(fam, n, 1, policy) for n in coll_sizes
                  for fam, policy in (("ALLGATHER", "strict"),
                                      ("GOSSIP-RING", "queued"))]
        specs += [("auto", n, m, "strict") for n, m in auto_sizes]
        calls = [
            Call("run_protocol", fam, _jitter(rng, n), m, ("5/2", "7/3")[k % 2],
                 policy=policy, backend="turbo")
            for k, (fam, n, m, policy) in enumerate(specs)
        ]
        return _shuffled_after_first(rng, calls)


class PaperExact(Workload):
    """The default exact engine on the paper's configurations, plus the
    ``Fraction`` builders for the same points; every completion must
    also equal the turbo lane's for the same point."""

    MULTI = ("REPEAT", "PACK", "PIPELINE-2", "DTREE-LINE", "DTREE-BINARY",
             "DTREE-LATENCY")

    def generate(self, seed, tiny):
        rng = random.Random(seed)
        if tiny:
            bcast, multi_n, multi_m = (48, 64), _jitter(rng, 28), 4
        else:
            bcast, multi_n, multi_m = (1448, 1210, 1730), _jitter(rng, 256), 8
        calls = []
        for anchor in bcast:
            n = _jitter(rng, anchor)
            calls.append(Call("run_protocol", "BCAST", n, 1, "5/2"))
            calls.append(Call("bcast_schedule", "BCAST", n, 1, "5/2"))
        for fam in self.MULTI:
            calls.append(Call("run_protocol", fam, multi_n, multi_m, "7/3"))
        calls.append(Call("pipeline_schedule", "PIPELINE-2", multi_n, multi_m,
                          "7/3"))
        calls.append(Call("dtree_schedule", "DTREE-BINARY", multi_n, multi_m,
                          "7/3", degree=2))
        calls.append(Call("dtree_schedule", "DTREE-LATENCY", multi_n,
                          multi_m, "7/3", degree=4))
        return _shuffled_after_first(rng, calls)

    def _expect(self, call):
        import repro

        expect = super()._expect(call)
        # the independent witness: the same point on the turbo lane
        turbo = repro.run_protocol(
            call.family, n=call.n, m=call.m, lam=call.lam, backend="turbo",
            validate=False, collect=False,
        )
        return Expect(expect.equals + (turbo.completion_time,), expect.lo,
                      expect.hi)


#: The workloads by name.  Why each exists, the layers it stresses and
#: bypasses, and the per-layer metrics it should move are recorded in
#: BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        BcastReplayAudited("bcast-replay-audited"),
        SweepBatchMixed("sweep-batch-mixed", jobs=jobs_for_host()),
        MultiTurboMixed("multi-turbo-mixed"),
        PaperExact("paper-exact"),
    )
}
