"""Differential equivalence: ``backend="turbo"`` vs ``backend="exact"``.

The turbo lane (:mod:`repro.turbo`) promises *bit-identical* results to
the general engine, not approximately-equal ones.  This suite runs every
conformance family over a grid of sizes, message counts, rational and
integer latencies, and both contention policies, on both backends, and
asserts equality of:

* the realized schedule (sorted ``SendEvent`` tuples), when one exists;
* the completion time ``T_A(n, m, lambda)`` and total send count;
* the full :class:`~repro.obs.metrics.RunMetrics`;
* the trace event multiset ``{(time, kind)}``.

Runs where the model itself raises (e.g. strict-policy collisions) must
raise the *same exception type* on both lanes.  Plus unit tests for the
tick domain itself (lossless round trip, off-grid rejection), the
fixed-grid decision (a pair latency or timeout off the run's grid raises
on turbo and runs on exact).
"""

from collections import Counter
from fractions import Fraction

import pytest

from repro.conformance.oracles import families, get_oracle
from repro.errors import SimultaneousIOError, TickDomainError
from repro.postal.machine import ContentionPolicy
from repro.postal.runner import run_protocol
from repro.turbo import TickDomain
from repro.types import as_time

#: Latencies: integer, half-integer, the coarse rationals (5/2 is the
#: paper's running example; 7/3 exercises a denominator that is not a
#: power of two), and two fine grids: 1 + 1/(2**24 + 1), and the binary
#: float 2.1, whose exact value has denominator 2**51 (the string "2.1"
#: would be 21/10).
LAMBDAS = ["1", "3/2", "2", "5/2", "7/3", "4", "16777218/16777217", 2.1]

#: Machine sizes around the jumps of ``F_lambda``.
SIZES = [2, 3, 5, 8, 13]

#: Message counts for the multi-message families (4 keeps PIPELINE-2,
#: which needs ``m >= lambda``, applicable at ``lambda = 4``).
MCOUNTS = [1, 2, 3, 4]


def _fingerprint(oracle, n, m, lam, policy, backend):
    """Everything observable about one run, in comparable form."""
    proto = oracle.protocol(n=n, m=m, lam=lam)  # fresh: protocols hold state
    res = run_protocol(proto, policy=policy, backend=backend)
    system = res.system
    records = (
        system.flush_trace() if backend == "turbo" else system.tracer.records()
    )
    schedule = None
    if res.schedule is not None:
        schedule = sorted(
            (e.send_time, e.sender, e.msg, e.receiver)
            for e in res.schedule.events
        )
    return {
        "completion": res.completion_time,
        "sends": res.sends,
        "metrics": res.metrics,
        "schedule": schedule,
        "trace": Counter((r.time, r.kind) for r in records),
    }


@pytest.mark.parametrize("lam_str", LAMBDAS)
@pytest.mark.parametrize("family", families())
def test_backends_agree(family, lam_str):
    """Turbo reproduces the exact backend bit for bit across the grid."""
    oracle = get_oracle(family)
    lam = as_time(lam_str)
    checked = 0
    for n in SIZES:
        for m in MCOUNTS:
            if not oracle.applicable(n, m, lam):
                continue
            policies = [ContentionPolicy.STRICT]
            if oracle.supports_queued:
                policies.append(ContentionPolicy.QUEUED)
            for policy in policies:
                ctx = f"{family} n={n} m={m} lam={lam_str} {policy.value}"
                try:
                    exact = _fingerprint(oracle, n, m, lam, policy, "exact")
                except Exception as exc:
                    with pytest.raises(type(exc)):
                        _fingerprint(oracle, n, m, lam, policy, "turbo")
                    checked += 1
                    continue
                turbo = _fingerprint(oracle, n, m, lam, policy, "turbo")
                for key in ("completion", "sends", "schedule", "trace", "metrics"):
                    assert exact[key] == turbo[key], f"{ctx}: {key} differs"
                checked += 1
    if checked == 0:
        pytest.skip(f"no applicable (n, m) for {family} at lambda={lam_str}")


# --------------------------------------------------- exception parity


class _ColliderProtocol:
    """Two processors send to the same receiver at the same instant —
    an illegal simultaneous receive under the strict policy."""

    name = "COLLIDER"
    semantics = "p2p"

    def __init__(self, lam="2"):
        self.n = 3
        self.m = 1
        self.root = 0
        self.lam = as_time(lam)

    def program(self, proc, system):
        if proc in (0, 1):
            def prog(src=proc):
                yield system.send(src, 2, 0)

            return prog()
        return None


@pytest.mark.parametrize("backend", ["exact", "turbo"])
def test_strict_collision_raises_on_both_backends(backend):
    with pytest.raises(SimultaneousIOError):
        run_protocol(_ColliderProtocol(), backend=backend)


@pytest.mark.parametrize("lam", ["1", "2", "5/2"])
def test_queued_collider_agrees(lam):
    """The same collision is legal under the queued policy; both lanes
    must serialize it identically."""
    results = {}
    for backend in ("exact", "turbo"):
        res = run_protocol(
            _ColliderProtocol(lam),
            policy=ContentionPolicy.QUEUED,
            backend=backend,
        )
        results[backend] = (res.completion_time, res.sends, res.metrics)
    assert results["exact"] == results["turbo"]


def test_fine_grid_latency_agrees_with_exact():
    """A latency with denominator 2**25 runs on turbo at that tick scale
    and serializes the queued collision exactly as the exact lane does."""
    lam = Fraction((1 << 25) + 1, 1 << 25)
    results = {}
    for backend in ("exact", "turbo"):
        res = run_protocol(
            _ColliderProtocol(lam), policy=ContentionPolicy.QUEUED,
            backend=backend,
        )
        results[backend] = (res.completion_time, res.sends, res.metrics)
    assert results["exact"] == results["turbo"]
    assert results["turbo"][:2] == (lam + 1, 2)
    assert res.system.domain.scale == 1 << 25


class _PairLatencyProtocol(_ColliderProtocol):
    """p0 sends to p1 over a link of latency 5/2 on a lambda = 1 machine
    (tick scale 1)."""

    def __init__(self):
        super().__init__(lam=1)

    @staticmethod
    def latency_fn(src, dst):
        return Fraction(5, 2)

    def program(self, proc, system):
        if proc == 0:
            def prog():
                yield system.send(0, 1, 0)

            return prog()
        return None


class _TimeoutProtocol(_ColliderProtocol):
    """p0 waits 1/3 of a unit, off the lambda = 2 grid, then sends."""

    def program(self, proc, system):
        if proc == 0:
            def prog():
                yield system.env.timeout(Fraction(1, 3))
                yield system.send(0, 1, 0)

            return prog()
        return None


def test_off_grid_latency_raises_tick_domain_error():
    """The turbo grid is fixed when the run starts: a pair latency off it
    raises instead of rescaling, and the exact lane runs it."""
    with pytest.raises(TickDomainError, match="5/2 is not representable"):
        run_protocol(_PairLatencyProtocol(), backend="turbo", validate=False)
    res = run_protocol(_PairLatencyProtocol(), backend="exact", validate=False)
    assert res.completion_time == Fraction(5, 2)


def test_off_grid_timeout_raises_tick_domain_error():
    with pytest.raises(TickDomainError, match="1/3 is not representable"):
        run_protocol(_TimeoutProtocol(), backend="turbo", validate=False)
    res = run_protocol(_TimeoutProtocol(), backend="exact", validate=False)
    assert res.completion_time == Fraction(1, 3) + 2


def _waiters_scenario(system):
    """Several recv waiters at one processor, cancelled recvs, two
    processes on one event, and a first_of race joining a lone waiter;
    returns the log."""
    from repro.resilience.recovery import first_of

    env = system.env
    log = []

    def getter(tag, proc):
        message = yield system.recv(proc)
        log.append((tag, message.msg, env.now))

    def sender():
        for msg, dst in ((0, 1), (1, 1), (2, 2), (3, 2)):
            yield system.send(0, dst, msg)

    shared, solo = env.event(), env.event()

    def sharer(tag, event):
        value = yield event
        log.append((tag, value, env.now))

    def canceller():
        lone = system.recv(2)
        system.cancel_recv(2, lone)  # the lone waiter
        first, middle, last = (system.recv(2) for _ in range(3))
        system.cancel_recv(2, middle)  # one of several
        race = first_of(env, [solo])
        for ev in (first, last):
            message = yield ev
            log.append(("p2", message.msg, env.now))
        shared.succeed("go")
        solo.succeed("solo")
        winner = yield race
        log.append(("race", winner.value, env.now))

    env.process(getter("a", 1))
    env.process(getter("b", 1))
    env.process(sharer("x", shared))
    env.process(sharer("y", shared))
    env.process(sharer("z", solo))
    env.process(canceller())
    env.process(sender())
    env.run()
    return log


def test_recv_waiters_and_shared_events_agree():
    from repro.postal.machine import PostalSystem
    from repro.sim.engine import Environment
    from repro.turbo.fastsim import build_turbo

    exact = _waiters_scenario(PostalSystem(Environment(), 3, 2))
    turbo_system = build_turbo(3, 2)
    assert _waiters_scenario(turbo_system) == exact
    assert exact[:2] == [("a", 0, 2), ("b", 1, 3)]
    assert exact[2:4] == [("p2", 2, 4), ("p2", 3, 5)]
    assert [tag for tag, _, _ in exact[4:]] == ["x", "y", "z", "race"]
    # a recv that is no longer pending cannot be withdrawn from turbo
    with pytest.raises(ValueError, match="not a pending recv"):
        turbo_system.cancel_recv(2, turbo_system.env.event())


# ------------------------------------------------------- tick domain


def test_tick_domain_round_trip_is_lossless():
    values = [as_time("5/2"), as_time("7/3"), as_time(4), as_time("1/6")]
    domain = TickDomain.for_values(values)
    for v in values:
        assert domain.to_time(domain.to_ticks(v)) == v


def test_tick_domain_builds_one_fraction_per_tick_and_stays_bounded():
    import pickle

    from repro.turbo import ticks

    domain = TickDomain(6)
    assert domain.to_time(15) is domain.to_time(15) == Fraction(5, 2)
    for t in range(3 * ticks._TIMES_MEMO):
        assert domain.to_time(t) == Fraction(t, 6)
        assert len(domain._times) <= ticks._TIMES_MEMO
    # a pickled domain carries its scale, not its memo
    copy = pickle.loads(pickle.dumps(domain))
    assert copy == domain and not copy._times
    assert len(pickle.dumps(domain)) < 200


def test_tick_domain_rejects_off_grid_values():
    domain = TickDomain.for_values([as_time(2)])  # scale 1
    with pytest.raises(TickDomainError):
        domain.to_ticks(as_time("1/2"))


def test_for_values_scale_is_the_lcm_of_denominators():
    assert TickDomain.for_values([Fraction(1, 3), Fraction(1, 4)]).scale == 12
    fine = Fraction(1, 1 << 25)
    domain = TickDomain.for_values([fine])
    assert domain.scale == 1 << 25
    assert domain.to_time(domain.to_ticks(fine)) == fine
