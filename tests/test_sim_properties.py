"""Property-based tests of the discrete-event engine.

Determinism, clock monotonicity, and conservation properties over randomly
generated workloads — the invariants the exactness claims of this library
rest on.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store

from tests.grids import rationals

delays = rationals(0, 10, max_denominator=8)


@given(ds=st.lists(delays, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_timeouts_fire_in_sorted_order(ds):
    env = Environment()
    fired = []

    def proc(d, tag):
        yield env.timeout(d)
        fired.append((env.now, tag))

    for i, d in enumerate(ds):
        env.process(proc(d, i))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert times == sorted(ds)
    # FIFO among equal delays: tags with the same delay keep spawn order
    for d in set(ds):
        tags = [tag for t, tag in fired if t == d]
        assert tags == sorted(tags)


@given(ds=st.lists(delays, min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_deterministic_replay(ds):
    def run():
        env = Environment()
        log = []

        def proc(d, tag):
            yield env.timeout(d)
            log.append((env.now, tag))
            yield env.timeout(d / 2 + Fraction(1, 3))
            log.append((env.now, tag, "second"))

        for i, d in enumerate(ds):
            env.process(proc(d, i))
        env.run()
        return log

    assert run() == run()


two_stage = st.tuples(
    rationals(0, 4, max_denominator=5), rationals(0, 4, max_denominator=9)
)


@given(pairs=st.lists(two_stage, min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_rescales_mid_run_match_a_run_at_the_final_scale(pairs):
    """Second-stage delays bring their denominators in mid-run, so the
    clock rescales while events are pending.  The same run with one no-op
    timeout queued first, whose delay carries the LCM of every
    denominator, starts at its final scale and never rescales: both must
    log the same ``(now, tag)`` sequence."""
    scale = math.lcm(*(d.denominator for pair in pairs for d in pair))

    def run(presize):
        env = Environment()
        if presize:
            env.timeout(Fraction(1, scale))
        log = []

        def proc(first, second, tag):
            yield env.timeout(first)
            log.append((env.now, tag))
            yield env.timeout(second)
            log.append((env.now, tag))

        for i, (first, second) in enumerate(pairs):
            env.process(proc(first, second, i))
        env.run()
        assert env._scale == scale
        return log

    log = run(presize=False)
    assert log == run(presize=True)
    assert [t for t, _ in log] == sorted(t for t, _ in log)


@given(ds=st.lists(delays, min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_clock_never_goes_backwards(ds):
    env = Environment()
    observed = []

    def proc(d):
        yield env.timeout(d)
        observed.append(env.now)
        yield env.timeout(d)
        observed.append(env.now)

    for d in ds:
        env.process(proc(d))
    env.run()
    assert observed == sorted(observed)
    assert env.now == max(observed)


@given(
    holds=st.lists(
        rationals(Fraction(1, 4), 3, max_denominator=4),
        min_size=1,
        max_size=15,
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_resource_conservation(holds, capacity):
    """A capacity-c resource: the total busy time is the sum of the hold
    times; at most c users run concurrently, so the makespan is at least
    sum/c and at most sum."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    spans = []

    def user(hold):
        req = res.request()
        yield req
        start = env.now
        yield env.timeout(hold)
        res.release(req)
        spans.append((start, env.now))

    for h in holds:
        env.process(user(h))
    env.run()
    total = sum(h for h in holds)
    makespan = max(e for _, e in spans)
    assert total / capacity <= makespan <= total
    # no instant has more than `capacity` overlapping holds
    boundaries = sorted({t for s, e in spans for t in (s, e)})
    for a, b in zip(boundaries, boundaries[1:]):
        mid = (a + b) / 2
        active = sum(1 for s, e in spans if s <= mid < e)
        assert active <= capacity


@given(items=st.lists(st.integers(), min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_store_fifo_conservation(items):
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in items:
            yield store.put(item)
            yield env.timeout(Fraction(1, 2))

    def consumer():
        for _ in items:
            got.append((yield store.get()))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == items
    assert len(store) == 0
