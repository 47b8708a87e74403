"""ENG — substrate sanity: discrete-event engine throughput, plus the
Fraction-vs-float *input* ablation called out in DESIGN.md.

Neither variant runs a float clock: the engine counts integer ticks at
the LCM of the denominators it has seen, so a float delay is converted
to its exact dyadic ``Fraction`` and then to ticks.  Not a paper
artifact; establishes that the exact-arithmetic choice costs a
tolerable constant factor while buying equality-grade reproduction.
"""

from fractions import Fraction

from repro.algorithms import BcastProtocol
from repro.postal import run_protocol
from repro.sim.engine import Environment

from benchmarks._utils import emit


def _pingpong(rounds, dt):
    env = Environment()

    def proc():
        for _ in range(rounds):
            yield env.timeout(dt)

    env.process(proc())
    env.run()
    return env.now


def test_timeout_throughput_fraction(benchmark):
    result = benchmark(_pingpong, 2000, Fraction(5, 2))
    assert result == 5000


def test_timeout_throughput_float_ablation(benchmark):
    """Ablation: the same workload with float delays (the engine converts
    them to exact Fractions, then to ticks; this measures the conversion
    overhead for dyadic values)."""
    result = benchmark(_pingpong, 2000, 2.5)
    assert result == 5000


def test_resource_contention_throughput(benchmark):
    from repro.sim.resources import Resource

    def run():
        env = Environment()
        res = Resource(env, capacity=2)

        def user():
            for _ in range(50):
                req = res.request()
                yield req
                yield env.timeout(1)
                res.release(req)

        for _ in range(20):
            env.process(user())
        env.run()
        return env.now

    assert benchmark(run) == 500


def test_full_broadcast_simulation_throughput(benchmark):
    """End-to-end cost of simulating a 256-processor BCAST (255 sends,
    ports, tracing, validation)."""
    res = benchmark(run_protocol, BcastProtocol(256, Fraction(5, 2)))
    assert res.sends == 255


def test_event_fanout(benchmark):
    """Many processes woken by one event at the same instant."""

    def run():
        env = Environment()
        gate = env.event()
        done = []

        def waiter():
            yield gate
            done.append(env.now)

        for _ in range(500):
            env.process(waiter())

        def opener():
            yield env.timeout(3)
            gate.succeed()

        env.process(opener())
        env.run()
        return len(done)

    assert benchmark(run) == 500
