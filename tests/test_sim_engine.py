"""Tests for the discrete-event engine (repro.sim.engine)."""

from fractions import Fraction

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.engine import Environment


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0

    def test_custom_start(self):
        assert Environment(initial_time=Fraction(5, 2)).now == Fraction(5, 2)

    def test_exact_fraction_time(self):
        env = Environment()

        def proc():
            yield env.timeout(Fraction(5, 2))
            yield env.timeout(Fraction(1, 3))

        env.process(proc())
        env.run()
        assert env.now == Fraction(5, 2) + Fraction(1, 3)


class TestTimeout:
    def test_fires_at_delay(self):
        env = Environment()
        seen = []

        def proc():
            yield env.timeout(3)
            seen.append(env.now)

        env.process(proc())
        env.run()
        assert seen == [3]

    def test_value_passthrough(self):
        env = Environment()
        got = []

        def proc():
            got.append((yield env.timeout(1, value="hello")))

        env.process(proc())
        env.run()
        assert got == ["hello"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_zero_delay_ok(self):
        env = Environment()

        def proc():
            yield env.timeout(0)

        env.process(proc())
        env.run()
        assert env.now == 0


class TestOrdering:
    def test_fifo_at_same_time(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_chronological(self):
        env = Environment()
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3, "late"))
        env.process(proc(1, "early"))
        env.process(proc(2, "mid"))
        env.run()
        assert order == ["early", "mid", "late"]

    def test_deterministic_across_runs(self):
        def build():
            env = Environment()
            order = []

            def proc(d, tag):
                yield env.timeout(d)
                order.append((tag, env.now))

            for i in range(20):
                env.process(proc(Fraction(i % 7, 3), i))
            env.run()
            return order

        assert build() == build()


class TestEvents:
    def test_manual_succeed(self):
        env = Environment()
        ev = env.event()
        got = []

        def waiter():
            got.append((yield ev))

        def firer():
            yield env.timeout(2)
            ev.succeed(42)

        env.process(waiter())
        env.process(firer())
        env.run()
        assert got == [42]

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger(self):
        ev = Environment().event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_fail_propagates_to_waiter(self):
        env = Environment()
        ev = env.event()
        caught = []

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def firer():
            yield env.timeout(1)
            ev.fail(ValueError("boom"))

        env.process(waiter())
        env.process(firer())
        env.run()
        assert caught == ["boom"]

    def test_unwaited_failure_surfaces(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            env.run()

    def test_defused_failure_silent(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("lost"))
        ev.defuse()
        env.run()  # no raise

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_yield_already_processed_event(self):
        env = Environment()
        ev = env.timeout(0, value="x")
        got = []

        def late_waiter():
            yield env.timeout(5)
            got.append((yield ev))  # ev processed long ago

        env.process(late_waiter())
        env.run()
        assert got == ["x"]


class TestProcess:
    def test_return_value(self):
        env = Environment()

        def child():
            yield env.timeout(1)
            return "result"

        def parent():
            value = yield env.process(child())
            assert value == "result"
            return "done"

        p = env.process(parent())
        assert env.run(until=p) == "done"

    def test_exception_propagates_to_parent(self):
        env = Environment()

        def child():
            yield env.timeout(1)
            raise KeyError("inner")

        def parent():
            try:
                yield env.process(child())
            except KeyError:
                return "caught"
            return "missed"

        p = env.process(parent())
        assert env.run(until=p) == "caught"

    def test_uncaught_process_error_surfaces(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise RuntimeError("unhandled")

        env.process(bad())
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_yield_non_event_is_error(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_is_alive(self):
        env = Environment()

        def proc():
            yield env.timeout(2)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_interrupt(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(100)
                log.append("overslept")
            except ProcessInterrupt as pi:
                log.append(("interrupted", pi.cause, env.now))

        def interrupter(target):
            yield env.timeout(3)
            target.interrupt(cause="wake up")

        t = env.process(sleeper())
        env.process(interrupter(t))
        env.run()
        assert log == [("interrupted", "wake up", Fraction(3))]

    def test_interrupted_store_waiter_can_withdraw_claim(self):
        """The documented pattern: an interrupted getter cancels its claim
        so a later put is not swallowed by a dead waiter."""
        from repro.sim.resources import Store

        env = Environment()
        store = Store(env)
        got = []

        def impatient():
            claim = store.get()
            try:
                yield claim
                got.append(("impatient", claim.value))
            except ProcessInterrupt:
                store.cancel_get(claim)

        def patient():
            item = yield store.get()
            got.append(("patient", item))

        def driver(target):
            yield env.timeout(1)
            target.interrupt()
            env.process(patient())
            yield env.timeout(1)
            yield store.put("item")

        t = env.process(impatient())
        env.process(driver(t))
        env.run()
        assert got == [("patient", "item")]

    def test_interrupt_dead_process_rejected(self):
        env = Environment()

        def quick():
            yield env.timeout(0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_needs_generator(self):
        with pytest.raises(TypeError):
            Environment().process(lambda: None)

    def test_active_process_tracking(self):
        env = Environment()
        seen = []

        def proc():
            seen.append(env.active_process)
            yield env.timeout(1)

        p = env.process(proc())
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestRun:
    def test_until_time_lands_exactly(self):
        env = Environment()

        def proc():
            while True:
                yield env.timeout(1)

        env.process(proc())
        env.run(until=Fraction(7, 2))
        assert env.now == Fraction(7, 2)

    def test_until_event(self):
        env = Environment()
        env.run(until=env.timeout(4, value="v")) == "v"
        assert env.now == 4

    def test_until_past_rejected(self):
        env = Environment()

        def proc():
            yield env.timeout(10)

        env.process(proc())
        env.run(until=5)
        with pytest.raises(SimulationError):
            env.run(until=3)

    def test_until_event_starvation(self):
        env = Environment()
        with pytest.raises(SimulationError, match="ran out of events"):
            env.run(until=env.event())

    def test_step_without_events(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_peek(self):
        env = Environment()
        assert env.peek() is None
        env.timeout(5)
        assert env.peek() == 5


class TestTickClock:
    """The clock counts integer ticks at the LCM of every denominator it
    has seen; these force the paths where that scale grows."""

    def test_initial_time_scale_meets_a_new_denominator(self):
        env = Environment(initial_time=Fraction(5, 2))
        env.timeout(Fraction(1, 3))
        env.run()
        assert env.now == Fraction(17, 6)

    def test_rescale_keeps_pending_events_in_order(self):
        # thirds and sevenths arrive mid-run, while halves are pending
        env = Environment()
        log = []

        def tagged(delay, tag):
            yield env.timeout(delay)
            log.append((env.now, tag))

        def spawner():
            yield env.timeout(Fraction(1, 2))
            log.append((env.now, "spawner"))
            env.process(tagged(Fraction(1, 3), "third"))
            env.process(tagged(Fraction(4, 7), "seventh"))

        for i in range(4):
            env.process(tagged(Fraction(i + 1, 2), f"half{i}"))
        env.process(spawner())
        env.run()
        assert log == [
            (Fraction(1, 2), "half0"),
            (Fraction(1, 2), "spawner"),
            (Fraction(5, 6), "third"),
            (Fraction(1), "half1"),
            (Fraction(15, 14), "seventh"),
            (Fraction(3, 2), "half2"),
            (Fraction(2), "half3"),
        ]

    def test_mersenne_denominators_beyond_2_to_128(self):
        p61, p89 = (1 << 61) - 1, (1 << 89) - 1
        env = Environment()
        log = []

        def proc(delay, tag):
            yield env.timeout(delay)
            log.append((env.now, tag))

        a, b = Fraction(p61 - 1, p61), Fraction(p89 - 1, p89)
        env.process(proc(b, "b"))
        env.process(proc(a, "a"))
        env.process(proc(a + b, "sum"))
        env.run()
        assert log == [(a, "a"), (b, "b"), (a + b, "sum")]
        assert env._scale == p61 * p89 > 1 << 128
        assert all(type(t) is Fraction for t, _ in log)

    def test_float_delay_is_exact(self):
        env = Environment()
        env.timeout(0.1)
        env.run()
        assert env.now == Fraction(0.1)
        assert env.now != Fraction(1, 10)

    def test_until_off_the_grid_lands_exactly(self):
        env = Environment()

        def proc():
            while True:
                yield env.timeout(Fraction(1, 2))

        env.process(proc())
        env.run(until=Fraction(1, 7))
        assert env.now == Fraction(1, 7)
        env.run(until=Fraction(3, 4))
        assert env.now == Fraction(3, 4)
        assert env.peek() == 1

    def test_until_follows_a_rescale_mid_run(self):
        env = Environment()
        seen = []

        def proc(delay):
            yield env.timeout(delay)
            seen.append(env.now)

        def spawner():
            # grows the scale from 2 to 6 after `until` was converted
            env.process(proc(Fraction(1, 3)))
            env.process(proc(Fraction(2, 3)))
            yield env.timeout(0)

        env.process(spawner())
        env.run(until=Fraction(1, 2))
        assert seen == [Fraction(1, 3)]
        assert env.now == Fraction(1, 2)
        assert env.peek() == Fraction(2, 3)

    def test_peek_after_rescale(self):
        env = Environment()
        env.timeout(Fraction(3, 2))
        env.timeout(Fraction(5, 4))
        assert env.peek() == Fraction(5, 4)
        env.timeout(Fraction(1, 3))
        assert env.peek() == Fraction(1, 3)
        env.step()
        assert env.peek() == Fraction(5, 4)
        assert env.now == Fraction(1, 3)

    def test_one_fraction_per_distinct_tick(self):
        env = Environment()
        seen = []

        def proc():
            yield env.timeout(Fraction(1, 2))
            seen.append(env.now)

        for _ in range(3):
            env.process(proc())
        env.run()
        assert seen[0] is seen[1] is seen[2]

    def test_event_in_the_past_is_rejected(self):
        env = Environment()
        env.timeout(2)
        env.step()
        env._heap.append((1, 1, 0, env.event()))  # (tick, prio, seq, event)
        with pytest.raises(SimulationError, match="in the past"):
            env.step()

    def test_negative_fraction_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError, match="negative"):
            env.timeout(Fraction(-1, 3))
        assert env.peek() is None

    def test_profiler_heap_peak_across_rescale(self):
        from repro.obs.profile import EngineProfiler

        env = Environment()
        profiler = EngineProfiler(env)

        def spawner():
            yield env.timeout(1)
            for k in range(1, 6):  # five new denominators while pending
                env.timeout(Fraction(1, k + 1))
            yield env.timeout(Fraction(1, 7))

        for delay in (2, 3, 4):
            env.timeout(delay)
        env.process(spawner())
        heap = env._heap
        env.run()
        report = profiler.report()
        profiler.uninstall()
        assert env._heap is heap  # rescaled in place
        # before the t=1 step: 3 timeouts + the spawner's; after it the
        # 3 + 5 new + its own = 9
        assert report.heap_peak == 9
        assert report.events_processed == 12
        assert report.sim_time == 4
