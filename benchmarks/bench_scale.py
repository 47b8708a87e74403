"""SCALE — builder scalability: schedules and exact times at large n.

The paper's formulas are exact at any scale; this bench confirms the
implementation keeps up — the `F_lambda` table, the BCAST builder, and
validation all stay near-linear in `n`, and `f_lambda` handles
astronomically large `n` through the doubling table.
"""

from fractions import Fraction

from repro.core.bcast import bcast_schedule
from repro.core.fibfunc import GeneralizedFibonacci, postal_f

from benchmarks._utils import emit


def test_bcast_builder_100k(benchmark):
    sched = benchmark(bcast_schedule, 100_000, Fraction(5, 2), validate=False)
    assert len(sched) == 99_999


def test_bcast_validation_10k(benchmark):
    sched = benchmark(bcast_schedule, 10_000, Fraction(5, 2))
    assert sched.completion_time() == postal_f(Fraction(5, 2), 10_000)


def test_f_lambda_astronomical_n(benchmark):
    def compute():
        fib = GeneralizedFibonacci(Fraction(7, 2))
        return fib.index(10**30)

    t = benchmark(compute)
    fib = GeneralizedFibonacci(Fraction(7, 2))
    assert fib.value_at(t) >= 10**30
    assert fib.value_at(t - Fraction(1, 7)) < 10**30
    emit(
        "Scale: f_{7/2}(10^30)",
        f"= {t} (exact Fraction; table built by doubling)",
    )


def test_f_lambda_large_lambda(benchmark):
    result = benchmark(postal_f, 5000, 10**9)
    assert result > 0
