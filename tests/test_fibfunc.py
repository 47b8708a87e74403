"""Tests for the generalized Fibonacci function F_lambda and f_lambda."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fibfunc import GeneralizedFibonacci, IntPrefix, postal_F, postal_f
from repro.errors import InvalidParameterError

from tests.grids import LAMBDAS, SIZES

FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]


class TestSpecialCases:
    """The paper's stated special cases of F_lambda."""

    def test_lambda1_is_powers_of_two(self):
        # F_1(t) = 2 ** floor(t)
        for t in [0, Fraction(1, 2), 1, Fraction(3, 2), 2, 5, 10]:
            assert postal_F(1, t) == 2 ** int(t)

    def test_lambda1_index_is_ceil_log(self):
        # f_1(n) = ceil(log2 n)
        for n in range(1, 300):
            assert postal_f(1, n) == math.ceil(math.log2(n))

    def test_lambda2_is_fibonacci(self):
        # F_2(t) is the Fibonacci number of index floor(t) + 1
        for t in range(len(FIB)):
            assert postal_F(2, t) == FIB[t]

    def test_lambda2_fractional_t(self):
        # right-continuity: constant between integer jumps
        assert postal_F(2, Fraction(7, 2)) == postal_F(2, 3)

    def test_flat_prefix(self, lam):
        # F_lambda(t) = 1 for 0 <= t < lambda
        eps = Fraction(1, 1000)
        assert postal_F(lam, 0) == 1
        assert postal_F(lam, lam - eps) == 1
        assert postal_F(lam, lam) == 2


class TestRecurrence:
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_recurrence_on_grid(self, lam):
        # F(t) = F(t-1) + F(t-lambda) for t >= lambda, checked at many
        # grid and off-grid points
        pts = [lam + Fraction(k, 3) for k in range(0, 40)]
        for t in pts:
            assert postal_F(lam, t) == postal_F(lam, t - 1) + postal_F(
                lam, t - lam
            )

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_nondecreasing(self, lam):
        prev = 0
        for k in range(0, 60):
            v = postal_F(lam, Fraction(k, 4))
            assert v >= prev
            prev = v

    def test_paper_example_values(self):
        # hand-computed F_{5/2} values (also visible in Figure 1)
        lam = Fraction(5, 2)
        expected = {
            Fraction(0): 1,
            Fraction(5, 2): 2,
            Fraction(7, 2): 3,
            Fraction(9, 2): 4,
            Fraction(5): 5,
            Fraction(11, 2): 6,
            Fraction(6): 8,
            Fraction(13, 2): 9,
            Fraction(7): 12,
            Fraction(15, 2): 14,
        }
        for t, v in expected.items():
            assert postal_F(lam, t) == v, t


class TestIndexFunction:
    def test_f_of_one_is_zero(self, lam):
        assert postal_f(lam, 1) == 0

    def test_f_of_two_is_lambda(self, lam):
        # the first processor is informed exactly at t = lambda
        assert postal_f(lam, 2) == lam

    def test_paper_example(self):
        # the headline number of Figure 1
        assert postal_f(Fraction(5, 2), 14) == Fraction(15, 2)

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("n", SIZES)
    def test_index_inverse_properties(self, lam, n):
        # Claim 1 parts (3) and (4) for F_lambda specifically
        f = postal_f(lam, n)
        assert postal_F(lam, f) >= n
        eps = Fraction(1, 1000)
        if f - eps >= 0:
            assert postal_F(lam, f - eps) < n

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_index_nondecreasing(self, lam):
        vals = [postal_f(lam, n) for n in range(1, 120)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_large_n_fast(self):
        # the doubling strategy keeps huge n cheap
        v = postal_f(3, 10**12)
        assert postal_F(3, v) >= 10**12

    def test_large_lambda(self):
        v = postal_f(500, 10**6)
        assert postal_F(500, v) >= 10**6
        assert postal_F(500, v - Fraction(1, 7)) < 10**6


class TestAPI:
    def test_lambda_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            GeneralizedFibonacci(Fraction(1, 2))

    def test_negative_t_rejected(self):
        with pytest.raises(InvalidParameterError):
            postal_F(2, -1)

    def test_n_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            postal_f(2, 0)

    def test_float_lambda_matches_fraction(self):
        assert postal_f(2.5, 14) == postal_f(Fraction(5, 2), 14)

    def test_string_lambda(self):
        assert postal_f("5/2", 14) == Fraction(15, 2)

    def test_sequence(self):
        fib = GeneralizedFibonacci(2)
        seq = list(fib.sequence(6))
        # jump points only: t=0 (1), t=2 (2), t=3 (3), t=4 (5), t=5 (8)...
        assert seq[0] == (Fraction(0), 1)
        assert all(v1 < v2 for (_, v1), (_, v2) in zip(seq, seq[1:]))

    def test_sequence_negative_count(self):
        with pytest.raises(InvalidParameterError):
            list(GeneralizedFibonacci(2).sequence(-1))

    def test_jump_times_sorted_unique(self):
        fib = GeneralizedFibonacci(Fraction(5, 2))
        times = list(fib.jump_times(Fraction(10)))
        assert times == sorted(set(times))

    def test_repr(self):
        assert "5/2" in repr(GeneralizedFibonacci(Fraction(5, 2)))

    def test_instance_caching_consistency(self):
        # two separate instances agree (no shared-state corruption)
        a = GeneralizedFibonacci(Fraction(7, 3))
        b = GeneralizedFibonacci(Fraction(7, 3))
        for n in (5, 50, 7):  # interleaved growth orders
            assert a.index(n) == b.index(n)


class TestSplit:
    """``split(size)``: Lemma 3's split, the one the event-driven
    protocols all ask for."""

    @pytest.mark.parametrize(
        "lam",
        [1, Fraction(3, 2), 2, Fraction(5, 2), Fraction(7, 3), 4,
         Fraction(11, 7), 2.1],
    )
    def test_definition_and_range(self, lam):
        fib = GeneralizedFibonacci(lam)
        ref = GeneralizedFibonacci(lam)
        lam_t = fib.lam
        for size in range(2, 2001):
            j = fib.split(size)
            t = ref.index(size)
            assert j == ref.value_at(t - 1)
            assert 1 <= j < size
            # the other part fits the recipient's share F(t - lambda)
            assert size - j <= ref.value_at(t - lam_t)

    def test_repeated_size_is_memoized(self):
        fib = GeneralizedFibonacci(Fraction(5, 2))
        calls = []
        value_at = fib.value_at

        def counting(t):
            calls.append(t)
            return value_at(t)

        fib.value_at = counting
        first = fib.split(1000)
        assert len(calls) == 1
        assert fib.split(1000) == first
        assert len(calls) == 1
        fib.split(999)
        assert len(calls) == 2

    def test_size_one_has_no_split(self):
        with pytest.raises(InvalidParameterError):
            GeneralizedFibonacci(2).split(1)


class TestModuleCache:
    """The LRU-bounded module-level cache behind postal_F / postal_f."""

    def setup_method(self):
        from repro.core import fibfunc

        fibfunc.clear_cache()

    def teardown_method(self):
        from repro.core import fibfunc

        fibfunc.clear_cache()

    def test_cache_hit_reuses_the_instance(self):
        from repro.core import fibfunc

        postal_f(Fraction(5, 2), 10)
        size_after_first, limit = fibfunc.cache_info()
        postal_F(Fraction(5, 2), 7)  # same lambda, other entry point
        assert fibfunc.cache_info() == (size_after_first, limit)
        assert size_after_first == 1

    def test_equivalent_lambdas_share_one_entry(self):
        from repro.core import fibfunc

        postal_f("5/2", 10)
        postal_f(2.5, 10)
        postal_f(Fraction(5, 2), 10)
        assert fibfunc.cache_info()[0] == 1

    def test_cache_size_is_bounded(self, monkeypatch):
        from repro.core import fibfunc

        monkeypatch.setattr(fibfunc, "_CACHE_LIMIT", 8)
        for k in range(30):
            postal_f(Fraction(k + 8, 8), 5)  # 30 distinct lambdas >= 1
        size, _ = fibfunc.cache_info()
        assert size <= 8

    def test_eviction_is_least_recently_used(self, monkeypatch):
        from repro.core import fibfunc

        monkeypatch.setattr(fibfunc, "_CACHE_LIMIT", 2)
        postal_f(1, 5)  # cache: [1]
        postal_f(2, 5)  # cache: [1, 2]
        postal_f(1, 5)  # touch 1 -> cache: [2, 1]
        postal_f(3, 5)  # evicts 2 -> cache: [1, 3]
        assert Fraction(1) in fibfunc._CACHE
        assert Fraction(2) not in fibfunc._CACHE
        assert Fraction(3) in fibfunc._CACHE

    def test_values_survive_eviction(self, monkeypatch):
        """Correctness does not depend on the cache: evicted lambdas
        recompute to identical values."""
        from repro.core import fibfunc

        monkeypatch.setattr(fibfunc, "_CACHE_LIMIT", 1)
        before = postal_f(Fraction(5, 2), 14)
        postal_f(3, 14)  # evicts 5/2
        assert postal_f(Fraction(5, 2), 14) == before


class TestIntPrefix:
    """The integer-tick table the compilers and the Lemma 5 check read,
    pinned against the independent ``Fraction`` tabulation."""

    @staticmethod
    def _witness(lam, n):
        fib = GeneralizedFibonacci(lam)
        jumps = fib.jump_times(fib.index(n))
        scale = Fraction(lam).denominator
        return [t * scale for t in jumps], [fib.value_at(t) for t in jumps]

    @settings(max_examples=300, deadline=None)
    @given(
        lam=st.one_of(
            st.builds(
                Fraction,
                st.integers(1, 60),
                st.integers(1, 12),
            ).filter(lambda x: x >= 1),
            st.just(Fraction(2.1)),
        ),
        n=st.integers(1, 10**6),
    )
    def test_matches_the_fraction_tabulation(self, lam, n):
        table = IntPrefix(lam, n)
        times, values = self._witness(lam, n)
        assert table.scale == lam.denominator
        assert table.times == times
        assert table.values == values

    @pytest.mark.parametrize("lam", ["1", "2", "5/2", "13/12", 2.1])
    def test_split_is_F_one_unit_before_f(self, lam):
        table = IntPrefix(lam, 500)
        for size in range(2, 501):
            assert table.split(size) == postal_F(lam, postal_f(lam, size) - 1)

    def test_first_value_reaches_n(self):
        for n in (1, 2, 3, 1000):
            assert IntPrefix("5/2", n).values[-1] >= n
        assert IntPrefix("5/2", 1).times == [0]
