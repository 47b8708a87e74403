"""The generalized Fibonacci function ``F_lambda`` and its index ``f_lambda``.

Section 3 of the paper defines, for any real latency ``lambda >= 1``::

    F_lambda(t) = 1                                   for 0 <= t < lambda
    F_lambda(t) = F_lambda(t-1) + F_lambda(t-lambda)  for t >= lambda

``F_lambda`` is a right-continuous, nondecreasing, unbounded step function
whose jump points all lie on the grid ``{a + b*lambda : a, b in N}``.  Its
index function ``f_lambda(n) = min{t : F_lambda(t) >= n}`` is exactly the
optimal single-message broadcast time in ``MPS(n, lambda)`` (Theorem 6).

Implementation notes
--------------------
* ``lambda`` and all times are exact :class:`~fractions.Fraction` values, so
  cases like the paper's ``lambda = 2.5`` evaluate with *equality*, never a
  tolerance.
* The function is tabulated bottom-up over its jump grid.  For ``t >= lambda``
  both ``t - 1 >= 0`` and ``t - lambda >= 0``, and both are strictly smaller
  than ``t``, so a single increasing sweep over the sorted grid computes the
  whole table; arbitrary ``t`` are answered by bisection (value at the
  rightmost grid point ``<= t``).
* The table grows on demand with a doubling strategy, so ``f_lambda(n)`` for
  astronomically large ``n`` stays cheap: ``F_lambda`` grows like
  ``(ceil(lambda)+1)^(t/2*lambda)`` (Theorem 7), hence the required horizon
  is ``O(lambda * log n / log(lambda+1))``.

Special cases, as in the paper:

* ``lambda = 1``: ``F_1(t) = 2**floor(t)`` and ``f_1(n) = ceil(log2 n)``
  (the telephone model / binomial tree).
* ``lambda = 2``: ``F_2(t)`` is the Fibonacci number of index
  ``floor(t) + 1`` (with ``Fib(1) = Fib(2) = 1``).
"""

from __future__ import annotations

import bisect
import heapq
from collections import OrderedDict
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from repro.core.stepfunc import StepFunction
from repro.errors import InvalidParameterError, ScheduleError
from repro.types import Time, TimeLike, ZERO, as_time, time_repr

__all__ = [
    "GeneralizedFibonacci",
    "IntPrefix",
    "check_informed_bound",
    "postal_F",
    "postal_f",
    "cache_info",
    "clear_cache",
]


class IntPrefix:
    """The ``F_lambda`` jump table on ``[0, f_lambda(n)]`` in integer
    ticks, tabulated directly, plus a split memo.

    With ``lambda = p/q`` in lowest terms, one time unit is ``q`` ticks
    and lambda is ``p`` ticks, so the jump grid ``{a + b*lambda}`` is the
    tick set ``{a*q + b*p}``.  On it ``F = 1`` below tick ``p`` and
    ``F(t) = F(t - q) + F(t - p)`` from ``p`` on.  The grid comes off a
    heap in increasing order, and ``F`` at ``t - q`` and ``t - p`` is read
    through two pointers that only move forward, so the table costs a
    heap push and pop per grid point and no ``Fraction`` at all.

    The schedule compilers (:mod:`repro.plan.build`) take BCAST split
    points from it, and :func:`check_informed_bound` reads its jump
    table.  :class:`GeneralizedFibonacci` stays the independent
    ``Fraction`` witness the tests pin this table against.

    Attributes:
        times: jump ticks, ascending (``times[0] == 0``).
        values: ``F_lambda`` at each jump, strictly increasing; the last
            is the first value ``>= n``.
        scale: ticks per time unit, lambda's denominator.
    """

    __slots__ = ("times", "values", "scale", "_memo")

    def __init__(self, lam: TimeLike, n: int):
        lam = as_time(lam)
        q, p = lam.denominator, lam.numerator
        times = [0]
        values = [1]
        iq = ip = 0  # last jumps at or before t - q and t - p
        heap = [q, p]
        last = 0
        while values[-1] < n:
            t = heapq.heappop(heap)
            if t == last:
                continue  # a*q + b*p reached along two lattice paths
            last = t
            heapq.heappush(heap, t + q)
            heapq.heappush(heap, t + p)
            if t < p:
                continue  # F = 1 below lambda
            top = len(times) - 1
            while iq < top and times[iq + 1] <= t - q:
                iq += 1
            while ip < top and times[ip + 1] <= t - p:
                ip += 1
            value = values[iq] + values[ip]
            if value != values[-1]:
                times.append(t)
                values.append(value)
        self.times = times
        self.values = values
        self.scale = q
        self._memo: dict[int, int] = {}

    def split(self, size: int) -> int:
        """The BCAST split point ``F(f(size) - 1)``, from two raw
        bisects over the integer arrays."""
        j = self._memo.get(size)
        if j is None:
            # f(size): first jump whose value reaches `size`; then F one
            # time unit (= `scale` ticks) earlier.
            i = bisect.bisect_left(self.values, size)
            t = self.times[i] - self.scale
            j = self.values[bisect.bisect_right(self.times, t) - 1]
            self._memo[size] = j
        return j


class GeneralizedFibonacci(StepFunction):
    """Exact evaluator for ``F_lambda(t)`` and ``f_lambda(n)``.

    Instances are cheap to create and cache their own value table; reuse one
    instance per ``lambda`` when evaluating many points (the module-level
    helpers :func:`postal_F` / :func:`postal_f` keep a shared cache).

    Args:
        lam: communication latency ``lambda >= 1`` (int, float, string like
            ``"5/2"``, or Fraction).
    """

    def __init__(self, lam: TimeLike):
        lam = as_time(lam)
        if lam < 1:
            raise InvalidParameterError(f"the postal model requires lambda >= 1, got {lam}")
        self._lam: Time = lam
        # Sorted jump-grid times with their values; authoritative on
        # [0, self._horizon).  Seeded with the flat prefix F(t) = 1.
        self._times: list[Time] = [ZERO]
        self._values: list[int] = [1]
        self._horizon: Time = lam  # table is correct for t < horizon
        self._splits: dict[int, int] = {}

    @property
    def lam(self) -> Time:
        """The latency ``lambda`` this instance evaluates."""
        return self._lam

    # ------------------------------------------------------------------ grid

    def _grid_upto(self, limit: Time) -> list[Time]:
        """All grid points ``a + b*lambda <= limit`` (a, b >= 0 integers),
        sorted ascending."""
        lam = self._lam
        pts: set[Time] = set()
        b = 0
        while b * lam <= limit:
            base = b * lam
            top = int(limit - base)  # floor, exact because Fraction
            pts.update(base + a for a in range(top + 1))
            b += 1
        return sorted(pts)

    def _extend_to(self, t: Time) -> None:
        """Ensure the table is authoritative for all times ``<= t``."""
        if t < self._horizon:
            return
        limit = t + 1  # a little slack so value_at(t) is safely interior
        lam = self._lam
        grid = self._grid_upto(limit)
        times: list[Time] = []
        values: list[int] = []

        def value_at_local(x: Time) -> int:
            # value of F at x using the table built so far in this pass
            i = bisect.bisect_right(times, x) - 1
            return values[i]

        prev = 0
        for g in grid:
            if g < lam:
                v = 1
            else:
                v = value_at_local(g - 1) + value_at_local(g - lam)
            if v != prev:  # keep only true jumps; keeps bisection tight
                times.append(g)
                values.append(v)
                prev = v
        self._times = times
        self._values = values
        self._horizon = limit

    # ----------------------------------------------------------- evaluation

    def value_at(self, t: Time) -> int:
        """``F_lambda(t)`` for exact ``t >= 0``."""
        if t < 0:
            raise InvalidParameterError(f"F_lambda is defined for t >= 0, got {t}")
        if t < self._lam:
            return 1
        self._extend_to(t)
        i = bisect.bisect_right(self._times, t) - 1
        return self._values[i]

    def index(self, n: int) -> Time:
        """``f_lambda(n) = min{t : F_lambda(t) >= n}`` for integer ``n >= 1``."""
        n = int(n)
        if n < 1:
            raise InvalidParameterError(f"f_lambda is defined for n >= 1, got {n}")
        if n == 1:
            return ZERO
        # grow the table until its maximum value reaches n
        while self._values[-1] < n:
            self._extend_to(self._horizon * 2)
        i = bisect.bisect_left(self._values, n)
        return self._times[i]

    def split(self, size: int) -> int:
        """Lemma 3's split of a range of ``size >= 2`` processors:
        ``j = F_lambda(f_lambda(size) - 1)``, with ``1 <= j <= size - 1``.

        BCAST's holder keeps the lower ``j`` processors and hands the
        other ``size - j`` to the processor ``j`` places up.  Memoized
        per instance: a broadcast asks once per send, for only a
        handful of distinct sizes.
        """
        j = self._splits.get(size)
        if j is None:
            j = self._splits[size] = self.value_at(self.index(size) - 1)
        return j

    def jump_times(self, up_to: Time) -> Iterable[Time]:
        self._extend_to(up_to)
        i = bisect.bisect_right(self._times, up_to)
        return list(self._times[:i])

    def sequence(self, count: int) -> Iterator[tuple[Time, int]]:
        """Yield the first *count* jump points ``(t, F_lambda(t))`` — the
        generalized Fibonacci *sequence* for this ``lambda``."""
        if count < 0:
            raise InvalidParameterError("count must be >= 0")
        while len(self._times) < count:
            self._extend_to(self._horizon * 2)
        for i in range(count):
            yield (self._times[i], self._values[i])

    def __repr__(self) -> str:
        return f"GeneralizedFibonacci(lambda={self._lam})"


# ------------------------------------------------------------- module cache

# LRU-bounded: long fuzzing runs sweep thousands of rational lambda values,
# and each GeneralizedFibonacci holds a value table, so an unbounded (or
# clear-all) cache would either grow without limit or periodically throw
# away every hot entry.  An OrderedDict gives exact LRU eviction instead.
_CACHE: "OrderedDict[Time, GeneralizedFibonacci]" = OrderedDict()
_CACHE_LIMIT = 256


def _cached(lam: TimeLike) -> GeneralizedFibonacci:
    key = as_time(lam)
    fib = _CACHE.get(key)
    if fib is None:
        while len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.popitem(last=False)  # evict least recently used
        fib = _CACHE[key] = GeneralizedFibonacci(key)
    else:
        _CACHE.move_to_end(key)
    return fib


def cache_info() -> tuple[int, int]:
    """``(current_size, limit)`` of the module-level ``F_lambda`` cache."""
    return len(_CACHE), _CACHE_LIMIT


def clear_cache() -> None:
    """Drop every cached ``GeneralizedFibonacci`` instance (tests and
    memory-sensitive embedders)."""
    _CACHE.clear()


def postal_F(lam: TimeLike, t: TimeLike) -> int:
    """``F_lambda(t)`` — maximum number of processors reachable by a
    single-message broadcast within ``t`` time units in ``MPS(*, lambda)``."""
    return _cached(lam)(t)


def postal_f(lam: TimeLike, n: int) -> Fraction:
    """``f_lambda(n)`` — the optimal broadcast time for one message to ``n``
    processors with latency ``lambda`` (Theorem 6)."""
    return _cached(lam).index(n)


def check_informed_bound(
    lam: TimeLike, scale: int, arrived: Sequence[Sequence[int]]
) -> int:
    """The Lemma 5 certificate ``N(t) <= F_lambda(t)`` over integer ticks.

    ``arrived[k]`` lists the arrival ticks of message ``k``'s deliveries
    (``scale`` ticks per time unit, *scale* a multiple of lambda's
    denominator), in any order.  The originator holds every message
    from ``t = 0`` and is not listed.  Counting it as the first arrival,
    the ``j``-th smallest arrival tick ``t`` of every message must
    satisfy ``j <= F_lambda(t)``.

    The informed count only matters just before each jump of
    ``F_lambda``, so the check costs one bisect per jump and message,
    after one sort of each message's arrivals.

    Returns the largest arrival tick (0 if none), for Lemma 8.

    Raises:
        ScheduleError: the first violation of the lowest such message,
            reported at the arrival that breaks the bound.
    """
    longest = max(map(len, arrived), default=0)
    if not longest:
        return 0
    # tabulated up to f(longest + 1): beyond it F_lambda(t) exceeds any count
    prefix = IntPrefix(lam, longest + 1)
    factor = scale // prefix.scale
    times = [t * factor for t in prefix.times]
    values = prefix.values
    last = 0
    for k, arrivals in enumerate(arrived):
        ticks = sorted(arrivals)
        if ticks and ticks[-1] > last:
            last = ticks[-1]
        for j in range(len(values) - 1):
            bound = values[j]
            if bound > len(ticks):
                break  # F already covers everyone who ever learns M_k
            # processors knowing M_k just before F's next jump
            if 1 + bisect.bisect_left(ticks, times[j + 1]) > bound:
                t = Fraction(ticks[bound - 1], scale)
                raise ScheduleError(
                    f"Lemma 5: {bound + 1} processors know M{k + 1} at "
                    f"t={time_repr(t)} but F_lambda(t) = {bound}"
                )
    return last
