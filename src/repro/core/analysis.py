"""Closed-form running times and bounds (Lemmas 8-18, Corollaries 9-17).

Exact formulas return :class:`~fractions.Fraction`; the asymptotic
corollaries involve logarithms and return ``float``.  Every exact formula
here is cross-checked against simulated schedule completion times in the
test suite — with equality, not tolerances.

Conventions: ``n >= 1`` processors, ``m >= 1`` messages, ``lambda >= 1``.
For ``n == 1`` every broadcast takes time 0 (there is nobody to inform), so
the exact functions return 0 there even where the paper's formulas assume
``n >= 2``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.core.fibfunc import postal_f
from repro.errors import InvalidParameterError
from repro.types import Time, TimeLike, ZERO, as_time

__all__ = [
    "bcast_time",
    "repeat_time",
    "repeat_upper",
    "pack_time",
    "pack_upper",
    "pipeline_time",
    "pipeline_upper",
    "dtree_upper",
    "multi_lower_bound",
    "multi_lower_cor9",
    "dtree_factor_binary",
    "dtree_factor_latency",
    "ALGORITHMS",
    "algorithm_times",
    "best_algorithm",
]


def _params(n: int, m: int, lam: TimeLike) -> tuple[int, int, Time]:
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    lam_t = as_time(lam)
    if lam_t < 1:
        raise InvalidParameterError(f"the postal model requires lambda >= 1, got {lam_t}")
    return n, m, lam_t


# --------------------------------------------------------------- Section 3


def bcast_time(n: int, lam: TimeLike) -> Fraction:
    """Theorem 6: the optimal single-message broadcast time
    ``T_B(n, lambda) = f_lambda(n)``."""
    n, _, lam = _params(n, 1, lam)
    return postal_f(lam, n)


# ------------------------------------------------------------ lower bounds


def multi_lower_bound(n: int, m: int, lam: TimeLike) -> Fraction:
    """Lemma 8: any ``m``-message broadcast needs
    ``(m - 1) + f_lambda(n)`` time (0 when ``n == 1``)."""
    n, m, lam = _params(n, m, lam)
    if n == 1:
        return ZERO
    return (m - 1) + postal_f(lam, n)


def multi_lower_cor9(n: int, m: int, lam: TimeLike) -> tuple[float, float]:
    """Corollary 9: the two explicit lower bounds
    ``m - 1 + lambda*log(n)/log(ceil(lambda)+1)`` and ``m - 1 + lambda``
    (the latter is strict; both require ``n >= 2``)."""
    n, m, lam = _params(n, m, lam)
    if n < 2:
        raise InvalidParameterError("Corollary 9 assumes n >= 2")
    lam_f = float(lam)
    part1 = m - 1 + lam_f * math.log2(n) / math.log2(math.ceil(lam) + 1)
    part2 = m - 1 + lam_f
    return part1, part2


# --------------------------------------------------------------- Lemma 10+


def repeat_time(n: int, m: int, lam: TimeLike) -> Fraction:
    """Lemma 10: Algorithm REPEAT runs in exactly
    ``m * f_lambda(n) - (m - 1)(lambda - 1)``."""
    n, m, lam = _params(n, m, lam)
    if n == 1:
        return ZERO
    return m * postal_f(lam, n) - (m - 1) * (lam - 1)


def repeat_upper(n: int, m: int, lam: TimeLike) -> float:
    """Corollary 11: ``T_R <= 2m*lambda*log(n)/log(lambda+1) + m*lambda
    + m + lambda - 1``."""
    n, m, lam = _params(n, m, lam)
    if n < 2:
        raise InvalidParameterError("Corollary 11 assumes n >= 2")
    lam_f = float(lam)
    return (
        2 * m * lam_f * math.log2(n) / math.log2(lam_f + 1)
        + m * lam_f
        + m
        + lam_f
        - 1
    )


def pack_time(n: int, m: int, lam: TimeLike) -> Fraction:
    """Lemma 12: Algorithm PACK runs in exactly
    ``m * f_{1 + (lambda-1)/m}(n)``."""
    n, m, lam = _params(n, m, lam)
    if n == 1:
        return ZERO
    return m * postal_f(1 + (lam - 1) / m, n)


def pack_upper(n: int, m: int, lam: TimeLike) -> float:
    """Corollary 13: ``T_PK <= 2(m+lambda-1)*log(n)/log(2+(lambda-1)/m)
    + 2(m+lambda-1)``."""
    n, m, lam = _params(n, m, lam)
    if n < 2:
        raise InvalidParameterError("Corollary 13 assumes n >= 2")
    lam_f = float(lam)
    denom = math.log2(2 + (lam_f - 1) / m)
    return 2 * (m + lam_f - 1) * math.log2(n) / denom + 2 * (m + lam_f - 1)


def pipeline_time(n: int, m: int, lam: TimeLike) -> Fraction:
    """Lemmas 14 and 16: Algorithm PIPELINE runs in exactly
    ``m * f_{lambda/m}(n) + (m - 1)`` when ``m <= lambda`` (PIPELINE-1) and
    ``lambda * f_{m/lambda}(n) + (lambda - 1)`` when ``m >= lambda``
    (PIPELINE-2).  The two agree at ``m == lambda``."""
    n, m, lam = _params(n, m, lam)
    if n == 1:
        return ZERO
    if m <= lam:
        return m * postal_f(lam / m, n) + (m - 1)
    return lam * postal_f(Fraction(m) / lam, n) + (lam - 1)


def pipeline_upper(n: int, m: int, lam: TimeLike) -> float:
    """Corollaries 15 and 17: the explicit PIPELINE upper bounds."""
    n, m, lam = _params(n, m, lam)
    if n < 2:
        raise InvalidParameterError("Corollaries 15/17 assume n >= 2")
    lam_f = float(lam)
    if m <= lam:
        return (
            2 * lam_f
            + 2 * lam_f * math.log2(n) / math.log2(1 + lam_f / m)
            + (m - 1)
        )
    return (
        2 * m * math.log2(n) / math.log2(1 + m / lam_f) + 2 * m + lam_f - 1
    )


def dtree_upper(n: int, m: int, lam: TimeLike, d: int) -> Fraction:
    """Lemma 18: ``T_DT <= d(m-1) + (d-1+lambda) * ceil(log_d n)`` for
    ``d >= 2``.  For ``d == 1`` (the line, where ``log_d`` is undefined) the
    exact time ``(m-1) + (n-1)*lambda`` is returned."""
    n, m, lam = _params(n, m, lam)
    if n == 1:
        return ZERO
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    if d == 1:
        return (m - 1) + (n - 1) * lam
    height = math.ceil(math.log(n) / math.log(d) - 1e-12)
    # guard against floating log: ceil(log_d n) is the least h with d^h >= n
    while d**height < n:
        height += 1
    while height > 0 and d ** (height - 1) >= n:
        height -= 1
    return d * (m - 1) + (d - 1 + lam) * height


# ------------------------------------------------------- Section 4.3 facts


def dtree_factor_binary(lam: TimeLike) -> float:
    """Section 4.3: the binary tree (``d = 2``) is within
    ``max{2, log(ceil(lambda)+1)}`` of optimal."""
    lam_t = as_time(lam)
    if lam_t < 1:
        raise InvalidParameterError(f"lambda >= 1 required, got {lam_t}")
    return max(2.0, math.log2(math.ceil(lam_t) + 1))


def dtree_factor_latency(lam: TimeLike) -> float:
    """Section 4.3: the ``d = ceil(lambda)+1`` tree is within
    ``max{2, ceil(lambda)+1}`` of optimal."""
    lam_t = as_time(lam)
    if lam_t < 1:
        raise InvalidParameterError(f"lambda >= 1 required, got {lam_t}")
    return float(max(2, math.ceil(lam_t) + 1))


# ----------------------------------------------------------- model picker

#: The algorithm families compared throughout Section 4.
ALGORITHMS = ("REPEAT", "PACK", "PIPELINE", "DTREE-LINE", "DTREE-BINARY",
              "DTREE-LATENCY", "DTREE-STAR")


def algorithm_times(n: int, m: int, lam: TimeLike) -> dict[str, Fraction]:
    """Exact running time of every algorithm family at ``(n, m, lambda)``.

    Each value comes from the family's registry entry
    (:func:`repro.conformance.oracles.resolve_oracle`; ``PIPELINE``
    resolves to its Lemma 14/16 variant and ``DTREE-STAR`` is ``STAR``):
    the closed form where the entry is exact, otherwise the completion of
    its deterministic static builder (DTREE-BINARY and DTREE-LATENCY,
    whose Lemma 18 formula is only an upper bound).
    """
    from repro.conformance.oracles import resolve_oracle

    n, m, lam = _params(n, m, lam)
    out: dict[str, Fraction] = {}
    for name in ALGORITHMS:
        oracle = resolve_oracle("STAR" if name == "DTREE-STAR" else name, m, lam)
        if oracle.exact:
            out[name] = oracle.time(n, m, lam)
        else:
            out[name] = oracle.schedule(n, m, lam).completion_time()
    return out


def best_algorithm(n: int, m: int, lam: TimeLike) -> tuple[str, Fraction]:
    """The fastest algorithm family at ``(n, m, lambda)`` and its exact
    running time — the crossover-map primitive behind
    ``benchmarks/bench_crossover.py``."""
    times = algorithm_times(n, m, lam)
    name = min(times, key=lambda k: (times[k], k))
    return name, times[name]
