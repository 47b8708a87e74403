"""The integer tick domain: lossless rescaling of rational postal time.

Every quantity a postal run manipulates — the latency ``lambda = p/q``,
send starts, receive windows, protocol timeouts — lives on the grid
``{a + b*lambda : a, b in N}``, and therefore in ``(1/q) * Z``.  Fixing a
run's denominators up front lets the whole simulation run on plain
``int`` *ticks* (``tick = time * scale``) instead of
:class:`fractions.Fraction` values: heap keys compare with C-speed
integer comparison, port bookkeeping is integer ``max``/``+``, and the
exact rational times are recovered at the boundary with
:meth:`TickDomain.to_time` — a *lossless* round trip, never a float
approximation.

Any positive scale is a domain (a float lambda such as ``2.1`` has
``2**51``); the fast lanes' one limit is their int64 columns
(:func:`column_overflow`).

This is the arithmetic core of the ``backend="turbo"`` execution lane
(:mod:`repro.turbo.fastsim`); :class:`TickDomain` itself is independent
of the simulator and is also usable for tick-sweep schedule validation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from repro.errors import TickDomainError
from repro.types import Time, TimeLike, as_time

__all__ = ["TickDomain", "column_overflow"]

#: Entries :meth:`TickDomain.to_time` keeps per domain before it starts
#: over.  A run touches few distinct ticks, so this rarely fills.
_TIMES_MEMO = 4096


def column_overflow(scale: int) -> TickDomainError:
    """The error a fast lane raises when a tick at *scale* ticks per
    unit does not fit its ``array('q')`` columns."""
    return TickDomainError(
        f"a tick at tick scale {scale} passes the int64 columns of the "
        "fast lanes; use the exact backend"
    )


class TickDomain:
    """A lossless ``Fraction <-> int`` time rescaling with factor ``scale``.

    ``scale`` is the number of ticks per model time unit; a time ``t`` is
    representable exactly iff ``t * scale`` is an integer.  Construct via
    :meth:`for_values` to derive the scale from a run's rational
    parameters (the LCM of their denominators).

    >>> dom = TickDomain.for_values(["5/2", 1])
    >>> dom.scale
    2
    >>> dom.to_ticks("7/2")
    7
    >>> dom.to_time(7)
    Fraction(7, 2)
    """

    __slots__ = ("scale", "_times")

    def __init__(self, scale: int = 1):
        if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
            raise TickDomainError(f"tick scale must be a positive int, got {scale!r}")
        self.scale = scale
        self._times: dict[int, Time] = {}

    @classmethod
    def for_values(cls, values: Iterable[TimeLike]) -> "TickDomain":
        """The coarsest domain representing every value in *values* exactly
        (scale = LCM of the values' denominators)."""
        return cls(math.lcm(*(as_time(value).denominator for value in values)))

    # ------------------------------------------------------------ transport

    def to_ticks(self, value: TimeLike) -> int:
        """``value * scale`` as an exact ``int``.

        Raises:
            TickDomainError: *value* does not lie on this domain's grid
                (the conversion would be lossy).
        """
        t = as_time(value)
        num = t.numerator * self.scale
        den = t.denominator
        ticks, rem = divmod(num, den)
        if rem:
            raise TickDomainError(
                f"time {t} is not representable at tick scale {self.scale} "
                f"(off-grid delay or latency; use the exact backend)"
            )
        return ticks

    def to_time(self, ticks: int) -> Time:
        """The exact rational time of *ticks* (inverse of :meth:`to_ticks`).

        One :class:`~fractions.Fraction` per distinct tick: equal times
        share one object, which spares the decoders a ``Fraction`` build
        per record and lets sorts of equal times take CPython's identity
        shortcut.  The memo holds at most :data:`_TIMES_MEMO` entries.
        """
        time = self._times.get(ticks)
        if time is None:
            times = self._times
            if len(times) >= _TIMES_MEMO:
                times.clear()
            time = times[ticks] = Fraction(ticks, self.scale)
        return time

    def __repr__(self) -> str:
        return f"TickDomain(scale={self.scale})"

    def __reduce__(self):
        # the memo is a cache: a pickled domain carries its scale only
        return (TickDomain, (self.scale,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TickDomain):
            return NotImplemented
        return self.scale == other.scale

    def __hash__(self) -> int:
        return hash(("TickDomain", self.scale))
