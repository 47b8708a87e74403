"""The static broadcast builders are views of the integer-tick compilers.

:func:`repro.plan.build.compile_schedule` runs the plan compilers at
lambda's own denominator, with no tick-scale cap, and decodes the keys
into ``SendEvent`` objects.  These tests pin that the builders stay
exact where the capped :func:`~repro.plan.compile_plan` refuses: a
binary float latency (``2.1`` has denominator ``2**51``) and a rational
latency whose denominator is just past ``2**24``.  The witness is the
event-driven protocol on the exact ``Fraction`` engine, which shares no
scheduling code with the compilers.
"""

from fractions import Fraction

import pytest

from repro.conformance.oracles import broadcast_families, get_oracle
from repro.errors import TickDomainError
from repro.plan import compile_plan
from repro.postal import run_protocol
from repro.turbo.ticks import MAX_SCALE
from repro.types import as_time

#: Off the plan layer's tick grid: a float and a just-too-fine rational.
OFF_GRID = [2.1, 1 + Fraction(1, MAX_SCALE + 1)]

SIZES = [2, 5, 13]
MCOUNTS = [1, 2, 3]


@pytest.mark.parametrize("lam", OFF_GRID, ids=["float-2.1", "den-2^24+1"])
@pytest.mark.parametrize("family", broadcast_families())
def test_builder_equals_exact_protocol_off_grid(family, lam):
    oracle = get_oracle(family)
    lam_t = as_time(lam)
    assert lam_t.denominator > MAX_SCALE
    grid = [
        (n, m)
        for n in SIZES
        for m in MCOUNTS
        if oracle.applicable(n, m, lam_t)
    ]
    assert grid, f"no applicable (n, m) for {family}"
    for n, m in grid:
        built = oracle.schedule(n, m, lam)
        realized = run_protocol(oracle.protocol(n, m, lam_t), collect=False)
        assert built.events == realized.schedule.events, (family, n, m)
        assert built.lam == lam_t
        built.validate()
        with pytest.raises(TickDomainError):
            compile_plan(family, n, m, lam)
