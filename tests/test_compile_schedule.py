"""The static broadcast builders are views of the integer-tick compilers.

:func:`repro.plan.build.compile_schedule` runs the plan compilers at
lambda's own denominator and decodes the keys into a columnar
``Schedule``.  These tests pin that the builders stay exact on fine
grids — a binary float latency (``2.1`` has denominator ``2**51``) and a
rational latency whose denominator is just past ``2**24`` — and that
:func:`~repro.plan.compile_plan` compiles the same schedule at the same
scale.  The witness is the event-driven protocol on the exact
``Fraction`` engine, which shares no scheduling code with the compilers.
"""

from fractions import Fraction

import pytest

from repro.conformance.oracles import broadcast_families, get_oracle
from repro.plan import compile_plan
from repro.postal import run_protocol
from repro.types import as_time

#: Fine tick grids: a float and a rational just past 2**24.
OFF_GRID = [2.1, 1 + Fraction(1, (1 << 24) + 1)]

SIZES = [2, 5, 13]
MCOUNTS = [1, 2, 3]


@pytest.mark.parametrize("lam", OFF_GRID, ids=["float-2.1", "den-2^24+1"])
@pytest.mark.parametrize("family", broadcast_families())
def test_builder_equals_exact_protocol_off_grid(family, lam):
    oracle = get_oracle(family)
    lam_t = as_time(lam)
    assert lam_t.denominator > 1 << 24
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
        plan = compile_plan(family, n, m, lam)
        assert plan.domain.scale == lam_t.denominator
        assert plan.to_schedule().events == built.events, (family, n, m)
