"""Deterministic calibration runs for the tuner.

"Measured" here never means a wall clock.  A calibration run executes
the candidate protocol on the turbo lane with auditing and metrics off
and reads two quantities that are **exact, deterministic functions** of
``(family, n, m, lambda, policy)``:

* the completion time — an exact rational, identical to what the
  Fraction event engine would produce (the turbo/exact equivalence is
  pinned by the conformance suite), and
* the total send count.

That is what makes tuning tables byte-reproducible: serial and
``--jobs 4`` derivations, or derivations on different machines, see the
same numbers to the last bit.  Calibration is capped at
:data:`CALIBRATION_MAX_N` — beyond that the closed forms alone decide
(a single turbo run at huge ``n`` costs more than the decision is
worth, and the exact families' formulas *are* their running times).
"""

from __future__ import annotations

from fractions import Fraction

from repro.conformance.oracles import resolve_oracle
from repro.postal.machine import ContentionPolicy
from repro.types import Time, TimeLike, as_time

__all__ = ["CALIBRATION_MAX_N", "CALIBRATION_MARGIN", "measure"]

#: Queries with ``n`` above this rank by closed forms alone.
CALIBRATION_MAX_N = 4096

#: An upper-bound family whose bound is within this factor of the best
#: prediction is worth measuring — its actual time may still win.
CALIBRATION_MARGIN = Fraction(3, 2)


def measure(
    family: str,
    n: int,
    m: int = 1,
    lam: TimeLike = 1,
    *,
    policy: str = "strict",
) -> "tuple[Time, int]":
    """``(completion_time, sends)`` for one candidate, exactly.

    Runs the family's protocol on the turbo lane with no audit, metrics
    or schedule (calibration trusts the conformance suite) and reads the
    exact rational completion time and the send count off the finished
    system.
    """
    from repro.postal.runner import _run_turbo

    lam_t = as_time(lam)
    oracle = resolve_oracle(family, m, lam_t)
    oracle.check_applicable(n, m, lam_t)
    system = _run_turbo(
        oracle.protocol(n, m, lam_t),
        ContentionPolicy(policy) if isinstance(policy, str) else policy,
    )
    return system.completion_time, system.send_count
