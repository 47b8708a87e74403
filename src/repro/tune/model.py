"""The selector: rank applicable families for a query, calibrating ties.

The oracle registry already knows every family's closed-form running
time (exact or upper bound) and applicability predicate, so ranking is
mostly free: evaluate each applicable candidate's formula at the query
point and sort.  Two situations need more than the closed forms:

* **ties** — several exact families predict the same completion time
  (e.g. BCAST and BINOMIAL at integral ``lambda``), and
* **upper bounds** — the DTREE shapes certify only ``<=``, so a bound
  within :data:`~repro.tune.calibrate.CALIBRATION_MARGIN` of the best
  prediction might actually win.

Both are settled by *measured calibration*: running the candidate on the
turbo lane and reading off the **exact** completion time (a Fraction)
and send count.  Nothing here ever consults a wall clock — measured
quantities are deterministic functions of ``(family, n, m, lambda)`` —
so rankings (and the tables built from them,
:mod:`repro.tune.derive`) are byte-reproducible across processes,
job counts, and machines.

:func:`select_protocol` is the one-call API; ``family="auto"`` in
:func:`repro.run_protocol` and :func:`repro.run_batch` routes through
:func:`resolve_family` here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from repro.conformance.oracles import REGISTRY
from repro.errors import InvalidParameterError, TuningError
from repro.tune.calibrate import (
    CALIBRATION_MARGIN,
    CALIBRATION_MAX_N,
    measure,
)
from repro.types import Time, TimeLike, as_time

__all__ = [
    "WORKLOADS",
    "workloads",
    "Candidate",
    "candidate_families",
    "rank",
    "select_protocol",
    "resolve_family",
    "auto_workload",
]

#: Workload name -> oracle ``semantics`` labels it accepts.  The
#: ``allgather`` workload admits the gossip baseline too: a completed
#: gossip leaves every processor holding every rumor, which is exactly
#: the allgather postcondition.
WORKLOADS: "dict[str, tuple[str, ...]]" = {
    "broadcast": ("broadcast",),
    "reduce": ("reduction",),
    "scatter": ("scatter",),
    "gather": ("gather",),
    "alltoall": ("alltoall",),
    "allreduce": ("allreduce",),
    "barrier": ("barrier",),
    "allgather": ("allgather", "gossip"),
}


def workloads() -> "tuple[str, ...]":
    """All tunable workload names, sorted."""
    return tuple(sorted(WORKLOADS))


def _check_workload(workload: str) -> str:
    key = workload.strip().lower()
    if key not in WORKLOADS:
        raise InvalidParameterError(
            f"unknown workload {workload!r} "
            f"(tunable: {', '.join(workloads())})"
        )
    return key


def candidate_families(workload: str) -> "tuple[str, ...]":
    """Registry families eligible for *workload*, sorted (applicability
    at a concrete ``(n, m, lambda)`` is a separate question)."""
    semantics = WORKLOADS[_check_workload(workload)]
    return tuple(
        sorted(f for f, o in REGISTRY.items() if o.semantics in semantics)
    )


@dataclass(frozen=True)
class Candidate:
    """One family's standing at a query point.

    ``measured``/``sends`` are populated only when calibration ran for
    this candidate; :attr:`score` is what the final ranking sorts by.
    """

    family: str
    predicted: Time
    exact: bool
    measured: "Time | None" = None
    sends: "int | None" = None

    @property
    def score(self) -> Time:
        """Measured completion when calibrated, else the prediction."""
        return self.measured if self.measured is not None else self.predicted


def _sort_key(c: Candidate) -> tuple:
    # exact formulas outrank upper bounds at equal score; calibrated
    # send counts break remaining ties; family name makes it total
    return (c.score, not c.exact, c.sends if c.sends is not None else -1,
            c.family)


def rank(
    workload: str,
    n: int,
    m: int = 1,
    lam: TimeLike = 1,
    *,
    policy: str = "strict",
    calibrate: bool = True,
    max_calibrate_n: int = CALIBRATION_MAX_N,
) -> "list[Candidate]":
    """Applicable candidates for a query, best first.

    Ranking is primarily by the oracle closed forms (exact Fractions).
    When *calibrate* is true and ``n <= max_calibrate_n``, candidates
    tied at the best prediction — plus upper-bound families whose bound
    lies within :data:`~repro.tune.calibrate.CALIBRATION_MARGIN` of it —
    are run on the turbo lane and re-ranked by their measured exact
    completion time and send count.

    Raises:
        InvalidParameterError: unknown workload, or ``n < 2``.
        TuningError: no registered family is applicable at the point.
    """
    workload = _check_workload(workload)
    if n < 2:
        raise InvalidParameterError(f"need n >= 2 to tune, got n={n}")
    lam_t = as_time(lam)
    semantics = WORKLOADS[workload]
    candidates = [
        Candidate(fam, oracle.time(n, m, lam_t), oracle.exact)
        for fam, oracle in sorted(REGISTRY.items())
        if oracle.semantics in semantics and oracle.applicable(n, m, lam_t)
    ]
    if not candidates:
        raise TuningError(
            f"no registered family is applicable to workload="
            f"{workload!r} at (n={n}, m={m}, lambda={lam_t}); "
            f"eligible families: {', '.join(candidate_families(workload))}"
        )
    candidates.sort(key=_sort_key)
    if not calibrate or n > max_calibrate_n:
        return candidates
    best = candidates[0].predicted
    contenders = [
        c for c in candidates
        if c.predicted == best
        or (not c.exact and c.predicted <= best * CALIBRATION_MARGIN)
    ]
    if len(contenders) <= 1 and all(c.exact for c in contenders):
        return candidates
    calibrated = {}
    for c in contenders:
        completion, sends = measure(c.family, n, m, lam_t, policy=policy)
        calibrated[c.family] = replace(
            c, measured=completion, sends=sends
        )
    merged = [calibrated.get(c.family, c) for c in candidates]
    merged.sort(key=_sort_key)
    return merged


def _plan_compilable(family: str, n: int, m: int, lam: Time) -> bool:
    from repro.plan.build import canonical_family, plan_m

    try:
        fam = canonical_family(family, n, m, lam)
        plan_m(fam, n, m)
    except InvalidParameterError:
        return False
    return True


@lru_cache(maxsize=1024)
def _derive_selection(
    workload: str,
    n: int,
    m: int,
    lam: Time,
    policy: str,
    calibrate: bool,
    require_plan: bool,
) -> str:
    """:func:`select_protocol`'s derived answer, memoized per query.

    The answer is an exact function of the arguments (the ranking reads
    exact completion times, never a wall clock), so a repeated ``auto``
    query costs a lookup instead of a re-rank and its turbo
    calibrations.  :func:`rank` is looked up at call time, so a wrapped
    ``rank`` sees every derivation and no repeat.
    """
    ranking = rank(workload, n, m, lam, policy=policy, calibrate=calibrate)
    if require_plan:
        ranking = [
            c for c in ranking if _plan_compilable(c.family, n, m, lam)
        ]
        if not ranking:
            raise TuningError(
                f"no plan-compilable family is applicable to workload="
                f"{workload!r} at (n={n}, m={m}, lambda={lam})"
            )
    return ranking[0].family


def select_protocol(
    workload: str,
    n: int,
    *,
    m: int = 1,
    lam: TimeLike = 1,
    policy: str = "strict",
    calibrate: bool = True,
    require_plan: bool = False,
    table: "object | None" = None,
) -> str:
    """The best family name for a query.

    With *table* (a :class:`~repro.tune.table.TuningTable`), an exact
    query match short-circuits derivation and returns the committed
    winner; otherwise the ranking is derived on the spot via
    :func:`rank`, once per distinct query per process (later calls are
    served from a bounded memo).  *require_plan* restricts the choice to
    families the plan layer can compile (what ``run_batch`` and the
    replay backend need).

    Raises:
        InvalidParameterError: unknown workload, or ``n < 2``.
        TuningError: no applicable (or plan-compilable) family.
    """
    if table is not None:
        entry = table.lookup(workload, n, m, lam, policy)  # type: ignore[attr-defined]
        if entry is not None:
            if not require_plan or _plan_compilable(
                entry.winner, n, m, as_time(lam)
            ):
                return entry.winner
    return _derive_selection(
        _check_workload(workload), n, m, as_time(lam), policy, calibrate,
        require_plan,
    )


def auto_workload(family: str) -> "str | None":
    """Parse an ``"auto"`` family spec: ``"auto"`` means the broadcast
    workload, ``"auto:allgather"`` names one explicitly; any other
    string returns ``None`` (not an auto spec)."""
    spec = family.strip().lower()
    if spec == "auto":
        return "broadcast"
    if spec.startswith("auto:"):
        return _check_workload(spec[len("auto:"):])
    return None


def resolve_family(
    family: str,
    n: int,
    m: int = 1,
    lam: TimeLike = 1,
    *,
    policy: str = "strict",
    require_plan: bool = False,
) -> str:
    """Resolve a (possibly ``"auto"``) family spec to a concrete family
    name; non-auto specs pass through unchanged."""
    workload = auto_workload(family)
    if workload is None:
        return family
    return select_protocol(
        workload, n, m=m, lam=lam, policy=policy, require_plan=require_plan
    )
