"""The family table: every protocol family in one registry entry.

An :class:`Oracle` is one protocol family, whole: its exact (or
upper-bound) running-time formula with the paper citation, its
applicability predicate over ``(n, m, lambda)``, the event-driven
:class:`~repro.algorithms.base.Protocol` factory, the independent static
schedule builder the simulation is diffed against (broadcast families),
and the integer-tick plan compiler of :mod:`repro.plan.build` with the
plan's message-count and send-count rules.  The plan layer, the runners,
the CLI, :func:`repro.core.analysis.algorithm_times` and the tuner all
read this table; none of them lists families itself.

:func:`resolve_oracle` maps a user-given name to its entry: a registered
name in any case, ``PIPELINE`` (PIPELINE-1 or PIPELINE-2 by
:func:`~repro.core.multi.pipeline_variant`), or ``DTREE-<d>`` for a
positive decimal degree ``d`` (an entry made on demand, never
registered).  Every other name raises one
:class:`~repro.errors.InvalidParameterError` message.

Registered families and their certificates:

========== ==================== =========================================
family     citation             predicted time
========== ==================== =========================================
BCAST      Theorem 6            ``f_lambda(n)`` (m = 1)
REPEAT     Lemma 10 / Cor. 11   ``m f_lambda(n) - (m-1)(lambda-1)``
PACK       Lemma 12 / Cor. 13   ``m f_{1+(lambda-1)/m}(n)``
PIPELINE-1 Lemma 14 / Cor. 15   ``m f_{lambda/m}(n) + (m-1)`` (m <= lambda)
PIPELINE-2 Lemma 16 / Cor. 17   ``lambda f_{m/lambda}(n) + (lambda-1)``
DTREE-LINE Lemma 18 (d = 1)     ``(m-1) + (n-1) lambda``
DTREE-BINARY  Lemma 18 (d = 2)  upper bound ``d(m-1)+(d-1+lambda)ceil(log_d n)``
DTREE-LATENCY Lemma 18          upper bound, ``d = ceil(lambda)+1``
STAR       Section 4.3 (d=n-1)  ``m(n-1) - 1 + lambda``
BINOMIAL   Section 1 baseline   exact split recursion (telephone optimum)
REDUCE     Cidon-Gopal-Kutten   ``f_lambda(n)`` (time-reversed BCAST)
SCATTER    Section 5            ``(n-2) + lambda``
GATHER     Section 5            ``(n-2) + lambda``
ALLTOALL   Section 5            ``(n-2) + lambda``
ALLREDUCE  combine + broadcast  ``2 f_lambda(n)``
BARRIER    combine + notify     ``2 f_lambda(n)``
ALLGATHER  Section 5 gossip UB  ``max(n-1, lambda-1) + pipeline_time(n, n)``
BRUCK-ALLGATHER  Bruck et al.   ``(n-1) + ceil(lg n)(lambda-1)``
GOSSIP-RING Section 5 baseline  ``(n-1) lambda``
========== ==================== =========================================

Broadcast families additionally certify the Lemma 5 population bound
``N(t) <= F_lambda(t)`` per message and the Lemma 8 lower bound
``(m-1) + f_lambda(n)`` (Corollary 9's explicit forms are implied).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algorithms import (
    BcastProtocol,
    BinomialProtocol,
    DTreeProtocol,
    PackProtocol,
    PipelineProtocol,
    Protocol,
    RepeatProtocol,
    StarProtocol,
    binomial_schedule,
    binomial_time,
    star_time,
)
from repro.collectives import (
    AllgatherProtocol,
    AllreduceProtocol,
    AllToAllProtocol,
    allgather_time,
    alltoall_time,
    allreduce_time,
    barrier_time,
    BarrierProtocol,
    BruckAllgatherProtocol,
    bruck_time,
    GatherProtocol,
    gather_time,
    GossipRingProtocol,
    gossip_ring_time,
    ReduceProtocol,
    reduce_time,
    ScatterProtocol,
    scatter_time,
)
from repro.core.analysis import (
    bcast_time,
    dtree_upper,
    multi_lower_bound,
    pack_time,
    pipeline_time,
    repeat_time,
)
from repro.core.bcast import bcast_schedule
from repro.core.dtree import DTreeShape, dtree_schedule, resolve_degree
from repro.core.multi import (
    pack_schedule,
    pipeline_schedule,
    pipeline_variant,
    repeat_schedule,
)
from repro.core.schedule import Schedule
from repro.errors import InvalidParameterError
from repro.plan.build import (
    _compile_allgather,
    _compile_alltoall,
    _compile_bcast,
    _compile_binomial,
    _compile_bruck,
    _compile_combine_bcast,
    _compile_dtree,
    _compile_gather,
    _compile_gossip,
    _compile_pack,
    _compile_pipeline,
    _compile_reduce,
    _compile_repeat,
    _compile_scatter,
)
from repro.types import Time, TimeLike, as_time

__all__ = [
    "Oracle",
    "register",
    "get_oracle",
    "resolve_oracle",
    "families",
    "broadcast_families",
    "collective_families",
    "REGISTRY",
]


@dataclass(frozen=True)
class Oracle:
    """One protocol family's certifiable identity.

    Attributes:
        family: registry key, e.g. ``"PIPELINE-1"``.
        citation: the paper result the formula comes from.
        exact: True when :attr:`time` is the family's exact running time
            (certified with ``==``); False when it is an upper bound
            (certified with ``<=`` plus equality against the
            deterministic builder).
        semantics: ``"broadcast"`` (full schedule certification applies)
            or the collective's label (completion + port/delivery audits).
        applicable: predicate over ``(n, m, lam)`` — e.g. ``m <= lambda``
            for PIPELINE-1.
        time: ``(n, m, lam) -> Time`` — the closed form (or upper bound).
        protocol: ``(n, m, lam) -> Protocol`` — the event-driven program.
        keys: ``(n, m, lam, scale) -> list[int]`` — the plan compiler:
            the packed send keys of :mod:`repro.plan.build` at ``scale``
            ticks per time unit, with ``m`` the plan's message count.
        schedule: optional ``(n, m, lam) -> Schedule`` — the independent
            static builder (constructed **unvalidated**; the certifier
            validates, so a buggy builder cannot hide behind its own
            constructor).
        order_preserving: the family guarantees index-order delivery.
        supports_queued: meaningful to re-run under the queued contention
            policy (every registered family is collision-free, so queued
            and strict must realize identical arrival times).
        messages: optional ``n -> m`` — the message-index space of the
            family's plan (:func:`repro.plan.build.plan_m`); ``None``
            passes the requested ``m`` through, as a broadcast does.
        sends: optional ``n -> count`` — the plan's length at ``n >= 2``
            (:func:`repro.plan.build.plan_sends`); ``None`` means a
            broadcast's ``m (n - 1)``.
    """

    family: str
    citation: str
    exact: bool
    semantics: str
    applicable: Callable[[int, int, Time], bool]
    time: Callable[[int, int, Time], Time]
    protocol: Callable[[int, int, Time], Protocol]
    keys: Callable[[int, int, Time, int], list[int]]
    schedule: Callable[[int, int, Time], Schedule] | None = None
    order_preserving: bool = True
    supports_queued: bool = True
    messages: Callable[[int], int] | None = None
    sends: Callable[[int], int] | None = None

    def lower_bound(self, n: int, m: int, lam: Time) -> Time | None:
        """The Lemma 8 certificate ``(m-1) + f_lambda(n)`` for broadcast
        semantics; ``None`` for collectives (their optimality arguments
        are family-specific and encoded in :attr:`time`)."""
        if self.semantics != "broadcast":
            return None
        return multi_lower_bound(n, m, lam)

    def check_applicable(self, n: int, m: int, lam: TimeLike) -> None:
        lam_t = as_time(lam)
        if not self.applicable(n, m, lam_t):
            raise InvalidParameterError(
                f"{self.family} is not applicable at (n={n}, m={m}, "
                f"lambda={lam_t})"
            )


#: The registry, keyed by family name.
REGISTRY: dict[str, Oracle] = {}


def register(oracle: Oracle) -> Oracle:
    """Add *oracle* to the registry (rejecting duplicate names)."""
    if oracle.family in REGISTRY:
        raise InvalidParameterError(
            f"oracle {oracle.family!r} is already registered"
        )
    REGISTRY[oracle.family] = oracle
    return oracle


def get_oracle(family: str) -> Oracle:
    """The entry of a family name that needs no ``(m, lambda)``: a
    registered name, in any case, or ``DTREE-<d>`` (see
    :func:`resolve_oracle`, which also resolves ``PIPELINE``).

    Raises:
        InvalidParameterError: any other name, ``PIPELINE`` included.
    """
    key = family.upper()
    oracle = REGISTRY.get(key)
    if oracle is not None:
        return oracle
    degree = key[len("DTREE-"):]
    if key.startswith("DTREE-") and degree.isascii() and degree.isdigit():
        try:
            d = int(degree)
        except ValueError:  # more digits than int() converts
            d = 0
        if d >= 1:
            return _dtree(
                f"DTREE-{d}",
                f"Lemma 18 (d = {d}, {'exact' if d == 1 else 'upper bound'})",
                d,
                exact=d == 1,
            )
    raise InvalidParameterError(
        f"unknown family {family!r} (registered: {', '.join(families())}; "
        "also DTREE-<d> for a degree d >= 1, and PIPELINE at a given m "
        "and lambda)"
    )


def resolve_oracle(family: str, m: int, lam: TimeLike) -> Oracle:
    """The entry a user-given family name selects at ``(m, lambda)``.

    * A registered name, in any case, gives its entry.
    * ``PIPELINE`` gives PIPELINE-1 or PIPELINE-2, by
      :func:`~repro.core.multi.pipeline_variant` (Lemma 14 vs 16).
    * ``DTREE-<d>``, ``d`` a positive decimal integer, gives a DTREE
      entry at degree ``d`` named ``DTREE-{d}`` (so ``DTREE-03`` is
      ``DTREE-3``), made on demand and never registered: its time is
      the Lemma 18 bound, exact when ``d = 1``.

    Raises:
        InvalidParameterError: any other name (:func:`get_oracle`'s
            message).
    """
    if family.upper() == "PIPELINE":
        return REGISTRY[pipeline_variant(m, lam)]
    return get_oracle(family)


def families() -> tuple[str, ...]:
    """All registered family names, sorted."""
    return tuple(sorted(REGISTRY))


def broadcast_families() -> tuple[str, ...]:
    return tuple(
        sorted(f for f, o in REGISTRY.items() if o.semantics == "broadcast")
    )


def collective_families() -> tuple[str, ...]:
    return tuple(
        sorted(f for f, o in REGISTRY.items() if o.semantics != "broadcast")
    )


# ----------------------------------------------------------- registrations


def _any(n: int, m: int, lam: Time) -> bool:
    return True


def _single_message(n: int, m: int, lam: Time) -> bool:
    return m == 1


def _dtree_keys(shape: "DTreeShape | int"):
    return lambda n, m, lam, scale: _compile_dtree(
        n, m, lam, scale, resolve_degree(shape, n, lam)
    )


def _dtree(
    family: str,
    citation: str,
    shape: "DTreeShape | int",
    *,
    exact: bool = False,
    applicable: Callable[[int, int, Time], bool] = _any,
) -> Oracle:
    """A DTREE entry over a named *shape* or an explicit degree."""

    def degree(n: int, lam: Time) -> int:
        return shape.degree(n, lam) if isinstance(shape, DTreeShape) else shape

    return Oracle(
        family=family,
        citation=citation,
        exact=exact,
        semantics="broadcast",
        applicable=applicable,
        time=lambda n, m, lam: dtree_upper(n, m, lam, degree(n, lam)),
        protocol=lambda n, m, lam: DTreeProtocol(n, m, lam, shape),
        keys=_dtree_keys(shape),
        schedule=lambda n, m, lam: dtree_schedule(
            n, m, lam, shape, validate=False
        ),
    )


register(
    Oracle(
        family="BCAST",
        citation="Theorem 6",
        exact=True,
        semantics="broadcast",
        applicable=_single_message,
        time=lambda n, m, lam: bcast_time(n, lam),
        protocol=lambda n, m, lam: BcastProtocol(n, lam),
        keys=_compile_bcast,
        schedule=lambda n, m, lam: bcast_schedule(n, lam, validate=False),
    )
)

register(
    Oracle(
        family="REPEAT",
        citation="Lemma 10 / Corollary 11",
        exact=True,
        semantics="broadcast",
        applicable=_any,
        time=repeat_time,
        protocol=lambda n, m, lam: RepeatProtocol(n, m, lam),
        keys=_compile_repeat,
        schedule=lambda n, m, lam: repeat_schedule(n, m, lam, validate=False),
    )
)

register(
    Oracle(
        family="PACK",
        citation="Lemma 12 / Corollary 13",
        exact=True,
        semantics="broadcast",
        applicable=_any,
        time=pack_time,
        protocol=lambda n, m, lam: PackProtocol(n, m, lam),
        keys=_compile_pack,
        schedule=lambda n, m, lam: pack_schedule(n, m, lam, validate=False),
    )
)

register(
    Oracle(
        family="PIPELINE-1",
        citation="Lemma 14 / Corollary 15",
        exact=True,
        semantics="broadcast",
        applicable=lambda n, m, lam: m <= lam,
        time=pipeline_time,
        protocol=lambda n, m, lam: PipelineProtocol(n, m, lam),
        keys=_compile_pipeline,
        schedule=lambda n, m, lam: pipeline_schedule(n, m, lam, validate=False),
    )
)

register(
    Oracle(
        family="PIPELINE-2",
        citation="Lemma 16 / Corollary 17",
        exact=True,
        semantics="broadcast",
        applicable=lambda n, m, lam: m >= lam,
        time=pipeline_time,
        protocol=lambda n, m, lam: PipelineProtocol(n, m, lam),
        keys=_compile_pipeline,
        schedule=lambda n, m, lam: pipeline_schedule(n, m, lam, validate=False),
    )
)

register(
    _dtree(
        "DTREE-LINE", "Lemma 18 (d = 1, exact)", DTreeShape.LINE, exact=True
    )
)

register(
    _dtree(
        "DTREE-BINARY",
        "Lemma 18 (d = 2, upper bound)",
        DTreeShape.BINARY,
        applicable=lambda n, m, lam: n >= 2,
    )
)

register(
    _dtree(
        "DTREE-LATENCY",
        "Lemma 18 (d = ceil(lambda)+1, upper bound)",
        DTreeShape.LATENCY,
        applicable=lambda n, m, lam: (
            n >= 2 and DTreeShape.LATENCY.degree(n, lam) <= n - 1
        ),
    )
)

register(
    Oracle(
        family="STAR",
        citation="Section 4.3 (d = n-1)",
        exact=True,
        semantics="broadcast",
        applicable=_any,
        time=star_time,
        protocol=lambda n, m, lam: StarProtocol(n, m, lam),
        keys=_dtree_keys(DTreeShape.STAR),
        schedule=lambda n, m, lam: dtree_schedule(
            n, m, lam, DTreeShape.STAR, validate=False
        ),
    )
)

register(
    Oracle(
        family="BINOMIAL",
        citation="telephone-model baseline (Section 1)",
        exact=True,
        semantics="broadcast",
        applicable=_single_message,
        time=lambda n, m, lam: binomial_time(n, lam),
        protocol=lambda n, m, lam: BinomialProtocol(n, lam),
        keys=_compile_binomial,
        schedule=lambda n, m, lam: binomial_schedule(n, lam, validate=False),
    )
)


# collectives — completion certified against the closed form; the port and
# delivery audits still apply, but the broadcast schedule IR does not.
# Their plans use the message index as a data label, so each carries a
# fixed per-n message space: one index per source/destination for the
# personalized shapes, one per rumor for the allgathers and the gossip
# ring, a single logical message for the combine-shaped ones.


def _collective(
    family: str,
    citation: str,
    semantics: str,
    time: Callable[[int, Time], Time],
    protocol: Callable[[int, Time], Protocol],
    keys: Callable[[int, int, Time, int], list[int]],
    messages: Callable[[int], int],
    sends: Callable[[int], int],
    *,
    applicable: Callable[[int, int, Time], bool] = _single_message,
    order_preserving: bool = False,
) -> Oracle:
    """An exact single-message collective, its closed form and protocol
    over ``(n, lambda)``."""
    return Oracle(
        family=family,
        citation=citation,
        exact=True,
        semantics=semantics,
        applicable=applicable,
        time=lambda n, m, lam: time(n, lam),
        protocol=lambda n, m, lam: protocol(n, lam),
        keys=keys,
        order_preserving=order_preserving,
        messages=messages,
        sends=sends,
    )


register(
    _collective(
        "REDUCE", "reversal of Theorem 6 (Cidon-Gopal-Kutten [6])",
        "reduction", reduce_time, ReduceProtocol, _compile_reduce,
        lambda n: 1, lambda n: n - 1,
        applicable=lambda n, m, lam: m == 1 and n >= 1,
        order_preserving=True,
    )
)
register(
    _collective(
        "SCATTER", "Section 5 (direct star, optimal)", "scatter",
        scatter_time, ScatterProtocol, _compile_scatter,
        lambda n: max(1, n - 1), lambda n: n - 1,
    )
)
register(
    _collective(
        "GATHER", "Section 5 (direct, optimal)", "gather",
        gather_time, GatherProtocol, _compile_gather,
        lambda n: max(1, n - 1), lambda n: n - 1,
    )
)
register(
    _collective(
        "ALLTOALL", "Section 5 (rotation, optimal)", "alltoall",
        alltoall_time, AllToAllProtocol, _compile_alltoall,
        lambda n: max(1, n - 1), lambda n: n * (n - 1),
    )
)
register(
    _collective(
        "ALLREDUCE", "combine + broadcast (2x combine LB)", "allreduce",
        allreduce_time, AllreduceProtocol, _compile_combine_bcast,
        lambda n: 1, lambda n: 2 * (n - 1),
    )
)
register(
    _collective(
        "BARRIER", "combine + notify", "barrier",
        barrier_time, BarrierProtocol, _compile_combine_bcast,
        lambda n: 1, lambda n: 2 * (n - 1),
    )
)
register(
    _collective(
        "ALLGATHER", "Section 5 gossip upper bound (gather + PIPELINE)",
        "allgather", allgather_time, AllgatherProtocol, _compile_allgather,
        lambda n: max(1, n), lambda n: n * n - 1,
    )
)
register(
    _collective(
        "BRUCK-ALLGATHER", "Bruck et al. doubling rounds (Section 5 gossip)",
        "allgather", bruck_time, BruckAllgatherProtocol, _compile_bruck,
        lambda n: max(1, n), lambda n: n * (n - 1),
    )
)
register(
    _collective(
        "GOSSIP-RING", "pipelined ring baseline (Section 5 gossip)",
        "gossip", gossip_ring_time, GossipRingProtocol, _compile_gossip,
        lambda n: max(1, n), lambda n: n * (n - 1),
    )
)
