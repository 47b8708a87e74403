"""The broadcast and collective recurrences, compiled in integer ticks.

This module is the **only** implementation of every schedule family's
recurrence — BCAST's generalized-Fibonacci split (Section 3), REPEAT's
overlapped iterations (Lemma 10), PACK's normalized latency (Lemma 12),
PIPELINE's role swap (Lemmas 14/16), DTREE's event-driven drain
(Section 4.3), the STAR and BINOMIAL baselines, and the nine collective
shapes (gather/scatter stars, the alltoall rotation, the reversed-tree
combine compositions, the gather+pipeline and Bruck allgathers, the
gossip ring).  Each compiler works at an integer tick ``scale`` (ticks
per time unit) and emits one packed integer key per send:

* no per-event :class:`~repro.core.schedule.SendEvent` objects,
* no per-event :class:`fractions.Fraction` arithmetic,
* no recursion (explicit worklists throughout — ``n >= 10^6`` never
  touches the recursion limit),
* one C-speed ``list.sort`` of packed integer keys instead of a
  ``Fraction``-comparing event sort.

Two views decode the keys.  :func:`compile_plan` stores them as the
``int64`` columns of a :class:`~repro.plan.columns.SchedulePlan`, whose
tick scale is capped at :data:`~repro.turbo.ticks.MAX_SCALE`.
:func:`compile_schedule` — what the ``repro.core`` and
``repro.algorithms`` builders call — decodes them straight into
``SendEvent`` objects at lambda's own denominator, with no cap, so every
rational lambda (binary floats such as ``2.1`` included) builds.  The
independent witnesses are the event-driven protocols on the exact
engine, the closed-form oracles and the :mod:`repro.core.optimal` DP.

Split points ``j = F_lambda(f_lambda(size) - 1)`` come from
:class:`~repro.core.fibfunc.IntPrefix`, the ``F_lambda`` jump table
tabulated directly in ticks at lambda's denominator, with a per-size
memo — the recursion revisits only ``O(log^2 n)`` distinct subrange
sizes, so split cost vanishes from the profile.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.dtree import DTreeShape, resolve_degree
from repro.core.fibfunc import IntPrefix, postal_f
from repro.core.multi import pipeline_variant
from repro.core.schedule import Schedule, SendEvent
from repro.errors import InvalidParameterError
from repro.plan.columns import SchedulePlan
from repro.turbo.ticks import TickDomain
from repro.types import ZERO, Time, TimeLike, as_time

__all__ = [
    "compile_plan",
    "compile_schedule",
    "canonical_family",
    "plan_families",
    "collective_plan_families",
    "plan_m",
    "plan_sends",
]


def _ticks(scale: int, value: Time) -> int:
    """*value* in ticks (``scale`` per time unit).  Exact: every time a
    compiler converts lies on the grid ``{a + b*lambda}``, which the
    compile scale (lambda's denominator) represents without remainder."""
    ticks, rem = divmod(value.numerator * scale, value.denominator)
    assert not rem, f"{value} is off the 1/{scale} tick grid"
    return ticks


# --------------------------------------------------------------- compilers
#
# Every compiler emits packed keys ((tick*n + sender)*m + msg)*n + receiver
# into a plain list; compile_plan and compile_schedule sort and decode them.


def _bcast_keys(
    keys: list[int],
    sp: IntPrefix,
    lo0: int,
    size0: int,
    t0: int,
    one: int,
    lam_ticks: int,
    n: int,
    m: int,
    msg: int,
) -> None:
    """Algorithm BCAST over ``lo0 .. lo0+size0-1`` in ticks, first send at
    tick ``t0``, message index ``msg`` (shared by BCAST and REPEAT)."""
    if size0 <= 1:
        return
    split = sp.split
    append = keys.append
    nm = n * m
    stack = [(lo0, size0, t0)]
    push = stack.append
    pop = stack.pop
    while stack:
        lo, size, t = pop()
        if size == 1:
            continue
        j = split(size)
        append((t * nm + lo * m + msg) * n + lo + j)
        push((lo, j, t + one))
        push((lo + j, size - j, t + lam_ticks))


def _compile_bcast(n: int, m: int, lam: Time, scale: int) -> list[int]:
    if m != 1:
        raise InvalidParameterError(
            f"BCAST broadcasts a single message; got m={m} "
            "(use REPEAT/PACK/PIPELINE for m > 1)"
        )
    keys: list[int] = []
    if n >= 2:
        sp = IntPrefix(lam, n)
        _bcast_keys(
            keys, sp, 0, n, 0, scale, _ticks(scale, lam), n, 1, 0
        )
    return keys


def _compile_repeat(n: int, m: int, lam: Time, scale: int) -> list[int]:
    keys: list[int] = []
    if n >= 2:
        sp = IntPrefix(lam, n)
        one = scale
        lam_ticks = _ticks(scale, lam)
        # iteration stride f_lambda(n) - (lambda - 1), exact (Lemma 10)
        stride = _ticks(scale, postal_f(lam, n) - (lam - 1))
        for i in range(m):
            _bcast_keys(keys, sp, 0, n, i * stride, one, lam_ticks, n, m, i)
    return keys


def _compile_pack(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """PACK: run the abstract BCAST recursion with normalized latency
    ``lambda' = 1 + (lambda-1)/m`` at the finer scale ``q*m`` (q =
    ``scale``), where one abstract unit is ``q*m`` ticks and
    ``lambda'`` is ``q*m + (p - q)`` ticks.  An abstract send at ``t'``
    unpacks into unit sends at real times ``m*t' + k``; since ``(m*t') *
    q == t' * (q*m)``, the abstract tick value *is* the real tick of the
    pack's first unit — ``k``-th unit at ``tick + k*q``, exactly."""
    keys: list[int] = []
    if n < 2:
        return keys
    q = scale
    lam_packed = 1 + (lam - 1) / m
    sp = IntPrefix(lam_packed, n)
    one_abs = q * m
    lam_abs = one_abs + (_ticks(scale, lam) - q)  # lambda' at scale q*m
    split = sp.split
    append = keys.append
    nm = n * m
    stack = [(0, n, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        lo, size, t = pop()
        if size == 1:
            continue
        j = split(size)
        r = lo + j
        base = t * nm + lo * m
        for k in range(m):
            append((base + k * q * nm + k) * n + r)
        push((lo, j, t + one_abs))
        push((r, size - j, t + lam_abs))
    return keys


def _compile_pipeline(
    n: int, m: int, lam: Time, scale: int, t0: int = 0
) -> list[int]:
    """PIPELINE: after a stream transmission at tick ``t`` the sender is
    free at ``t + m`` and the recipient at ``t + lambda``; whoever is free
    earlier takes the larger ``F_{lambda'}`` subrange (``lambda' =
    lambda/m`` or ``m/lambda`` — the Lemma 14/16 role swap).  ``t0``
    offsets the whole stream (the ALLGATHER compiler starts it after the
    gather phase)."""
    keys: list[int] = []
    if n < 2:
        return keys
    sender_first = m <= lam
    lam_p = (lam / m) if sender_first else (Time(m) / lam)
    sp = IntPrefix(lam_p, n)
    one = scale
    m_ticks = m * one
    lam_ticks = _ticks(scale, lam)
    split = sp.split
    append = keys.append
    nm = n * m
    stack = [(0, n, t0)]
    push = stack.append
    pop = stack.pop
    while stack:
        lo, size, t = pop()
        if size == 1:
            continue
        j = split(size)
        if sender_first:
            keep, give = j, size - j
        else:
            keep, give = size - j, j
        v = lo + keep
        base = t * nm + lo * m
        for k in range(m):
            append((base + k * one * nm + k) * n + v)
        push((lo, keep, t + m_ticks))
        push((v, give, t + lam_ticks))
    return keys


def _compile_binomial(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """BINOMIAL: the telephone-era binomial split in ticks (the sender
    keeps the low ``size - half`` ranks, hands the top ``half`` — the
    largest power of two below ``size`` — to ``base + size - half``; the
    recipient forwards from arrival, ``t + lambda``)."""
    if m != 1:
        raise InvalidParameterError(
            f"BINOMIAL broadcasts a single message; got m={m} "
            "(use REPEAT/PACK/PIPELINE for m > 1)"
        )
    keys: list[int] = []
    append = keys.append
    one = scale
    lam_ticks = _ticks(scale, lam)
    stack: list[tuple[int, int, int]] = [(0, n, 0)]
    while stack:
        base, size, t = stack.pop()
        if size == 1:
            continue
        half = 1
        while half * 2 < size:
            half *= 2
        j = size - half
        append((t * n + base) * n + (base + j))  # m = 1: msg index 0
        stack.append((base, j, t + one))
        stack.append((base + j, half, t + lam_ticks))
    return keys


def _compile_dtree(
    n: int, m: int, lam: Time, scale: int, d: int
) -> list[int]:
    """DTREE: the deterministic event-driven drain of Section 4.3 over the
    BFS-numbered degree-``d`` tree, in ticks — the fixed point of
    per-node FIFO send queues, message-major, children left to right."""
    keys: list[int] = []
    if n < 2:
        return keys
    one = scale
    lam_ticks = _ticks(scale, lam)
    append = keys.append
    nm = n * m
    step = one * nm  # key increment for one send-port unit
    # arrival tick of message k at node v, flat at v*m + k; BFS numbering
    # writes every parent before its children read.
    arrival = [0] * (n * m)
    for v in range(n):
        first = d * v + 1
        if first >= n:
            continue
        last = min(first + d, n)
        port_free = 0
        base_v = v * m
        for k in range(m):
            ready = arrival[base_v + k]
            if port_free > ready:
                t = port_free
            else:
                t = ready
            row = t * nm + base_v + k
            for c in range(first, last):
                append(row * n + c)
                t += one
                row += step
                arrival[c * m + k] = t - one + lam_ticks
            port_free = t
    return keys


# ------------------------------------------------------------- collectives
#
# The collective compilers mirror the static builders in
# ``repro.collectives`` (gather_schedule, bruck_schedule, ...): same
# shapes, same message-index conventions, in pure integer ticks.  Their
# message flow is not single-root broadcast, so ``compile_plan`` audits
# them with :meth:`SchedulePlan.audit_ports` instead of the broadcast
# :meth:`~repro.plan.columns.SchedulePlan.audit`.


def _compile_gather(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """GATHER: ``p_i`` sends message ``i - 1`` straight to the root at
    tick ``i - 1`` — the root's receive port serializes perfectly."""
    one = scale
    nm = n * m
    return [
        ((i - 1) * one * nm + i * m + (i - 1)) * n for i in range(1, n)
    ]


def _compile_scatter(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """SCATTER: the root sends message ``i - 1`` to ``p_i`` at tick
    ``i - 1`` (the mirror image of GATHER)."""
    one = scale
    nm = n * m
    return [((i - 1) * one * nm + (i - 1)) * n + i for i in range(1, n)]


def _compile_alltoall(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """ALLTOALL: rotation round ``r`` at tick ``r`` — ``p_i`` sends
    message ``r`` to ``p_{(i+r+1) mod n}``."""
    one = scale
    nm = n * m
    return [
        (r * one * nm + i * m + r) * n + (i + r + 1) % n
        for r in range(n - 1)
        for i in range(n)
    ]


def _compile_reduce(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """REDUCE: the time-reversed BCAST tree — each forward send
    ``(t, s -> r)`` becomes ``(f_lambda(n) - t - lambda, r -> s)``."""
    fwd = _compile_bcast(n, 1, lam, scale)
    if not fwd:
        return fwd
    lam_ticks = _ticks(scale, lam)
    max_t = _ticks(scale, postal_f(lam, n)) - lam_ticks
    keys = []
    for key in fwd:
        key, r = divmod(key, n)
        t, s = divmod(key, n)  # m == 1: the msg digit is zero
        keys.append(((max_t - t) * n + r) * n + s)
    return keys


def _compile_combine_bcast(
    n: int, m: int, lam: Time, scale: int
) -> list[int]:
    """ALLREDUCE / BARRIER: the reversed tree up (combine), then BCAST
    itself shifted by ``f_lambda(n)`` (the result / release down) — total
    ``2 f_lambda(n)``."""
    keys = _compile_reduce(n, m, lam, scale)
    if keys:
        shift = _ticks(scale, postal_f(lam, n)) * n * n
        keys.extend(key + shift for key in _compile_bcast(n, 1, lam, scale))
    return keys


def _compile_allgather(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """ALLGATHER: gather (rumor ``i`` to the root at tick ``i - 1``) then
    the ``m = n`` PIPELINE stream started at ``max(n-1, lambda-1)``."""
    keys: list[int] = []
    if n < 2:
        return keys
    one = scale
    nm = n * m
    keys.extend(
        ((i - 1) * one * nm + i * m + i) * n for i in range(1, n)
    )
    t0 = max((n - 1) * one, _ticks(scale, lam) - one)
    keys.extend(_compile_pipeline(n, n, lam, scale, t0))
    return keys


def _compile_bruck(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """BRUCK-ALLGATHER: doubling rounds of cyclic-shift blocks; round
    ``r+1`` starts the tick the previous block's last rumor lands."""
    keys: list[int] = []
    if n < 2:
        return keys
    one = scale
    lam_ticks = _ticks(scale, lam)
    nm = n * m
    append = keys.append
    t = 0
    step = 1
    while step < n:
        size = min(step, n - step)
        for i in range(n):
            dst = (i - step) % n
            base = t * nm + i * m
            for offset in range(size):
                append((base + offset * one * nm + (i + offset) % n) * n + dst)
        t += (size - 1) * one + lam_ticks
        step *= 2
    return keys


def _compile_gossip(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """GOSSIP-RING: at step ``k`` (tick ``k*lambda``) ``p_i`` forwards
    rumor ``(i - k) mod n`` to its ring successor."""
    keys: list[int] = []
    if n < 2:
        return keys
    lam_ticks = _ticks(scale, lam)
    nm = n * m
    keys.extend(
        (k * lam_ticks * nm + i * m + (i - k) % n) * n + (i + 1) % n
        for k in range(n - 1)
        for i in range(n)
    )
    return keys


# ----------------------------------------------------------------- registry

_BUILDER_FAMILIES = (
    "BCAST",
    "BINOMIAL",
    "PACK",
    "PIPELINE-1",
    "PIPELINE-2",
    "REPEAT",
)

#: Collective family -> (compiler, message-count rule, send-count rule).
#: The message rule maps ``n`` to the plan's message-index space:
#: personalized collectives use one index per source/destination,
#: allgathers one per rumor, and the combine-shaped ones a single
#: logical message.  The send rule is the plan's length at ``n >= 1``.
_COLLECTIVE_COMPILERS = {
    "ALLGATHER": (_compile_allgather, lambda n: max(1, n), lambda n: n * n - 1),
    "ALLREDUCE": (_compile_combine_bcast, lambda n: 1, lambda n: 2 * (n - 1)),
    "ALLTOALL": (_compile_alltoall, lambda n: max(1, n - 1), lambda n: n * (n - 1)),
    "BARRIER": (_compile_combine_bcast, lambda n: 1, lambda n: 2 * (n - 1)),
    "BRUCK-ALLGATHER": (_compile_bruck, lambda n: max(1, n), lambda n: n * (n - 1)),
    "GATHER": (_compile_gather, lambda n: max(1, n - 1), lambda n: n - 1),
    "GOSSIP-RING": (_compile_gossip, lambda n: max(1, n), lambda n: n * (n - 1)),
    "REDUCE": (_compile_reduce, lambda n: 1, lambda n: n - 1),
    "SCATTER": (_compile_scatter, lambda n: max(1, n - 1), lambda n: n - 1),
}
_DTREE_SHAPES = {
    "DTREE-LINE": DTreeShape.LINE,
    "DTREE-BINARY": DTreeShape.BINARY,
    "DTREE-LATENCY": DTreeShape.LATENCY,
    "STAR": DTreeShape.STAR,
}


def plan_families() -> tuple[str, ...]:
    """Canonical *broadcast* family names the plan layer can compile,
    sorted.

    ``DTREE-<d>`` with an explicit integer degree is accepted too (e.g.
    ``"DTREE-7"``); ``"PIPELINE"`` resolves to the applicable variant.
    The collective shapes are listed separately by
    :func:`collective_plan_families` (their plans audit ports only, not
    broadcast coverage).
    """
    return tuple(sorted((*_BUILDER_FAMILIES, *_DTREE_SHAPES)))


def collective_plan_families() -> tuple[str, ...]:
    """Canonical collective family names the plan layer can compile,
    sorted — the nine shapes of :mod:`repro.collectives`."""
    return tuple(sorted(_COLLECTIVE_COMPILERS))


def plan_m(family: str, n: int, m: int) -> int:
    """The message count a compiled plan for *family* actually carries.

    Broadcast families pass ``m`` through.  The collectives are all
    single-message *protocols* (``m == 1`` in oracle terms) but their
    plans use the message index as a data label — destination rank for
    GATHER/SCATTER/ALLTOALL, rumor index for the allgathers and the
    gossip ring, 0 for the combine-shaped ones — so their plans carry a
    fixed per-``n`` message space regardless of the requested ``m``.
    :meth:`PlanCache.key <repro.plan.cache.PlanCache.key>` canonicalizes
    through this function, so ``build_plan("GATHER", n, 1, lam)`` and the
    plan it stores (``m = n - 1``) share one cache entry.

    Raises:
        InvalidParameterError: *m* is neither 1 nor the family's plan
            message count.
    """
    entry = _COLLECTIVE_COMPILERS.get(family.upper())
    if entry is None:
        return m
    m_eff = entry[1](n)
    if m not in (1, m_eff):
        raise InvalidParameterError(
            f"{family.upper()} is a single-message collective; its plan "
            f"at n={n} carries m={m_eff} message indices (got m={m})"
        )
    return m_eff


def plan_sends(family: str, n: int, m: int) -> int:
    """The number of sends the plan for canonical *family* at ``(n, m)``
    carries, without compiling it (``m`` as :func:`plan_m` returns it).

    A broadcast delivers each of its ``m`` messages to each of the
    ``n - 1`` other processors exactly once; a collective's count is its
    shape's closed form.  ``run_batch`` balances its shards on this.
    """
    if n < 2:
        return 0
    entry = _COLLECTIVE_COMPILERS.get(family)
    if entry is None:
        return m * (n - 1)
    return entry[2](n)


def canonical_family(family: str, n: int, m: int, lam: TimeLike) -> str:
    """Normalize *family* to its canonical compiled name.

    ``"PIPELINE"`` picks the variant by ``m`` vs ``lambda`` (Lemma 14 vs
    16); named DTREE shapes and ``STAR`` stay symbolic (their canonical
    name is the alias itself, since e.g. DTREE-LATENCY's degree depends
    on ``lambda``).  Case-insensitive.

    Raises:
        InvalidParameterError: unknown family.
    """
    fam = family.upper()
    if fam == "PIPELINE":
        return pipeline_variant(m, as_time(lam))
    if (
        fam in _BUILDER_FAMILIES
        or fam in _DTREE_SHAPES
        or fam in _COLLECTIVE_COMPILERS
    ):
        return fam
    if fam.startswith("DTREE-"):
        try:
            int(fam[6:])
        except ValueError:
            raise InvalidParameterError(
                f"unknown DTREE shape {family!r} (named shapes: DTREE-LINE, "
                "DTREE-BINARY, DTREE-LATENCY, STAR; or DTREE-<d>)"
            ) from None
        return fam
    raise InvalidParameterError(
        f"unknown family {family!r} (broadcast: "
        f"{', '.join(plan_families())}, DTREE-<d>; collective: "
        f"{', '.join(collective_plan_families())})"
    )


def _resolve(family: str, n: int, m: int, lam: TimeLike) -> tuple[str, Time]:
    """Check ``(n, m, lambda)`` against the postal model and canonicalize
    *family* — the parameter contract :func:`compile_plan` and
    :func:`compile_schedule` share."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 processors, got {n}")
    if m < 1:
        raise InvalidParameterError(f"need m >= 1 messages, got {m}")
    lam = as_time(lam)
    if lam < 1:
        raise InvalidParameterError(
            f"the postal model requires lambda >= 1, got {lam}"
        )
    return canonical_family(family, n, m, lam), lam


def _broadcast_keys(fam: str, n: int, m: int, lam: Time, scale: int) -> list[int]:
    """The packed keys of broadcast family *fam* (canonical) at *scale*."""
    if fam == "BCAST":
        return _compile_bcast(n, m, lam, scale)
    if fam == "REPEAT":
        return _compile_repeat(n, m, lam, scale)
    if fam == "PACK":
        return _compile_pack(n, m, lam, scale)
    if fam.startswith("PIPELINE"):
        return _compile_pipeline(n, m, lam, scale)
    if fam == "BINOMIAL":
        return _compile_binomial(n, m, lam, scale)
    shape = _DTREE_SHAPES.get(fam, None)
    if shape is None:  # DTREE-<d> with an explicit degree
        shape = int(fam[6:])
    return _compile_dtree(n, m, lam, scale, resolve_degree(shape, n, lam))


def compile_plan(
    family: str,
    n: int,
    m: int,
    lam: TimeLike,
    *,
    validate: bool = False,
) -> SchedulePlan:
    """Compile ``(family, n, m, lambda)`` into a columnar
    :class:`~repro.plan.columns.SchedulePlan`.

    Pure integer-tick construction, iterative and allocation-light.  The
    plan's ``int64`` tick columns cap the scale at
    :data:`~repro.turbo.ticks.MAX_SCALE`; :func:`compile_schedule` runs
    the same compilers uncapped for the event-object builders.

    Args:
        family: one of :func:`plan_families`,
            :func:`collective_plan_families`, ``"PIPELINE"``, or
            ``"DTREE-<d>"`` with an explicit degree.  Collective plans
            carry ``m = plan_m(family, n, 1)`` message indices and
            compare byte-identically to the matching
            ``repro.collectives`` static builder.
        validate: run the in-place columnar
            :meth:`~repro.plan.columns.SchedulePlan.audit` (broadcast
            families) or :meth:`~repro.plan.columns.SchedulePlan.
            audit_ports` (collectives) before returning (off by default
            — the event-driven protocols, the oracles and the
            conformance suite check the compilers independently).

    Raises:
        InvalidParameterError: unknown family, or parameters outside the
            family's domain (e.g. BCAST with ``m != 1``).
        TickDomainError: ``lambda``'s denominator exceeds the supported
            tick scale.
    """
    fam, lam = _resolve(family, n, m, lam)
    domain = TickDomain.for_values([lam])

    entry = _COLLECTIVE_COMPILERS.get(fam)
    if entry is not None:
        compiler = entry[0]
        m_eff = plan_m(fam, n, m)
        keys = compiler(n, m_eff, lam, domain.scale)
        plan = SchedulePlan.from_sorted_keys(fam, n, m_eff, lam, domain, keys)
        if validate:
            plan.audit_ports()
        return plan

    keys = _broadcast_keys(fam, n, m, lam, domain.scale)
    plan = SchedulePlan.from_sorted_keys(fam, n, m, lam, domain, keys)
    if validate:
        plan.audit()
    return plan


def compile_schedule(
    family: str,
    n: int,
    m: int,
    lam: TimeLike,
    *,
    validate: bool = False,
) -> Schedule:
    """Compile a *broadcast* family straight into an event-object
    :class:`~repro.core.schedule.Schedule`.

    The constructor behind every static broadcast builder
    (:func:`~repro.core.bcast.bcast_schedule`, the multi-message, DTREE,
    STAR and BINOMIAL builders).  It runs the :func:`compile_plan`
    compilers at lambda's own denominator with no tick-scale cap — so a
    binary float such as ``2.1`` (denominator ``2**51``) builds exactly —
    and decodes the sorted keys directly into
    :class:`~repro.core.schedule.SendEvent` objects.

    Args:
        family: one of :func:`plan_families`, ``"PIPELINE"``, or
            ``"DTREE-<d>"``.
        validate: run :meth:`Schedule.validate
            <repro.core.schedule.Schedule.validate>` on the result.

    Raises:
        InvalidParameterError: unknown or collective family, or
            parameters outside the family's domain.
    """
    fam, lam = _resolve(family, n, m, lam)
    if fam in _COLLECTIVE_COMPILERS:
        raise InvalidParameterError(
            f"{fam} is a collective; schedules build for the broadcast "
            f"families only ({', '.join(plan_families())}, DTREE-<d>)"
        )
    scale = lam.denominator
    keys = _broadcast_keys(fam, n, m, lam, scale)
    keys.sort()
    events: list[SendEvent] = []
    append = events.append
    # the keys are sorted, so equal ticks are adjacent: one Fraction each
    tick: int | None = None
    time = ZERO
    for key in keys:
        key, r = divmod(key, n)
        key, k = divmod(key, m)
        t, s = divmod(key, n)
        if t != tick:
            tick, time = t, Fraction(t, scale)
        append(SendEvent(time, s, k, r))
    return Schedule(n, lam, events, m=m, validate=validate)
