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
* each distinct piece of a schedule computed once: the split families
  expand the first subrange of each size and copy every later one as a
  key slice plus one integer, and DTREE emits its drain's closed-form
  lattice, one slice of offsets per node,
* one C-speed ``list.sort`` of packed integer keys instead of a
  ``Fraction``-comparing event sort.

The compilers are reached through the family table,
:data:`repro.conformance.oracles.REGISTRY`: each entry carries its
compiler (``keys``) and its plan's message-count and send-count rules,
and :func:`compile_plan`, :func:`compile_schedule`,
:func:`canonical_family`, :func:`plan_m` and :func:`plan_sends` resolve
family names through
:func:`~repro.conformance.oracles.resolve_oracle`.  This module lists
no families.

Two views decode the same keys, both compiled at lambda's own
denominator.  :func:`compile_plan` stores them as the ``int64`` columns
of a :class:`~repro.plan.columns.SchedulePlan`, which refuses a tick
past int64 (:class:`~repro.errors.TickDomainError`).
:func:`compile_schedule` — what the ``repro.core`` and
``repro.algorithms`` builders call — decodes them in pure Python into a
:class:`~repro.core.schedule.Schedule`, which holds such ticks as
Python ints and builds its ``SendEvent`` objects only when read.  The
independent witnesses are the event-driven protocols on the exact
engine, the closed-form oracles and the :mod:`repro.core.optimal` DP.

Split points ``j = F_lambda(f_lambda(size) - 1)`` come from
:class:`~repro.core.fibfunc.IntPrefix`, the ``F_lambda`` jump table
tabulated directly in ticks at lambda's denominator.  BCAST, REPEAT,
PACK, PIPELINE and BINOMIAL share one depth-first worklist
(:func:`_split_keys`), which asks for a split point once per distinct
subrange size — ``O(log^2 n)`` of them for BCAST, 55 at ``n = 10^5``
and ``lambda = 5/2`` — so what is left of a compile is about one
integer add per key and the sort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.fibfunc import IntPrefix, postal_f
from repro.core.schedule import Schedule
from repro.errors import InvalidParameterError
from repro.plan.columns import SchedulePlan, _decode_keys
from repro.turbo.ticks import TickDomain
from repro.types import Time, TimeLike, as_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.conformance.oracles import Oracle

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


def _split_keys(
    n: int,
    m: int,
    t0: int,
    keep_of: Callable[[int], int],
    keep_ticks: int,
    give_ticks: int,
    row: tuple[int, ...] = (0,),
) -> list[int]:
    """The packed keys of a split recurrence over processors ``0 ..
    n-1``, first send at tick ``t0`` (message index 0).

    A subrange ``(lo, size, t)`` with ``size >= 2`` keeps its low ``keep =
    keep_of(size)`` ranks: ``lo`` sends to ``lo + keep`` at tick ``t`` —
    one key per entry of ``row``, each an offset from the first send's
    key — then ``lo`` serves ``(lo, keep, t + keep_ticks)`` and ``lo +
    keep`` serves ``(lo + keep, size - keep, t + give_ticks)``.  BCAST,
    REPEAT, PACK, PIPELINE and BINOMIAL are this recurrence with their own
    ``keep_of``, tick steps and row.

    **Each size is expanded once.**  A subrange's sends depend on its size
    alone, and a packed key ``t*n*m*n + s*m*n + k*n + r`` is linear in
    tick, sender and receiver: moving a subrange by ``dlo`` processors
    and ``dt`` ticks adds ``dlo*(m*n + 1) + dt*n*m*n`` to each of its
    keys.  So the first subrange of a size is expanded, and every later
    one is that subrange's key slice plus one integer — ``keep_of`` runs
    once per distinct size (``O(log^2 n)`` of them for BCAST), and the
    keys are copied at C speed.

    **Each key is emitted once.**  The worklist is depth-first, so an
    expanded subrange's keys — its own sends and all its descendants',
    expanded or copied — are appended as one contiguous slice of
    ``(size - 1) * len(row)`` keys from the index where its expansion
    began.  Every subrange still open when another is popped is an
    ancestor of it, hence strictly larger, so a size found in the memo
    always names a complete slice.  The memo lives for this call only.
    """
    if n < 2:
        return []
    keys: list[int] = []
    append = keys.append
    extend = keys.extend
    per = len(row)
    lo_unit = m * n + 1  # key step of one processor (sender and receiver)
    t_unit = n * m * n  # key step of one tick
    memo: dict[int, tuple[int, int]] = {}  # size -> (first key index, origin)
    stack = [(0, n, t0)]
    push = stack.append
    pop = stack.pop
    while stack:
        lo, size, t = pop()
        origin = lo * lo_unit + t * t_unit
        hit = memo.get(size)
        if hit is not None:
            a, first = hit
            delta = origin - first
            extend([key + delta for key in keys[a : a + (size - 1) * per]])
            continue
        memo[size] = (len(keys), origin)
        keep = keep_of(size)
        key = origin + keep  # lo -> lo + keep at tick t, message 0
        if per == 1:
            append(key)
        else:
            extend([key + offset for offset in row])
        if keep > 1:
            push((lo, keep, t + keep_ticks))
        if size - keep > 1:
            push((lo + keep, size - keep, t + give_ticks))
    return keys


def _compile_bcast(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """BCAST: Lemma 3's split ``j = F_lambda(f_lambda(size) - 1)``; the
    sender keeps ``j`` ranks and is free one unit later, the recipient
    serves the rest from arrival, ``t + lambda``."""
    if m != 1:
        raise InvalidParameterError(
            f"BCAST broadcasts a single message; got m={m} "
            "(use REPEAT/PACK/PIPELINE for m > 1)"
        )
    split = IntPrefix(lam, n).split
    return _split_keys(n, 1, 0, split, scale, _ticks(scale, lam))


def _compile_repeat(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """REPEAT: ``m`` BCAST iterations, message ``i`` started at ``i``
    strides of ``f_lambda(n) - (lambda - 1)`` (Lemma 10).  Iteration ``i``
    is iteration 0 moved by ``i`` strides and ``i`` message indices, so
    its keys are iteration 0's plus ``i * (stride*n*m*n + n)``."""
    if n < 2:
        return []
    split = IntPrefix(lam, n).split
    keys = _split_keys(n, m, 0, split, scale, _ticks(scale, lam))
    stride = _ticks(scale, postal_f(lam, n) - (lam - 1))
    step = stride * n * m * n + n
    keys += [key + delta for delta in range(step, m * step, step) for key in keys]
    return keys


def _compile_pack(n: int, m: int, lam: Time, scale: int) -> list[int]:
    """PACK: run the abstract BCAST recursion with normalized latency
    ``lambda' = 1 + (lambda-1)/m`` at the finer scale ``q*m`` (q =
    ``scale``), where one abstract unit is ``q*m`` ticks and
    ``lambda'`` is ``q*m + (p - q)`` ticks.  An abstract send at ``t'``
    unpacks into unit sends at real times ``m*t' + k``; since ``(m*t') *
    q == t' * (q*m)``, the abstract tick value *is* the real tick of the
    pack's first unit — ``k``-th unit at ``tick + k*q``, exactly."""
    q = scale
    split = IntPrefix(1 + (lam - 1) / m, n).split
    one_abs = q * m
    lam_abs = one_abs + (_ticks(scale, lam) - q)  # lambda' at scale q*m
    unit = q * n * m * n + n  # the next unit: q ticks on, message k + 1
    row = tuple(k * unit for k in range(m))
    return _split_keys(n, m, 0, split, one_abs, lam_abs, row)


def _compile_pipeline(
    n: int, m: int, lam: Time, scale: int, t0: int = 0
) -> list[int]:
    """PIPELINE: after a stream transmission at tick ``t`` the sender is
    free at ``t + m`` and the recipient at ``t + lambda``; whoever is free
    earlier takes the larger ``F_{lambda'}`` subrange (``lambda' =
    lambda/m`` or ``m/lambda`` — the Lemma 14/16 role swap).  ``t0``
    offsets the whole stream (the ALLGATHER compiler starts it after the
    gather phase)."""
    sender_first = m <= lam
    lam_p = (lam / m) if sender_first else (Time(m) / lam)
    split = IntPrefix(lam_p, n).split
    if sender_first:
        keep_of = split
    else:

        def keep_of(size: int) -> int:
            return size - split(size)

    unit = scale * n * m * n + n  # the next message, one tick on
    row = tuple(k * unit for k in range(m))
    return _split_keys(n, m, t0, keep_of, m * scale, _ticks(scale, lam), row)


def _binomial_keep(size: int) -> int:
    """The low ranks a BINOMIAL sender keeps: ``size`` less the largest
    power of two below it."""
    return size - (1 << ((size - 1).bit_length() - 1))


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
    return _split_keys(n, 1, 0, _binomial_keep, scale, _ticks(scale, lam))


def _compile_dtree(
    n: int, m: int, lam: Time, scale: int, d: int
) -> list[int]:
    """DTREE: the event-driven drain of Section 4.3 over the BFS-numbered
    degree-``d`` tree, in ticks, emitted as its closed-form fixed point.

    In time units (``scale`` ticks each): the root has ``c = min(d, n -
    1)`` children and every message on hand, so it sends message ``k``
    to child ``i`` at ``k*c + i``.  No port below the root ever binds:
    if a node's first message arrives at ``start``, message ``k``
    arrives at ``start + k*c``, and the node — at most ``c`` children —
    has forwarded message ``k - 1`` to all of them by ``start + (k-1)*c
    + c``, before message ``k`` lands.  So it forwards each message on
    the tick it arrives: message ``k`` to child ``i`` at ``start + k*c
    + i``, and child ``i``'s first message arrives at ``start + i +
    lambda``.  (By induction down the tree the arrivals are ``c`` apart
    at every node, as they are at the root's children.)  A node's keys
    are thus one ``m x c`` lattice of offsets plus one integer: the
    first arrivals are computed a BFS level at a time, then every full
    node's lattice is emitted in one pass.
    """
    if n < 2:
        return []
    one = scale
    lam_ticks = _ticks(scale, lam)
    c = min(d, n - 1)
    full, rest = divmod(n - 1, c)  # nodes below `full` have c children
    t_unit = n * m * n
    msg_step = c * one * t_unit + n  # message k + 1: c ticks on
    child_step = one * t_unit + 1  # child i + 1: one tick on
    lattice = [k * msg_step + i * child_step for k in range(m) for i in range(c)]
    hops = [lam_ticks + i * one for i in range(c)]
    start = [0]  # tick of each node's first arrival, in BFS order
    lo = 0
    while lo < full:  # the children of one BFS level of full nodes
        hi = min(len(start), full)
        start += [s + hop for s in start[lo:hi] for hop in hops]
        lo = hi
    node_step = m * n + c  # sender v + 1, first child c further
    keys = [
        s * t_unit + v * node_step + 1 + x
        for v, s in enumerate(start[:full])
        for x in lattice
    ]
    if rest:  # the last internal node has fewer than c children
        base = start[full] * t_unit + full * node_step + 1
        keys += [
            base + k * msg_step + i * child_step
            for k in range(m)
            for i in range(rest)
        ]
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


# ------------------------------------------------------------ family table
#
# The table imports this module's compilers, so the functions below look
# it up when called.


def plan_families() -> tuple[str, ...]:
    """Canonical *broadcast* family names the plan layer can compile,
    sorted.

    ``DTREE-<d>`` with an explicit integer degree is accepted too (e.g.
    ``"DTREE-7"``); ``"PIPELINE"`` resolves to the applicable variant.
    The collective shapes are listed separately by
    :func:`collective_plan_families` (their plans audit ports only, not
    broadcast coverage).
    """
    from repro.conformance.oracles import broadcast_families

    return broadcast_families()


def collective_plan_families() -> tuple[str, ...]:
    """Canonical collective family names the plan layer can compile,
    sorted — the nine shapes of :mod:`repro.collectives`."""
    from repro.conformance.oracles import collective_families

    return collective_families()


def _plan_m(oracle: "Oracle | None", n: int, m: int) -> int:
    if oracle is None or oracle.messages is None:
        return m
    m_eff = oracle.messages(n)
    if m not in (1, m_eff):
        raise InvalidParameterError(
            f"{oracle.family} is a single-message collective; its plan "
            f"at n={n} carries m={m_eff} message indices (got m={m})"
        )
    return m_eff


def plan_m(family: str, n: int, m: int) -> int:
    """The message count a compiled plan for *family* actually carries.

    Broadcast families pass ``m`` through.  The collectives are all
    single-message *protocols* (``m == 1`` in oracle terms) but their
    plans use the message index as a data label — destination rank for
    GATHER/SCATTER/ALLTOALL, rumor index for the allgathers and the
    gossip ring, 0 for the combine-shaped ones — so their plans carry a
    fixed per-``n`` message space regardless of the requested ``m``
    (the entry's ``messages`` rule).
    :meth:`PlanCache.key <repro.plan.cache.PlanCache.key>` canonicalizes
    through this function, so ``build_plan("GATHER", n, 1, lam)`` and the
    plan it stores (``m = n - 1``) share one cache entry.

    Raises:
        InvalidParameterError: *m* is neither 1 nor the family's plan
            message count.
    """
    from repro.conformance.oracles import REGISTRY

    return _plan_m(REGISTRY.get(family.upper()), n, m)


def plan_sends(family: str, n: int, m: int) -> int:
    """The number of sends the plan for canonical *family* at ``(n, m)``
    carries, without compiling it (``m`` as :func:`plan_m` returns it).

    A broadcast delivers each of its ``m`` messages to each of the
    ``n - 1`` other processors exactly once; a collective's count is its
    entry's ``sends`` rule.  ``run_batch`` balances its shards on this.
    """
    from repro.conformance.oracles import REGISTRY

    if n < 2:
        return 0
    oracle = REGISTRY.get(family)
    if oracle is None or oracle.sends is None:
        return m * (n - 1)
    return oracle.sends(n)


def canonical_family(family: str, n: int, m: int, lam: TimeLike) -> str:
    """Normalize *family* to its canonical compiled name.

    ``"PIPELINE"`` picks the variant by ``m`` vs ``lambda`` (Lemma 14 vs
    16); named DTREE shapes and ``STAR`` stay symbolic (their canonical
    name is the alias itself, since e.g. DTREE-LATENCY's degree depends
    on ``lambda``); ``DTREE-<d>`` is spelled with its decimal degree.
    Case-insensitive (:func:`~repro.conformance.oracles.resolve_oracle`).

    Raises:
        InvalidParameterError: unknown family.
    """
    from repro.conformance.oracles import resolve_oracle

    return resolve_oracle(family, m, lam).family


def _resolve(
    family: str, n: int, m: int, lam: TimeLike
) -> "tuple[Oracle, Time]":
    """Check ``(n, m, lambda)`` against the postal model and resolve
    *family* to its table entry — the parameter contract
    :func:`compile_plan` and :func:`compile_schedule` share."""
    from repro.conformance.oracles import resolve_oracle

    if n < 1:
        raise InvalidParameterError(f"need n >= 1 processors, got {n}")
    if m < 1:
        raise InvalidParameterError(f"need m >= 1 messages, got {m}")
    lam = as_time(lam)
    if lam < 1:
        raise InvalidParameterError(
            f"the postal model requires lambda >= 1, got {lam}"
        )
    return resolve_oracle(family, m, lam), lam


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

    Pure integer-tick construction, iterative and allocation-light, at
    lambda's own denominator — the scale :func:`compile_schedule` uses
    for the event-object builders.

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
        TickDomainError: a tick does not fit the plan's int64 columns.
    """
    oracle, lam = _resolve(family, n, m, lam)
    domain = TickDomain(lam.denominator)
    m = _plan_m(oracle, n, m)
    keys = oracle.keys(n, m, lam, domain.scale)
    plan = SchedulePlan.from_sorted_keys(oracle.family, n, m, lam, domain, keys)
    if validate:
        if oracle.semantics == "broadcast":
            plan.audit()
        else:
            plan.audit_ports()
    return plan


def compile_schedule(
    family: str,
    n: int,
    m: int,
    lam: TimeLike,
    *,
    validate: bool = False,
) -> Schedule:
    """Compile a *broadcast* family into a
    :class:`~repro.core.schedule.Schedule`.

    The constructor behind every static broadcast builder
    (:func:`~repro.core.bcast.bcast_schedule`, the multi-message, DTREE,
    STAR and BINOMIAL builders).  It runs the :func:`compile_plan`
    compilers at the same scale, lambda's own denominator, and decodes
    the keys with the pure-Python decode
    (:func:`~repro.plan.columns._decode_keys`), so no builder loads
    NumPy; ticks past int64 stay Python ints, where a plan would refuse
    them.  The schedule builds its
    :class:`~repro.core.schedule.SendEvent` objects only when read.

    Args:
        family: one of :func:`plan_families`, ``"PIPELINE"``, or
            ``"DTREE-<d>"``.
        validate: run :meth:`Schedule.validate
            <repro.core.schedule.Schedule.validate>` on the result.

    Raises:
        InvalidParameterError: unknown or collective family, or
            parameters outside the family's domain.
    """
    oracle, lam = _resolve(family, n, m, lam)
    if oracle.semantics != "broadcast":
        raise InvalidParameterError(
            f"{oracle.family} is a collective; schedules build for the "
            f"broadcast families only ({', '.join(plan_families())}, "
            "DTREE-<d>)"
        )
    scale = lam.denominator
    keys = oracle.keys(n, m, lam, scale)
    columns = _decode_keys(keys, n, m, presorted=False)
    return Schedule.from_columns(
        n, lam, scale, *columns, m=m, validate=validate
    )
