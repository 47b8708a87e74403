"""Vectorized plan replay — the top tier of the turbo lane.

``backend="turbo"`` already removes the exact engine's ``Fraction``
clock and resource handshakes, but it still *steps protocol generators*
and dispatches one callback chain per event.  A compiled
:class:`~repro.plan.columns.SchedulePlan` makes all of that unnecessary:
the full send list is known up front, and in a plan replay there is no
feedback from deliveries to sends.  :func:`replay_plan` therefore
executes the plan as a handful of batched column passes — no event
queue, no callbacks, no generators:

1. **Send starts** — one pass over the rows in plan order computes
   ``start = max(tick, send_free[sender])`` and advances the sender's
   port cursor (the per-port prefix-max the event loop performs one pop
   at a time).
2. **Window order** — a stable argsort of the realized starts.  Receive
   windows open at ``start + lambda - 1``; since the offset is constant,
   sorting by start *is* sorting by window, and stability reproduces the
   event loop's ``(window tick, seq)`` tie-breaking exactly.
3. **Receive booking** — one pass in window order updates
   ``recv_free[dst]``: the strict policy detects colliding windows with
   the same sorted duplicate scan the event loop performs (first
   violation in window order raises the byte-identical
   :class:`~repro.errors.SimultaneousIOError`); the queued policy
   serializes FIFO, ``arrival = max(window, recv_free) + 1``.
4. **Audit, metrics and views on the columns** — the audit
   (:meth:`ReplaySystem.audit`: one linear tick sweep plus, for
   broadcasts, the Lemma 5 and Lemma 8 certificates) and the run
   metrics (:meth:`ReplaySystem.run_metrics`, by counting) read the
   ``starts`` / ``arrivals`` arrays directly; completion is the arrival
   maximum.  The realized schedule is a columnar
   :class:`~repro.core.schedule.Schedule` over the same arrays, and its
   events, the port busy intervals and the trace records are
   materialized on demand — the trace on the first read of
   :attr:`ReplaySystem.tracer`.

The result is **byte-identical** to running the same plan through
``SchedulePlan.replay()`` on the turbo event loop: the same realized
schedule, completion time, send count, port busy intervals, trace-record
sequence, and the same exception at the same first collision.
``tests/test_replay_equivalence.py`` pins all of that, plus machine-level
equivalence (schedule / completion / sends) against full ``exact`` and
``turbo`` protocol runs across every registered family.  The metrics
equal a protocol run's except where consumption shows: no program
consumes a delivery in a replay, so ``total_consumed`` is 0,
``max_inbox_wait`` is ``None`` and every inbox high-water mark and
residual equals the processor's receive count
(``tests/test_replay_audit.py``).

When NumPy is installed (the ``repro[speed]`` extra) the three passes
run as whole-column kernels from :mod:`repro.batch.kernels` over
zero-copy views of the plan columns; ``REPRO_NUMPY=off`` (or an absent
NumPy) takes the pure-Python passes below.  The two implementations are
byte-identical — same arrays (the window order included, an
``array('q')`` on both), same first-collision exception — which
``tests/test_batch_differential.py`` pins per family and policy.  With
the kernels on, the audit runs a whole-column accept test before its
sweep (:func:`repro.batch.kernels.audit_accepts`; the sweep still
reports every rejection) and the metrics count with ``np.bincount`` and
``np.unique`` (:func:`repro.batch.kernels.count_columns`);
``tests/test_audit_kernel.py`` pins both against their Python forms.
"""

from __future__ import annotations

import hashlib
from array import array
from operator import sub

from repro.batch.kernels import count_columns, replay_passes

from repro.core.schedule import Schedule
from repro.errors import ModelError, SimultaneousIOError
from repro.obs.metrics import RunMetrics
from repro.postal.machine import ContentionPolicy
from repro.postal.message import Message
from repro.sim.trace import Tracer
from repro.turbo.columnar import PortView, count_metrics, port_views, tally
from repro.turbo.ticks import column_overflow
from repro.types import ProcId, Time, ZERO, time_repr

__all__ = ["ReplaySystem", "replay_plan"]


def replay_plan(plan, *, policy: ContentionPolicy = ContentionPolicy.STRICT):
    """Execute *plan* with batched column passes (no event loop).

    Args:
        plan: a compiled :class:`~repro.plan.columns.SchedulePlan`.
        policy: receive-port contention policy; the strict policy raises
            :class:`~repro.errors.SimultaneousIOError` on the first
            colliding receive window, exactly like the event loop.

    Returns:
        A finished :class:`ReplaySystem` exposing the validator-facing
        surface of :class:`~repro.turbo.fastsim.TurboSystem`.

    Raises:
        TickDomainError: a realized tick does not fit the int64 columns.

    >>> from repro.plan import compile_plan
    >>> system = replay_plan(compile_plan("BCAST", 64, 1, "5/2"))
    >>> system.send_count
    63
    """
    passes = replay_passes(plan, policy)
    if passes is None:
        try:
            passes = _python_passes(plan, policy)
        except OverflowError:  # the kernels decline before they could wrap
            raise column_overflow(plan.domain.scale) from None
    starts, order, arrivals, contended = passes
    system = ReplaySystem(plan, policy, starts, arrivals, order)
    if policy is not ContentionPolicy.STRICT:
        system.queued_contention = contended
    return system


def _python_passes(plan, policy: ContentionPolicy):
    """The three passes in pure Python, returning what
    :func:`~repro.batch.kernels.replay_passes` returns."""
    n = plan.n
    one = plan.domain.scale
    lat = plan.lam_ticks
    plan_ticks = plan.ticks
    senders = plan.senders
    receivers = plan.receivers
    E = len(plan_ticks)

    # pass 1: realized starts (per-sender prefix-max in plan row order,
    # which is the event loop's pop order: rows are tick-sorted and the
    # pre-pushed entries break tick ties by row index)
    starts = array("q", plan_ticks)
    send_free = [0] * n
    for i in range(E):
        s = senders[i]
        t = starts[i]
        f = send_free[s]
        if t < f:
            starts[i] = t = f
        send_free[s] = t + one

    # pass 2: window order (stable by start = stable by window)
    order = sorted(range(E), key=starts.__getitem__)

    # pass 3: receive booking in window order
    arrivals = array("q", bytes(8 * E))
    recv_free = [0] * n
    woff = lat - one
    contended = False
    if policy is ContentionPolicy.STRICT:
        to_time = plan.domain.to_time
        for i in order:
            w = starts[i] + woff
            d = receivers[i]
            if recv_free[d] > w:
                raise SimultaneousIOError(
                    f"p{d}: a message delivery due at t="
                    f"{time_repr(to_time(w))} could not start receiving "
                    f"until t={time_repr(to_time(recv_free[d]))} "
                    f"(simultaneous-I/O violation)"
                )
            due = w + one
            recv_free[d] = due
            arrivals[i] = due
    else:
        for i in order:
            w = starts[i] + woff
            d = receivers[i]
            f = recv_free[d]
            if f <= w:
                due = w + one
            else:
                due = f + one
                contended = True
            recv_free[d] = due
            arrivals[i] = due
    return starts, array("q", order), arrivals, contended


class ReplaySystem:
    """A finished vectorized replay, duck-typing the validator- and
    collector-facing surface of :class:`~repro.turbo.fastsim.TurboSystem`
    (``tracer`` / ``flush_trace`` / ``realized_schedule`` / port views /
    counters), plus the columnar :meth:`audit` and :meth:`run_metrics`
    the ``backend="replay"`` lane uses instead of them.

    There are no protocol programs in a replay, so no messages are ever
    consumed — like ``SchedulePlan.replay()`` on the event loop, every
    delivery stays in its inbox and the trace carries ``send`` and
    ``deliver`` records only.
    """

    __slots__ = (
        "plan",
        "queued_contention",
        "domain",
        "_policy",
        "_one",
        "_starts",
        "_arrivals",
        "_order",
        "_completion",
        "_tracer",
        "_send_views",
        "_recv_views",
    )

    def __init__(self, plan, policy, starts, arrivals, order):
        self.plan = plan
        self.domain = plan.domain
        self._policy = policy
        self._one = plan.domain.scale
        self._starts = starts
        self._arrivals = arrivals
        self._order = order
        self._completion = None
        self._tracer = None
        self._send_views = None
        self._recv_views = None
        #: Whether the queued booking pass had to delay any receive — a
        #: contended plan's replay is still a faithful ``plan.replay()``
        #: but no longer mirrors the (contention-adaptive) protocol run,
        #: so the ``backend="replay"`` wiring refuses it.
        self.queued_contention = False

    # ------------------------------------------------------------ metadata

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def lam(self) -> Time:
        return self.plan.lam

    @property
    def policy(self) -> ContentionPolicy:
        return self._policy

    @property
    def uniform_latency(self) -> bool:
        return True  # plans are compiled for uniform lambda only

    def latency(self, src: ProcId, dst: ProcId) -> Time:
        return self.plan.lam

    # ------------------------------------------------------ fast accessors

    @property
    def send_count(self) -> int:
        return len(self._starts)

    @property
    def completion_time(self) -> Time:
        if self._completion is None:
            arrivals = self._arrivals
            self._completion = (
                self.domain.to_time(max(arrivals)) if arrivals else ZERO
            )
        return self._completion

    def column_digest(self) -> str:
        """SHA-256 over the realized ``starts`` and ``arrivals`` columns
        (hex).  Two replays with equal digests realized byte-identical
        timings — the equality check the batch tier streams back
        instead of the arrays themselves."""
        h = hashlib.sha256()
        h.update(self._starts.tobytes())
        h.update(self._arrivals.tobytes())
        return h.hexdigest()

    def inbox_size(self, proc: ProcId) -> int:
        """Deliveries parked at *proc* (nothing consumes in a replay)."""
        if not 0 <= proc < self.plan.n:
            raise ModelError(f"processor p{proc} outside 0..{self.plan.n - 1}")
        return sum(1 for r in self.plan.receivers if r == proc)

    def realized_schedule(
        self, *, m: int = 1, root: int = 0, validate: bool = False
    ) -> Schedule:
        """The realized :class:`~repro.core.schedule.Schedule` (strict
        policy only, same refusal as the event loop under queued): the
        realized starts and the plan's sender, message and receiver
        columns, handed over without a copy."""
        if self._policy is not ContentionPolicy.STRICT:
            raise ModelError(
                "schedule reconstruction requires the strict contention policy"
            )
        plan = self.plan
        return Schedule.from_columns(
            plan.n, plan.lam, self._one,
            self._starts, plan.senders, plan.msgs, plan.receivers,
            m=m, root=root, validate=validate,
        )

    # ------------------------------------------- audit and metrics, columnar

    def audit(self, *, broadcast: bool = True) -> None:
        """Audit the realized run on its integer columns, with no trace.

        One :func:`~repro.plan.columns.audit_columns` sweep in window
        order, or with NumPy first its whole-column accept test
        (:func:`~repro.plan.columns.accept_or_audit`), checks the postal
        model (Definitions 1-2): ranges,
        ``arrival == start + lambda`` (``>=`` under the queued policy —
        ``run_protocol`` refuses contended queued replays, so its
        replays never arrive late), a one-unit gap between uses of every
        send and receive port, and, for *broadcast* semantics,
        possession, single delivery and full coverage, then the paper's
        certificates, Lemma 5 and Lemma 8.

        Raises:
            ScheduleError: a structural, causality or coverage violation,
                or a failed certificate.
            SimultaneousIOError: two uses of one port overlap.
        """
        # local: repro.plan.columns imports repro.turbo (the tick domain)
        from repro.plan.columns import accept_or_audit

        plan = self.plan
        accept_or_audit(
            plan.senders, plan.msgs, plan.receivers,
            self._starts, self._arrivals, self._order,
            n=plan.n, scale=self._one, lam_ticks=plan.lam_ticks,
            m=plan.m, root=plan.root, broadcast=broadcast,
            queued=self._policy is not ContentionPolicy.STRICT,
        )

    def run_metrics(self) -> RunMetrics:
        """The run's :class:`~repro.obs.metrics.RunMetrics`, counted on the
        columns: by ``np.bincount`` and ``np.unique`` with NumPy
        (:func:`~repro.batch.kernels.count_columns`), else row by row
        (:func:`~repro.turbo.columnar.tally`).  Equal to folding
        :attr:`tracer` through a :class:`~repro.obs.metrics.
        MetricsCollector`, without building it.

        A replay consumes nothing, so inboxes only fill: each high-water
        mark and residual equals the processor's receive count,
        ``total_consumed`` is 0 and ``max_inbox_wait`` is ``None``.
        """
        plan = self.plan
        starts, arrivals = self._starts, self._arrivals
        counts = count_columns(plan.n, plan.senders, plan.receivers, starts, arrivals)
        if counts is None:
            counts = tally(
                plan.n, plan.senders, plan.receivers, map(sub, arrivals, starts)
            )
        return count_metrics(
            plan.n, plan.lam, self.domain, *counts, self.completion_time
        )

    # ------------------------------------------------------ validator views

    @property
    def tracer(self) -> Tracer:
        """The replay's trace, materialized on first read (see
        :meth:`flush_trace`)."""
        return self._trace()

    def flush_trace(self) -> Tracer:
        """Materialize the replay into :attr:`tracer` (idempotent), in the
        byte-identical record order the event loop would produce: entries
        appear in execution order (sends at their plan tick before
        deliveries at the same instant), stable-sorted by record time."""
        return self._trace()

    def _trace(self) -> Tracer:
        # the one builder behind both `tracer` and `flush_trace`, so a
        # wrapper around either may read the other without recursing
        if self._tracer is not None:
            return self._tracer
        tracer = self._tracer = Tracer()
        plan = self.plan
        starts = self._starts
        arrivals = self._arrivals
        order = self._order
        # execution order first: sends execute at their *plan* tick in row
        # order (pre-pushed, seq <= E), deliveries at their arrival in
        # window order (seq > E) — sends win exec-time ties
        items = [(plan.ticks[i], 0, i) for i in range(len(starts))]
        items.extend((arrivals[i], 1, pos) for pos, i in enumerate(order))
        items.sort()
        # then stable-sort by the *record* time (a deferred send is logged
        # at its realized start, not at its plan tick)
        items.sort(
            key=lambda item: (
                starts[item[2]] if item[1] == 0 else arrivals[order[item[2]]]
            )
        )
        emit = tracer.emit
        to_time = self.domain.to_time
        senders, msgs, receivers = plan.senders, plan.msgs, plan.receivers
        for _, cls, o in items:
            if cls == 0:
                emit(
                    to_time(starts[o]),
                    "send",
                    {"src": senders[o], "dst": receivers[o], "msg": msgs[o]},
                )
            else:
                i = order[o]
                record = Message(
                    msgs[i],
                    senders[i],
                    receivers[i],
                    to_time(starts[i]),
                    to_time(arrivals[i]),
                    None,
                )
                emit(record.arrived_at, "deliver", record)
        return tracer

    def _build_port_views(self) -> None:
        plan = self.plan
        one = self._one
        self._send_views = port_views(
            plan.n, self.domain, plan.senders, self._starts
        )
        self._recv_views = port_views(
            plan.n, self.domain, plan.receivers,
            (a - one for a in self._arrivals),
        )

    def send_port(self, proc: ProcId) -> PortView:
        if self._send_views is None:
            self._build_port_views()
        return self._send_views[proc]

    def recv_port(self, proc: ProcId) -> PortView:
        if self._recv_views is None:
            self._build_port_views()
        return self._recv_views[proc]
