"""Optional NumPy kernels: the three replay passes, the plan decode,
and the replay lane's audit accept test and metric counts.

:func:`repro.turbo.replay.replay_plan` executes a compiled
:class:`~repro.plan.columns.SchedulePlan` as three batched column
passes.  The pure-Python passes are already free of the event loop, but
at ``n = 10^5`` they still spend their time in interpreted per-row
loops.  This module re-states each pass as whole-column NumPy
arithmetic over **zero-copy views** of the plan's ``array('q')``
columns (``np.frombuffer`` — no row is ever copied into Python
objects):

* **pass 1 (per-sender prefix-max starts)** — the sequential recurrence
  ``start_i = max(tick_i, prev_start_of_sender + one)`` becomes a
  *segmented cumulative maximum*: group rows by sender (stable argsort),
  subtract ``j * one`` from the ``j``-th row of each group, and a single
  ``np.maximum.accumulate`` over the shifted values reproduces the
  chain.  The segmentation trick offsets each group by a disjoint range
  so one global accumulate never leaks across groups; the required
  headroom is checked against int64 and the caller falls back to the
  Python pass when it would overflow (large tick spans or fine scales).
* **pass 2 (window order)** — ``np.argsort(starts, kind="stable")``,
  bit-identical to the Python ``sorted``'s stable order.
* **pass 3 (port booking)** — group the window-ordered rows by receiver
  (stable argsort again).  Under the strict policy a collision is two
  consecutive same-receiver windows less than one unit apart; the first
  violation *in window order* raises the byte-identical
  :class:`~repro.errors.SimultaneousIOError`.  Under the queued policy
  the FIFO chain ``due = max(window, prev_due) + one`` is the same
  segmented cumulative maximum as pass 1.

The kernels are **behavior-transparent**: :func:`replay_passes` returns
exactly the ``(starts, order, arrivals, contended)`` tuple the Python
passes produce (same ``array('q')`` types, same list order), or ``None``
when NumPy is unavailable, disabled via ``REPRO_NUMPY=off``, or the
overflow guard trips — the caller then runs the Python passes.  The
differential suite (``tests/test_batch_differential.py``) pins
byte-identity across every plan-compiled family under both policies.

The fourth kernel sits in front of the passes.  Every compiler in
:mod:`repro.plan.build` emits one packed key per send,
``((tick * n + sender) * m + msg) * n + receiver``, and
:meth:`SchedulePlan.from_sorted_keys
<repro.plan.columns.SchedulePlan.from_sorted_keys>` sorts and splits
them into the four columns.  :func:`decode_keys` does that as one
in-place ``ndarray.sort`` and three ``np.divmod`` calls whose outputs
are views of the plan's own ``array('q')`` columns, so no row passes
through a Python object.  It returns ``None`` when NumPy is
unavailable or disabled, or when a key does not fit int64 (a key grows
like ``tick * n^2 * m``, so it can pass ``2^63`` while every tick still
fits); the caller then runs the pure-Python decode, which yields the
same columns (``tests/test_plan_roundtrip.py`` pins them equal).

Two more kernels sit behind the passes, on the realized columns of a
run.  :func:`audit_accepts` is the accept test of the postal audit
(:func:`~repro.plan.columns.audit_columns`) as whole-column arithmetic:
ranges and self-sends; nonnegative, nondecreasing starts; each arrival
against its due tick; possession, single delivery and coverage (a
``bincount`` of the ``receiver * m + msg`` slots, then a gather of each
sender's holding tick); and the one-unit port gaps, as differences
after a stable argsort by port.  It returns each message's arrival
ticks for the paper's certificates when every check passes, and
declines (``None``) otherwise: on any rejection, a column that is not
``array('q')``, or too little int64 headroom.  The sweep then runs and
raises its own error, so it stays the one reference and the one error
reporter (``tests/test_audit_kernel.py`` pins the two accept sets
equal).  :func:`count_columns` counts a run's sends, receives and
latencies for :func:`~repro.turbo.columnar.count_metrics` with
``np.bincount`` and ``np.unique``.
"""

from __future__ import annotations

import os
from array import array

from repro.errors import SimultaneousIOError
from repro.postal.machine import ContentionPolicy
from repro.types import time_repr

__all__ = [
    "audit_accepts",
    "count_columns",
    "decode_keys",
    "kernels_enabled",
    "numpy_or_none",
    "numpy_version",
    "replay_passes",
]

#: ``$REPRO_NUMPY`` values that force the pure-Python fallback.
_FALSEY = frozenset({"off", "0", "false", "no"})

_ENV = "REPRO_NUMPY"

# import result cached per process (the env gate is re-read every call
# so tests can flip REPRO_NUMPY at runtime without reloading modules)
_np_probed = False
_np = None


def numpy_or_none():
    """The :mod:`numpy` module when kernels may run, else ``None``.

    ``None`` when ``$REPRO_NUMPY`` is a falsey value (``off`` / ``0`` /
    ``false`` / ``no``, case-insensitive) or NumPy is not installed.
    """
    if os.environ.get(_ENV, "").strip().lower() in _FALSEY:
        return None
    global _np_probed, _np
    if not _np_probed:
        _np_probed = True
        try:
            import numpy
        except ImportError:
            numpy = None
        _np = numpy
    return _np


def kernels_enabled() -> bool:
    """Whether :func:`replay_passes` will use the NumPy kernels.

    >>> import os
    >>> os.environ["REPRO_NUMPY"] = "off"
    >>> kernels_enabled()
    False
    >>> _ = os.environ.pop("REPRO_NUMPY")
    """
    return numpy_or_none() is not None


def numpy_version() -> "str | None":
    """Version string of the *installed* NumPy, or ``None``.

    Deliberately ignores the ``$REPRO_NUMPY`` gate: this feeds the
    reproducibility header of ``BENCH_turbo.json``, which records what
    the machine had, not what the run chose to use.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def decode_keys(keys: "list[int]", n: int, m: int, *, presorted: bool):
    """Packed row keys as ``[ticks, senders, msgs, receivers]``
    ``array('q')`` columns in key order, or ``None`` to fall back to the
    pure-Python decode.

    *keys* is read, never modified.  ``None`` means NumPy is unavailable
    or disabled, or some key is at least ``2^63``: the conversion to
    int64 raises :class:`OverflowError` rather than wrap, and nothing
    past it runs.
    """
    np = numpy_or_none()
    if np is None:
        return None
    try:
        packed = np.array(keys, dtype=np.int64)
    except OverflowError:
        return None  # the Python decode splits keys of any size
    if not presorted:
        packed.sort()
    columns = [array("q", bytes(8 * len(keys))) for _ in range(4)]
    ticks, senders, msgs, receivers = (
        np.frombuffer(col, dtype=np.int64) for col in columns
    )
    # each divmod writes its remainder straight into a plan column and
    # its quotient back over the sorted keys
    np.divmod(packed, n, out=(packed, receivers))
    np.divmod(packed, m, out=(packed, msgs))
    np.divmod(packed, n, out=(ticks, senders))
    return columns


class _Decline(Exception):
    """A kernel declines and the caller runs the Python code: int64
    headroom is exhausted, a column is not ``array('q')``, or — in the
    audit — a check fails."""


def _require(ok) -> None:
    if not ok:
        raise _Decline


def _seg_cummax(np, vals, group_id):
    """Cumulative maximum of *vals* restarted at each new *group_id*.

    *group_id* must be nondecreasing.  Each group is lifted onto a
    disjoint band whose width is the global value range of *vals*, one
    ``np.maximum.accumulate`` runs, and the lift is undone — a maximum
    taken inside a band can never see the (strictly lower) bands of
    earlier groups, so the accumulate restarts exactly at group
    boundaries.

    Raises:
        _Decline: the lifted values would not fit int64 (only possible
            for sparse or very fine tick grids).
    """
    base = int(vals.min())
    spread = int(vals.max()) - base + 1
    groups = int(group_id[-1]) + 1
    _require(groups * spread < 2**62)
    offset = group_id * spread
    return np.maximum.accumulate((vals - base) + offset) - offset + base


def replay_passes(plan, policy: ContentionPolicy):
    """The three replay passes as NumPy kernels, or ``None`` to fall
    back to the pure-Python passes.

    Returns ``(starts, order, arrivals, contended)`` with *starts*,
    *order* and *arrivals* as ``array('q')`` — the exact types and
    values of the Python passes in :func:`repro.turbo.replay.replay_plan`.

    Raises:
        SimultaneousIOError: strict policy, first colliding receive
            window in window order — message byte-identical to the
            Python pass (and to the turbo event loop).
    """
    np = numpy_or_none()
    if np is None:
        return None

    one = plan.domain.scale
    lat = plan.lam_ticks
    ticks = np.frombuffer(plan.ticks, dtype=np.int64)
    senders = np.frombuffer(plan.senders, dtype=np.int64)
    receivers = np.frombuffer(plan.receivers, dtype=np.int64)
    E = len(ticks)
    if E == 0:
        return array("q"), array("q"), array("q"), False

    try:
        return _passes(np, plan, policy, ticks, senders, receivers, one, lat)
    except _Decline:
        return None  # too little int64 headroom: the Python passes decide


def _passes(np, plan, policy, ticks, senders, receivers, one, lat):
    E = len(ticks)
    # int64 headroom: a start passes the last planned tick, and a queued
    # arrival its start plus lambda, by under one unit per row
    _require(int(ticks.min()) >= 0 and int(ticks.max()) + 2 * E * one + lat < 2**63)

    # ---- pass 1: per-sender prefix-max starts ----------------------------
    sidx = np.argsort(senders, kind="stable")
    firsts = np.empty(E, dtype=bool)
    firsts[0] = True
    ss = senders[sidx]
    firsts[1:] = ss[1:] != ss[:-1]
    gid = np.cumsum(firsts) - 1
    gstart = np.nonzero(firsts)[0]
    # j = rank of the row within its sender group; subtracting j*one
    # turns the chain "next start >= prev start + one" into a plain
    # running maximum of the adjusted ticks.
    j = np.arange(E, dtype=np.int64) - gstart[gid]
    adjusted = ticks[sidx] - j * one
    starts = np.empty(E, dtype=np.int64)
    starts[sidx] = _seg_cummax(np, adjusted, gid) + j * one

    # ---- pass 2: window order (stable by start = stable by window) -------
    order = np.argsort(starts, kind="stable")

    # ---- pass 3: receive booking in window order -------------------------
    w = starts[order] + (lat - one)
    d = receivers[order]
    ridx = np.argsort(d, kind="stable")
    ds = d[ridx]
    ws = w[ridx]
    rfirst = np.empty(E, dtype=bool)
    rfirst[0] = True
    rfirst[1:] = ds[1:] != ds[:-1]
    arrivals = np.empty(E, dtype=np.int64)
    contended = False
    if policy is ContentionPolicy.STRICT:
        # two consecutive same-receiver windows < one unit apart collide;
        # the *first* violation in window order (min position in the
        # window-ordered sequence) must raise, with the same operands
        # the sequential pass would have seen at that point.
        viol = np.zeros(E, dtype=bool)
        viol[1:] = ~rfirst[1:] & (ws[1:] - ws[:-1] < one)
        if viol.any():
            vk = np.nonzero(viol)[0]
            k = int(vk[np.argmin(ridx[vk])])
            to_time = plan.domain.to_time
            dst = int(ds[k])
            window = int(ws[k])
            recv_free = int(ws[k - 1]) + one
            raise SimultaneousIOError(
                f"p{dst}: a message delivery due at t="
                f"{time_repr(to_time(window))} could not start receiving "
                f"until t={time_repr(to_time(recv_free))} "
                f"(simultaneous-I/O violation)"
            )
        arrivals[order] = w + one
    else:
        # queued FIFO: due = max(window, prev due) + one per receiver —
        # the same chain shape as pass 1, so the same segmented cummax.
        rgid = np.cumsum(rfirst) - 1
        rgstart = np.nonzero(rfirst)[0]
        rj = np.arange(E, dtype=np.int64) - rgstart[rgid]
        due = _seg_cummax(np, ws - rj * one, rgid) + (rj + 1) * one
        contended = bool((due != ws + one).any())
        in_window_order = np.empty(E, dtype=np.int64)
        in_window_order[ridx] = due
        arrivals[order] = in_window_order

    return _column(starts), _column(order), _column(arrivals), contended


def _column(values) -> array:
    """*values* (int64) copied into a fresh ``array('q')``."""
    column = array("q")
    column.frombytes(values.tobytes())
    return column


# ------------------------------------------------------ the run's columns

#: Every tick the audit kernel compares: starts plus lambda, arrivals and
#: their differences then stay inside int64.
_TICK_LIMIT = 2**62


def _int64(np, column):
    """A zero-copy int64 view of an ``array('q')`` column."""
    _require(isinstance(column, array) and column.typecode == "q")
    return np.frombuffer(column, dtype=np.int64)


def _in_range(values, lo: int, hi: int) -> bool:
    return lo <= int(values.min()) and int(values.max()) < hi


def _gaps_hold(np, ports, ticks, one: int) -> bool:
    """Whether the uses of every port, in the given order, are at least
    *one* tick apart: a stable argsort by port keeps each port's uses in
    order, and only neighbours on one port are compared."""
    by_port = np.argsort(ports, kind="stable")
    p = ports[by_port]
    t = ticks[by_port]
    return bool(((t[1:] - t[:-1] >= one) | (p[1:] != p[:-1])).all())


def audit_accepts(
    senders,
    msgs,
    receivers,
    starts,
    arrivals,
    order,
    *,
    n: int,
    scale: int,
    lam_ticks: int,
    m: "int | None",
    root: int,
    broadcast: bool,
    queued: bool = False,
):
    """Whether :func:`~repro.plan.columns.audit_columns` accepts a
    uniform-latency run, decided on whole columns.

    The arguments are the sweep's, except that *arrivals* may be
    ``None`` (every row arrives at its start plus ``lambda``: a plan's
    own times) and *order* ``None`` (the rows in row order).

    Returns:
        Each message's arrival ticks — the lists the sweep hands
        :func:`~repro.plan.columns.check_certificates` — when every
        check before the certificates passes (an empty list when not
        *broadcast*); ``None`` to decline: NumPy is unavailable or
        disabled, a column is not ``array('q')``, a value lacks int64
        headroom, or a check fails.  The caller then runs the sweep.
    """
    np = numpy_or_none()
    if np is None:
        return None
    try:
        return _accepts(
            np, senders, msgs, receivers, starts, arrivals, order,
            n, scale, lam_ticks, m, root, broadcast, queued,
        )
    except _Decline:
        return None


def _accepts(
    np, senders, msgs, receivers, starts, arrivals, order,
    n, one, lat, m, root, broadcast, queued,
):
    _require(0 < one < _TICK_LIMIT and 0 < lat < _TICK_LIMIT)
    _require(not broadcast or (m is not None and 0 <= root < n))
    columns = [_int64(np, c) for c in (senders, msgs, receivers, starts)]
    if arrivals is not None:
        columns.append(_int64(np, arrivals))
    rows = len(columns[0])
    _require(rows and all(len(c) == rows for c in columns))
    if order is not None:  # the sweep's visiting sequence
        visit = _int64(np, order)
        _require(len(visit) and _in_range(visit, 0, rows))
        columns = [c[visit] for c in columns]
    s, k, r, t = columns[:4]

    # ranges and self-sends
    _require(_in_range(s, 0, n) and _in_range(r, 0, n))
    _require(m is None or _in_range(k, 0, m))
    _require(not (s == r).any())
    # nonnegative, nondecreasing starts, each arrival at its due tick
    _require(bool((t[1:] >= t[:-1]).all()))
    _require(int(t[0]) >= 0 and int(t[-1]) < _TICK_LIMIT - lat)
    due = t + lat
    if arrivals is None:
        a = due
    else:
        a = columns[4]
        _require(bool((a >= due).all() if queued else (a == due).all()))
        _require(int(a.max()) < _TICK_LIMIT)
    # one-unit send and receive port gaps
    _require(_gaps_hold(np, s, t, one) and _gaps_hold(np, r, a, one))
    if not broadcast:
        return []

    # single delivery and coverage: the (n-1)*m non-root slots, each once
    _require(len(t) == (n - 1) * m and not (r == root).any())
    slots = r * m + k
    _require(int(np.bincount(slots).max()) == 1)
    # possession: a sender holds what it sends from its arrival (the root
    # from 0).  A delivery visited later arrives after this start, so it
    # fails the same test the sweep fails it for.
    held = np.zeros(n * m, dtype=np.int64)
    held[slots] = a
    _require(bool((held[s * m + k] <= t).all()))
    if m == 1:
        return [a.tolist()]
    return a[np.argsort(k, kind="stable")].reshape(m, n - 1).tolist()


def count_columns(n: int, senders, receivers, starts, arrivals):
    """The counts behind a run's :class:`~repro.obs.metrics.RunMetrics`,
    from whole columns, or ``None`` to count in Python.

    Returns ``(sends, receives, by_latency)``: the per-processor send
    and receive count tuples (``np.bincount``) that the metrics store,
    and the sorted ``(arrival - start, count)`` pairs (``np.unique``) —
    what :func:`~repro.turbo.columnar.tally` counts row by row.  ``None``
    when NumPy is unavailable or disabled, a column is not
    ``array('q')``, the columns are empty or unequal, or a processor or
    tick is out of range.
    """
    np = numpy_or_none()
    if np is None:
        return None
    try:
        s, r, t, a = (_int64(np, c) for c in (senders, receivers, starts, arrivals))
        _require(len(s) and len(s) == len(r) == len(t) == len(a))
        _require(_in_range(s, 0, n) and _in_range(r, 0, n))
        _require(int(t.min()) >= 0 and int(a.min()) >= 0)  # a - t fits
    except _Decline:
        return None
    latencies, counts = np.unique(a - t, return_counts=True)
    return (
        tuple(np.bincount(s, minlength=n).tolist()),
        tuple(np.bincount(r, minlength=n).tolist()),
        list(zip(latencies.tolist(), counts.tolist())),
    )
