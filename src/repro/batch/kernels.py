"""Optional NumPy kernels: the three replay passes and the plan decode.

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
  Python pass when it would overflow (astronomically large tick spans).
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
"""

from __future__ import annotations

import os
from array import array

from repro.errors import SimultaneousIOError
from repro.postal.machine import ContentionPolicy
from repro.types import time_repr

__all__ = [
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


class _Overflow(Exception):
    """Int64 headroom exhausted — fall back to the Python passes."""


def _seg_cummax(np, vals, group_id):
    """Cumulative maximum of *vals* restarted at each new *group_id*.

    *group_id* must be nondecreasing.  Each group is lifted onto a
    disjoint band whose width is the global value range of *vals*, one
    ``np.maximum.accumulate`` runs, and the lift is undone — a maximum
    taken inside a band can never see the (strictly lower) bands of
    earlier groups, so the accumulate restarts exactly at group
    boundaries.

    Raises:
        _Overflow: the lifted values would not fit int64 (only possible
            for astronomically sparse tick grids).
    """
    base = int(vals.min())
    spread = int(vals.max()) - base + 1
    groups = int(group_id[-1]) + 1
    if groups * spread >= 2**62:
        raise _Overflow
    offset = group_id * spread
    return np.maximum.accumulate((vals - base) + offset) - offset + base


def replay_passes(plan, policy: ContentionPolicy):
    """The three replay passes as NumPy kernels, or ``None`` to fall
    back to the pure-Python passes.

    Returns ``(starts, order, arrivals, contended)`` with *starts* and
    *arrivals* as ``array('q')`` and *order* a ``list[int]`` — the
    exact types and values of the Python passes in
    :func:`repro.turbo.replay.replay_plan`.

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
        return array("q"), [], array("q"), False

    try:
        return _passes(np, plan, policy, ticks, senders, receivers, one, lat)
    except _Overflow:
        return None  # astronomically sparse plan: Python passes handle it


def _passes(np, plan, policy, ticks, senders, receivers, one, lat):
    E = len(ticks)

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

    starts_arr = array("q")
    starts_arr.frombytes(starts.tobytes())
    arrivals_arr = array("q")
    arrivals_arr.frombytes(arrivals.tobytes())
    return starts_arr, order.tolist(), arrivals_arr, contended
