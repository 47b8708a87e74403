"""Columnar run log for the turbo lane.

The turbo engine used to append one Python tuple per logged event.  At
``n = 10^5`` a broadcast run logs hundreds of thousands of entries, and
each tuple costs an allocation, per-element object headers, and pointer
chasing on every later scan.  This module stores the same information as
five parallel ``array('q')`` columns — the layout
:mod:`repro.plan.columns` already uses for compiled plans — plus one
plain list of :class:`~repro.postal.message.Message` references for the
rows that carry an object.  Appends are C-speed, scans (counts, port
views, the flush sort) run over packed machine integers, and a
``validate=False, collect=False`` run allocates no per-event Python
containers at all.

Row encodings (``code`` selects the meaning of ``a`` / ``b`` / ``c``):

========================  ===========  =====  =====  ========
code                      tick         a      b      c
========================  ===========  =====  =====  ========
:data:`SEND`              start        src    dst    msg
:data:`SEND_RETRANSMIT`   start        src    dst    msg
:data:`DELIVER`           arrival      obj    dst    send row
:data:`CONSUME`           consume      obj    dst    --
:data:`DROP_LOSS`         start        src    dst    msg
:data:`DROP_CRASH`        window       src    dst    msg
========================  ===========  =====  =====  ========

``obj`` is an index into :attr:`RunLog.objs` (the delivered
:class:`~repro.postal.message.Message`); the Message is allocated anyway
for inbox delivery, so storing one reference keeps
``flush_trace`` byte-identical to the tuple-log era for free.  A
``DELIVER`` row's ``send row`` is the index of the row that logged its
send, so the log holds every send's start *and* arrival tick — the
realized columns the turbo lane audits and measures
(:mod:`repro.turbo.columnar`).
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Iterator

__all__ = [
    "RunLog",
    "SEND",
    "DELIVER",
    "CONSUME",
    "DROP_LOSS",
    "DROP_CRASH",
    "SEND_RETRANSMIT",
]

#: A send started (occupies the sender's port for one unit).
SEND = 0
#: A message finished receiving (lands in the inbox / a waiting recv).
DELIVER = 1
#: A message was taken out of an inbox.
CONSUME = 2
#: The network lost the message (lossy extension).
DROP_LOSS = 3
#: The receiver was crashed when the window opened.
DROP_CRASH = 4
#: A retransmission send (fault-tolerant protocols; occupies the port
#: exactly like :data:`SEND`).
SEND_RETRANSMIT = 5


class RunLog:
    """Five parallel integer columns plus an object side table.

    >>> log = RunLog()
    >>> log.append(SEND, 3, 0, 1, 7)
    >>> log.append(DELIVER, 5, 0, 1)
    >>> len(log), log.send_count, log.count(DELIVER), log.where(DELIVER)
    (2, 1, 1, [1])
    >>> list(log.rows())
    [(0, 3, 0, 1, 7), (1, 5, 0, 1, 0)]
    """

    __slots__ = ("codes", "ticks", "a", "b", "c", "objs")

    def __init__(self) -> None:
        self.codes = array("q")
        self.ticks = array("q")
        self.a = array("q")
        self.b = array("q")
        self.c = array("q")
        self.objs: list = []

    def __len__(self) -> int:
        return len(self.codes)

    def append(self, code: int, tick: int, a: int = 0, b: int = 0, c: int = 0) -> None:
        """Append one row (cold path — hot emitters cache the column
        ``append`` bound methods directly)."""
        self.codes.append(code)
        self.ticks.append(tick)
        self.a.append(a)
        self.b.append(b)
        self.c.append(c)

    def count(self, *codes: int) -> int:
        """Number of rows whose code is any of *codes* (C-speed scan)."""
        col = self.codes
        return sum(col.count(code) for code in codes)

    def where(self, *codes: int) -> list[int]:
        """Indices of the rows whose code is any of *codes*, in append
        order (a C-speed filter)."""
        col = self.codes
        hit = codes[0].__eq__ if len(codes) == 1 else frozenset(codes).__contains__
        return list(compress(range(len(col)), map(hit, col)))

    @property
    def send_count(self) -> int:
        """Sends started, retransmissions included."""
        col = self.codes
        return col.count(SEND) + col.count(SEND_RETRANSMIT)

    def rows(self) -> Iterator[tuple[int, int, int, int, int]]:
        """Iterate ``(code, tick, a, b, c)`` rows in append order."""
        return zip(self.codes, self.ticks, self.a, self.b, self.c)

    def order_by_tick(self) -> list[int]:
        """Row indices stable-sorted by tick — the flush order (ties keep
        append order, exactly like the old ``sorted(log, key=tick)``)."""
        return sorted(range(len(self.codes)), key=self.ticks.__getitem__)

    @property
    def nbytes(self) -> int:
        """Bytes held by the integer columns (the object side table is
        excluded — those Messages exist independently of the log)."""
        return sum(
            col.buffer_info()[1] * col.itemsize
            for col in (self.codes, self.ticks, self.a, self.b, self.c)
        )
