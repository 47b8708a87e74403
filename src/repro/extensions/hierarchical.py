"""Hierarchical latency (Section 5, second direction).

Real systems often have two latency scales: fast links inside a cluster
(``lambda_local``) and slow links between clusters (``lambda_global >=
lambda_local``).  A :class:`HierarchicalSystem` models ``k`` clusters of
``c`` processors; the natural two-phase broadcast runs Algorithm BCAST
among the cluster *leaders* at the global latency, then inside every
cluster at the local latency.

Two variants:

* **sequential** — every leader waits for the global phase to end before
  starting its cluster; completion is exactly
  ``f_{lambda_global}(k) + f_{lambda_local}(c)``.
* **overlapped** (default) — each leader starts its cluster broadcast as
  soon as its *own* global sends are done (its send port is the only
  shared constraint).  Never slower than sequential; often much faster for
  late-informed leaders, whose global duty is empty.

A flat BCAST at ``lambda_global`` everywhere is the baseline the bench
compares against (the hierarchy-aware algorithm wins whenever
``lambda_local < lambda_global``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bcast import bcast_schedule
from repro.core.fibfunc import postal_f
from repro.errors import InvalidParameterError
from repro.types import Time, TimeLike, ZERO, as_time

__all__ = ["HierarchicalSystem", "hierarchical_bcast_time", "flat_bcast_time"]


@dataclass(frozen=True)
class HierarchicalSystem:
    """``k`` clusters of ``c`` processors; processor ``i`` lives in cluster
    ``i // c``; the leader of cluster ``q`` is ``q * c``."""

    clusters: int
    cluster_size: int
    lam_local: Time
    lam_global: Time

    @classmethod
    def of(
        cls,
        clusters: int,
        cluster_size: int,
        lam_local: TimeLike,
        lam_global: TimeLike,
    ) -> "HierarchicalSystem":
        ll, lg = as_time(lam_local), as_time(lam_global)
        if clusters < 1 or cluster_size < 1:
            raise InvalidParameterError("need >= 1 cluster of >= 1 processor")
        if ll < 1 or lg < ll:
            raise InvalidParameterError(
                "latencies must satisfy 1 <= lambda_local <= lambda_global"
            )
        return cls(clusters, cluster_size, ll, lg)

    @property
    def n(self) -> int:
        return self.clusters * self.cluster_size

    def latency(self, src: int, dst: int) -> Time:
        """Pairwise latency: local within a cluster, global across."""
        return (
            self.lam_local
            if src // self.cluster_size == dst // self.cluster_size
            else self.lam_global
        )


def hierarchical_bcast_time(
    system: HierarchicalSystem, *, overlap: bool = True
) -> Time:
    """Completion time of the two-phase hierarchy-aware broadcast.

    Sequential: ``f_{lg}(k) + f_{ll}(c)``.  Overlapped: per leader,
    ``max(informed_at, last_global_send_end) + f_{ll}(c)``; the maximum
    over leaders (and the bare global phase for ``c == 1``).
    """
    k, c = system.clusters, system.cluster_size
    lg, ll = system.lam_global, system.lam_local
    if k == 1:
        return postal_f(ll, c)
    global_time = postal_f(lg, k)
    local_time = postal_f(ll, c)
    if not overlap:
        return global_time + local_time
    # per-leader availability from the global-phase BCAST schedule
    sched = bcast_schedule(k, lg, validate=False)
    informed = {0: ZERO}
    last_send_end: dict[int, Time] = {}
    for ev in sched.events:
        informed[ev.receiver] = ev.arrival_time(lg)
        last_send_end[ev.sender] = max(
            last_send_end.get(ev.sender, ZERO), ev.send_time + 1
        )
    worst = ZERO
    for leader in range(k):
        start = max(informed.get(leader, ZERO), last_send_end.get(leader, ZERO))
        worst = max(worst, start + local_time)
    return worst


def flat_bcast_time(system: HierarchicalSystem) -> Time:
    """Baseline: pretend every link has the global latency and run plain
    BCAST over all ``n`` processors."""
    return postal_f(system.lam_global, system.n)


class HierarchicalBcastProtocol:
    """Event-driven two-phase broadcast on a pair-latency postal machine.

    Runs on a :class:`~repro.postal.machine.PostalSystem` whose latency
    function is the hierarchy's (:attr:`latency_fn` is picked up by
    :func:`repro.postal.run_protocol`):

    * phase 1 — BCAST among the cluster *leaders* (processors ``q * c``)
      with splits from ``F_{lambda_global}``;
    * phase 2 — each leader, immediately after its last global send (the
      overlapped variant), runs BCAST inside its cluster with splits from
      ``F_{lambda_local}``.

    The realized completion time equals
    :func:`hierarchical_bcast_time(system, overlap=True)
    <hierarchical_bcast_time>` exactly (asserted in the tests): a leader's
    program naturally pivots from global to local sends the instant its
    send port frees, which *is* the formula's
    ``max(informed_at, last_global_send_end)``.
    """

    name = "HIER-BCAST"
    semantics = "hierarchical-broadcast"

    def __init__(self, hierarchy: HierarchicalSystem):
        from repro.core.fibfunc import GeneralizedFibonacci

        self.hierarchy = hierarchy
        self.n = hierarchy.n
        self.m = 1
        self.lam = hierarchy.lam_global  # nominal latency for the machine
        self.root = 0
        self.latency_fn = hierarchy.latency
        self._fib_global = GeneralizedFibonacci(hierarchy.lam_global)
        self._fib_local = GeneralizedFibonacci(hierarchy.lam_local)
        #: first data arrival per processor, filled during the run
        self.informed_at: dict[int, Time] = {}

    def program(self, proc: int, system):
        c = self.hierarchy.cluster_size
        is_leader = proc % c == 0
        if proc == self.root:
            return self._leader_program(system, proc, informed=True)
        if is_leader:
            return self._leader_program(system, proc, informed=False)
        return self._member_program(system, proc)

    def _leader_program(self, system, proc: int, *, informed: bool):
        k = self.hierarchy.clusters
        c = self.hierarchy.cluster_size
        if informed:
            self.informed_at[proc] = system.env.now
            lo, size = 0, k
        else:
            message = yield system.recv(proc)
            self.informed_at[proc] = message.arrived_at
            lo, size = message.payload  # leader-index range
        # phase 1: BCAST over leader indices [lo, lo+size) scaled by c
        me = proc // c
        fib = self._fib_global
        while size > 1:
            j = fib.split(size)
            target_leader = me + j
            yield system.send(
                proc, target_leader * c, 0, payload=(target_leader, size - j)
            )
            size = j
        # phase 2: local BCAST inside my cluster, starting right now
        yield from self._local_originate(system, proc, c)

    def _member_program(self, system, proc: int):
        message = yield system.recv(proc)
        self.informed_at[proc] = message.arrived_at
        _, size = message.payload
        yield from self._local_originate(system, proc, size)

    def _local_originate(self, system, me: int, size: int):
        fib = self._fib_local
        while size > 1:
            j = fib.split(size)
            yield system.send(me, me + j, 0, payload=(None, size - j))
            size = j
