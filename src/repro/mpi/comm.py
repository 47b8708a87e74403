"""An MPI-style communicator for the postal model.

The HPC guides this library follows use mpi4py's lower-case collective
verbs for generic-object communication; :class:`SimComm` mirrors that
surface, but instead of moving real bytes it *simulates* each collective
on ``MPS(n, lambda)`` and reports the exact postal-model cost alongside
the data result:

>>> comm = SimComm(14, "5/2")
>>> out = comm.bcast("payload")
>>> out.values[13], out.time
('payload', Fraction(15, 2))

Every call spins up a fresh discrete-event simulation (collectives do not
overlap), which keeps the facade simple and the costs exactly the paper's
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.collectives.allgather import AllgatherProtocol
from repro.collectives.allreduce import AllreduceProtocol
from repro.collectives.alltoall import AllToAllProtocol
from repro.collectives.barrier import BarrierProtocol
from repro.collectives.gather import GatherProtocol
from repro.collectives.reduce import ReduceProtocol
from repro.collectives.scatter import ScatterProtocol
from repro.errors import InvalidParameterError
from repro.postal import run_protocol
from repro.types import Time, TimeLike, as_time

__all__ = ["SimComm", "CollectiveOutcome"]


@dataclass(frozen=True)
class CollectiveOutcome:
    """Result of one simulated collective.

    Attributes:
        values: per-rank outcome (meaning depends on the collective).
        time: exact completion time in postal units.
        sends: total messages transmitted.
        algorithm: which algorithm executed.
    """

    values: Any
    time: Time
    sends: int
    algorithm: str


class SimComm:
    """A simulated communicator over ``MPS(n, lambda)``.

    Args:
        n: number of ranks.
        lam: communication latency ``lambda >= 1``.
    """

    def __init__(self, n: int, lam: TimeLike):
        if n < 1:
            raise InvalidParameterError(f"need n >= 1 ranks, got {n}")
        self.n = n
        self.lam = as_time(lam)

    def Get_size(self) -> int:
        """mpi4py-style size accessor."""
        return self.n

    # ---------------------------------------------------------- broadcast

    def _broadcast(self, algorithm: str, m: int):
        """The broadcast protocol *algorithm* names, resolved through the
        family table (:func:`~repro.conformance.oracles.resolve_oracle`)."""
        from repro.conformance.oracles import resolve_oracle

        oracle = resolve_oracle(algorithm, m, self.lam)
        if oracle.semantics != "broadcast":
            raise InvalidParameterError(
                f"{oracle.family} is a {oracle.semantics} family, not a "
                "broadcast"
            )
        oracle.check_applicable(self.n, m, self.lam)
        return oracle.protocol(self.n, m, self.lam)

    def bcast(self, value: Any, *, algorithm: str = "bcast") -> CollectiveOutcome:
        """Broadcast one value from rank 0 with the optimal Algorithm
        BCAST (or any other broadcast family, e.g. ``"dtree-<d>"``,
        ``"star"``)."""
        proto = self._broadcast(algorithm, 1)
        res = run_protocol(proto)
        return CollectiveOutcome(
            values=[value] * self.n,
            time=res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )

    def bcast_many(
        self, values: Sequence[Any], *, algorithm: str = "pipeline"
    ) -> CollectiveOutcome:
        """Broadcast ``m = len(values)`` messages from rank 0 using a
        multi-message broadcast family: ``"repeat"``, ``"pack"``,
        ``"pipeline"``, ``"dtree-<d>"``, ..."""
        m = len(values)
        if m < 1:
            raise InvalidParameterError("need at least one value")
        proto = self._broadcast(algorithm, m)
        res = run_protocol(proto)
        return CollectiveOutcome(
            values=[list(values)] * self.n,
            time=res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )

    # --------------------------------------------------------- reductions

    def reduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
    ) -> CollectiveOutcome:
        """Combine one value per rank at rank 0 (optimal reversed
        generalized Fibonacci tree)."""
        if len(values) != self.n:
            raise InvalidParameterError(f"need exactly {self.n} values")
        proto = ReduceProtocol(self.n, self.lam, op=op, values=list(values))
        res = run_protocol(proto)
        return CollectiveOutcome(
            values=proto.result,
            time=res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )

    def scatter(self, values: Sequence[Any]) -> CollectiveOutcome:
        """Deliver ``values[i]`` to rank ``i`` (optimal direct star)."""
        if len(values) != self.n:
            raise InvalidParameterError(f"need exactly {self.n} values")
        proto = ScatterProtocol(self.n, self.lam, values=list(values))
        res = run_protocol(proto)
        out = [proto.received[p] for p in range(self.n)]
        return CollectiveOutcome(
            values=out,
            time=res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )

    def gather(self, values: Sequence[Any]) -> CollectiveOutcome:
        """Collect ``values[i]`` from rank ``i`` at rank 0 (optimal direct
        schedule)."""
        if len(values) != self.n:
            raise InvalidParameterError(f"need exactly {self.n} values")
        proto = GatherProtocol(self.n, self.lam, values=list(values))
        res = run_protocol(proto)
        out = [proto.collected[p] for p in range(self.n)]
        return CollectiveOutcome(
            values=out,
            time=res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )

    def alltoall(self, matrix: Sequence[Sequence[Any]]) -> CollectiveOutcome:
        """Personalized exchange: rank ``i`` sends ``matrix[i][j]`` to rank
        ``j`` (optimal rotation schedule).  Returns the transpose."""
        proto = AllToAllProtocol(
            self.n, self.lam, values=[list(row) for row in matrix]
        )
        res = run_protocol(proto)
        out = [
            [proto.received[j][i] for i in range(self.n)]
            for j in range(self.n)
        ]
        return CollectiveOutcome(
            values=out,
            time=res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )

    def allreduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
    ) -> CollectiveOutcome:
        """Combine one value per rank and deliver the result to every rank
        (combine + broadcast, ``2 * f_lambda(n)``)."""
        if len(values) != self.n:
            raise InvalidParameterError(f"need exactly {self.n} values")
        proto = AllreduceProtocol(self.n, self.lam, op=op, values=list(values))
        res = run_protocol(proto)
        out = [proto.results[p] for p in range(self.n)]
        return CollectiveOutcome(
            values=out,
            time=res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )

    def allgather(self, values: Sequence[Any]) -> CollectiveOutcome:
        """Every rank contributes ``values[rank]``; every rank ends with
        the full list (gather + pipelined broadcast)."""
        if len(values) != self.n:
            raise InvalidParameterError(f"need exactly {self.n} values")
        proto = AllgatherProtocol(self.n, self.lam, rumors=list(values))
        res = run_protocol(proto)
        out = [
            [proto.known[p][k] for k in range(self.n)] for p in range(self.n)
        ]
        return CollectiveOutcome(
            values=out,
            time=res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )

    def barrier(
        self, arrivals: Sequence[TimeLike] | None = None
    ) -> CollectiveOutcome:
        """Synchronize all ranks (combine + release); ``values`` holds each
        rank's release time."""
        proto = BarrierProtocol(
            self.n, self.lam, arrivals=list(arrivals) if arrivals else None
        )
        res = run_protocol(proto)
        out = [proto.released[p] for p in range(self.n)]
        return CollectiveOutcome(
            values=out,
            time=max(out) if out else res.completion_time,
            sends=res.sends,
            algorithm=proto.name,
        )
