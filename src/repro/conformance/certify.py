"""End-to-end certification of one ``(family, n, m, lambda, policy)``.

:func:`certify_config` is the heart of the conformance subsystem: given a
:class:`ConformanceConfig` it

1. builds the family's **static schedule** (unvalidated) and certifies it
   from scratch: postal axioms (Definitions 1-2 via
   :meth:`Schedule.validate`), makespan against the oracle's closed form
   (``==`` for exact families, ``<=`` + builder equality for upper-bound
   families), order preservation, the **Lemma 5 certificate**
   ``N_k(t) <= F_lambda(t)`` for every message ``k``, and the **Lemma 8
   lower bound** ``(m-1) + f_lambda(n)``;
2. runs the family's **event-driven protocol** on a live
   :class:`~repro.postal.machine.PostalSystem` under the requested
   contention policies (strict / queued / both), auditing the run with the
   extended :func:`repro.postal.validator.validate_run` and diffing the
   realized execution against both the closed form and the static builder
   (the *differential* part);
3. cross-checks the trace-derived :class:`~repro.obs.metrics.RunMetrics`
   against the realized schedule.

A *chaos* config (``chaos_seed`` set) instead corrupts the static
schedule with one seeded mutation (:mod:`repro.conformance.chaos`) and
expects the same machinery to flag it — the self-test that proves the
certifier can actually fail.

Nothing here raises on a conformance violation; every divergence becomes
a string in :attr:`CertResult.violations`, so one failure cannot mask
another and the fuzzer can file a complete failure artifact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.fibfunc import check_informed_bound
from repro.core.orderpres import check_order_preserving
from repro.core.schedule import Schedule
from repro.errors import InvalidParameterError, ReproError, ScheduleError
from repro.obs.metrics import cross_check_metrics
from repro.postal.machine import ContentionPolicy
from repro.postal.runner import ProtocolResult, run_protocol
from repro.postal.validator import validate_run
from repro.types import Time, as_time, time_repr

from repro.conformance.chaos import corrupt_schedule
from repro.conformance.oracles import Oracle, get_oracle

__all__ = ["ConformanceConfig", "CertResult", "certify_config"]

#: Accepted values of :attr:`ConformanceConfig.policy`.
POLICIES = ("strict", "queued", "both")


@dataclass(frozen=True)
class ConformanceConfig:
    """One point of the fuzz grid.  Hashable and trivially serializable —
    a failure artifact's repro script is just this dataclass re-evaluated.

    Attributes:
        family: oracle-registry key (e.g. ``"PIPELINE-2"``).
        n: processor count.
        m: message count.
        lam: latency (anything :func:`~repro.types.as_time` accepts —
            ``"5/2"`` round-trips exactly through JSON).
        policy: ``"strict"``, ``"queued"``, or ``"both"`` (run under each
            and diff).
        chaos_seed: when set, corrupt the static schedule with one
            mutation drawn from ``random.Random(chaos_seed)`` before
            certifying — the certifier *must* then report a violation.
    """

    family: str
    n: int
    m: int
    lam: str
    policy: str = "strict"
    chaos_seed: int | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise InvalidParameterError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        as_time(self.lam)  # fail fast on garbage

    @property
    def lam_time(self) -> Time:
        return as_time(self.lam)

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "lam": str(self.lam),
            "policy": self.policy,
            "chaos_seed": self.chaos_seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ConformanceConfig":
        return cls(
            family=data["family"],
            n=int(data["n"]),
            m=int(data["m"]),
            lam=str(data["lam"]),
            policy=data.get("policy", "strict"),
            chaos_seed=data.get("chaos_seed"),
        )


@dataclass
class CertResult:
    """Everything one certification learned.

    ``violations`` empty means the run is **certified**: every layer
    (schedule arithmetic, simulation, ports, deliveries, metrics) agrees
    with the paper's closed forms and bounds.
    """

    config: ConformanceConfig
    citation: str = ""
    predicted: Time | None = None
    lower_bound: Time | None = None
    static_time: Time | None = None
    sim_times: dict[str, Time] = field(default_factory=dict)
    corruption: str | None = None
    violations: list[str] = field(default_factory=list)
    systems: dict[str, Any] = field(default_factory=dict)  # policy -> system

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        cfg = self.config
        head = (
            f"{cfg.family} n={cfg.n} m={cfg.m} lambda={cfg.lam} "
            f"policy={cfg.policy}"
        )
        if self.ok:
            return f"{head}: certified (T={time_repr(self.predicted)})"
        return f"{head}: {len(self.violations)} violation(s)"


def _check(result: CertResult, label: str, fn) -> bool:
    """Run one check, folding any model error into the violation list.
    Returns True when the check ran clean."""
    try:
        fn()
    except ReproError as exc:
        result.violations.append(f"{label}: {type(exc).__name__}: {exc}")
        return False
    return True


def _certify_schedule(
    result: CertResult, oracle: Oracle, schedule: Schedule
) -> None:
    """Certify a static schedule from first principles."""
    cfg = result.config
    lam = cfg.lam_time

    _check(result, "postal axioms", schedule.validate)

    completion = schedule.completion_time()
    result.static_time = completion
    predicted = result.predicted
    assert predicted is not None
    if oracle.exact:
        if completion != predicted:
            result.violations.append(
                f"closed form: static makespan {time_repr(completion)} != "
                f"{oracle.citation} prediction {time_repr(predicted)}"
            )
    elif completion > predicted:
        result.violations.append(
            f"upper bound: static makespan {time_repr(completion)} exceeds "
            f"{oracle.citation} bound {time_repr(predicted)}"
        )

    if oracle.order_preserving and cfg.m >= 2:
        _check(
            result,
            "order preservation",
            lambda: check_order_preserving(schedule),
        )

    # Lemma 5 certificate: for every message, the informed population at
    # each arrival instant never exceeds F_lambda(t) — the audit sweep's
    # integer check, run on its own here so that no earlier failure masks it
    def lemma5() -> None:
        arrivals = [
            (k, t)
            for (proc, k), t in schedule.arrivals().items()
            if proc != schedule.root and 0 <= k < schedule.m
        ]
        scale = math.lcm(
            lam.denominator, *(t.denominator for _, t in arrivals)
        )
        arrived: list[list[int]] = [[] for _ in range(schedule.m)]
        for k, t in arrivals:
            arrived[k].append(t.numerator * (scale // t.denominator))
        try:
            check_informed_bound(lam, scale, arrived)
        except ScheduleError as exc:
            result.violations.append(str(exc))

    _check(result, "Lemma 5", lemma5)

    lb = result.lower_bound
    if lb is not None and completion < lb:
        result.violations.append(
            f"Lemma 8: static makespan {time_repr(completion)} beats the "
            f"lower bound {time_repr(lb)} — the certifier or the model "
            f"is broken"
        )


def _certify_simulation(
    result: CertResult,
    oracle: Oracle,
    policy_name: str,
    *,
    keep_system: bool,
    backend: str = "exact",
) -> None:
    cfg = result.config
    policy = (
        ContentionPolicy.STRICT
        if policy_name == "strict"
        else ContentionPolicy.QUEUED
    )
    protocol = oracle.protocol(cfg.n, cfg.m, cfg.lam_time)
    try:
        run: ProtocolResult = run_protocol(
            protocol, policy=policy, backend=backend
        )
    except ReproError as exc:
        result.violations.append(
            f"simulation[{policy_name}]: {type(exc).__name__}: {exc}"
        )
        return
    if keep_system:
        result.systems[policy_name] = run.system
    completion = run.completion_time
    result.sim_times[policy_name] = completion

    predicted = result.predicted
    assert predicted is not None
    if oracle.exact:
        if completion != predicted:
            result.violations.append(
                f"simulation[{policy_name}]: makespan "
                f"{time_repr(completion)} != {oracle.citation} prediction "
                f"{time_repr(predicted)}"
            )
    else:
        if completion > predicted:
            result.violations.append(
                f"simulation[{policy_name}]: makespan "
                f"{time_repr(completion)} exceeds {oracle.citation} bound "
                f"{time_repr(predicted)}"
            )
        if (
            result.static_time is not None
            and completion != result.static_time
        ):
            result.violations.append(
                f"differential[{policy_name}]: simulated makespan "
                f"{time_repr(completion)} != static builder "
                f"{time_repr(result.static_time)}"
            )

    if oracle.semantics == "broadcast":
        # the extended validator: schedule rebuild under strict, port +
        # delivery + coverage audits under queued
        _check(
            result,
            f"validate_run[{policy_name}]",
            lambda: validate_run(
                run.system, m=protocol.m, root=protocol.root
            ),
        )
        if run.schedule is not None:
            if oracle.order_preserving and cfg.m >= 2:
                _check(
                    result,
                    f"order preservation[{policy_name}]",
                    lambda: check_order_preserving(run.schedule),
                )
            if run.metrics is not None:
                for problem in cross_check_metrics(
                    run.metrics, run.schedule
                ):
                    result.violations.append(
                        f"metrics[{policy_name}]: {problem}"
                    )
    else:
        # collectives: the runner audited the ports; add the delivery-
        # record audit (valid under both policies)
        from repro.postal.validator import audit_deliveries

        _check(
            result,
            f"delivery audit[{policy_name}]",
            lambda: audit_deliveries(run.system),
        )

    lb = result.lower_bound
    if lb is not None and completion < lb:
        result.violations.append(
            f"Lemma 8[{policy_name}]: simulated makespan "
            f"{time_repr(completion)} beats the lower bound {time_repr(lb)}"
        )


def certify_config(
    config: ConformanceConfig,
    *,
    keep_system: bool = False,
    backend: str = "exact",
) -> CertResult:
    """Certify one configuration end to end.  Never raises on a model
    violation — inspect :attr:`CertResult.violations`.

    Args:
        config: the grid point (validated against the oracle's
            applicability predicate).
        keep_system: retain the finished :class:`PostalSystem` per policy
            in :attr:`CertResult.systems` so a failure artifact can dump
            the trace (costs memory; the fuzzer only sets it when it
            intends to write artifacts).
        backend: execution lane for the simulation leg (any of
            :data:`repro.postal.runner.BACKENDS`) — the certificates are
            backend-blind, so running the fuzz grid under ``"turbo"`` or
            ``"replay"`` differentially pins those lanes against every
            closed form.
    """
    oracle = get_oracle(config.family)
    oracle.check_applicable(config.n, config.m, config.lam_time)
    result = CertResult(config=config, citation=oracle.citation)
    lam = config.lam_time
    result.predicted = oracle.time(config.n, config.m, lam)
    result.lower_bound = oracle.lower_bound(config.n, config.m, lam)

    if config.chaos_seed is not None:
        if oracle.schedule is None:
            raise InvalidParameterError(
                f"{config.family} has no static builder to corrupt"
            )
        pristine = oracle.schedule(config.n, config.m, lam)
        if not pristine.events:
            raise InvalidParameterError(
                "cannot corrupt an empty schedule (n must be >= 2)"
            )
        corrupted, description = corrupt_schedule(
            pristine, random.Random(config.chaos_seed)
        )
        result.corruption = description
        _certify_schedule(result, oracle, corrupted)
        return result

    if oracle.schedule is not None:
        schedule = oracle.schedule(config.n, config.m, lam)
        _certify_schedule(result, oracle, schedule)

    if config.policy in ("strict", "both"):
        _certify_simulation(
            result, oracle, "strict", keep_system=keep_system,
            backend=backend,
        )
    if config.policy in ("queued", "both") and oracle.supports_queued:
        _certify_simulation(
            result, oracle, "queued", keep_system=keep_system,
            backend=backend,
        )
    if config.policy == "both":
        strict_t = result.sim_times.get("strict")
        queued_t = result.sim_times.get("queued")
        if (
            strict_t is not None
            and queued_t is not None
            and strict_t != queued_t
        ):
            result.violations.append(
                f"differential[policies]: strict makespan "
                f"{time_repr(strict_t)} != queued makespan "
                f"{time_repr(queued_t)} — a collision-free protocol must "
                f"not slow down behind a NIC queue"
            )
    return result
