"""``repro.conformance`` — oracles, certification, and the fuzzer.

The conformance subsystem certifies every protocol family against the
paper's closed forms, from four independent directions at once:

* :mod:`repro.conformance.oracles` — the **oracle registry**, the one
  family table: each family's exact (or upper-bound) running-time
  formula with its paper citation, applicability predicate, protocol
  factory, independent static schedule builder and plan compiler, and
  :func:`~repro.conformance.oracles.resolve_oracle`, which maps any
  family name the entry points accept to its entry.
* :mod:`repro.conformance.certify` — :func:`certify_config`:
  end-to-end certification of one ``(family, n, m, lambda, policy)``
  grid point — postal axioms, closed-form makespan, Lemma 5 population
  certificate, Lemma 8 lower bound, order preservation, the extended
  run validator under both contention policies, and static-vs-simulated
  differentials.
* :mod:`repro.conformance.chaos` — seeded schedule corruption, the
  self-test that proves the certifier can actually fail.
* :mod:`repro.conformance.fuzzer` — :func:`run_fuzz`: the seeded
  differential fuzzer over reproducible grids (rational ``lambda``
  included), with round-robin family coverage.  Every grid point owns a
  stable derived seed (:func:`repro.parallel.derive_seed`), so the
  sweep shards over worker processes (``run_fuzz(opts, jobs=N)``) with
  a report identical to the serial one.
* :mod:`repro.conformance.artifacts` — failure artifacts: a
  self-contained directory with the config, a standalone ``repro.py``
  that reproduces the violation from the recorded seed, and the
  JSONL / Chrome traces.

CLI entry point: ``python -m repro conformance`` (``--smoke`` for the
CI grid, ``--deep`` for the nightly one).  The oracle table and the
artifact format are documented in ``docs/conformance.md``.
"""

from repro.conformance.artifacts import artifact_name, write_failure_artifact
from repro.conformance.certify import (
    CertResult,
    ConformanceConfig,
    certify_config,
)
from repro.conformance.chaos import MUTATIONS, corrupt_schedule
from repro.conformance.fuzzer import (
    FamilyStats,
    FuzzOptions,
    FuzzReport,
    deep_options,
    point_rng,
    run_fuzz,
    sample_config,
    smoke_options,
)
from repro.conformance.oracles import (
    REGISTRY,
    Oracle,
    broadcast_families,
    collective_families,
    families,
    get_oracle,
    register,
    resolve_oracle,
)

__all__ = [
    "Oracle",
    "REGISTRY",
    "register",
    "get_oracle",
    "resolve_oracle",
    "families",
    "broadcast_families",
    "collective_families",
    "ConformanceConfig",
    "CertResult",
    "certify_config",
    "MUTATIONS",
    "corrupt_schedule",
    "FuzzOptions",
    "FamilyStats",
    "FuzzReport",
    "smoke_options",
    "deep_options",
    "sample_config",
    "point_rng",
    "run_fuzz",
    "artifact_name",
    "write_failure_artifact",
]
