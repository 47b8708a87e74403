"""Grid-level batch execution: NumPy replay kernels + sweeps sharded
by plan key.

The sweeps the ROADMAP cares about (conformance grids, bench
trajectories, degradation curves) evaluate *many* parameter points,
each a deterministic plan replay.  This package makes the sweep itself
the unit of execution:

* :mod:`repro.batch.kernels` — the three replay passes, the plan key
  decode, and the replay lane's audit accept test and metric counts as
  optional NumPy kernels over zero-copy views of the columns, with the
  pure-Python code as the byte-identical fallback (``REPRO_NUMPY=off``
  forces it);
* :mod:`repro.batch.runner` — :func:`run_batch`: group the points by
  plan key, deal whole groups to worker shards that compile each plan
  once in their own process and replay its points, and put the results
  back in submission order, byte-identical to the serial path;
* :mod:`repro.batch.shared` — ``SchedulePlan.to_shared()`` /
  ``from_shared()`` over ``multiprocessing.shared_memory``, the
  zero-copy plan transport of the conformance fuzzer's ``--batch``
  sweep.

Typical use::

    from repro.batch import BatchPoint, run_batch

    points = [BatchPoint("BCAST", n, 1, "5/2") for n in range(64, 4096, 64)]
    results = run_batch(points, jobs=4)          # == run_batch(points)

The attribute indirection below keeps imports acyclic:
:mod:`repro.turbo.replay` imports the kernels at module scope, while
the runner imports :mod:`repro.turbo.replay` — so the runner (and the
shared-memory layer) load lazily on first attribute access.
"""

from repro.batch.kernels import kernels_enabled, numpy_version

__all__ = [
    "BatchPoint",
    "BatchResult",
    "SharedPlanHandle",
    "SharedPlanSet",
    "kernels_enabled",
    "numpy_version",
    "run_batch",
]

_RUNNER = ("BatchPoint", "BatchResult", "run_batch")
_SHARED = ("SharedPlanHandle", "SharedPlanSet")


def __getattr__(name):
    if name in _RUNNER:
        from repro.batch import runner

        return getattr(runner, name)
    if name in _SHARED:
        from repro.batch import shared

        return getattr(shared, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
