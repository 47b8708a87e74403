"""End-to-end benchmark of the repro package's user calls.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bcast-replay-audited --seed 1 \\
        --seconds 20 --trace 0

Each run isolates the workload from the host.  It first starts
:data:`SETUP_SAMPLES` - 1 fresh processes that only set up (import
``repro`` and make the first verified call with cold plan and tune
caches), then the process that runs the workload.  Every process gets an
environment with no inherited ``REPRO_*`` variables and its own empty
cache directories under ``.perfbench_tmp/`` in the checkout, which is
removed afterwards.  ``setup_s`` is the median time from process start to
the first verified result.

The output is one line per metric, with its unit, then as the last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  It exits non-zero without that line when the checkout
has no ``src/repro`` or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, host_reference, normalized,
)
from workloads import TAIL_PERCENTILE, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
#: A run must end within 180 s; the workload process is killed before.
DEADLINE_S = 170.0


def _child_env(root: Path, scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_PLAN_CACHE_DIR"] = str(scratch / "plans")
    env["REPRO_TUNE_CACHE_DIR"] = str(scratch / "tune")
    return env


def _start(args, mode: str, root: Path, scratch: Path):
    scratch.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    return subprocess.Popen(
        cmd, cwd=root, env=_child_env(root, scratch),
        stdout=subprocess.PIPE, text=True,
    )


def _run_child(args, mode: str, root: Path, scratch: Path, deadline: float):
    """Run one child; returns ``(seconds to READY, host reference
    seconds just before the start, last stdout line)``, or ``None`` when
    it failed."""
    host = host_reference()
    start = time.perf_counter()
    proc = _start(args, mode, root, scratch)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    ready = None
    last = ""
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.strip():
                last = line.strip()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or ready is None:
        return None
    return ready, host, last


def _print_report(args, result: dict, metrics: dict, units: dict) -> None:
    host = result["host"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"numpy {host['numpy']}, kernels_enabled {host['kernels']}, "
          f"cpu_count {host['cpu_count']}, jobs {result['jobs']}")
    raw = result.get("raw_metrics", {})
    for name, value in metrics.items():
        note = ""
        if name == "call_tail_s":
            note = f"  (p{TAIL_PERCENTILE} of {result['calls']} calls)"
        if name == "setup_s":
            samples = ", ".join(f"{x:.3g}" for x in result["setup_samples"])
            note = f"  (median of {samples})"
        if name in raw and name != "peak_rss_mb":
            note += f"  [wall on this host: {raw[name]:.6g}]"
        print(f"{name:26s} {value:.6g} {units[name]}{note}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':26s} {rate:.6g}  "
          f"({result['failed']} of {result['attempted']} calls)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for perfbench/selftest.py")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"], cwd=root,
        check=True, stdout=subprocess.DEVNULL,
    )
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    try:
        runs = [
            _run_child(args, "setup", root, tmp / f"setup{i}", deadline)
            for i in range(SETUP_SAMPLES - 1)
        ]
        runs.append(_run_child(args, "run", root, tmp / "run", deadline))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if any(r is None for r in runs):
        print("perfbench: a workload process failed", file=sys.stderr)
        return 1
    result = json.loads(runs[-1][2])
    metrics = dict(result["metrics"])
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics["setup_s"] = statistics.median(
            normalized(ready, host) for ready, host, _ in runs
        )
        result["raw_metrics"]["setup_s"] = statistics.median(
            ready for ready, _, _ in runs
        )
        result["setup_samples"] = [ready for ready, _, _ in runs]
    correct = (
        result["failed"] == 0
        and set(metrics) == set(units)
        and result.get("traced_answers_match", True)
    )
    _print_report(args, result, metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
