"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload in
``BENCHMARK.json`` it runs ``run.py --tiny`` untraced and traced, and
checks that the run exits 0, reports ``correct`` with no failures, and
emits exactly the named end-to-end (or per-layer) metrics, each with its
unit.  It also checks that ``run.py`` refuses to run, exit code non-zero
and no result line, in a directory holding only ``BENCHMARK.json`` and
``perfbench/``.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _fail(message: str) -> int:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    return 1


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared[0] != END_TO_END or declared[1] != PER_LAYER:
        return _fail("BENCHMARK.json metrics differ from perfbench/metrics.py")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        return _fail("BENCHMARK.json workloads differ from workloads.py")

    for workload in names:
        for trace in (0, 1):
            proc = _run(root, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                return _fail(f"{label} exited {proc.returncode}: "
                             f"{proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                return _fail(f"{label} reported a wrong answer")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                return _fail(f"{label} emitted {sorted(emitted)}")
            for name, value in result["metrics"].items():
                if not isinstance(value["value"], (int, float)):
                    return _fail(f"{label}: {name} is not a number")
                print(f"{label:40s} {name:26s} "
                      f"{value['value']:.6g} {value['unit']}")

    # a directory with only the benchmark's own files must be refused
    bare = root / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, names[0], 0)
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return _fail("run.py ran without the repository's sources")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
