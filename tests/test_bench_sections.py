"""Unit tests for the bench table (:data:`repro.bench.SECTIONS`) and its
document: the header (``effective_jobs``, the NumPy version and kernel
mode), the baseline diff, the warn-once oversubscription warning, the
``--profile`` hook, the replay gate, and the batch tier's section and
gates."""

import json
import os

import pytest

from repro import bench, parallel
from repro.batch.kernels import kernels_enabled
from repro.bench import (
    BATCH_GATE_MIN_SPEEDUP,
    BATCH_KERNEL_GATE_MIN_SPEEDUP,
    BATCH_PARALLEL_GATE_MIN_SPEEDUP,
    BenchCase,
    BenchResult,
    REPLAY_GATE_MIN_SPEEDUP,
    REPLAY_TAIL_GATE_MAX,
    SCHEMA,
    Section,
    batch_grid,
    bench_batch,
    bench_replay,
    compare_to_baseline,
    profile_case,
    run_case,
    to_json,
)
from repro.errors import InvalidParameterError
from repro.types import as_time

_LAM = as_time(2)


def _fake_results(scale=None):
    """A synthetic grid containing both gate cases; *scale* maps a lane
    name to a factor applied to that lane's wall time."""
    scale = scale or {}

    def mk(fam, n, ex, tu, sends, rp):
        return BenchResult(
            BenchCase(fam, n, 1, _LAM),
            ex * scale.get("exact", 1),
            tu * scale.get("turbo", 1),
            sends,
            rp * scale.get("replay", 1),
        )

    return [
        mk("BCAST", 10_000, 3.0, 0.5, 9_999, 0.05),
        mk("ALLGATHER", 100, 1.5, 0.12, 9_999, 0.01),
    ]


#: Exact-call stage times at the gate case, as ``_exact_stages`` records them.
_FAKE_STAGES = {"family": "BCAST", "n": 10_000, "audit_s": 0.4, "metrics_s": 0.2}


def _fake_cases(scale=None):
    """The ``cases`` section of :func:`_fake_results`."""
    return bench._cases_section(_fake_results(scale), _FAKE_STAGES)


def test_to_json_records_replay_and_effective_jobs():
    doc = json.loads(to_json({"cases": _fake_cases()}, mode="smoke", jobs=0))
    assert doc["schema"] == SCHEMA == "repro-bench-turbo/8"
    assert doc["jobs"] == 0
    assert doc["effective_jobs"] == (os.cpu_count() or 1)
    case = doc["cases"]["rows"][0]
    assert case["replay_s"] == 0.05
    assert case["replay_speedup"] == 60.0
    assert case["speedup"] == 6.0
    gate = doc["cases"]["gate"]
    assert gate["turbo"]["speedup"] == 6.0
    assert gate["collective"]["speedup"] == 12.5
    assert gate["ok"] is True


def test_to_json_records_numpy_version():
    from repro.batch.kernels import numpy_version

    doc = json.loads(to_json({"cases": _fake_cases()}, mode="smoke"))
    assert "numpy" in doc
    assert doc["numpy"] == numpy_version()  # installed version or None
    assert doc["kernels"] is kernels_enabled()


def test_to_json_carries_replay_section():
    replay = {"n": 1000, "speedup": 42.0, "gate": {"ok": True}}
    doc = json.loads(to_json({"replay": replay}, mode="smoke", jobs=1))
    assert doc["replay"]["speedup"] == 42.0


def test_warns_on_oversubscription(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(parallel, "_warned_oversubscribed", False)  # re-arm
    with pytest.warns(RuntimeWarning, match="exceeds cpu_count"):
        parallel.warn_if_oversubscribed(2, what="bench")


def test_oversubscription_warning_fires_at_most_once_per_process(
    monkeypatch, recwarn
):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(parallel, "_warned_oversubscribed", False)  # re-arm
    assert parallel.warn_if_oversubscribed(2, what="bench") is True
    # second sharded call: same process, silent
    assert parallel.warn_if_oversubscribed(4, what="bench") is False
    assert (
        len([w for w in recwarn if w.category is RuntimeWarning]) == 1
    )


def test_serial_jobs_do_not_warn(monkeypatch, recwarn):
    monkeypatch.setattr(parallel, "_warned_oversubscribed", False)  # re-arm
    assert parallel.warn_if_oversubscribed(1, what="bench") is False
    assert not [w for w in recwarn if w.category is RuntimeWarning]


def _baseline(**header):
    doc = json.loads(to_json({"cases": _fake_cases()}, mode="smoke"))
    doc.update(header)
    return doc


def test_compare_to_baseline_flags_replay_regression():
    regressions, notes = compare_to_baseline(
        {"cases": _fake_cases({"replay": 2})}, _baseline()
    )
    assert notes == []
    assert len(regressions) == 2
    assert all("[replay]" in line for line in regressions)


@pytest.mark.parametrize("lane", ["exact", "turbo"])
def test_compare_to_baseline_flags_a_slower_column(lane):
    regressions, _ = compare_to_baseline(
        {"cases": _fake_cases({lane: 2})}, _baseline()
    )
    assert len(regressions) == 2
    assert all(f"[{lane}]" in line and "+100%" in line for line in regressions)
    # within the tolerance is no regression, and faster never is
    for factor in (1.25, 0.5):
        assert compare_to_baseline(
            {"cases": _fake_cases({lane: factor})}, _baseline()
        ) == ([], [])


def test_compare_to_baseline_skips_replay_from_the_other_kernel_mode():
    other = _baseline(kernels=not kernels_enabled())
    regressions, notes = compare_to_baseline(
        {"cases": _fake_cases({"replay": 10})}, other
    )
    assert regressions == []
    assert len(notes) == 1 and notes[0].startswith("replay column skipped")
    # the exact and turbo columns are still diffed
    regressions, _ = compare_to_baseline(
        {"cases": _fake_cases({"exact": 2, "replay": 10})}, other
    )
    assert len(regressions) == 2
    assert all("[exact]" in line for line in regressions)


def test_compare_to_baseline_refuses_other_schemas(tmp_path):
    old = _baseline(schema="repro-bench-turbo/7")
    with pytest.raises(InvalidParameterError, match="repro-bench-turbo/7"):
        compare_to_baseline({"cases": _fake_cases()}, old)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    with pytest.raises(InvalidParameterError, match="is not"):
        bench.load_baseline(str(path))


def test_run_case_measures_all_three_backends():
    res = run_case(BenchCase("BCAST", 64, 1, _LAM))
    assert res.sends == 63
    assert res.exact_s > 0 and res.turbo_s > 0 and res.replay_s > 0
    assert res.replay_speedup == res.exact_s / res.replay_s


def test_exact_stages_time_the_audit_and_the_fold():
    stages = bench._exact_stages(BenchCase("BCAST", 64, 1, _LAM))
    assert stages.keys() == {"family", "n", "audit_s", "metrics_s"}
    assert (stages["family"], stages["n"]) == ("BCAST", 64)
    assert stages["audit_s"] > 0 and stages["metrics_s"] > 0


def test_cases_section_reports_the_exact_stages_outside_its_gate():
    section = _fake_cases()
    assert section["exact_stages"] == _FAKE_STAGES
    assert "exact_stages" not in section["gate"]
    lines = bench._report_cases(section)
    assert (
        "exact call stages at BCAST n=10,000: audit 0.4000s, metrics 0.2000s"
        in lines
    )
    # the baseline diff reads the rows alone: stage times far over a
    # baseline's flag nothing, and a baseline without them diffs as before
    slow = dict(section, exact_stages=dict(_FAKE_STAGES, audit_s=40.0))
    baseline = _baseline()
    assert compare_to_baseline({"cases": slow}, baseline)[0] == []
    del baseline["cases"]["exact_stages"]
    assert compare_to_baseline({"cases": slow}, baseline)[0] == []


def test_bench_replay_section_shape():
    section = bench_replay(n=256)
    assert section["family"] == "BCAST"
    assert section["sends"] == 255
    assert section["gate"]["min_speedup"] == REPLAY_GATE_MIN_SPEEDUP
    assert section["speedup"] > 1.0
    assert section["replay_s"] < section["exact_s"]


def test_bench_replay_records_the_tail_gate():
    # the section's shape at a small n, not its verdict
    section = bench_replay(n=256)
    gate = section["gate"]
    assert gate["max_tail_over_kernel"] == REPLAY_TAIL_GATE_MAX == 10.0
    assert section["kernel_s"] > 0
    # two stages of the call, on the same warm replay; no gate reads them
    assert section["audit_s"] > 0 and section["metrics_s"] > 0
    assert "audit_s" not in gate and "metrics_s" not in gate
    assert section["kernels"] is kernels_enabled()
    # both times are rounded to 6 places, a few percent of 0.1 ms
    assert section["tail_over_kernel"] == pytest.approx(
        section["replay_s"] / section["kernel_s"], rel=0.05
    )
    assert gate["ok"] == (gate["speedup_ok"] and gate["tail_ok"])
    if not kernels_enabled():
        assert gate["tail_ok"] is True  # no bar against the Python passes
    lines = bench._report_replay(section)
    assert lines[0].startswith("replay gate: replay >= 20x exact")
    assert lines[1].startswith("tail gate: ")
    assert lines[1].endswith("[SKIP]") != kernels_enabled()
    assert f"audit {section['audit_s']:.4f}s" in lines[1]
    assert f"metrics {section['metrics_s']:.4f}s" in lines[1]


def test_profile_case_writes_pstats_and_table(tmp_path):
    import pstats

    dump = tmp_path / "case.pstats"
    table = profile_case(
        BenchCase("BCAST", 64, 1, _LAM), backend="turbo", out=str(dump)
    )
    assert dump.exists()
    assert "run_protocol" in table
    assert table.startswith("profile: BCAST n=64")
    stats = pstats.Stats(str(dump))  # the dump is a loadable pstats file
    assert stats.total_calls > 0


def test_batch_grid_shape():
    points = batch_grid()
    assert len(points) == 64
    assert {p.family for p in points} == {"BCAST", "PIPELINE-2"}
    assert len({(p.family, p.n, p.m) for p in points}) == 64  # all distinct


def test_bench_batch_section_shape():
    from repro.batch.kernels import kernels_enabled

    section = bench_batch(kernel_n=512)
    assert section["points"] == 64
    assert section["gate"]["min_speedup"] == BATCH_GATE_MIN_SPEEDUP
    assert section["per_point_s"] > 0 and section["batch_s"] > 0
    # speedup is rounded from the *raw* ratio; per_point_s/batch_s are
    # independently rounded to 6dp, so recombining them is only close
    assert section["speedup"] == pytest.approx(
        section["per_point_s"] / section["batch_s"], rel=1e-3
    )
    kernel = section["kernel"]
    assert kernel["n"] == 512
    assert kernel["gate"]["min_speedup"] == BATCH_KERNEL_GATE_MIN_SPEEDUP
    assert kernel["python_s"] > 0
    from repro.batch.kernels import numpy_version

    assert kernel["numpy"] == numpy_version()  # installed version or None
    if kernels_enabled():
        assert kernel["numpy_s"] > 0
    else:
        # no kernels (absent or REPRO_NUMPY=off): vacuous, never a failure
        assert kernel["numpy_s"] is None and kernel["speedup"] is None
        assert kernel["gate"]["ok"] is True
    parallel = section["parallel"]
    assert parallel["jobs"] == 2
    assert parallel["min_speedup"] == BATCH_PARALLEL_GATE_MIN_SPEEDUP == 1.0
    if (os.cpu_count() or 1) >= 2:
        assert parallel["skipped"] is False
        assert parallel["serial_s"] > 0 and parallel["parallel_s"] > 0
        assert parallel["ok"] == (parallel["speedup"] >= 1.0)
    assert section["gate"]["parallel_ok"] == parallel["ok"]
    assert section["gate"]["ok"] == (
        section["gate"]["sweep_ok"]
        and section["gate"]["parallel_ok"]
        and section["gate"]["kernel_ok"]
    )


def test_parallel_gate_is_skipped_on_one_cpu(monkeypatch):
    import repro.batch

    monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
    timed = []
    monkeypatch.setattr(
        repro.batch, "run_batch", lambda points, jobs: timed.append(jobs)
    )
    monkeypatch.setattr(bench, "_per_point_sweep", lambda points: None)
    monkeypatch.setattr(bench, "_cold_s", lambda fn: fn() or 1.0)
    monkeypatch.setattr(bench, "_best_of", lambda run, setup=None: (1.0, None))
    section = bench_batch(kernel_n=64)
    assert timed == [1]  # the sweep gate's batch side only: no jobs=2 sweep
    assert section["parallel"]["skipped"] is True
    assert section["parallel"]["speedup"] is None
    assert section["gate"]["parallel_ok"] is True


def test_cold_sweep_restores_the_plan_cache():
    from repro.plan import cache as plan_cache

    before = plan_cache.default_cache()
    seen = []

    def sweep():
        seen.append(plan_cache.default_cache())
        bench._per_point_sweep(batch_grid()[:2])

    assert bench._cold_s(sweep) > 0
    assert plan_cache.default_cache() is before
    # every repetition starts on its own empty cache
    assert len(set(map(id, seen))) == len(seen) and before not in seen


def test_time_backend_is_a_fixed_best_of_three(monkeypatch):
    import repro.postal.runner as runner

    calls = []
    collected = []
    run = runner.run_protocol
    monkeypatch.setattr(
        runner, "run_protocol",
        lambda *args, **kwargs: calls.append(1) or run(*args, **kwargs),
    )
    monkeypatch.setattr(bench.gc, "collect", lambda: collected.append(len(calls)))
    _, sends = bench._time_backend(BenchCase("BCAST", 64, 1, _LAM), "turbo")
    assert sends == 63
    assert len(calls) == 3  # a fast run is not repeated until a time budget
    assert collected == [0]  # one collection, before the first repetition


def test_bench_cli_forwards_jobs_to_the_batch_section(monkeypatch, capsys):
    from repro.cli import main

    seen = {}

    def fake_batch(**kwargs):
        seen.update(kwargs)
        return {
            "points": 64, "jobs": kwargs["jobs"], "speedup": 9.0,
            "per_point_s": 0.9, "batch_s": 0.1,
            "parallel": {"skipped": False, "ok": True, "speedup": 1.8,
                         "min_speedup": 1.0, "serial_s": 0.6,
                         "parallel_s": 0.33},
            "kernel": {"numpy_s": None, "numpy": None, "gate": {"ok": True}},
            "gate": {"min_speedup": 3.0, "sweep_ok": True, "ok": True},
        }

    monkeypatch.setattr(bench, "bench_batch", fake_batch)
    monkeypatch.setattr(parallel, "_warned_oversubscribed", True)
    code = main(["bench", "--smoke", "--section", "batch", "--jobs", "2"])
    out = capsys.readouterr().out
    assert seen == {"jobs": 2}
    assert "at jobs=2" in out
    assert "parallel gate: cold-cache run_batch at jobs=2" in out
    assert code == 0


def test_to_json_carries_batch_section():
    batch = {"points": 64, "speedup": 9.0, "gate": {"ok": True}}
    doc = json.loads(to_json({"batch": batch}, mode="smoke", jobs=1))
    assert doc["batch"]["speedup"] == 9.0


def test_to_json_omits_batch_section_when_not_measured():
    doc = json.loads(to_json({"cases": _fake_cases()}, mode="smoke"))
    assert "batch" not in doc


def test_a_new_section_is_one_table_entry(monkeypatch, capsys, tmp_path):
    from repro.cli import main

    calls = []

    def run(mode, jobs):
        calls.append((mode, jobs))
        return {"reading": 1.5, "gate": {"ok": False}}

    fake = Section("fake", run, lambda section: [
        f"fake gate: read {section['reading']} [FAIL]"
    ])
    monkeypatch.setattr(bench, "SECTIONS", [*bench.SECTIONS, fake])
    out_json = tmp_path / "bench.json"
    code = main([
        "bench", "--full", "--section", "fake", "--jobs", "0",
        "--out", str(out_json),
    ])
    out = capsys.readouterr().out
    assert calls == [("full", os.cpu_count() or 1)]
    assert code == 1  # the entry's failing gate fails the run
    assert "fake gate: read 1.5 [FAIL]" in out
    doc = json.loads(out_json.read_text())
    assert doc["fake"] == {"reading": 1.5, "gate": {"ok": False}}
    assert [key for key in doc if key in {e.name for e in bench.SECTIONS}] == [
        "fake"
    ]
