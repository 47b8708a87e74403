"""Tests for the seeded differential fuzzer and the failure-artifact
pipeline (repro.conformance.fuzzer / artifacts)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.conformance import (
    ConformanceConfig,
    FuzzOptions,
    certify_config,
    families,
    run_fuzz,
    sample_config,
    smoke_options,
    write_failure_artifact,
)
from repro.errors import InvalidParameterError
from repro.obs.export import dump_jsonl

REPO_ROOT = Path(__file__).resolve().parents[1]


def _quick(seed=0, **overrides):
    base = dict(
        seed=seed,
        iterations=2 * len(families()),
        max_n=8,
        max_m=3,
        max_lam=4,
        max_denominator=3,
    )
    base.update(overrides)
    return FuzzOptions(**base)


class TestSampling:
    def test_sampled_configs_are_always_applicable(self):
        import random

        from repro.conformance import get_oracle

        rng = random.Random(123)
        opts = _quick()
        for family in families():
            for _ in range(20):
                cfg = sample_config(rng, family, opts)
                oracle = get_oracle(family)
                # raises on an inapplicable draw
                oracle.check_applicable(cfg.n, cfg.m, cfg.lam_time)

    def test_rational_lambdas_are_drawn(self):
        import random

        rng = random.Random(7)
        opts = _quick()
        denominators = {
            sample_config(rng, "REPEAT", opts).lam_time.denominator
            for _ in range(50)
        }
        assert denominators - {1}, "no rational lambda in 50 draws"


class TestFuzz:
    def test_quick_fuzz_certifies_everything(self):
        report = run_fuzz(_quick())
        assert report.ok, [f.violations for f in report.failures]
        assert set(report.stats) == set(families())
        assert report.total_runs == 2 * len(families())
        assert "certified" in report.summary()

    def test_smoke_options_cover_every_family(self):
        opts = smoke_options(seed=1)
        assert opts.iterations >= len(families())

    def test_no_families_raises(self):
        with pytest.raises(InvalidParameterError):
            run_fuzz(FuzzOptions(families=()))

    def test_chaos_corruptions_are_caught(self, tmp_path):
        opts = _quick(
            seed=5,
            iterations=12,
            chaos_rate=1.0,
            artifact_dir=str(tmp_path),
        )
        report = run_fuzz(opts)
        assert report.ok, [f.violations for f in report.failures]
        caught = sum(s.chaos_detected for s in report.stats.values())
        missed = sum(s.chaos_missed for s in report.stats.values())
        assert caught > 0 and missed == 0
        assert len(report.artifacts) == caught


class TestDeterminism:
    """Satellite (a): one seed, one behaviour — byte for byte."""

    def test_same_seed_same_report(self):
        a, b = run_fuzz(_quick(seed=9)), run_fuzz(_quick(seed=9))
        assert a.stats == b.stats

    def test_different_seed_different_grid(self):
        import random

        opts = _quick()
        cfg_a = sample_config(random.Random(1), "REPEAT", opts)
        cfg_b = sample_config(random.Random(2), "REPEAT", opts)
        assert cfg_a != cfg_b  # overwhelmingly likely; pinned seeds

    def test_same_seed_byte_identical_trace_jsonl(self):
        cfg = ConformanceConfig("PACK", 7, 3, "5/2", policy="strict")

        def dump():
            result = certify_config(cfg, keep_system=True)
            assert result.ok, result.violations
            buf = io.StringIO()
            dump_jsonl(result.systems["strict"].tracer, buf)
            return buf.getvalue()

        assert dump() == dump()

    def test_same_seed_identical_artifacts(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            root = tmp_path / name
            report = run_fuzz(
                _quick(
                    seed=5,
                    iterations=12,
                    chaos_rate=1.0,
                    artifact_dir=str(root),
                )
            )
            assert report.artifacts
            dirs.append(root)
        files_a = sorted(
            p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file()
        )
        files_b = sorted(
            p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file()
        )
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "reproduce.py":
                continue  # embeds the artifact dir name in its docstring
            assert (dirs[0] / rel).read_bytes() == (
                dirs[1] / rel
            ).read_bytes(), rel


class TestArtifacts:
    def _chaos_result(self):
        cfg = ConformanceConfig("REPEAT", 7, 2, "2", chaos_seed=42)
        result = certify_config(cfg, keep_system=True)
        assert not result.ok
        return result

    def test_artifact_contents(self, tmp_path):
        directory = write_failure_artifact(self._chaos_result(), tmp_path)
        names = {p.name for p in directory.iterdir()}
        assert "config.json" in names
        assert "reproduce.py" in names
        assert "chrome-static.json" in names  # corrupted static schedule
        summary = json.loads((directory / "config.json").read_text())
        assert summary["config"]["chaos_seed"] == 42
        assert summary["violations"]
        assert summary["corruption"]

    def test_simulation_traces_dumped_when_systems_kept(self, tmp_path):
        cfg = ConformanceConfig("BCAST", 6, 1, "2", policy="both")
        result = certify_config(cfg, keep_system=True)
        # force a violation so an artifact is warranted
        result.violations.append("synthetic: test-injected divergence")
        directory = write_failure_artifact(result, tmp_path)
        names = {p.name for p in directory.iterdir()}
        assert {"trace-strict.jsonl", "trace-queued.jsonl"} <= names
        assert {"chrome-strict.json", "chrome-queued.json"} <= names
        first = (directory / "trace-strict.jsonl").read_text().splitlines()
        assert first and all(json.loads(line) for line in first)

    def test_repro_script_reproduces_violation_from_seed(self, tmp_path):
        """Acceptance criterion: the filed repro script re-derives the
        corruption from the recorded seed and exits 1."""
        directory = write_failure_artifact(self._chaos_result(), tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, str(directory / "reproduce.py")],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
            timeout=60,
        )
        assert proc.returncode == 1, (proc.stdout, proc.stderr)
        assert "violation" in proc.stdout


class TestCli:
    def test_conformance_smoke_command(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "conformance",
                "--smoke",
                "--seed",
                "2",
                "--iterations",
                "16",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "certified" in out
        assert "family" in out  # the summary table rendered

    def test_conformance_family_subset(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "conformance",
                "--families",
                "BCAST,PIPELINE-2",
                "--iterations",
                "6",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PIPELINE-2" in out

    def test_conformance_takes_the_names_every_front_door_takes(self, capsys):
        # PIPELINE is both variants; DTREE-<d> any degree
        from repro.cli import main

        rc = main(["conformance", "--smoke", "--families", "pipeline,dtree-5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "over 3 families" in out
        for family in ("PIPELINE-1", "PIPELINE-2", "DTREE-5"):
            assert family in out

    def test_get_oracle_refuses_what_needs_m_and_lambda(self):
        from repro.conformance import get_oracle
        from repro.conformance.oracles import resolve_oracle

        assert get_oracle("dtree-05").family == "DTREE-5"
        with pytest.raises(InvalidParameterError) as exc:
            get_oracle("pipeline")
        with pytest.raises(InvalidParameterError) as other:
            resolve_oracle("nosuch", 1, 2)
        prefix = "unknown family 'pipeline' ("
        assert str(exc.value).startswith(prefix)
        assert str(exc.value)[len(prefix):] == str(other.value).split(" (", 1)[1]


class TestBatchPlanDistribution:
    """``FuzzOptions(batch=True)``: pre-compiled, shared-memory plans
    must be invisible in the report — byte-identical outcomes — and the
    segments must never outlive the run."""

    def _report_signature(self, report):
        return (
            report.ok,
            report.total_runs,
            {
                family: (s.runs, s.certified, s.failed, s.chaos_missed)
                for family, s in sorted(report.stats.items())
            },
        )

    def test_batch_requires_replay_backend(self):
        with pytest.raises(InvalidParameterError, match="replay"):
            run_fuzz(_quick(backend="exact", batch=True))

    def test_batch_report_is_identical_to_plain(self):
        plain = run_fuzz(_quick(seed=11, backend="replay"))
        batch = run_fuzz(_quick(seed=11, backend="replay", batch=True))
        assert plain.ok and batch.ok
        assert self._report_signature(plain) == self._report_signature(batch)

    def test_batch_parallel_is_identical_to_serial(self):
        serial = run_fuzz(_quick(seed=12, backend="replay", batch=True))
        parallel = run_fuzz(
            _quick(seed=12, backend="replay", batch=True), jobs=2
        )
        assert self._report_signature(serial) == self._report_signature(
            parallel
        )

    def test_batch_releases_every_segment(self):
        shm = Path("/dev/shm")
        if not shm.is_dir():
            pytest.skip("no /dev/shm to scan for leaks")
        before = {p.name for p in shm.iterdir()}
        run_fuzz(_quick(seed=13, backend="replay", batch=True), jobs=2)
        assert {p.name for p in shm.iterdir()} <= before

    def test_cli_batch_rejects_non_replay_backend(self, capsys):
        from repro.cli import main

        rc = main(["conformance", "--batch", "--iterations", "4"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --batch pre-compiles")
        assert captured.err.count("\n") == 1
        assert "--backend replay" in captured.err

    def test_cli_batch_smoke(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "conformance",
                "--batch",
                "--backend",
                "replay",
                "--seed",
                "3",
                "--iterations",
                "12",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "shared batch plans" in out
