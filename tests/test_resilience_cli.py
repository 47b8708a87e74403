"""CLI tests for ``python -m repro resilience`` — error paths, the
golden degradation-curve table, single-run output, and exit codes."""

import json

import pytest

from repro.cli import main

from .test_cli import run_cli

pytestmark = pytest.mark.resilience


def refused(capsys, fragment, *argv):
    """*argv* exits 2 with one ``error:`` line containing *fragment*."""
    code = main(["resilience", "--n", "10", "--lam", "2", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert fragment in captured.err


class TestErrorPaths:
    def test_loss_out_of_range(self, capsys):
        refused(capsys, "loss", "--loss", "1.5")

    def test_negative_loss(self, capsys):
        refused(capsys, "loss", "--loss", "-0.1")

    def test_crash_rate_out_of_range(self, capsys):
        refused(capsys, "crash", "--crash", "1.0")

    def test_crashing_processor_zero(self, capsys):
        refused(capsys, "root", "--crashed", "0")

    def test_crashed_out_of_range(self, capsys):
        refused(capsys, "outside", "--crashed", "10")

    def test_crashed_not_an_int(self, capsys):
        refused(capsys, "--crashed wants a comma-separated", "--crashed", "2,x")

    def test_off_grid_jitter(self, capsys):
        # lambda=2 puts the tick grid at whole units; 1/3 is off-grid
        refused(capsys, "tick", "--jitter", "1/3")

    def test_on_grid_jitter_accepted(self, capsys):
        # lambda=5/2 runs at tick scale 2, so 1/2 is representable
        code, out = run_cli(
            capsys, "resilience", "--n", "10", "--lam", "5/2",
            "--jitter", "1/2", "--seed", "2",
        )
        assert code == 0
        assert "certificate  : OK" in out

    def test_bad_detector_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["resilience", "--n", "10", "--lam", "2",
                 "--detector", "psychic"]
            )

    def test_rto_must_exceed_lambda(self, capsys):
        refused(capsys, "rto", "--rto", "2")

    def test_curve_refuses_bad_rates(self, capsys):
        refused(capsys, "loss", "--curve", "--losses", "0,1.5")


class TestGoldenCurveTable:
    def test_golden_table(self, capsys):
        code, out = run_cli(
            capsys, "resilience", "--n", "40", "--lam", "2", "--curve",
            "--losses", "0,0.1", "--crashes", "0,0.1", "--seed", "1",
        )
        assert code == 0
        assert (
            "degradation curve: MPS(n=40, lambda=2), m=1, "
            "detector=timeout, seed 1" in out
        )
        # the full seeded table, byte for byte
        assert (
            " loss  crash  survivors  completion   ratio  drops  retrans  adopted  cert\n"
            " 0.00   0.00      40/40          12   1.33x      0        0        0  ok\n"
            " 0.10   0.00      40/40          17   1.89x     11       16        0  ok\n"
            " 0.00   0.10      37/40         298  33.11x     24       21        3  ok\n"
            " 0.10   0.10      39/40          17   1.89x     11       11        0  ok\n"
        ) in out

    def test_curve_is_replayable(self, capsys):
        argv = (
            "resilience", "--n", "24", "--lam", "2", "--curve",
            "--losses", "0,0.2", "--crashes", "0", "--seed", "7",
        )
        code_a, out_a = run_cli(capsys, *argv)
        code_b, out_b = run_cli(capsys, *argv)
        assert (code_a, out_a) == (code_b, out_b)

    def test_jobs_do_not_change_the_table(self, capsys):
        argv = (
            "resilience", "--n", "24", "--lam", "2", "--curve",
            "--losses", "0,0.2", "--crashes", "0,0.1", "--seed", "7",
        )
        _, serial = run_cli(capsys, *argv, "--jobs", "1")
        _, sharded = run_cli(capsys, *argv, "--jobs", "4")
        assert serial == sharded


class TestSingleRun:
    def test_golden_single_run(self, capsys):
        code, out = run_cli(
            capsys, "resilience", "--n", "20", "--lam", "2",
            "--loss", "0.2", "--seed", "3",
        )
        assert code == 0
        assert "machine      : MPS(n=20, lambda=2), m=1" in out
        assert "faults       : loss=0.2 crash=0 jitter<=0 (seed 3, 0 crashed)" in out
        assert "completion   : 30  (fault-free optimum 7, ratio 4.29x)" in out
        assert "survivors    : 20/20 — all informed" in out
        assert "drops        : 9  (9 loss + 0 crash-suppressed)" in out
        assert "retransmits  : 10" in out
        assert "certificate  : OK" in out

    def test_explicit_crash_reports_recovery(self, capsys):
        code, out = run_cli(
            capsys, "resilience", "--n", "14", "--lam", "2",
            "--crashed", "3,5", "--seed", "0",
        )
        assert code == 0
        assert "12/14" in out
        assert "2 declared dead" in out
        assert "certificate  : OK" in out

    def test_fault_free_matches_oracle(self, capsys):
        code, out = run_cli(
            capsys, "resilience", "--n", "14", "--lam", "2", "--seed", "0",
        )
        assert code == 0
        assert "fault-free optimum 7" in out
        assert "certificate  : OK" in out


class TestBenchIntegration:
    def test_bench_smoke_reports_resilience_gate(self, capsys, tmp_path):
        out_json = tmp_path / "bench.json"
        code, out = run_cli(
            capsys, "bench", "--smoke", "--section", "resilience",
            "--out", str(out_json),
        )
        assert code == 0
        assert "resilience gate: 3 fault cases at n=1,000" in out
        assert "deterministic=yes, certified=yes" in out
        assert "[PASS]" in out
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "repro-bench-turbo/8"
        assert doc["resilience"]["gate"]["ok"] is True
        assert len(doc["resilience"]["cases"]) == 3
        assert "cases" not in doc

    def test_bench_resilience_disabled(self, capsys, tmp_path):
        # the one tier-1 run of the smoke grid and its two speedup gates
        out_json = tmp_path / "bench.json"
        code, out = run_cli(
            capsys, "bench", "--smoke", "--section", "cases",
            "--out", str(out_json),
        )
        assert code == 0
        assert "resilience gate" not in out
        doc = json.loads(out_json.read_text())
        assert doc["cases"]["gate"]["ok"] is True
        assert {"plan", "replay", "resilience", "batch", "tune"}.isdisjoint(doc)
