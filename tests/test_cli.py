"""Tests for the command-line interface (python -m repro ...)."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFib:
    def test_both_values(self, capsys):
        code, out = run_cli(capsys, "fib", "--lam", "5/2", "--t", "7.5", "--n", "14")
        assert code == 0
        assert "F_2.5(7.5) = 14" in out
        assert "f_2.5(14) = 7.5" in out

    def test_requires_t_or_n(self, capsys):
        assert main(["fib", "--lam", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fib: provide --t and/or --n\n"


class TestTree:
    def test_ascii(self, capsys):
        code, out = run_cli(capsys, "tree", "--n", "14", "--lam", "5/2")
        assert code == 0
        assert "p9 @ 2.5" in out
        assert "height (completion time): 7.5" in out

    def test_json(self, capsys):
        code, out = run_cli(capsys, "tree", "--n", "14", "--lam", "5/2", "--json")
        data = json.loads(out)
        assert data["format"] == "repro.tree.v1"
        assert data["nodes"]["0"]["children"][0] == 9


class TestGantt:
    def test_bcast(self, capsys):
        code, out = run_cli(capsys, "gantt", "--n", "5", "--lam", "2")
        assert code == 0
        assert "S" in out and "R" in out
        assert "completion:" in out

    def test_multi_algorithm(self, capsys):
        code, out = run_cli(
            capsys, "gantt", "--n", "5", "--lam", "2", "--m", "3",
            "--algorithm", "pipeline",
        )
        assert code == 0


class TestSimulate:
    def test_bcast(self, capsys):
        code, out = run_cli(capsys, "simulate", "--n", "14", "--lam", "5/2")
        assert code == 0
        assert "completion: 7.5" in out
        assert "sends     : 13" in out
        assert "ratio 1.000" in out

    def test_export(self, capsys, tmp_path):
        target = tmp_path / "sched.json"
        code, out = run_cli(
            capsys, "simulate", "--n", "8", "--lam", "2",
            "--export", str(target),
        )
        assert code == 0
        from repro.core.serialize import loads_schedule

        sched = loads_schedule(target.read_text())
        assert sched.n == 8

    def test_all_algorithms(self, capsys):
        for algo, name in (
            ("repeat", "REPEAT"),
            ("pack", "PACK"),
            ("pipeline", "PIPELINE"),
            ("dtree-2", "DTREE"),
            ("star", "STAR"),
        ):
            code, out = run_cli(
                capsys, "simulate", "--n", "6", "--lam", "2", "--m", "2",
                "--algorithm", algo,
            )
            assert code == 0, algo
            assert f"algorithm : {name}\n" in out, algo

    def test_binomial(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--n", "8", "--lam", "2",
            "--algorithm", "binomial",
        )
        assert code == 0

    def test_unknown_algorithm(self, capsys):
        code = main(["simulate", "--n", "4", "--lam", "2", "--algorithm", "magic"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: unknown family 'magic'")
        assert captured.err.count("\n") == 1


class TestCompare:
    def test_table_and_winner(self, capsys):
        code, out = run_cli(capsys, "compare", "--n", "14", "--lam", "5/2", "--m", "4")
        assert code == 0
        for name in ("REPEAT", "PACK", "PIPELINE", "DTREE-LINE"):
            assert name in out
        assert "winner:" in out
        assert "lower bound" in out


class TestBounds:
    def test_both(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--lam", "5/2", "--t", "10", "--n", "100"
        )
        assert code == 0
        assert "Theorem 7(1)" in out and "Theorem 7(2)" in out

    def test_requires_t_or_n(self, capsys):
        assert main(["bounds", "--lam", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bounds: provide --t and/or --n\n"


class TestCollectives:
    def test_table(self, capsys):
        code, out = run_cli(capsys, "collectives", "--n", "14", "--lam", "5/2")
        assert code == 0
        for word in ("broadcast", "reduce", "scatter", "gather", "alltoall",
                     "allreduce", "barrier"):
            assert word in out


class TestReliable:
    def test_lossless(self, capsys):
        code, out = run_cli(
            capsys, "reliable", "--n", "8", "--lam", "2", "--loss", "0",
        )
        assert code == 0
        assert "drops       : 0" in out
        assert "retransmits : 0" in out

    def test_lossy_deterministic(self, capsys):
        _, out1 = run_cli(
            capsys, "reliable", "--n", "12", "--lam", "5/2",
            "--loss", "0.3", "--seed", "5",
        )
        _, out2 = run_cli(
            capsys, "reliable", "--n", "12", "--lam", "5/2",
            "--loss", "0.3", "--seed", "5",
        )
        assert out1 == out2
        assert "retransmits" in out1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fib", "--lam", "2", "--n", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "f_2(8) = 5" in proc.stdout


class TestTrace:
    def test_bcast_defaults(self, capsys):
        code, out = run_cli(capsys, "trace", "-n", "14", "--lam", "5/2")
        assert code == 0
        assert "algorithm : BCAST" in out
        assert "completion: 7.5" in out
        assert "critical path:" in out and "tight to t=0" in out
        assert "matches the exact formula" in out

    def test_acceptance_command(self, capsys, tmp_path):
        """The issue's acceptance check: pipeline n=64 m=8 lam=3 with
        --chrome and --summary yields a Perfetto-loadable JSON, the
        utilization table, and a critical path equal to Lemma 14/16."""
        from repro.core.analysis import pipeline_time
        from repro.types import time_repr

        chrome = tmp_path / "out.json"
        code, out = run_cli(
            capsys, "trace", "--algorithm", "pipeline", "-n", "64",
            "-m", "8", "--lam", "3", "--chrome", str(chrome), "--summary",
        )
        assert code == 0
        expected = pipeline_time(64, 8, 3)
        assert f"completion: {time_repr(expected)}" in out
        assert f"length {time_repr(expected)}" in out
        assert "matches the exact formula" in out
        assert "per-port utilization" in out
        assert "inbox hwm" in out  # the table header
        assert "latency histogram" in out
        doc = json.loads(chrome.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert events
        last = -1.0
        for event in events:
            assert event["ts"] >= 0.0 and event["ts"] >= last
            last = event["ts"]

    def test_critical_path_listing(self, capsys):
        code, out = run_cli(
            capsys, "trace", "-n", "8", "--lam", "2", "-m", "2",
            "--algorithm", "pipeline", "--critical-path",
        )
        assert code == 0
        assert "tight back to t=0" in out
        assert "-->" in out

    def test_pack_reports_slack(self, capsys):
        code, out = run_cli(
            capsys, "trace", "-n", "13", "--lam", "5/2", "-m", "4",
            "--algorithm", "pack",
        )
        assert code == 0
        assert "has upstream slack" in out
        assert "matches the exact formula" in out

    def test_csv_and_jsonl(self, capsys, tmp_path):
        csv_path = tmp_path / "run.csv"
        jsonl_path = tmp_path / "run.jsonl"
        code, out = run_cli(
            capsys, "trace", "-n", "5", "--lam", "2",
            "--csv", str(csv_path), "--jsonl", str(jsonl_path),
        )
        assert code == 0
        rows = csv_path.read_text().splitlines()
        lines = jsonl_path.read_text().splitlines()
        assert rows[0].startswith("t,kind,")
        assert len(rows) - 1 == len(lines)
        for line in lines:
            json.loads(line)

    def test_profile(self, capsys):
        code, out = run_cli(
            capsys, "trace", "-n", "8", "--lam", "2", "--profile",
        )
        assert code == 0
        assert "engine    :" in out

    @pytest.mark.parametrize(
        "algorithm, m, exact",
        [
            ("bcast", "1", True),
            ("repeat", "3", True),
            ("pack", "3", True),
            ("pipeline", "3", True),
            ("star", "3", True),
            ("binomial", "1", True),
            ("dtree-line", "3", True),
            ("dtree-1", "3", True),
            ("dtree-binary", "3", False),
            ("dtree-latency", "3", False),
            ("dtree-3", "3", False),
        ],
    )
    def test_closed_form_line(self, capsys, algorithm, m, exact):
        """Every exact closed form is checked against the critical path;
        the Lemma 18 upper bounds print no closed-form line."""
        code, out = run_cli(
            capsys, "trace", "-n", "12", "--lam", "5/2", "-m", m,
            "--algorithm", algorithm,
        )
        assert code == 0
        assert "critical path:" in out
        if exact:
            assert "critical path matches the exact formula" in out
        else:
            assert "closed form" not in out
