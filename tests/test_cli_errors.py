"""CLI error paths exit non-zero with a one-line message, never a
traceback: unknown backend, off-grid / out-of-model lambda, a bad
``--jobs`` count, bad ``repro bench`` arguments (refused before anything
is timed), a ``repro tune`` query no family can serve, and an
``--algorithm`` that ``gantt``, ``simulate`` and ``trace`` all refuse
with the same message (they resolve it through one front door).

Central handling lives in :func:`repro.cli.main`: any
:class:`~repro.errors.ReproError` escaping a subcommand prints
``error: <message>`` on stderr and returns exit code 2 (matching
argparse's own usage-error code); argparse-level rejections keep their
native ``SystemExit``.
"""

import pytest

from repro.cli import main


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUnknownBackend:
    def test_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "14", "--lam", "2",
                  "--backend", "warp"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'warp'" in err


class TestBadLambda:
    def test_below_model_floor(self, capsys):
        # the postal model needs lambda >= 1; the turbo lane must not
        # even be entered
        code, out, err = run_cli_err(
            capsys, "simulate", "--n", "10", "--lam", "1/3",
            "--backend", "turbo",
        )
        assert code == 2
        assert err == "error: the postal model requires lambda >= 1, got 1/3\n"
        assert "Traceback" not in err

    def test_unparseable(self, capsys):
        code, _, err = run_cli_err(
            capsys, "tune", "--workload", "broadcast", "--n", "8",
            "--lam", "fast",
        )
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestBadJobs:
    def test_negative_jobs(self, capsys):
        code, _, err = run_cli_err(
            capsys, "bench", "--smoke", "--jobs", "-3",
        )
        assert code == 2
        assert err == "error: need jobs >= 0, got -3\n"

    def test_negative_jobs_on_tune(self, capsys):
        code, _, err = run_cli_err(
            capsys, "tune", "--sweep", "--jobs", "-1",
        )
        assert code == 2
        assert err == "error: need jobs >= 0, got -1\n"


class TestBenchArguments:
    """Every ``repro bench`` argument is checked before any section runs:
    bad input exits 2 with one ``error:`` line and prints nothing."""

    @pytest.fixture(autouse=True)
    def _untimed(self, monkeypatch):
        from repro import bench

        def run(mode, jobs):
            raise AssertionError("a section ran before the arguments were checked")

        monkeypatch.setattr(
            bench, "SECTIONS", [bench.Section("cases", run, lambda s: [])]
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--profile", "BCAST:abc"),
             "error: --profile expects FAMILY:N[:BACKEND], got 'BCAST:abc'\n"),
            (("--profile", "BCAST"),
             "error: --profile expects FAMILY:N[:BACKEND], got 'BCAST'\n"),
            (("--profile", "BCAST:10:warp"),
             "error: --profile backend must be one of exact, turbo, replay, "
             "got 'warp'\n"),
            (("--profile", "nosuch:10"), "error: unknown family 'NOSUCH'"),
            (("--profile", "dtree-latency:2"),
             "error: DTREE-LATENCY is not applicable at (n=2, m=1, "
             "lambda=2)\n"),
            (("--profile", "bcast:0"),
             "error: need n >= 1 processors, got 0\n"),
            (("--section", "nope"),
             "error: unknown bench section 'nope' (sections: cases)\n"),
            (("--baseline", "no/such/baseline.json"),
             "error: cannot read baseline no/such/baseline.json"),
            (("--jobs", "-1", "--profile", "BCAST:abc"),
             "error: need jobs >= 0, got -1\n"),
        ],
        ids=["bad-size", "no-size", "bad-backend", "unknown-family",
             "out-of-domain", "no-processors", "unknown-section",
             "missing-baseline", "jobs-first"],
    )
    def test_refused_before_timing(self, capsys, argv, message):
        code, out, err = run_cli_err(capsys, "bench", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1


class TestUsageErrors:
    """Usage errors a subcommand finds itself follow ``main``'s contract
    too: exit 2 and one ``error:`` line on stderr."""

    def test_export_needs_a_broadcast_schedule(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, err = run_cli_err(
            capsys, "simulate", "--algorithm", "gather", "--n", "6",
            "--lam", "2", "--export", str(path),
        )
        assert code == 2
        assert err.startswith(
            "error: GATHER has gather semantics — no broadcast schedule"
        )
        assert err.count("\n") == 1
        assert not path.exists()


class TestInapplicableTuneQuery:
    def test_multi_message_allgather(self, capsys):
        # the allgather families are single-message only, so no family
        # can serve (workload=allgather, m=2)
        code, _, err = run_cli_err(
            capsys, "tune", "--workload", "allgather",
            "--n", "16", "--m", "2", "--lam", "2",
        )
        assert code == 2
        assert err == (
            "error: no registered family is applicable to "
            "workload='allgather' at (n=16, m=2, lambda=2); eligible "
            "families: ALLGATHER, BRUCK-ALLGATHER, GOSSIP-RING\n"
        )

    def test_unknown_workload(self, capsys):
        code, _, err = run_cli_err(
            capsys, "tune", "--workload", "multicast", "--n", "8",
        )
        assert code == 2
        assert err.startswith("error: unknown workload 'multicast'")
        assert "Traceback" not in err

    def test_tiny_n(self, capsys):
        code, _, err = run_cli_err(
            capsys, "tune", "--workload", "broadcast", "--n", "1",
        )
        assert code == 2
        assert err == "error: need n >= 2 to tune, got n=1\n"


#: ``(commands, algorithm, m, message)``: each listed command refuses the
#: input with the same one-line error (``gantt`` draws broadcast
#: schedules only, so it alone refuses a collective at ``m = 1``).
_BAD_ALGORITHMS = [
    (("gantt", "simulate", "trace"), "dtree-x", "1",
     "error: unknown family 'dtree-x'"),
    (("gantt", "simulate", "trace"), "foo", "1",
     "error: unknown family 'foo'"),
    (("gantt",), "gather", "1", "error: GATHER is a collective"),
    (("simulate", "trace"), "gather", "2",
     "error: GATHER is not applicable at (n=6, m=2, lambda=2)"),
    (("gantt", "simulate", "trace"), "bcast", "2",
     "error: BCAST is not applicable at (n=6, m=2, lambda=2)"),
    (("gantt", "simulate", "trace"), "binomial", "2",
     "error: BINOMIAL is not applicable at (n=6, m=2, lambda=2)"),
]


class TestGanttAlgorithm:
    @pytest.mark.parametrize(
        "command, algorithm, m, message",
        [
            (command, algorithm, m, message)
            for commands, algorithm, m, message in _BAD_ALGORITHMS
            for command in commands
        ],
    )
    def test_bad_algorithm(self, capsys, command, algorithm, m, message):
        code, out, err = run_cli_err(
            capsys, command, "--n", "6", "--lam", "2", "--m", m,
            "--algorithm", algorithm,
        )
        assert code == 2
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "algorithm, completion",
        [("dtree-line", "10"), ("dtree-latency", "5"), ("DTREE-BINARY", "5")],
    )
    def test_named_dtree_shapes(self, capsys, algorithm, completion):
        for command in ("gantt", "simulate", "trace"):
            code, out, err = run_cli_err(
                capsys, command, "--n", "6", "--lam", "2",
                "--algorithm", algorithm,
            )
            assert code == 0, command
            assert err == ""
            assert f"completion: {completion}\n" in out, command
