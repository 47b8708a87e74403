"""Tests for the postal autotuner (:mod:`repro.tune`): ranking and
selection, the content-hashed :class:`TuningTable` artifact, the
byte-reproducibility differential (serial vs ``--jobs 4``), the
two-level tune cache, ``family="auto"`` in :func:`run_protocol` /
:func:`run_batch`, the committed ``TUNING_postal.json`` drift check,
the ``bench_tune`` gate section, and the ``repro tune`` CLI."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro import run_protocol, select_protocol
from repro.batch import BatchPoint, run_batch
from repro.bench import TUNE_GATE_TOLERANCE, bench_tune, to_json
from repro.errors import InvalidParameterError, TuningError
from repro.tune import (
    RankedEntry,
    TableEntry,
    TuneCache,
    TuneQuery,
    TuningTable,
    auto_workload,
    candidate_families,
    derive_table,
    rank,
    resolve_family,
    verify_table,
    workloads,
)
from repro.tune.cache import _grid_key, cached_table

COMMITTED = Path(__file__).resolve().parent.parent / "TUNING_postal.json"

# a small grid for the differential tests — same code path as the
# pinned postal-default/1 grid, a fraction of the derivation time
SMALL_GRID = tuple(
    TuneQuery("broadcast", n, m, lam)
    for n in (4, 16)
    for m in (1, 2)
    for lam in ("2", "5/2")
)


class TestRank:
    def test_figure1_point_winner(self):
        ranking = rank("broadcast", 14, 1, "5/2")
        assert ranking[0].family == "BCAST"
        assert ranking[0].predicted == Fraction(15, 2)
        assert ranking[0].exact
        # calibration ran for the four-way exact tie at 15/2
        assert ranking[0].measured == Fraction(15, 2)
        assert ranking[0].sends == 13

    def test_calibration_reranks_upper_bounds(self):
        # DTREE-LATENCY's bound at (14, 1, 5/2) is 11 — behind
        # BINOMIAL's exact 10 — but its measured completion is 9, so
        # calibration must place it above BINOMIAL
        ranking = rank("broadcast", 14, 1, "5/2")
        order = [c.family for c in ranking]
        assert order.index("DTREE-LATENCY") < order.index("BINOMIAL")
        latency = next(c for c in ranking if c.family == "DTREE-LATENCY")
        assert not latency.exact
        assert latency.measured == 9

    def test_no_calibrate_keeps_closed_form_order(self):
        ranking = rank("broadcast", 14, 1, "5/2", calibrate=False)
        assert all(c.measured is None and c.sends is None for c in ranking)
        order = [c.family for c in ranking]
        assert order.index("BINOMIAL") < order.index("DTREE-LATENCY")

    def test_scores_are_nondecreasing(self):
        ranking = rank("broadcast", 64, 4, 2)
        scores = [c.score for c in ranking]
        assert scores == sorted(scores)

    def test_collective_workload(self):
        ranking = rank("allgather", 16, 1, 2)
        assert {c.family for c in ranking} <= {
            "ALLGATHER", "BRUCK-ALLGATHER", "GOSSIP-RING",
        }
        assert ranking[0].score == min(c.score for c in ranking)

    def test_unknown_workload(self):
        with pytest.raises(InvalidParameterError, match="unknown workload"):
            rank("multicast", 8)

    def test_n_too_small(self):
        with pytest.raises(InvalidParameterError, match="n >= 2"):
            rank("broadcast", 1)

    def test_inapplicable_point_raises_tuning_error(self):
        # the allgather families are single-message only
        with pytest.raises(
            TuningError, match="no registered family is applicable"
        ):
            rank("allgather", 16, 2, 2)

    def test_workload_listing(self):
        assert workloads() == (
            "allgather", "allreduce", "alltoall", "barrier",
            "broadcast", "gather", "reduce", "scatter",
        )
        assert "GOSSIP-RING" in candidate_families("allgather")


class TestSelect:
    def test_select_broadcast(self):
        assert select_protocol("broadcast", 14, lam="5/2") == "BCAST"

    def test_table_short_circuits_derivation(self):
        # a committed entry wins over on-the-spot derivation, even when
        # it names a different family — that is the point of a table
        entry = TableEntry(
            workload="broadcast", n=14, m=1, lam="5/2", policy="strict",
            winner="BINOMIAL",
            ranking=(RankedEntry("BINOMIAL", "10", True),),
        )
        table = TuningTable(grid="test/1", entries=(entry,))
        assert (
            select_protocol("broadcast", 14, lam="5/2", table=table)
            == "BINOMIAL"
        )
        # a query off the table falls through to derivation
        assert (
            select_protocol("broadcast", 16, lam=2, table=table) == "BCAST"
        )

    def test_require_plan_is_satisfiable_everywhere(self):
        # every registered family compiles to a plan, so require_plan
        # must never change the answer on the default grid
        for workload, n, lam in (
            ("broadcast", 14, "5/2"), ("allgather", 16, 2), ("reduce", 8, 2),
        ):
            assert select_protocol(
                workload, n, lam=lam, require_plan=True
            ) == select_protocol(workload, n, lam=lam)

    @pytest.fixture
    def fresh_memo(self):
        from repro.tune.model import _derive_selection

        _derive_selection.cache_clear()
        yield _derive_selection
        _derive_selection.cache_clear()

    def test_repeated_query_runs_no_calibration(self, monkeypatch, fresh_memo):
        import repro.tune.model as model
        from repro.tune.calibrate import measure

        runs = []

        def counting_measure(*args, **kwargs):
            runs.append(args)
            return measure(*args, **kwargs)

        monkeypatch.setattr(model, "measure", counting_measure)
        first = select_protocol("broadcast", 14, lam="5/2")
        assert runs  # the tie at f_{5/2}(14) is calibrated once
        runs.clear()
        # the same query, spelled differently, is served from the memo
        assert select_protocol(" Broadcast", 14, lam=Fraction(5, 2)) == first
        assert runs == []
        assert fresh_memo.cache_info().hits == 1

    def test_memoized_answers_equal_fresh_ones(self, fresh_memo):
        from repro.bench import TUNE_GATE_POINTS

        for policy in ("strict", "queued"):
            for n, m, lam in TUNE_GATE_POINTS:
                fresh = rank("broadcast", n, m, lam, policy=policy)[0].family
                for _ in range(2):  # a miss, then a hit
                    assert select_protocol(
                        "broadcast", n, m=m, lam=lam, policy=policy
                    ) == fresh
        info = fresh_memo.cache_info()
        assert (info.hits, info.misses) == (12, 12)
        assert info.maxsize == 1024  # bounded

    def test_failed_query_is_not_memoized(self, fresh_memo):
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                select_protocol("broadcast", 1, lam=2)
        assert fresh_memo.cache_info().currsize == 0

    def test_auto_workload_spec(self):
        assert auto_workload("auto") == "broadcast"
        assert auto_workload("auto:allgather") == "allgather"
        assert auto_workload("AUTO:BARRIER") == "barrier"
        assert auto_workload("BCAST") is None
        with pytest.raises(InvalidParameterError, match="unknown workload"):
            auto_workload("auto:multicast")

    def test_resolve_family_passthrough(self):
        assert resolve_family("BCAST", 14) == "BCAST"
        assert resolve_family("auto", 14, lam="5/2") == "BCAST"


class TestTuningTable:
    def _table(self):
        return derive_table(SMALL_GRID, grid="test/1")

    def test_round_trip(self):
        table = self._table()
        again = TuningTable.from_json(table.to_json())
        assert again == table
        assert again.content_hash == table.content_hash

    def test_canonical_rendering(self):
        text = self._table().to_json()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema"] == "repro-tune/1"
        assert doc["grid"] == "test/1"
        assert len(doc["entries"]) == len(SMALL_GRID)

    def test_hash_mismatch_rejected(self):
        doc = json.loads(self._table().to_json())
        doc["entries"][0]["winner"] = "STAR"  # tamper without re-hashing
        with pytest.raises(TuningError, match="content hash mismatch"):
            TuningTable.from_json(json.dumps(doc))

    def test_unknown_schema_rejected(self):
        doc = json.loads(self._table().to_json())
        doc["schema"] = "repro-tune/99"
        with pytest.raises(TuningError, match="unsupported tuning table"):
            TuningTable.from_json(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(TuningError, match="not valid JSON"):
            TuningTable.from_json("{nope")
        with pytest.raises(TuningError, match="JSON object"):
            TuningTable.from_json("[1, 2]")
        with pytest.raises(TuningError, match="unsupported tuning table"):
            TuningTable.from_json("{}")

    def test_lookup_normalizes_lambda(self):
        table = self._table()
        a = table.lookup("broadcast", 16, 1, "5/2")
        b = table.lookup("broadcast", 16, 1, Fraction(5, 2))
        assert a is not None and a is b
        assert table.lookup("broadcast", 16, 1, 3) is None

    def test_save_and_load(self, tmp_path):
        table = self._table()
        path = table.save(tmp_path / "t.json")
        assert TuningTable.load(path) == table
        with pytest.raises(TuningError, match="cannot read"):
            TuningTable.load(tmp_path / "missing.json")


class TestByteReproducibility:
    def test_serial_vs_jobs4_identical_bytes(self, monkeypatch):
        # jobs=4 may oversubscribe a small runner; the (legitimate)
        # warning is not what this test is about, and the -W error CI
        # lane must stay green
        from repro import parallel

        monkeypatch.setattr(parallel, "_warned_oversubscribed", True)
        serial = derive_table(SMALL_GRID, jobs=1, grid="test/1")
        sharded = derive_table(SMALL_GRID, jobs=4, grid="test/1")
        assert serial.to_json() == sharded.to_json()
        assert serial.content_hash == sharded.content_hash

    def test_committed_table_verifies(self):
        # the CI nightly drift check, run in-process: re-deriving the
        # committed grid must reproduce TUNING_postal.json byte for byte
        ok, fresh, committed_text, fresh_text = verify_table(COMMITTED)
        assert ok, "committed TUNING_postal.json has drifted — regenerate it"
        assert fresh_text == committed_text
        assert len(fresh) == 74

    def test_verify_detects_drift(self, tmp_path):
        # an *authentic* table (hash matches) whose decisions differ:
        # drop one entry and re-serialize
        committed = TuningTable.load(COMMITTED)
        drifted = TuningTable(
            grid=committed.grid, entries=committed.entries[1:]
        )
        path = drifted.save(tmp_path / "drifted.json")
        ok, fresh, committed_text, fresh_text = verify_table(path)
        assert not ok
        assert fresh_text != committed_text

    def test_verify_missing_file(self, tmp_path):
        with pytest.raises(TuningError, match="cannot read"):
            verify_table(tmp_path / "nope.json")


class TestTuneCache:
    def test_disk_round_trip(self, tmp_path):
        cache = TuneCache(mode="disk", directory=tmp_path)
        key = _grid_key("test/1", SMALL_GRID)
        assert cache.lookup(key) is None
        table = derive_table(SMALL_GRID, grid="test/1")
        cache.store(key, table)
        # a fresh instance sees only the disk level — and the cache
        # file on disk *is* a valid, authenticated tuning table
        fresh = TuneCache(mode="disk", directory=tmp_path)
        assert fresh.lookup(key) == table
        (path,) = tmp_path.glob("*.tune.json")
        assert TuningTable.from_json(path.read_text()) == table

    def test_corrupt_file_discarded(self, tmp_path, caplog):
        cache = TuneCache(mode="disk", directory=tmp_path)
        key = _grid_key("test/1", SMALL_GRID)
        cache.path_for(key).write_bytes(b"{corrupt")
        with caplog.at_level("WARNING", logger="repro.tune.cache"):
            assert cache.lookup(key) is None
        assert "discarding corrupt" in caplog.text

    def test_grid_mismatch_discarded(self, tmp_path, caplog):
        # an authentic table cached under a key demanding another grid
        # (hash collision / copied file) is rejected by check()
        cache = TuneCache(mode="disk", directory=tmp_path)
        key = _grid_key("other-grid/1", SMALL_GRID)
        table = derive_table(SMALL_GRID, grid="test/1")
        cache.path_for(key).write_bytes(table.to_json().encode())
        with caplog.at_level("WARNING", logger="repro.tune.cache"):
            assert cache.lookup(key) is None
        assert "rederived" in caplog.text

    def test_cached_table_derives_once(self, tmp_path):
        cache = TuneCache(mode="disk", directory=tmp_path)
        a = cached_table(SMALL_GRID, grid="test/1", cache=cache)
        b = cached_table(SMALL_GRID, grid="test/1", cache=cache)
        assert a == b
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidParameterError, match="REPRO_TUNE_CACHE"):
            TuneCache(mode="turbo")


class TestAutoFamily:
    def test_run_protocol_auto(self):
        res = run_protocol("auto", n=14, lam="5/2")
        assert res.completion_time == Fraction(15, 2)  # optimal BCAST
        assert res.sends == 13

    def test_run_protocol_auto_collective(self):
        auto = run_protocol("auto:allgather", n=8, lam=2, backend="turbo")
        fixed = run_protocol(
            select_protocol("allgather", 8, lam=2), n=8, lam=2,
            backend="turbo",
        )
        assert auto.completion_time == fixed.completion_time
        assert auto.sends == fixed.sends

    def test_run_protocol_by_name_requires_n(self):
        with pytest.raises(InvalidParameterError, match="requires n"):
            run_protocol("auto")

    def test_run_batch_auto_matches_fixed(self):
        points = [
            BatchPoint("auto", 14, 1, "5/2", "strict"),
            BatchPoint("BCAST", 14, 1, "5/2", "strict"),
        ]
        auto, fixed = run_batch(points)
        assert auto.family == fixed.family == "BCAST"
        assert auto.completion == fixed.completion
        assert auto.sends == fixed.sends
        assert auto.digest == fixed.digest


class TestBenchTune:
    POINTS = ((64, 1, "2"), (64, 4, "2"))

    def test_section_shape(self):
        section = bench_tune(points=self.POINTS)
        assert section["gate"]["points"] == 2
        assert section["gate"]["tolerance"] == TUNE_GATE_TOLERANCE
        assert section["gate"]["ok"] is True
        for row in section["points"]:
            assert row["ok"] is True
            # at these pinned points the auto pick is the measured best
            assert row["auto"] == row["best_family"] or (
                row["auto_completion"] == row["best_completion"]
            )

    def test_to_json_carries_tune_section(self):
        tune = {"points": [], "gate": {"ok": True, "points": 0}}
        doc = json.loads(to_json({"tune": tune}, mode="smoke", jobs=1))
        assert doc["tune"]["gate"]["ok"] is True

    def test_to_json_omits_tune_when_not_measured(self):
        from tests.test_bench_sections import _fake_cases

        doc = json.loads(to_json({"cases": _fake_cases()}, mode="smoke"))
        assert "tune" not in doc


class TestTuneCLI:
    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_query_mode(self, capsys):
        code, out, _ = self._run(
            capsys, "tune", "--workload", "broadcast",
            "--n", "14", "--lam", "5/2",
        )
        assert code == 0
        assert "selected: BCAST" in out
        assert "DTREE-LATENCY" in out  # full ranking is printed

    def test_query_against_committed_table(self, capsys):
        code, out, _ = self._run(
            capsys, "tune", "--workload", "broadcast",
            "--n", "64", "--lam", "2", "--table", str(COMMITTED),
        )
        assert code == 0
        assert "selected: BCAST" in out

    def test_query_requires_n(self, capsys):
        code, out, err = self._run(capsys, "tune", "--workload", "broadcast")
        assert code == 2
        assert out == ""
        assert err == "error: tune: provide --n (or use --sweep / --verify)\n"

    def test_verify_committed_table_passes(self, capsys):
        code, out, _ = self._run(
            capsys, "tune", "--verify", str(COMMITTED),
        )
        assert code == 0
        assert "verified: 74 entries" in out

    def test_verify_drift_fails_and_writes_fresh(self, capsys, tmp_path):
        committed = TuningTable.load(COMMITTED)
        drifted = TuningTable(
            grid=committed.grid, entries=committed.entries[:-1]
        )
        path = drifted.save(tmp_path / "drifted.json")
        fresh_out = tmp_path / "fresh.json"
        code, _, err = self._run(
            capsys, "tune", "--verify", str(path),
            "--fresh-out", str(fresh_out),
        )
        assert code == 1
        assert "DRIFTED" in err
        # the fresh table is the committed one (re-derived, authentic)
        assert TuningTable.load(fresh_out) == committed

    def test_sweep_writes_canonical_table(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", "off")
        import repro.tune.cache as tune_cache

        monkeypatch.setattr(tune_cache, "_DEFAULT", None)
        out_path = tmp_path / "table.json"
        code, out, _ = self._run(
            capsys, "tune", "--sweep", "--out", str(out_path),
        )
        assert code == 0
        assert TuningTable.load(out_path).to_json() == COMMITTED.read_text()
