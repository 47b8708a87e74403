"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``fib``      — evaluate ``F_lambda(t)`` and/or ``f_lambda(n)``.
* ``tree``     — print the generalized Fibonacci broadcast tree (Figure 1
  style), optionally as JSON.
* ``gantt``    — print the port timeline of an algorithm's schedule.
* ``simulate`` — run an algorithm (broadcast or collective) event-driven
  on ``MPS(n, lambda)``, on either backend (``--backend turbo`` for the
  integer-tick lane), and report completion time / sends; optionally
  export the realized schedule as JSON (broadcast semantics only).
* ``compare``  — exact running time of every algorithm family at
  ``(n, m, lambda)`` plus the Lemma 8 lower bound and the winner.
* ``bounds``   — the Theorem 7 sandwich at given ``(lambda, t, n)``.
* ``collectives`` — optimal/measured times of every collective at
  ``(n, lambda)``.
* ``phase``    — ASCII winner phase diagram over the (m, lambda) plane.
* ``reliable`` — reliable broadcast over a lossy network (seeded,
  replayable).
* ``resilience`` — deterministic fault injection + recovery on the
  turbo lane: one certified run (crash-stop processors, per-edge loss,
  on-grid latency jitter, RTO/backoff retransmission, subtree
  re-rooting over survivors), or ``--curve`` for the degradation table
  over the loss x crash grid (``--jobs N`` shards it byte-identically).
* ``trace``    — observability: run an algorithm and report per-port
  utilization, the zero-slack critical path (checked against the closed
  form), and export the trace as Chrome trace-event JSON / CSV / JSONL.
* ``conformance`` — the seeded differential fuzzer: certify every
  protocol family against its closed form (``--smoke`` for the CI grid,
  ``--deep`` for the nightly one, ``--jobs N`` to shard the sweep over
  worker processes with an identical report); failures are filed as
  self-contained repro artifacts.
* ``bench``    — the perf regression harness: run the entries of the
  bench table (``repro.bench.SECTIONS``; ``--section NAME`` picks some,
  default all) — the case grid on the exact, turbo and replay lanes with
  the turbo and collective speedup gates, and the plan, replay,
  resilience, batch and tune gates — and optionally diff the case grid
  against the committed ``BENCH_turbo.json`` baseline.

All latency/time arguments accept ints, decimals, or ratios (``5/2``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.conformance.oracles import broadcast_families, collective_families
from repro.core.analysis import algorithm_times, best_algorithm, multi_lower_bound
from repro.core.bcast import bcast_tree
from repro.core.bounds import (
    F_lower_exact,
    F_upper_exact,
    f_lower_log,
    f_upper_log,
)
from repro.core.fibfunc import postal_F, postal_f
from repro.core.serialize import dumps_schedule, tree_to_dict
from repro.errors import InvalidParameterError, ReproError
from repro.report.render import render_gantt, render_tree
from repro.report.tables import format_table
from repro.types import as_time as _parse_time, time_repr

__all__ = ["main", "build_parser"]


def as_time(value):
    """CLI-boundary time parsing: an unparseable ``--lam``/``--t``
    literal becomes a one-line ``error:`` exit (via
    :class:`~repro.errors.InvalidParameterError` and :func:`main`'s
    central handler), never a ``Fraction`` traceback."""
    try:
        return _parse_time(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InvalidParameterError(
            f"invalid time value {value!r}: {exc}"
        ) from exc


def _family(algorithm: str, n: int, m: int, lam):
    """The family-table entry ``--algorithm`` names at ``(n, m, lambda)``:
    the tuner's pick for an ``auto`` spec, else the entry
    :func:`~repro.conformance.oracles.resolve_oracle` gives.  An unknown
    name or a point outside the family's domain raises
    :class:`~repro.errors.InvalidParameterError`, which :func:`main`
    reports as one ``error:`` line."""
    from repro.conformance.oracles import resolve_oracle
    from repro.tune.model import auto_workload, resolve_family

    if auto_workload(algorithm) is not None:
        algorithm = resolve_family(algorithm, n, m, lam)
        print(f"auto-selected family: {algorithm}", file=sys.stderr)
    oracle = resolve_oracle(algorithm, m, lam)
    oracle.check_applicable(n, m, lam)
    return oracle


# ------------------------------------------------------------- commands


def cmd_fib(args: argparse.Namespace) -> int:
    lam = as_time(args.lam)
    if args.t is None and args.n is None:
        raise InvalidParameterError("fib: provide --t and/or --n")
    if args.t is not None:
        t = as_time(args.t)
        print(f"F_{time_repr(lam)}({time_repr(t)}) = {postal_F(lam, t)}")
    if args.n is not None:
        print(f"f_{time_repr(lam)}({args.n}) = {time_repr(postal_f(lam, args.n))}")
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    tree = bcast_tree(args.n, as_time(args.lam))
    if args.json:
        import json

        print(json.dumps(tree_to_dict(tree), indent=2))
    else:
        print(render_tree(tree))
        print(f"\nheight (completion time): {time_repr(tree.height())}")
    return 0


def cmd_gantt(args: argparse.Namespace) -> int:
    from repro.plan.build import compile_schedule

    lam = as_time(args.lam)
    oracle = _family(args.algorithm, args.n, args.m, lam)
    sched = compile_schedule(oracle.family, args.n, args.m, lam)
    print(render_gantt(sched))
    print(f"\ncompletion: {time_repr(sched.completion_time())}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.postal import run_protocol

    lam = as_time(args.lam)
    proto = _family(args.algorithm, args.n, args.m, lam).protocol(
        args.n, args.m, lam
    )
    result = run_protocol(proto, backend=args.backend)
    print(f"algorithm : {proto.name}")
    print(f"machine   : MPS(n={args.n}, lambda={time_repr(lam)})")
    print(f"messages  : {proto.m}")
    print(f"backend   : {args.backend}")
    print(f"completion: {time_repr(result.completion_time)}")
    print(f"sends     : {result.sends}")
    if proto.semantics == "broadcast":
        lb = multi_lower_bound(args.n, proto.m, lam)
        if lb > 0:
            print(f"Lemma 8 LB: {time_repr(lb)}  "
                  f"(ratio {float(result.completion_time / lb):.3f})")
    if args.export:
        if result.schedule is None:
            raise InvalidParameterError(
                f"{proto.name} has {proto.semantics} semantics — no "
                "broadcast schedule to export (the run is audited via "
                "ports and deliveries instead)"
            )
        with open(args.export, "w") as fh:
            fh.write(dumps_schedule(result.schedule, indent=2))
        print(f"schedule exported to {args.export}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    lam = as_time(args.lam)
    times = algorithm_times(args.n, args.m, lam)
    lb = multi_lower_bound(args.n, args.m, lam)
    rows = [
        [name, t, f"{float(t / lb):.3f}x" if lb > 0 else "-"]
        for name, t in sorted(times.items(), key=lambda kv: kv[1])
    ]
    print(
        format_table(["algorithm", "time", "vs Lemma 8"], rows)
    )
    winner, t = best_algorithm(args.n, args.m, lam)
    print(f"\nwinner: {winner} at t = {time_repr(t)} "
          f"(lower bound {time_repr(lb)})")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    lam = as_time(args.lam)
    if args.t is not None:
        t = as_time(args.t)
        print(
            f"Theorem 7(1) at t={time_repr(t)}:  "
            f"{F_lower_exact(lam, t)} <= F = {postal_F(lam, t)} <= "
            f"{F_upper_exact(lam, t)}"
        )
    if args.n is not None:
        f = postal_f(lam, args.n)
        print(
            f"Theorem 7(2) at n={args.n}:  "
            f"{f_lower_log(lam, args.n):.4f} <= f = {time_repr(f)} <= "
            f"{f_upper_log(lam, args.n):.4f}"
        )
    if args.t is None and args.n is None:
        raise InvalidParameterError("bounds: provide --t and/or --n")
    return 0


def cmd_phase(args: argparse.Namespace) -> int:
    from repro.report.phase import phase_diagram

    ms = [int(v) for v in args.ms.split(",")]
    lams = args.lams.split(",")
    print(phase_diagram(args.n, ms, lams, show_ratio=args.ratio))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.tune import TuningTable, cached_table, rank, verify_table

    if args.verify:
        ok, fresh, committed_text, fresh_text = verify_table(
            args.verify, jobs=args.jobs, progress=print
        )
        if ok:
            print(
                f"tuning table {args.verify} verified: "
                f"{len(fresh)} entries, content hash "
                f"{fresh.content_hash[:16]}... matches the fresh derivation"
            )
            return 0
        print(
            f"tuning table {args.verify} DRIFTED from the fresh "
            f"derivation ({len(fresh)} entries)", file=sys.stderr,
        )
        committed_lines = committed_text.splitlines()
        fresh_lines = fresh_text.splitlines()
        shown = 0
        for i, (old, new) in enumerate(zip(committed_lines, fresh_lines)):
            if old != new:
                print(f"  line {i + 1}: committed {old.strip()!r} "
                      f"vs fresh {new.strip()!r}", file=sys.stderr)
                shown += 1
                if shown >= 10:
                    break
        if len(committed_lines) != len(fresh_lines):
            print(
                f"  length: committed {len(committed_lines)} lines "
                f"vs fresh {len(fresh_lines)}", file=sys.stderr,
            )
        if args.fresh_out:
            Path(args.fresh_out).write_text(fresh_text)
            print(f"fresh table written to {args.fresh_out}",
                  file=sys.stderr)
        return 1

    if args.sweep:
        table = cached_table(jobs=args.jobs)
        rows = [
            (e.workload, e.n, e.m, e.lam, e.policy, e.winner,
             e.ranking[0].predicted)
            for e in table.entries
        ]
        print(
            format_table(
                ("workload", "n", "m", "lambda", "policy", "winner",
                 "predicted"),
                rows,
            )
        )
        print(f"\n{len(table)} entries, grid {table.grid}, "
              f"content hash {table.content_hash[:16]}...")
        if args.out:
            table.save(args.out)
            print(f"table written to {args.out}")
        return 0

    if args.n is None:
        raise InvalidParameterError(
            "tune: provide --n (or use --sweep / --verify)"
        )
    lam = as_time(args.lam)
    committed = TuningTable.load(args.table) if args.table else None
    entry = (
        committed.lookup(args.workload, args.n, args.m, lam, args.policy)
        if committed is not None
        else None
    )
    if entry is not None:
        rows = [
            (r.family, r.predicted, "yes" if r.exact else "UB",
             r.measured or "-", r.sends if r.sends is not None else "-")
            for r in entry.ranking
        ]
        source = f"committed table {args.table}"
        winner = entry.winner
    else:
        ranking = rank(
            args.workload, args.n, args.m, lam,
            policy=args.policy, calibrate=not args.no_calibrate,
        )
        rows = [
            (c.family, time_repr(c.predicted), "yes" if c.exact else "UB",
             time_repr(c.measured) if c.measured is not None else "-",
             c.sends if c.sends is not None else "-")
            for c in ranking
        ]
        source = "derived on the spot"
        winner = ranking[0].family
    print(
        f"tune: workload={args.workload} n={args.n} m={args.m} "
        f"lambda={time_repr(lam)} policy={args.policy} ({source})"
    )
    print()
    print(
        format_table(
            ("family", "predicted", "exact", "measured", "sends"), rows
        )
    )
    print(f"\nselected: {winner}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench
    from repro.parallel import effective_jobs

    mode = "full" if args.full else "smoke"
    jobs = effective_jobs(args.jobs)
    entries = bench.select_sections(args.section)
    profile = bench.profile_spec(args.profile) if args.profile else None
    baseline = bench.load_baseline(args.baseline) if args.baseline else None

    print(
        f"perf regression harness ({mode}): "
        f"{', '.join(entry.name for entry in entries)}"
    )
    measured = {}
    ok = True
    for entry in entries:
        print(f"\n{entry.name} ...", flush=True)
        section = measured[entry.name] = entry.run(mode, jobs)
        print("\n".join(entry.report(section)))
        ok = ok and section["gate"]["ok"]

    if baseline is not None:
        regressions, notes = bench.compare_to_baseline(measured, baseline)
        print()
        for line in notes:
            print(line)
        tolerance = f"tolerance {bench.BASELINE_TOLERANCE:.0%}"
        if regressions:
            print(f"regressions vs {args.baseline} ({tolerance}):")
            for line in regressions:
                print(f"  {line}")
            ok = False
        else:
            print(f"no regressions vs {args.baseline} ({tolerance})")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(bench.to_json(measured, mode=mode, jobs=args.jobs))
        print(f"\nresults written to {args.out}")

    if profile is not None:
        case, backend = profile
        dump = (args.out or "bench") + ".profile.pstats"
        print()
        print(bench.profile_case(case, backend=backend, out=dump), end="")
        print(f"profile stats written to {dump}")
    return 0 if ok else 1


def cmd_reliable(args: argparse.Namespace) -> int:
    from repro.extensions.faulty import run_reliable_bcast

    lam = as_time(args.lam)
    t, rtx, drops = run_reliable_bcast(
        args.n, lam, loss=args.loss, seed=args.seed
    )
    f = postal_f(lam, args.n)
    print(f"machine     : MPS(n={args.n}, lambda={time_repr(lam)})")
    print(f"loss rate   : {args.loss:.0%}  (seed {args.seed})")
    print(f"completion  : {time_repr(t)}  "
          f"(loss-free optimum {time_repr(f)}, "
          f"ratio {float(t / f):.2f})")
    print(f"drops       : {drops}")
    print(f"retransmits : {rtx}")
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    from repro.resilience import degradation_curve, format_curve, run_resilient
    from repro.parallel import effective_jobs

    lam = as_time(args.lam)
    crashed = None
    if args.crashed:
        try:
            crashed = [int(p) for p in args.crashed.split(",") if p.strip()]
        except ValueError:
            raise InvalidParameterError(
                f"--crashed wants a comma-separated processor list, "
                f"got {args.crashed!r}"
            ) from None

    if args.curve:
        losses = [float(x) for x in args.losses.split(",")]
        crashes = [float(x) for x in args.crashes.split(",")]
        results = degradation_curve(
            args.n,
            lam,
            m=args.m,
            loss_rates=losses,
            crash_rates=crashes,
            jitter=args.jitter,
            seed=args.seed,
            detector=args.detector,
            max_retries=args.max_retries,
            jobs=effective_jobs(args.jobs),
        )
        print(
            f"degradation curve: MPS(n={args.n}, lambda={time_repr(lam)}), "
            f"m={args.m}, detector={args.detector}, seed {args.seed}"
        )
        print()
        print(format_curve(results))
        return 0 if all(r.certified for r in results) else 1

    result = run_resilient(
        args.n,
        lam,
        m=args.m,
        loss=args.loss,
        crash=args.crash,
        jitter=args.jitter,
        crashed=crashed,
        seed=args.seed,
        detector=args.detector,
        rto=args.rto,
        max_retries=args.max_retries,
    )

    drops = result.loss_drops + result.crash_drops
    print(f"machine      : MPS(n={args.n}, lambda={time_repr(lam)}), m={args.m}")
    print(
        f"faults       : loss={result.loss:g} crash={result.crash:g} "
        f"jitter<={time_repr(result.jitter)} (seed {result.seed}, "
        f"{len(result.crashed)} crashed)"
    )
    print(
        f"completion   : {time_repr(result.completion)}  "
        f"(fault-free optimum {time_repr(result.fault_free)}, "
        f"ratio {result.ratio:.2f}x)"
    )
    print(
        f"survivors    : {result.survivors}/{result.n} — "
        + ("all informed" if result.certified else "NOT all informed")
    )
    print(
        f"drops        : {drops}  "
        f"({result.loss_drops} loss + {result.crash_drops} crash-suppressed)"
    )
    print(f"retransmits  : {result.retransmissions}")
    print(
        f"re-rooted    : {len(result.adoptions)} orphan edges adopted, "
        f"{len(result.declared_dead)} declared dead "
        f"(detector {result.detector})"
    )
    if result.certified:
        print(
            f"certificate  : OK — T >= (m-1)+f_lambda(s) = "
            f"{time_repr(result.bound)}, order preserved for survivors, "
            f"fault accounting exact"
        )
        return 0
    print("certificate  : FAILED")
    for violation in result.violations:
        print(f"  - {violation}")
    return 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        critical_path,
        dump_csv,
        dump_jsonl,
        format_critical_path,
        write_chrome_trace,
    )
    from repro.postal import run_protocol
    from repro.report.tables import utilization_table

    lam = as_time(args.lam)
    oracle = _family(args.algorithm, args.n, args.m, lam)
    proto = oracle.protocol(args.n, args.m, lam)
    result = run_protocol(proto, profile=args.profile)
    metrics = result.metrics
    assert metrics is not None
    print(f"algorithm : {proto.name}")
    print(f"machine   : MPS(n={args.n}, lambda={time_repr(lam)})")
    print(f"messages  : {proto.m}")
    print(f"completion: {time_repr(result.completion_time)}")
    print(f"sends     : {result.sends}")

    closed = oracle.time(args.n, args.m, lam) if oracle.exact else None
    if result.schedule is not None:
        path = critical_path(result.schedule)
        anchored = "tight to t=0" if path.tight else "has upstream slack"
        print(
            f"critical path: {len(path.events)} sends, "
            f"length {time_repr(path.length)} ({anchored})"
        )
        if closed is not None:
            verdict = "matches" if closed == path.length else "DIFFERS FROM"
            print(
                f"closed form  : {time_repr(closed)} — "
                f"critical path {verdict} the exact formula"
            )
        if args.critical_path:
            print()
            print(format_critical_path(path, lam))

    if args.summary:
        print()
        print("per-port utilization over the makespan "
              f"({time_repr(metrics.makespan)}):")
        print(utilization_table(metrics))
        if metrics.latency_histogram:
            hist = ", ".join(
                f"{time_repr(latency)}x{count}"
                for latency, count in metrics.latency_histogram
            )
            print(f"\nlatency histogram (latency x count): {hist}")

    if args.profile and result.profile is not None:
        print(f"\nengine    : {result.profile}")

    if args.chrome:
        write_chrome_trace(args.chrome, result.system)
        print(f"\nChrome trace written to {args.chrome} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            rows = dump_csv(result.system.tracer, fh)
        print(f"CSV dump written to {args.csv} ({rows} records)")
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            rows = dump_jsonl(result.system.tracer, fh)
        print(f"JSONL dump written to {args.jsonl} ({rows} records)")
    return 0


def cmd_collectives(args: argparse.Namespace) -> int:
    from repro.collectives import (
        allgather_time,
        allreduce_time,
        alltoall_time,
        barrier_time,
        bruck_time,
        gather_time,
        gossip_ring_time,
        reduce_time,
        scatter_time,
    )

    n, lam = args.n, as_time(args.lam)
    rows = [
        ["broadcast (BCAST)", postal_f(lam, n), "optimal (Thm 6)"],
        ["reduce/combine", reduce_time(n, lam), "optimal (reversal)"],
        ["scatter", scatter_time(n, lam), "optimal (direct)"],
        ["gather", gather_time(n, lam), "optimal (direct)"],
        ["alltoall", alltoall_time(n, lam), "optimal (rotation)"],
        ["allreduce", allreduce_time(n, lam), "2x combine LB"],
        ["allgather", allgather_time(n, lam), "heuristic (open)"],
        ["bruck allgather", bruck_time(n, lam), "heuristic (open)"],
        ["gossip ring", gossip_ring_time(n, lam), "heuristic (open)"],
        ["barrier", barrier_time(n, lam), "combine+notify"],
    ]
    print(f"Collective costs on MPS(n={n}, lambda={time_repr(lam)}):\n")
    print(format_table(["collective", "time", "status"], rows))
    return 0


def _fuzz_families(spec: str) -> "tuple[str, ...]":
    """The ``--families`` names, with ``PIPELINE`` as both variants: the
    fuzzer draws ``(m, lambda)`` per family, so it cannot pick one."""
    names: list[str] = []
    for name in filter(None, (f.strip() for f in spec.split(","))):
        if name.upper() == "PIPELINE":
            names += ["PIPELINE-1", "PIPELINE-2"]
        else:
            names.append(name)
    return tuple(names)


def cmd_conformance(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.conformance import (
        deep_options,
        families,
        run_fuzz,
        smoke_options,
    )
    from repro.report.tables import conformance_table

    if args.deep:
        opts = deep_options(seed=args.seed, artifact_dir=args.artifacts)
    else:
        opts = smoke_options(seed=args.seed, artifact_dir=args.artifacts)
    overrides = {}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.families:
        overrides["families"] = _fuzz_families(args.families)
    if args.chaos is not None:
        overrides["chaos_rate"] = args.chaos
    if args.backend != "exact":
        overrides["backend"] = args.backend
    if args.batch:
        if args.backend != "replay":
            raise InvalidParameterError(
                "--batch pre-compiles and shares schedule plans, "
                "which only the replay backend executes — add "
                "--backend replay"
            )
        overrides["batch"] = True
    if overrides:
        opts = replace(opts, **overrides)

    from repro.parallel import effective_jobs

    jobs = effective_jobs(args.jobs)
    mode = "deep" if args.deep else "smoke"
    suffix = f", {jobs} workers" if jobs > 1 else ""
    if opts.backend != "exact":
        suffix += f", backend={opts.backend}"
    if opts.batch:
        suffix += ", shared batch plans"
    print(
        f"conformance fuzz ({mode}): {opts.iterations} configs over "
        f"{len(opts.families or families())} families, seed {opts.seed}"
        f"{suffix}"
    )
    report = run_fuzz(opts, jobs=jobs)
    print()
    print(conformance_table(report, markdown=args.markdown))
    print()
    print(report.summary())
    if report.artifacts:
        print(f"artifacts ({len(report.artifacts)}):")
        for path in report.artifacts:
            print(f"  {path}")
    if not report.ok:
        for result in report.failures:
            print()
            print(result.summary())
            for violation in result.violations:
                print(f"  - {violation}")
        return 1
    return 0


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Postal-model broadcasting (Bar-Noy & Kipnis, SPAA 1992)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    broadcast = ", ".join(f.lower() for f in broadcast_families())
    families_help = (
        f"any family, in any case: {broadcast}, the collectives "
        f"({', '.join(f.lower() for f in collective_families())}), "
        "pipeline, dtree-<d>, or auto[:<workload>]"
    )

    p = sub.add_parser("fib", help="evaluate F_lambda(t) / f_lambda(n)")
    p.add_argument("--lam", required=True, help="latency lambda >= 1 (e.g. 5/2)")
    p.add_argument("--t", help="evaluate F_lambda at this time")
    p.add_argument("--n", type=int, help="evaluate f_lambda at this size")
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser("tree", help="print the Fibonacci broadcast tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--json", action="store_true", help="emit JSON instead of ASCII")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("gantt", help="print a schedule's port timeline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument(
        "--algorithm",
        default="bcast",
        help=f"a broadcast family, in any case: {broadcast}, pipeline, "
        "dtree-<d>, or auto",
    )
    p.set_defaults(func=cmd_gantt)

    p = sub.add_parser("simulate", help="run an algorithm on the simulated machine")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument(
        "--algorithm",
        default="bcast",
        help=families_help,
    )
    p.add_argument(
        "--backend",
        choices=("exact", "turbo", "replay"),
        default="exact",
        help="execution lane (turbo = integer-tick fast lane, replay = "
        "vectorized compiled-plan tier; both bit-identical results)",
    )
    p.add_argument("--export", help="write the realized schedule JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="compare all algorithm families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bounds", help="Theorem 7 sandwich at (lambda, t, n)")
    p.add_argument("--lam", required=True)
    p.add_argument("--t")
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("collectives", help="collective costs at (n, lambda)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.set_defaults(func=cmd_collectives)

    p = sub.add_parser(
        "phase", help="winner phase diagram over the (m, lambda) plane"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--ms", default="1,2,4,8,16,32,64", help="comma-separated m values"
    )
    p.add_argument(
        "--lams",
        default="1,3/2,2,5/2,4,8,16",
        help="comma-separated lambda values",
    )
    p.add_argument("--ratio", action="store_true", help="show winner/LB ratios")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser(
        "trace",
        help="observability: utilization, critical path, Chrome trace export",
    )
    p.add_argument("-n", "--n", dest="n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("-m", "--m", dest="m", type=int, default=1)
    p.add_argument("--algorithm", default="bcast", help=families_help)
    p.add_argument(
        "--chrome",
        metavar="PATH",
        help="write a Chrome trace-event JSON (chrome://tracing / Perfetto)",
    )
    p.add_argument("--csv", metavar="PATH", help="write the trace as CSV")
    p.add_argument(
        "--jsonl", metavar="PATH", help="write the trace as JSON-lines"
    )
    p.add_argument(
        "--summary",
        action="store_true",
        help="print the per-port utilization table and latency histogram",
    )
    p.add_argument(
        "--critical-path",
        action="store_true",
        dest="critical_path",
        help="print the zero-slack critical path hop by hop",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="report engine-level profiling (events, heap peak, wall time)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "conformance",
        help="certify every family against its closed form (seeded fuzz)",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke",
        action="store_true",
        help="the CI grid: every family, a few seconds (default)",
    )
    mode.add_argument(
        "--deep",
        action="store_true",
        help="the nightly grid: larger machines, chaos self-tests",
    )
    p.add_argument("--seed", type=int, default=0, help="master fuzz seed")
    p.add_argument(
        "--iterations",
        type=int,
        help="override the number of configs to certify",
    )
    p.add_argument(
        "--families",
        help="comma-separated family subset (e.g. BCAST,PIPELINE-2); "
        "PIPELINE means both variants, DTREE-<d> any degree",
    )
    p.add_argument(
        "--chaos",
        type=float,
        help="override the chaos (corruption self-test) probability",
    )
    p.add_argument(
        "--artifacts",
        metavar="DIR",
        help="file failure artifacts (config + repro.py + traces) here",
    )
    p.add_argument(
        "--markdown",
        action="store_true",
        help="render the summary table as Markdown",
    )
    p.add_argument(
        "--backend",
        choices=("exact", "turbo", "replay"),
        default="exact",
        help="execution lane for the simulation leg — the certificates "
        "are backend-blind, so fuzzing under turbo or replay pins that "
        "lane against every closed form",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (0 = one per CPU; the "
        "report is identical for any value — default 1)",
    )
    p.add_argument(
        "--batch",
        action="store_true",
        help="batch plan distribution (requires --backend replay): "
        "pre-sample the grid, compile each distinct plan once, and map "
        "it into workers over shared memory instead of rebuilding "
        "per point — the report is byte-identical either way",
    )
    p.set_defaults(func=cmd_conformance)

    p = sub.add_parser(
        "tune",
        help="postal autotuner: rank families for a query, sweep the "
        "pinned grid into a tuning table, or drift-check a committed one",
    )
    p.add_argument("--workload", default="broadcast",
                   help="broadcast, allgather, allreduce, reduce, "
                   "scatter, gather, alltoall, or barrier")
    p.add_argument("--n", type=int, help="machine size for a single query")
    p.add_argument("--m", type=int, default=1,
                   help="message count (broadcast workload only)")
    p.add_argument("--lam", default="2",
                   help="postal latency (int, decimal, or ratio)")
    p.add_argument("--policy", choices=("strict", "queued"),
                   default="strict")
    p.add_argument(
        "--no-calibrate", action="store_true",
        help="rank by closed forms only, skipping turbo tie-break runs",
    )
    p.add_argument(
        "--table", metavar="PATH",
        help="consult this committed tuning table first in query mode",
    )
    p.add_argument(
        "--sweep", action="store_true",
        help="derive the full pinned grid (through the two-level "
        "$REPRO_TUNE_CACHE) and print the table",
    )
    p.add_argument(
        "--verify", metavar="PATH",
        help="re-derive PATH's grid and fail (exit 1) unless the fresh "
        "table is byte-identical — the CI drift check",
    )
    p.add_argument(
        "--out", metavar="PATH",
        help="with --sweep: write the canonical table JSON here",
    )
    p.add_argument(
        "--fresh-out", metavar="PATH",
        help="with --verify: on drift, write the fresh table here "
        "(CI uploads it as an artifact)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the calibration sweep (0 = one per "
        "CPU; any value derives byte-identical tables)",
    )
    p.set_defaults(func=cmd_tune)

    from repro.bench import BASELINE_TOLERANCE, SECTIONS

    p = sub.add_parser(
        "bench",
        help="perf regression harness: timed gates on the default, audited "
        "calls of the exact, turbo and replay lanes",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke",
        action="store_true",
        help="the CI grid: every family, BCAST up to n=10^4 (default)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="the nightly grid: every family up to n=10^5",
    )
    p.add_argument(
        "--section",
        action="append",
        metavar="NAME",
        help="run this entry of the bench table (repeatable; default "
        f"every entry): {', '.join(entry.name for entry in SECTIONS)}",
    )
    p.add_argument(
        "--out",
        metavar="PATH",
        help="write the machine-readable results JSON here "
        "(the BENCH_turbo.json schema)",
    )
    p.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare the cases section against this committed "
        f"BENCH_turbo.json; a lane more than {BASELINE_TOLERANCE * 100:.0f}%% "
        "slower fails the run",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the batch section's run_batch sweep "
        "(0 = one per CPU; the case grid always runs serially)",
    )
    p.add_argument(
        "--profile",
        metavar="FAMILY:N[:BACKEND]",
        help="wrap one extra run of the given case in cProfile; writes "
        "the pstats dump next to --out (or ./bench.profile.pstats) and "
        "prints the top-20 cumulative table (backend defaults to turbo)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "reliable", help="reliable broadcast over a lossy network"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--loss", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reliable)

    p = sub.add_parser(
        "resilience",
        help="deterministic fault injection + recovery on the turbo lane",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("-m", type=int, default=1, help="messages to broadcast")
    p.add_argument(
        "--loss", type=float, default=0.0,
        help="per-transmission drop probability in [0, 1)",
    )
    p.add_argument(
        "--crash", type=float, default=0.0,
        help="per-processor crash-stop probability in [0, 1) "
        "(the root never crashes)",
    )
    p.add_argument(
        "--jitter", default="0",
        help="max extra latency per delivery; must sit on the run's "
        "tick grid (accepts ratios like 1/2)",
    )
    p.add_argument(
        "--crashed", metavar="P,P,...",
        help="explicit crash-stop processors (crashed at t=0), "
        "composable with --crash sampling",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--detector", choices=("timeout", "perfect"), default="timeout",
        help="failure detector: local RTO timeouts (realistic) or the "
        "perfect detector (absolute recovery guarantee)",
    )
    p.add_argument(
        "--rto", default=None,
        help="per-edge retransmission timeout (default 2*ceil(lambda)+2)",
    )
    p.add_argument(
        "--max-retries", type=int, default=8,
        help="silent RTOs before a child is declared dead "
        "(timeout detector only; default 8)",
    )
    p.add_argument(
        "--curve", action="store_true",
        help="sweep the --losses x --crashes grid and print the "
        "degradation table instead of one run",
    )
    p.add_argument(
        "--losses", default="0,0.05,0.1,0.2",
        help="comma-separated loss rates for --curve",
    )
    p.add_argument(
        "--crashes", default="0,0.05",
        help="comma-separated crash rates for --curve",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for --curve (0 = one per CPU; per-point "
        "seed derivation keeps any jobs value byte-identical)",
    )
    p.set_defaults(func=cmd_resilience)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.errors.ReproError` — off-grid tick
    domains, bad parameter values, inapplicable tuning queries, ...)
    are reported as a one-line ``error:`` message on stderr with exit
    code 2, never as a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
