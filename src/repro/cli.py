"""Command-line interface: run paper scenarios without writing code.

Examples
--------
List what is available::

    python -m repro list

Run a steady-state scenario and print the summary::

    python -m repro run --scenario light --aqm pi2 --duration 30

Coexistence at one grid point (Figure 15's metric)::

    python -m repro coexist --aqm coupled --link 40 --rtt 10

Bode margins at an operating point (Appendix B)::

    python -m repro bode --kind reno_pi2 --p 0.01 --rtt 100

Fluid-model trajectory (Appendix B, time domain)::

    python -m repro fluid --flows 5 --link 10 --rtt 100

Record a telemetry trace of a run and summarize it afterwards::

    python -m repro run --scenario light --aqm pi2 --trace /tmp/run.jsonl
    python -m repro trace summarize /tmp/run.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from typing import List, Optional

from repro.analysis.bode import (
    margins_reno_pi,
    margins_reno_pi2,
    margins_reno_pie,
    margins_scal_pi,
)
from repro.analysis.fluid import PiGains
from repro.analysis.timedomain import FluidScenario, simulate_fluid
from repro.harness import (
    FACTORIES,
    MBPS,
    coexistence_pair,
    heavy_tcp,
    light_tcp,
    run_experiment,
    tcp_plus_udp,
    varying_capacity,
    varying_intensity,
)
from repro.harness.sweep import format_table
from repro.net.faults import FAULT_SPEC_HELP, parse_fault_spec

__all__ = ["main"]

SCENARIOS = {
    "light": light_tcp,
    "heavy": heavy_tcp,
    "udp": tcp_plus_udp,
    "intensity": varying_intensity,
    "capacity": varying_capacity,
}

BODE_KINDS = {
    "reno_pi": lambda p, r0, g: margins_reno_pi(p, r0, g),
    "reno_pie": lambda p, r0, g: margins_reno_pie(p, r0, g),
    "reno_pi2": lambda p, r0, g: margins_reno_pi2(p, r0, g),
    "scal_pi": lambda p, r0, g: margins_scal_pi(p, r0, g),
}

DEFAULT_GAINS = {
    "reno_pi": (0.125, 1.25),
    "reno_pie": (0.125, 1.25),
    "reno_pi2": (0.3125, 3.125),
    "scal_pi": (0.625, 6.25),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PI2 (CoNEXT 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenarios and AQMs")

    run = sub.add_parser("run", help="run a canned scenario")
    run.add_argument("--scenario", choices=sorted(SCENARIOS), default="light")
    run.add_argument("--aqm", choices=sorted(FACTORIES), default="pi2")
    run.add_argument("--duration", type=float, default=30.0,
                     help="simulated seconds (stage length for dynamic scenarios)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--json", metavar="PATH",
                     help="also write the result summary as JSON")
    run.add_argument("--validate", action="store_true",
                     help="run with periodic invariant checking "
                          "(packet conservation, p in [0,1], clock)")
    run.add_argument("--fault", metavar="SPEC", action="append", default=[],
                     help="inject a fault; repeatable. " + FAULT_SPEC_HELP)
    _add_trace_options(run)

    co = sub.add_parser("coexist", help="DCTCP vs Cubic at one grid point")
    co.add_argument("--aqm", choices=sorted(FACTORIES), default="coupled")
    co.add_argument("--link", type=float, default=40.0, help="Mb/s")
    co.add_argument("--rtt", type=float, default=10.0, help="ms")
    co.add_argument("--duration", type=float, default=30.0)
    co.add_argument("--cc-a", default="dctcp")
    co.add_argument("--cc-b", default="cubic")
    co.add_argument("--seed", type=int, default=1)

    grid = sub.add_parser(
        "grid",
        help="run a link×RTT coexistence grid, optionally supervised/resumable",
    )
    grid.add_argument("--aqm", choices=sorted(FACTORIES), default="coupled")
    grid.add_argument("--links", default="4,12",
                      help="comma-separated link rates in Mb/s (default: 4,12)")
    grid.add_argument("--rtts", default="5,10",
                      help="comma-separated RTTs in ms (default: 5,10)")
    grid.add_argument("--duration", type=float, default=10.0)
    grid.add_argument("--cc-a", default="dctcp")
    grid.add_argument("--cc-b", default="cubic")
    grid.add_argument("--seed", type=int, default=1)
    grid.add_argument("--on-error", choices=["raise", "capture"],
                      default="capture", dest="on_error",
                      help="capture (default): record failed cells and keep "
                           "going; raise: first failure aborts the sweep")
    grid.add_argument("--max-retries", type=int, default=1,
                      help="seed-bump retries per failing cell (default: 1)")
    grid.add_argument("--supervised", action="store_true",
                      help="run cells under the watchdogged backend "
                           "(per-task timeouts, heartbeats, crash retry)")
    grid.add_argument("--journal", metavar="PATH",
                      help="append each completed cell to a crash-safe "
                           "journal (implies --supervised)")
    grid.add_argument("--resume", action="store_true",
                      help="replay cells already in --journal instead of "
                           "re-simulating them (bit-exact)")
    grid.add_argument("--compact-every", type=int, default=None, metavar="N",
                      help="rewrite the journal (latest record per key) "
                           "after every N appends")
    grid.add_argument("--task-timeout", type=float, default=None, metavar="S",
                      help="kill and retry any cell running longer than S "
                           "wall-clock seconds")
    grid.add_argument("--heartbeat-timeout", type=float, default=None,
                      metavar="S",
                      help="kill and retry a worker silent for S seconds")
    _add_perf_options(grid)
    _add_trace_options(grid)

    bode = sub.add_parser("bode", help="gain/phase margins at an operating point")
    bode.add_argument("--kind", choices=sorted(BODE_KINDS), default="reno_pi2")
    bode.add_argument("--p", type=float, default=0.01,
                      help="operating point (p or p' depending on kind)")
    bode.add_argument("--rtt", type=float, default=100.0, help="ms")
    bode.add_argument("--alpha", type=float)
    bode.add_argument("--beta", type=float)

    figure = sub.add_parser("figure", help="regenerate a paper figure's data")
    figure.add_argument("name", help="figure name (see `repro list`)")
    figure.add_argument("--scale", type=float, default=1.0,
                        help="duration multiplier (1 = quick defaults)")
    figure.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    figure.add_argument("--journal", metavar="DIR",
                        help="append each completed cell to a crash-safe "
                             "journal (<DIR>/<figure>.journal, fsync'd per "
                             "cell)")
    figure.add_argument("--resume", action="store_true",
                        help="replay cells already in --journal instead of "
                             "re-simulating them (bit-exact)")
    figure.add_argument("--task-timeout", type=float, default=None,
                        metavar="S",
                        help="run each cell in a supervised worker and kill/"
                             "retry it past S wall-clock seconds")
    figure.add_argument("--heartbeat-timeout", type=float, default=None,
                        metavar="S",
                        help="kill and retry a cell's worker silent for S "
                             "seconds (implies supervised execution)")
    figure.add_argument("--compact-every", type=int, default=None,
                        metavar="N",
                        help="rewrite the journal (latest record per key) "
                             "after every N appends")
    _add_perf_options(figure)
    _add_trace_options(figure)

    trace = sub.add_parser(
        "trace",
        help="work with JSONL telemetry traces recorded via --trace",
    )
    trace.add_argument("action", choices=["summarize"],
                       help="summarize: per-category event counts, control-"
                            "loop convergence, engine lane stats, span "
                            "durations")
    trace.add_argument("path", help="trace file written by --trace")
    trace.add_argument("--json", action="store_true",
                       help="emit the summary as JSON instead of a report")
    trace.add_argument("--rows", type=int, default=12, metavar="N",
                       help="time-series rows in the human report "
                            "(default: 12)")

    bench = sub.add_parser(
        "bench",
        help="run the performance benchmark harness, emit BENCH_<date>.json",
    )
    bench.add_argument("--full", action="store_true",
                       help="larger grids / longer runs (default: quick)")
    bench.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="worker processes for the parallel benchmarks "
                            "(0 = one per CPU)")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--output", metavar="PATH",
                       help="JSON path (default: ./BENCH_<date>.json)")
    bench.add_argument("--profile", action="store_true",
                       help="also print a cProfile report of one experiment run")

    check = sub.add_parser(
        "check",
        help="run the domain static-analysis rules "
             "(DET/ORD/PROB/SCHED/PICKLE/FLOAT/OBS/TAINT/UNIT)",
    )
    check.add_argument("paths", nargs="*", metavar="PATH",
                       help="files or directories to check "
                            "(default: the installed repro package)")
    check.add_argument("--rules", metavar="NAMES",
                       help="comma-separated rule subset (e.g. DET,PROB)")
    check.add_argument("--format", choices=["human", "json", "sarif"],
                       default="human", dest="output_format",
                       help="report format (json is versioned, sarif is "
                            "2.1.0; see docs/STATIC_ANALYSIS.md)")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule catalogue and exit")
    check.add_argument("--incremental", action="store_true",
                       help="re-analyze only files whose content hash "
                            "changed, plus their call-graph dependents "
                            "(state in --state)")
    check.add_argument("--state", metavar="PATH", default=None,
                       help="incremental-state file "
                            "(default: .repro-check-state.json)")
    check.add_argument("--baseline", metavar="PATH", default=None,
                       help="findings-baseline ratchet file "
                            "(default: tools/findings_baseline.json when "
                            "a baseline flag is used)")
    check.add_argument("--update-baseline", action="store_true",
                       help="rewrite the baseline to the current counts")
    check.add_argument("--require-baseline", action="store_true",
                       help="fail when the baseline file is missing "
                            "(CI mode); gate counts against it")

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("--cache-dir", metavar="DIR",
                       help="cache location (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-pi2)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached result")
    cache.add_argument("--verify", action="store_true",
                       help="scan every entry, pruning any that fail to load")

    fluid = sub.add_parser("fluid", help="fluid-model trajectory (Appendix B)")
    fluid.add_argument("--kind", choices=["reno_pi2", "reno_pi", "scal_pi"],
                       default="reno_pi2")
    fluid.add_argument("--flows", type=float, default=5.0)
    fluid.add_argument("--link", type=float, default=10.0, help="Mb/s")
    fluid.add_argument("--rtt", type=float, default=100.0, help="ms")
    fluid.add_argument("--duration", type=float, default=40.0)
    return parser


def _add_perf_options(parser) -> None:
    """--jobs / --cache-dir / --no-cache, shared by simulation commands."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run sweep cells in N worker processes "
                             "(0 = one per CPU; default: serial)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="result-cache location (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro-pi2)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")


def _add_trace_options(parser) -> None:
    """--trace / --trace-filter, shared by the simulation commands."""
    parser.add_argument("--trace", metavar="PATH",
                        help="record typed telemetry events (AQM control law, "
                             "engine epochs, harness spans) to a JSONL file; "
                             "results are bit-exact with tracing on or off")
    parser.add_argument("--trace-filter", metavar="CATS",
                        default="aqm,engine,harness",
                        help="comma-separated event categories to record "
                             "(default: aqm,engine,harness)")


def _make_tracer(args):
    """Build the JSONL tracer an argparse namespace asks for (or None)."""
    from repro.errors import ConfigError
    from repro.obs import JsonlTracer

    if getattr(args, "trace", None) is None:
        return None
    categories = [c for c in args.trace_filter.split(",") if c.strip()]
    try:
        return JsonlTracer(args.trace, categories=categories)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def _close_tracer(tracer, out) -> None:
    """Flush the tracer and print a one-line recording summary."""
    if tracer is None:
        return
    tracer.close()
    counts = ", ".join(
        f"{cat}={n}" for cat, n in sorted(tracer.counts.items()) if n
    )
    print(f"trace: {tracer.total_events} events ({counts or 'none'}) "
          f"-> {tracer.path}", file=out)


def _make_cache(args):
    """Build the result cache an argparse namespace asks for (or None).

    The CLI always hands out the shared (cross-process single-flight)
    flavour: concurrent ``repro figure``/``repro grid`` invocations over
    the same cache directory then compute each cell once between them.
    """
    from repro.harness.cache import DEFAULT_CACHE_DIR, SharedResultCache

    if getattr(args, "no_cache", False):
        return None
    return SharedResultCache(
        getattr(args, "cache_dir", None) or DEFAULT_CACHE_DIR
    )


def _cmd_list(out) -> int:
    from repro.harness.figures import FIGURES

    print("scenarios:", ", ".join(sorted(SCENARIOS)), file=out)
    print("aqms:     ", ", ".join(sorted(FACTORIES)), file=out)
    print("bode kinds:", ", ".join(sorted(BODE_KINDS)), file=out)
    print("figures:  ", ", ".join(sorted(FIGURES)), file=out)
    return 0


def _check_compact_every(args) -> None:
    """Reject a nonpositive ``--compact-every`` as configuration, not as
    a :class:`~repro.errors.JournalError` traceback from the journal."""
    value = getattr(args, "compact_every", None)
    if value is not None and value < 1:
        from repro.errors import ConfigError

        raise ConfigError(
            f"--compact-every must be a positive append count (got {value})"
        )


def _cmd_figure(args, out) -> int:
    from repro.harness.figures import generate_figure

    _check_compact_every(args)

    supervisor = None
    if args.task_timeout is not None or args.heartbeat_timeout is not None:
        from repro.harness.supervisor import SupervisorConfig

        supervisor = SupervisorConfig(
            task_timeout=args.task_timeout,
            heartbeat_timeout=args.heartbeat_timeout,
        )
    cache = _make_cache(args)
    tracer = _make_tracer(args)
    if cache is not None and tracer is not None:
        cache.set_tracer(tracer)
    data = generate_figure(args.name, scale=args.scale, jobs=args.jobs,
                           cache=cache, tracer=tracer,
                           journal=args.journal, resume=args.resume,
                           supervisor=supervisor,
                           compact_every=args.compact_every)
    _close_tracer(tracer, out)
    print(data.table(), file=out)
    if data.report is not None and (args.journal or supervisor is not None):
        print(f"figure: {data.report.summary()}", file=out)
    if cache is not None and (cache.stats.hits or cache.stats.stores):
        print(f"cache: {cache.stats} ({cache.root})", file=out)
    if args.csv:
        data.to_csv(args.csv)
        print(f"wrote {args.csv}", file=out)
    return 0


def _cmd_bench(args, out) -> int:
    from repro.perf import (
        format_bench_table,
        profile_experiment,
        run_benchmarks,
        write_bench_json,
    )

    payload = run_benchmarks(quick=not args.full, jobs=args.jobs, seed=args.seed)
    print(format_bench_table(payload), file=out)
    path = write_bench_json(payload, args.output)
    print(f"wrote {path}", file=out)
    if args.profile:
        from repro.harness import light_tcp
        from repro.harness.factories import pi2_factory

        report = profile_experiment(
            light_tcp(pi2_factory(), duration=5.0, seed=args.seed)
        )
        print(report, file=out)
    mismatches = [
        b["name"] for b in payload["benchmarks"]
        if b.get("matches_serial") is False
        or b.get("matches_cold") is False
        or b.get("matches_resume") is False
        or b.get("matches_untraced") is False
    ]
    if mismatches:
        print(f"DETERMINISM REGRESSION in: {', '.join(mismatches)}", file=out)
        return 1
    broken_flight = [
        b["name"] for b in payload["benchmarks"]
        if b.get("single_flight_ok") is False
    ]
    if broken_flight:
        print(f"SINGLE-FLIGHT REGRESSION in: {', '.join(broken_flight)}",
              file=out)
        return 1
    slow_journal = [
        b["name"] for b in payload["benchmarks"]
        if b.get("journal_overhead_ok") is False
    ]
    if slow_journal:
        print(f"JOURNAL OVERHEAD REGRESSION in: {', '.join(slow_journal)}",
              file=out)
        return 1
    slow_tracing = [
        b["name"] for b in payload["benchmarks"]
        if b.get("tracing_overhead_ok") is False
    ]
    if slow_tracing:
        print(f"TRACING OVERHEAD REGRESSION in: {', '.join(slow_tracing)}",
              file=out)
        return 1
    static = payload.get("static_analysis", {})
    if static.get("within_budget") is False:
        print(
            f"STATIC ANALYSIS BUDGET REGRESSION: full-tree repro check "
            f"took {static.get('seconds', 0.0):.2f}s "
            f"(budget {static.get('budget_seconds')}s)",
            file=out,
        )
        return 1
    return 0


def _cmd_trace(args, out) -> int:
    from repro.obs import format_trace_summary, summarize_trace

    try:
        summary = summarize_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 1
    if args.json:
        import json

        # The series arrays are the bulk of the payload; keep them — the
        # JSON form exists precisely for plotting p'/delay time-series.
        print(json.dumps(summary, indent=2, sort_keys=True), file=out)
    else:
        print(format_trace_summary(summary, max_rows=args.rows), file=out)
    return 0


def _cmd_check(args, out) -> int:
    from repro.analysis.static import run_check

    rule_names = args.rules.split(",") if args.rules else None
    return run_check(
        paths=args.paths or None,
        rule_names=rule_names,
        output_format=args.output_format,
        list_rules=args.list_rules,
        incremental=args.incremental,
        state_path=args.state,
        baseline=args.baseline,
        update_baseline=args.update_baseline,
        require_baseline=args.require_baseline,
        out=out,
    )


def _cmd_cache(args, out) -> int:
    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}", file=out)
    elif args.verify:
        ok, corrupt = cache.verify(prune=True)
        print(f"cache dir: {cache.root}", file=out)
        print(f"verified:  {ok} entr{'y' if ok == 1 else 'ies'} OK", file=out)
        if corrupt:
            print(f"pruned {len(corrupt)} corrupt entr"
                  f"{'y' if len(corrupt) == 1 else 'ies'}:", file=out)
            for line in corrupt:
                print(f"  - {line}", file=out)
            return 1
    else:
        print(f"cache dir: {cache.root}", file=out)
        print(f"entries:   {len(cache)}", file=out)
    return 0


def _cmd_grid(args, out) -> int:
    from repro.harness.supervisor import SupervisorConfig
    from repro.harness.sweep import run_coexistence_grid

    links = [float(v) for v in args.links.split(",") if v.strip()]
    rtts = [float(v) for v in args.rtts.split(",") if v.strip()]
    supervised = (
        args.supervised or args.journal is not None or args.resume
        or args.task_timeout is not None or args.heartbeat_timeout is not None
    )
    supervisor = None
    if supervised:
        supervisor = SupervisorConfig(
            task_timeout=args.task_timeout,
            heartbeat_timeout=args.heartbeat_timeout,
            max_retries=args.max_retries,
        )
    _check_compact_every(args)
    journal = args.journal
    own_journal = None
    if args.journal is not None and args.compact_every is not None:
        from repro.harness.journal import ResultJournal

        journal = own_journal = ResultJournal(
            args.journal, compact_every=args.compact_every
        )
    cache = _make_cache(args)
    tracer = _make_tracer(args)
    if cache is not None and tracer is not None:
        cache.set_tracer(tracer)
    try:
        outcome = run_coexistence_grid(
            FACTORIES[args.aqm](),
            cc_a=args.cc_a,
            cc_b=args.cc_b,
            links_mbps=links,
            rtts_ms=rtts,
            duration=args.duration,
            warmup=min(10.0, args.duration / 2),
            seed=args.seed,
            on_error=args.on_error,
            max_retries=args.max_retries,
            jobs=args.jobs,
            cache=cache,
            supervised=supervised,
            supervisor=supervisor,
            journal=journal,
            resume=args.resume,
            tracer=tracer,
        )
    finally:
        if own_journal is not None:
            own_journal.close()
    _close_tracer(tracer, out)
    rows = [
        (
            cell.link_mbps,
            cell.rtt_ms,
            cell.balance(args.cc_a, args.cc_b),
            cell.result.sojourn_summary()["mean"] * 1e3,
            cell.result.mean_utilization() * 100,
        )
        for cell in outcome
    ]
    print(
        format_table(
            ["link [Mb/s]", "rtt [ms]", f"{args.cc_b}/{args.cc_a}",
             "delay [ms]", "util [%]"],
            rows,
            title=f"grid aqm={args.aqm} {args.cc_a} vs {args.cc_b} "
                  f"seed={args.seed}",
        ),
        file=out,
    )
    if outcome.recovery is not None:
        report = outcome.recovery
        print(
            f"supervised: executed={report.executed} "
            f"replayed={report.replayed} cache_hits={report.cache_hits} "
            f"journal_appends={report.journal_appends}"
            f"{' DEGRADED-TO-SERIAL' if report.degraded else ''}",
            file=out,
        )
        if report.actions:
            print(report.format_actions(), file=out)
    if cache is not None and (cache.stats.hits or cache.stats.stores):
        print(f"cache: {cache.stats} ({cache.root})", file=out)
    if not outcome.complete:
        print(outcome.failure_report(), file=out)
        return 1
    # One line CI compares with the golden grid digest: equal grids hash
    # equal, any cell diverging changes it.
    combined = hashlib.sha256(
        "".join(cell.result.digest_hex() for cell in outcome).encode("ascii")
    ).hexdigest()
    print(f"grid digest: {combined}", file=out)
    return 0


def _cmd_run(args, out) -> int:
    factory = FACTORIES[args.aqm]()
    scenario = SCENARIOS[args.scenario]
    if args.scenario in ("intensity", "capacity"):
        exp = scenario(factory, stage=args.duration, seed=args.seed)
    else:
        exp = scenario(factory, duration=args.duration, seed=args.seed)
    if args.validate or args.fault:
        faults = tuple(parse_fault_spec(spec) for spec in args.fault)
        exp = replace(exp, validate=args.validate, faults=faults)
    tracer = _make_tracer(args)
    result = run_experiment(exp, tracer=tracer)
    _close_tracer(tracer, out)
    delay = result.sojourn_summary(percentiles=(99,))
    rows = [
        ("queue delay mean [ms]", delay["mean"] * 1e3),
        ("queue delay p99 [ms]", delay["p99"] * 1e3),
        ("utilization [%]", result.mean_utilization() * 100),
        ("AQM drops", result.queue_stats.aqm_dropped),
        ("tail drops", result.queue_stats.tail_dropped),
        ("CE marks", result.queue_stats.ce_marked),
    ]
    if args.validate:
        rows.append(("invariant checks", result.invariant_checks))
    if args.fault:
        rows.append(("fault drops", result.queue_stats.fault_dropped))
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"scenario={args.scenario} aqm={args.aqm} "
                  f"duration={exp.duration:.0f}s seed={args.seed}",
        ),
        file=out,
    )
    if args.json:
        from repro.metrics.export import write_result_json

        path = write_result_json(result, args.json)
        print(f"wrote {path}", file=out)
    return 0


def _cmd_coexist(args, out) -> int:
    factory = FACTORIES[args.aqm]()
    exp = coexistence_pair(
        factory,
        cc_a=args.cc_a,
        cc_b=args.cc_b,
        capacity_bps=args.link * MBPS,
        rtt=args.rtt / 1e3,
        duration=args.duration,
        warmup=min(10.0, args.duration / 2),
        seed=args.seed,
    )
    result = run_experiment(exp)
    a = sum(result.goodputs(args.cc_a)) / 1e6
    b = sum(result.goodputs(args.cc_b)) / 1e6
    rows = [
        (f"{args.cc_a} [Mb/s]", a),
        (f"{args.cc_b} [Mb/s]", b),
        (f"{args.cc_b}/{args.cc_a} ratio", b / a if a else float("inf")),
        ("queue delay mean [ms]", result.sojourn_summary()["mean"] * 1e3),
        ("utilization [%]", result.mean_utilization() * 100),
    ]
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"coexistence aqm={args.aqm} link={args.link}Mb/s rtt={args.rtt}ms",
        ),
        file=out,
    )
    return 0


def _cmd_bode(args, out) -> int:
    alpha, beta = DEFAULT_GAINS[args.kind]
    gains = PiGains(
        alpha if args.alpha is None else args.alpha,
        beta if args.beta is None else args.beta,
    )
    margins = BODE_KINDS[args.kind](args.p, args.rtt / 1e3, gains)
    gm = margins.gain_margin_db
    pm = margins.phase_margin_deg
    rows = [
        ("gain margin [dB]", float("nan") if gm is None else gm),
        ("phase margin [deg]", float("nan") if pm is None else pm),
        ("stable", str(margins.stable)),
    ]
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"bode kind={args.kind} p={args.p} rtt={args.rtt}ms "
                  f"alpha={gains.alpha} beta={gains.beta}",
        ),
        file=out,
    )
    return 0


def _cmd_fluid(args, out) -> int:
    cap_pps = args.link * MBPS / (1448 * 8)
    alpha, beta = DEFAULT_GAINS[args.kind if args.kind != "reno_pi" else "reno_pi"]
    scenario = FluidScenario(
        capacity_pps=cap_pps,
        n_flows=args.flows,
        base_rtt=args.rtt / 1e3,
        alpha=alpha,
        beta=beta,
        kind=args.kind,
        duration=args.duration,
    )
    result = simulate_fluid(scenario)
    rows = [
        ("steady queue delay [ms]", result.tail_mean("queue_delay") * 1e3),
        ("steady window [seg]", result.tail_mean("window")),
        ("steady p' ", result.tail_mean("p_prime")),
        ("steady applied p", result.tail_mean("applied_p")),
        ("peak queue delay [ms]", result.peak("queue_delay") * 1e3),
    ]
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"fluid kind={args.kind} flows={args.flows} "
                  f"link={args.link}Mb/s rtt={args.rtt}ms",
        ),
        file=out,
    )
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "coexist":
        return _cmd_coexist(args, out)
    if args.command == "figure":
        return _cmd_figure(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "check":
        return _cmd_check(args, out)
    if args.command == "cache":
        return _cmd_cache(args, out)
    if args.command == "grid":
        return _cmd_grid(args, out)
    if args.command == "bode":
        return _cmd_bode(args, out)
    if args.command == "fluid":
        return _cmd_fluid(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
