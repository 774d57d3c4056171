"""Run one pass of a workload in this (fresh) process and report it as JSON.

Usage::

    python3 perfbench/cellrun.py --workload coexist_bdp --seed 3 \
        --result out.json --tmp DIR [--profile] [--run-id ID]

The timed phase is the calls into the program's entry points only
(``run_experiment`` per cell, or ``repro.cli.main`` once for the grid);
digests, conservation, counters and accuracy are read between cells,
outside it.  ``t_entry`` (``time.monotonic``, system-wide on Linux) marks
the first entry-point call, so the parent can time set-up from the moment
it spawned this process.  With ``--profile`` the stdlib deterministic
profiler runs around the timed phase only and the pass reports the
per-layer split of its tables.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import math
import os
import pstats
import resource
import sys
import time

from workloads import SRC

ENGINE_KEYS = (
    "engine.events_processed",
    "engine.events_batched",
    "engine.batch_breaks",
    "engine.cancelled_pending",
    "engine.compactions",
    "engine.pool_hits",
)
LINK_KEYS = ("link.packets_sent", "link.batched_packets", "link.batches")
QUEUE_KEYS = ("arrived", "aqm_dropped", "tail_dropped", "ce_marked")
TCP_KEYS = ("segments_sent", "retransmits", "timeouts")


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _finite(value: float):
    return value if math.isfinite(value) else None


def telemetry_counters(telemetry, stats, sojourns: int) -> dict:
    """Exact counters every result exposes, live or frozen."""
    telemetry = telemetry or {}
    counters = {key: int(telemetry.get(key, 0)) for key in ENGINE_KEYS + LINK_KEYS}
    counters["aqm.decisions"] = int(telemetry.get("aqm.decisions", 0))
    for key in QUEUE_KEYS:
        counters[f"queue.{key}"] = int(getattr(stats, key))
    counters["metrics.sojourn_samples"] = int(sojourns)
    return counters


def accuracy(result, coupled: bool) -> dict:
    """Per-cell distance from the paper's Fig 15/16/18 read-outs."""
    import numpy as np

    from workloads import MIN_UTILIZATION, TARGET_DELAY_S

    samples = result.sojourn_samples()
    out = {
        "util_shortfall": _finite(max(0.0, MIN_UTILIZATION - result.mean_utilization())),
        "delay_err_ms": (
            _finite(abs(float(np.median(samples)) - TARGET_DELAY_S) * 1e3)
            if samples.size else None
        ),
    }
    if coupled:
        cubic = sum(result.goodputs("cubic"))
        dctcp = sum(result.goodputs("dctcp"))
        out["rate_ratio_err"] = (
            abs(math.log(cubic / dctcp)) if cubic > 0 and dctcp > 0 else None
        )
    return out


def live_cell_report(result, coupled: bool) -> dict:
    """Digest, conservation, counters and accuracy of a live result."""
    bed = result.bed
    stats = bed.queue.stats
    backlog = len(bed.queue)
    counters = telemetry_counters(result.telemetry, stats, len(bed.sojourns))
    for key in TCP_KEYS:
        counters[f"tcp.{key}"] = sum(int(getattr(s, key)) for s in bed.senders.values())
    conserved = (
        stats.arrived
        == stats.dequeued + stats.aqm_dropped + stats.tail_dropped
        + stats.fault_dropped + backlog
        and stats.enqueued - stats.dequeued == backlog
    )
    return {
        "digest": result.digest_hex(),
        "conserved": bool(conserved),
        "counters": counters,
        "accuracy": accuracy(result, coupled),
    }


def frozen_cell_report(frozen) -> dict:
    """The same read-outs for a cached ``FrozenResult`` (no live queue:
    its final backlog is ``enqueued - dequeued``)."""
    stats = frozen.queue_stats
    backlog = stats.enqueued - stats.dequeued
    counters = telemetry_counters(frozen.telemetry, stats, len(frozen.sojourns))
    for key in TCP_KEYS:
        counters[f"tcp.{key}"] = 0
    conserved = backlog >= 0 and stats.arrived == (
        stats.dequeued + stats.aqm_dropped + stats.tail_dropped
        + stats.fault_dropped + backlog
    )
    return {
        "digest": frozen.digest_hex(),
        "conserved": bool(conserved),
        "counters": counters,
        "accuracy": accuracy(frozen, coupled=True),
    }


class Pass:
    """Timing, spans and the optional profiler of one pass."""

    def __init__(self, run_id: str, profile: bool):
        self.run_id = run_id
        self.profiler = cProfile.Profile() if profile else None
        if self.profiler is not None:
            # Only this process is profiled: a worker forked mid-pass
            # would otherwise inherit the active profiler, pay its
            # overhead and take its tables with it when it exits.
            os.register_at_fork(after_in_child=self.profiler.disable)
        self.cells = []
        self.spans = []
        self.wall_s = 0.0
        self.cpu_self_s = 0.0
        self.cpu_children_s = 0.0
        self.t_entry = None

    def timed(self, cell_id: str, call):
        """Run ``call()`` as one timed entry-point call; return its value."""
        if self.t_entry is None:
            self.t_entry = time.monotonic()
        self_0 = _cpu(resource.RUSAGE_SELF)
        children_0 = _cpu(resource.RUSAGE_CHILDREN)
        start = time.monotonic()
        if self.profiler is not None:
            self.profiler.enable()
        try:
            return call()
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            end = time.monotonic()
            cpu_self = _cpu(resource.RUSAGE_SELF) - self_0
            cpu_children = _cpu(resource.RUSAGE_CHILDREN) - children_0
            self.wall_s += end - start
            self.cpu_self_s += cpu_self
            self.cpu_children_s += cpu_children
            self.spans.append({
                "run": self.run_id,
                "cell": cell_id,
                "start": start,
                "end": end,
                "cpu_s": cpu_self + cpu_children,
                "parent": f"{self.run_id}/pass",
            })

    def fail(self, cell_id: str, exc: BaseException) -> None:
        """Record a cell whose entry-point call raised."""
        self.cells.append({"cell": cell_id, "error": f"{type(exc).__name__}: {exc}"})

    def report(self, extra: dict) -> dict:
        """The pass as JSON-ready data: timing, cells, spans, profile split."""
        out = {
            "t_entry": self.t_entry,
            "wall_s": self.wall_s,
            "cpu_self_s": self.cpu_self_s,
            "cpu_children_s": self.cpu_children_s,
            "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            "cells": self.cells,
            "spans": self.spans + [{
                "run": self.run_id,
                "cell": "pass",
                "start": self.spans[0]["start"] if self.spans else None,
                "end": self.spans[-1]["end"] if self.spans else None,
                "cpu_s": self.cpu_self_s + self.cpu_children_s,
                "parent": None,
            }],
        }
        if self.profiler is not None:
            from layers import LayerMap, split_profile, total_self_s

            import repro

            stats = pstats.Stats(self.profiler).stats
            out["profile"] = {
                "split": split_profile(stats, LayerMap(os.path.dirname(repro.__file__))),
                "total_self_s": total_self_s(stats),
            }
        out.update(extra)
        return out


def run_simulation_pass(workload: str, seed: int, bench: Pass) -> dict:
    """Run every cell of a simulation workload through ``run_experiment``."""
    from workloads import build_experiment, cells_for

    from repro.harness import run_experiment

    specs = cells_for(workload, seed)
    experiments = [build_experiment(spec) for spec in specs]
    for spec, experiment in zip(specs, experiments):
        try:
            result = bench.timed(spec.cell_id, lambda: run_experiment(experiment))
            cell = live_cell_report(result, spec.coupled)
        except Exception as exc:  # a failing cell is counted, never raised
            bench.fail(spec.cell_id, exc)
            continue
        cell["cell"] = spec.cell_id
        bench.cells.append(cell)
        del result
    return bench.report({})


def run_grid_pass(seed: int, bench: Pass, tmp: str) -> dict:
    """Run the grid through ``repro.cli.main`` and read its cells back
    from the fresh cache dir."""
    from workloads import experiment_seed, grid_argv

    from repro import cli
    from repro.harness.cache import SharedResultCache
    from repro.harness.parallel import resolve_jobs

    # The fresh cache dir is named on the command line; $REPRO_CACHE_DIR
    # must not leak in through the default either.
    os.environ.pop("REPRO_CACHE_DIR", None)
    cache_dir = os.path.join(tmp, "cache")
    if os.path.exists(cache_dir):
        raise SystemExit(f"cache dir {cache_dir} is not fresh")
    jobs = resolve_jobs(0)
    argv = grid_argv(seed, cache_dir)
    out = io.StringIO()
    s = experiment_seed(seed)
    extra = {"jobs": jobs, "grid_digest": None, "cache_hits": 0, "cache_stores": 0}
    try:
        code = bench.timed(f"fig15-grid-s{s}", lambda: cli.main(argv, out=out))
    except Exception as exc:  # a failing grid is counted, never raised
        extra["error"] = f"{type(exc).__name__}: {exc}"
        return bench.report(extra)
    text = out.getvalue()
    extra["exit_code"] = code
    hits = 0
    for line in text.splitlines():
        if line.startswith("grid digest: "):
            extra["grid_digest"] = line.split(": ", 1)[1].strip()
        elif line.startswith("cache: "):
            for part in line[len("cache: "):].split():
                if part.startswith("hits="):
                    hits += int(part[len("hits="):])
    cache = SharedResultCache(cache_dir)
    events = cache.event_counts()
    extra["cache_hits"] = hits + events["wait"]
    entries = sorted(path.stem for path in cache.root.glob("*/*.pkl"))
    extra["cache_stores"] = len(entries)
    for key in entries:
        frozen = cache.get(key)
        experiment = frozen.experiment if frozen is not None else None
        if experiment is None:
            continue
        cell_id = (
            f"grid-{experiment.capacity_bps / 1e6:g}-"
            f"{experiment.flows[0].rtt * 1e3:g}-s{s}"
        )
        cell = frozen_cell_report(frozen)
        cell["cell"] = cell_id
        bench.cells.append(cell)
    bench.cells.sort(key=lambda c: c["cell"])
    return bench.report(extra)


def main(argv=None) -> int:
    """Run one pass and write its report to ``--result``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="the pass's experiment seed")
    parser.add_argument("--result", required=True, help="where to write the JSON report")
    parser.add_argument("--tmp", required=True, help="scratch dir inside the checkout")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = Pass(args.run_id, args.profile)
    if args.workload == "fig15_sweep":
        report = run_grid_pass(args.seed, bench, args.tmp)
    else:
        report = run_simulation_pass(args.workload, args.seed, bench)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
