"""Benchmark of the PI2 reproduction: paper workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload coexist_bdp --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/workloads.json``): ``coexist_bdp``,
``classic_churn`` and ``fig15_sweep``.  Each *pass* of a workload runs
in a fresh process (``perfbench/cellrun.py``) with one experiment seed;
passes repeat until ``--seconds`` is spent (at least :data:`MIN_PASSES`),
walking through the experiment seeds in the order ``--seed`` picks, and
every metric is the median over the passes.

``--trace 0`` prints the end-to-end metrics: ``wall_s``,
``cpu_s_per_sim_s``, ``events_per_cpu_s``, ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` runs one untraced and one profiled pass
and prints the per-layer split (``<layer>.self_s``/``calls_in``), the
program's exact counters, their ratios, the accuracy metrics and the
profiler's overhead; per-cell spans go to ``.perfbench_out/``.

Every cell's digest is compared against ``perfbench/golden.json``, and
queue conservation is checked; a failing cell counts in ``failed`` and
``failed_frac`` and is never raised.  The last line of standard output
is the JSON result.  The checkout measured is the parent of
``perfbench/``: without ``src/repro`` there the benchmark exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import (  # noqa: E402
    LAYER_NAMES,
    UNATTRIBUTED,
    check_layer_map,
    iter_layer_metrics,
)
from workloads import (  # noqa: E402
    GRID_DURATION,
    GRID_LINKS,
    GRID_RTTS,
    ROOT,
    SRC,
    WORKLOADS,
    cells_for,
    experiment_seed,
    pass_seeds,
)

#: Fewest passes a run makes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: A run starts no pass it expects to end after this many seconds.
HARD_LIMIT_S = 150.0
#: Every pass ends by this many seconds into the run: one still running
#: is killed, with its workers, and counted failed.
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s_per_sim_s", "s/s"),
    ("events_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTERS = (
    "engine.events_processed",
    "engine.events_batched",
    "engine.batch_breaks",
    "engine.cancelled_pending",
    "engine.compactions",
    "engine.pool_hits",
    "link.packets_sent",
    "link.batched_packets",
    "link.batches",
    "queue.arrived",
    "queue.aqm_dropped",
    "queue.tail_dropped",
    "queue.ce_marked",
    "aqm.decisions",
    "tcp.segments_sent",
    "tcp.retransmits",
    "tcp.timeouts",
    "metrics.sojourn_samples",
)

ACCURACY = (
    ("rate_ratio_err", "1"),
    ("delay_err_ms", "ms"),
    ("util_shortfall", "1"),
)


def expected_cells(workload: str, seed: int):
    """(cell id, simulated seconds) for every cell one pass must report."""
    if workload == "fig15_sweep":
        s = experiment_seed(seed)
        return [
            (f"grid-{float(link):g}-{float(rtt):g}-s{s}", GRID_DURATION)
            for link in GRID_LINKS.split(",")
            for rtt in GRID_RTTS.split(",")
        ]
    return [(spec.cell_id, spec.sim_s) for spec in cells_for(workload, seed)]


def load_golden() -> dict:
    """The golden digests: ``cells`` by cell id, ``grids`` by grid id."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def grid_failure(seed: int, report: dict, golden: dict):
    """Why a ``fig15_sweep`` pass failed as a whole, or None."""
    if "error" in report:
        return report["error"]
    if report.get("exit_code") != 0:
        return f"repro grid exited {report.get('exit_code')}"
    if report.get("grid_digest") != golden["grids"].get(f"fig15-s{experiment_seed(seed)}"):
        return "grid digest differs from golden"
    if report.get("cache_hits", 0) != 0:
        return f"{report['cache_hits']} cache hits in a fresh cache dir"
    return None


def judge_pass(workload: str, seed: int, report: dict, golden: dict):
    """Failed cell ids of one pass, with a reason each."""
    expected = [cell_id for cell_id, _ in expected_cells(workload, seed)]
    by_id = {cell["cell"]: cell for cell in report.get("cells", [])}
    failures = {}
    for cell_id in expected:
        cell = by_id.get(cell_id)
        if cell is None:
            failures[cell_id] = "no result"
        elif "error" in cell:
            failures[cell_id] = cell["error"]
        elif cell["digest"] != golden["cells"].get(cell_id):
            failures[cell_id] = "digest differs from golden"
        elif not cell["conserved"]:
            failures[cell_id] = "queue conservation violated"
    if workload == "fig15_sweep":
        whole = grid_failure(seed, report, golden)
        if whole is not None:
            for cell_id in expected:
                failures.setdefault(cell_id, whole)
    return expected, failures


def _kill_session(pid: int) -> None:
    """Kill whatever is left of a pass's session (its pool workers)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns passes in fresh processes inside the checkout."""

    def __init__(self, workload: str, tmp_root: str):
        self.workload = workload
        self.tmp_root = tmp_root
        self.count = 0

    def run_pass(self, seed: int, timeout: float, profile: bool = False):
        """One pass with experiment seed ``seed``:
        (report or None, setup seconds, total seconds, error)."""
        self.count += 1
        tmp = os.path.join(self.tmp_root, f"pass{self.count}")
        os.makedirs(tmp)
        result_path = os.path.join(tmp, "result.json")
        run_id = f"{self.workload}-seed{seed}-pass{self.count}"
        cmd = [
            sys.executable, os.path.join(HERE, "cellrun.py"),
            "--workload", self.workload,
            "--seed", str(seed),
            "--result", result_path,
            "--tmp", tmp,
            "--run-id", run_id,
        ]
        if profile:
            cmd.append("--profile")
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)
        t_spawn = time.monotonic()
        # Its own session, so a timeout can kill the pass's workers too.
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            _kill_session(proc.pid)
            proc.communicate()
            return None, None, time.monotonic() - t_spawn, "pass timed out"
        total = time.monotonic() - t_spawn
        if proc.returncode != 0 or not os.path.exists(result_path):
            _kill_session(proc.pid)
            tail = (stderr or "").strip().splitlines()[-3:]
            return None, None, total, f"pass exited {proc.returncode}: {' | '.join(tail)}"
        with open(result_path, encoding="utf-8") as fh:
            report = json.load(fh)
        if report["t_entry"] is None:
            return None, None, total, "pass made no entry-point call"
        return report, report["t_entry"] - t_spawn, total, None


def pass_metrics(workload: str, seed: int, report: dict, setup_s: float) -> dict:
    """End-to-end metrics of one pass."""
    sim_s = sum(duration for _, duration in expected_cells(workload, seed))
    cpu = report["cpu_self_s"] + report["cpu_children_s"]
    events = sum(
        cell["counters"]["engine.events_processed"] + cell["counters"]["engine.events_batched"]
        for cell in report["cells"] if "counters" in cell
    )
    return {
        "wall_s": report["wall_s"],
        "cpu_s_per_sim_s": cpu / sim_s,
        "events_per_cpu_s": events / cpu if cpu > 0 else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": max(report["maxrss_self_kb"], report["maxrss_children_kb"]) / 1024.0,
    }


def layer_metrics(workload: str, report: dict, untraced: dict) -> dict:
    """Per-layer metrics of the profiled pass (value, unit)."""
    metrics = {}
    split = report["profile"]["split"]
    total = report["profile"]["total_self_s"]
    for name, value, unit in iter_layer_metrics(split):
        metrics[name] = (value, unit)
    metrics["trace.profiled_self_s"] = (total, "s")
    metrics["trace.unattributed_s"] = (split[UNATTRIBUTED]["self_s"], "s")

    sums = {name: 0 for name in COUNTERS}
    for cell in report["cells"]:
        for name in COUNTERS:
            sums[name] += cell.get("counters", {}).get(name, 0)
    for name in COUNTERS:
        metrics[name] = (sums[name], "count")
    logical = sums["engine.events_processed"] + sums["engine.events_batched"]
    metrics["engine.logical_events"] = (logical, "count")
    metrics["cache.stores"] = (report.get("cache_stores", 0), "count")
    metrics["cache.hits"] = (report.get("cache_hits", 0), "count")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["engine.batch_yield"] = (ratio(sums["engine.events_batched"], logical), "1")
    metrics["engine.breaks_per_batched"] = (
        ratio(sums["engine.batch_breaks"], sums["engine.events_batched"]), "1")
    metrics["link.batched_share"] = (
        ratio(sums["link.batched_packets"], sums["link.packets_sent"]), "1")
    metrics["tcp.retransmit_share"] = (
        ratio(sums["tcp.retransmits"], sums["tcp.segments_sent"]), "1")

    worker_cpu = report["cpu_children_s"]
    jobs = report.get("jobs", 0)
    metrics["sweep.worker_cpu_s"] = (worker_cpu, "s")
    metrics["sweep.worker_idle_s"] = (
        max(0.0, jobs * report["wall_s"] - worker_cpu) if jobs else 0.0, "s")
    traced_cpu = report["cpu_self_s"] + report["cpu_children_s"]
    untraced_cpu = untraced["cpu_self_s"] + untraced["cpu_children_s"]
    metrics["trace.overhead_ratio"] = (ratio(traced_cpu, untraced_cpu), "1")

    for name, unit in ACCURACY:
        metrics[name] = (accuracy_mean(report, name), unit)
    return metrics


def accuracy_mean(report: dict, name: str) -> float:
    """Mean of one accuracy read-out over the cells that define it."""
    values = [
        cell["accuracy"][name] for cell in report["cells"]
        if cell.get("accuracy", {}).get(name) is not None
    ]
    return statistics.fmean(values) if values else 0.0


def counters_of(report: dict) -> dict:
    """Each cell's exact counters, by cell id."""
    return {cell["cell"]: cell.get("counters") for cell in report["cells"]}


def emit(result: dict, rows) -> None:
    """Print the summary rows, then the result as the last line."""
    for name, value, unit in rows:
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps(result, sort_keys=True))


def judge_all(workload, passes, golden, errors):
    """attempted, failed and the failure lines of a run's passes.

    ``passes`` and ``errors`` hold (experiment seed, report or error)
    pairs.  A cell that ran in more than one pass must report the same
    counters each time."""
    attempted = failed = 0
    lines = [f"seed {seed}: {error}" for seed, error in errors]
    reference = {}
    for seed, report in passes:
        expected, failures = judge_pass(workload, seed, report, golden)
        for cell_id, counters in counters_of(report).items():
            if cell_id in failures:
                continue
            if reference.setdefault(cell_id, counters) != counters:
                failures[cell_id] = "counters differ between passes"
        attempted += len(expected)
        failed += len(failures)
        lines.extend(f"{cell_id}: {why}" for cell_id, why in sorted(failures.items()))
    for seed, _ in errors:
        per_pass = len(expected_cells(workload, seed))
        attempted += per_pass
        failed += per_pass
    return attempted, failed, lines


def summary_rows(passes, attempted, failed):
    """``failed_frac`` and the accuracy metrics, for the summary lines."""
    rows = [("failed_frac", failed / attempted if attempted else 1.0, "1")]
    if passes:
        for name, unit in ACCURACY:
            rows.append((name, accuracy_mean(passes[0][1], name), unit))
    return rows


def timed_run(args, runner: Runner, golden: dict) -> int:
    """Untraced passes until ``--seconds`` is spent; medians of each metric."""
    start = time.monotonic()
    seeds = pass_seeds(args.seed)
    passes, metrics, durations, errors = [], [], [], []
    while True:
        seed = seeds[runner.count % len(seeds)]
        report, setup, total, error = runner.run_pass(
            seed, RUN_DEADLINE_S - (time.monotonic() - start))
        durations.append(total)
        if error is not None:
            errors.append((seed, error))
        else:
            passes.append((seed, report))
            metrics.append(pass_metrics(args.workload, seed, report, setup))
            print(f"pass {runner.count} (experiment seed {seed}): " + " ".join(
                f"{name}={value:.6g}" for name, value in metrics[-1].items()), flush=True)
        elapsed = time.monotonic() - start
        expected_next = elapsed + statistics.median(durations)
        if expected_next > HARD_LIMIT_S:
            break
        if runner.count >= MIN_PASSES and expected_next > args.seconds:
            break
    attempted, failed, lines = judge_all(args.workload, passes, golden, errors)
    for line in lines:
        print(f"FAIL {line}")
    if not metrics:
        print("error: no pass completed", file=sys.stderr)
        return 1
    result_metrics = {}
    rows = []
    for name, unit in END_TO_END:
        value = statistics.median(m[name] for m in metrics)
        result_metrics[name] = {"value": value, "unit": unit}
        rows.append((name, value, unit))
    print(f"workload {args.workload} seed {args.seed}: {len(metrics)} passes "
          f"(experiment seeds {','.join(str(seed) for seed, _ in passes)}), "
          f"{attempted} cells attempted, {failed} failed")
    rows.extend(summary_rows(passes, attempted, failed))
    emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }, rows)
    return 0


def traced_run(args, runner: Runner, golden: dict) -> int:
    """One untraced and one profiled pass of the run's first experiment
    seed; the per-layer metrics."""
    start = time.monotonic()
    seed = pass_seeds(args.seed)[0]
    untraced, _, _, error_a = runner.run_pass(seed, RUN_DEADLINE_S)
    traced, _, _, error_b = runner.run_pass(
        seed, RUN_DEADLINE_S - (time.monotonic() - start), profile=True)
    errors = [(seed, e) for e in (error_a, error_b) if e is not None]
    passes = [(seed, p) for p in (untraced, traced) if p is not None]
    attempted, failed, lines = judge_all(args.workload, passes, golden, errors)
    for line in lines:
        print(f"FAIL {line}")
    if untraced is None or traced is None:
        print("error: the traced run needs both passes", file=sys.stderr)
        return 1
    metrics = layer_metrics(args.workload, traced, untraced)
    split = traced["profile"]["split"]
    attributed = math.fsum(split[layer]["self_s"] for layer in LAYER_NAMES)
    total = metrics["trace.profiled_self_s"][0]
    if metrics["trace.unattributed_s"][0] != 0 or not math.isclose(
        attributed, total, rel_tol=1e-9, abs_tol=1e-9
    ):
        print(f"error: layers hold {attributed} s of {total} s profiled self time",
              file=sys.stderr)
        return 3
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for _, report in passes:
            for span in report["spans"]:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
    print(f"workload {args.workload} seed {args.seed}: traced, "
          f"{attempted} cells attempted, {failed} failed; spans -> {spans_path}")
    rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    rows.extend(summary_rows(passes, attempted, failed)[:1])
    emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, rows)
    return 0


def main(argv=None) -> int:
    """Parse the arguments and run the benchmark."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package_dir = os.path.join(SRC, "repro")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        print(f"error: no src/repro next to perfbench/ in {ROOT}", file=sys.stderr)
        return 2
    if args.trace:
        problems = check_layer_map(package_dir)
        if problems:
            for line in problems:
                print(f"error: layer map: {line}", file=sys.stderr)
            return 3
    golden = load_golden()

    tmp_root = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp_root)
    try:
        runner = Runner(args.workload, tmp_root)
        if args.trace:
            return traced_run(args, runner, golden)
        return timed_run(args, runner, golden)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
