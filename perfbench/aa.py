"""A/A steadiness mode: run workloads on one commit in sets and judge them.

Usage (from the root of a checkout)::

    python3 perfbench/aa.py [--runs 10] [--workload W ...] \
        [--record perfbench/baseline/AA.json]

It makes :data:`SETS` sets of runs, as a comparison of two commits
does.  Each set runs every workload ``--runs`` times, each run a fresh
``perfbench/run.py`` process with ``BENCHMARK.json``'s ``run_seconds``.
Every run gets a seed of its own (set 1 seeds ``1 .. runs``, set 2 the
next ``runs`` seeds, ...), the same for every workload, so the figures
include whatever work varies with the seed, as they do in any
comparison of two commits.  For every end-to-end metric this prints each
set's median, quartiles (``statistics.quantiles(n=4)``) and quartile
spread as a share of the median, next to the metric's bound.

The verdict is the acceptance rule for the bounds: every metric's spread
within its bound in every set, and every later set's median no worse
than the first set's by more than the bound.  It exits 1 otherwise, or
if a run was not correct.  A spread above a third of its bound is
marked, as the steadiness the bounds aim for, but does not fail.
``--record`` writes every run and the summaries as JSON: the committed
baseline the bounds are based on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import ROOT  # noqa: E402

#: Seed of the first run of the first set.
FIRST_SEED = 1
#: Sets of runs whose medians are compared.
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its parsed last line plus its wall time."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    result["seed"] = seed
    return result


def cpu_model() -> str:
    """The CPU's model name, for the record (Linux only)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values):
    """Median, quartiles and quartile spread / median of a sample."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "n": len(values),
    }


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def judge(workload: str, sets, metrics) -> bool:
    """Print each set's summary and the medians' change; True if within bounds."""
    ok = True
    for name, (bound, better) in metrics.items():
        first = sets[0]["summary"][name]["median"]
        for k, one in enumerate(sets, 1):
            stats = one["summary"][name]
            flag = ""
            if stats["spread"] > bound:
                flag = "  <-- spread above bound"
                ok = False
            elif stats["spread"] > bound / 3:
                flag = "  (spread above bound/3)"
            if k > 1:
                worse = worsening(first, stats["median"], better)
                stats["worse_than_set1"] = worse
                flag += f"  worse_than_set1={worse:+.4f}"
                if worse > bound:
                    flag += "  <-- median worse than set 1 by more than bound"
                    ok = False
            print(f"  {workload:14s} set{k} {name:18s} median={stats['median']:<12.6g} "
                  f"q1={stats['q1']:<12.6g} q3={stats['q3']:<12.6g} "
                  f"spread={stats['spread']:.4f} bound={bound}{flag}", flush=True)
    return ok


def main(argv=None) -> int:
    """Run, summarise, judge and optionally record; exit 1 when not steady."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", help="write the runs and summaries here as JSON")
    args = parser.parse_args(argv)

    metrics = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record = {
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "cpus": os.cpu_count(),
        "sets": SETS,
        "runs": args.runs,
        "seconds": seconds,
        "workloads": {w: {"sets": []} for w in workloads},
    }
    steady = True
    for k in range(SETS):
        for workload in workloads:
            runs = []
            for i in range(args.runs):
                seed = FIRST_SEED + k * args.runs + i
                result = run_once(workload, seed, seconds)
                runs.append(result)
                print(f"set{k + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"{result['elapsed_s']:.1f}s "
                      + " ".join(f"{n}={v['value']:.5g}" for n, v in result["metrics"].items()),
                      flush=True)
                if not result["correct"]:
                    steady = False
            summary = {
                name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                           bound=bound)
                for name, (bound, _) in metrics.items()
            }
            record["workloads"][workload]["sets"].append({"runs": runs, "summary": summary})
    for workload in workloads:
        if not judge(workload, record["workloads"][workload]["sets"], metrics):
            steady = False
    record["steady"] = steady
    print("verdict: " + ("within bounds" if steady else "NOT within bounds"))
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
