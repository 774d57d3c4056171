"""Performance measurement: benchmarks, profiling, BENCH_*.json artifacts.

The ROADMAP's north star is a system that "runs as fast as the hardware
allows" — which is only a claim if it is *measured*.  This package is the
measuring stick:

* :mod:`repro.perf.bench` — engine and end-to-end benchmarks
  (events/sec, per-figure wall-clock, serial-vs-parallel speedup,
  cold-vs-warm cache), emitted as ``BENCH_<date>.json`` so successive
  PRs leave a perf trajectory behind them.
* :mod:`repro.perf.profiling` — cProfile helpers for finding the next
  hot spot.

Run it via ``python -m repro bench`` (see ``docs/PERFORMANCE.md``) or the
``perf/run_bench.py`` script.
"""

from repro.perf.bench import (
    BenchRecord,
    bench_cancel_churn,
    bench_engine_events,
    bench_experiment,
    bench_grid,
    bench_shared_cache,
    bench_figure_resume,
    bench_supervised,
    format_bench_table,
    run_benchmarks,
    write_bench_json,
)
from repro.perf.profiling import profile_callable, profile_experiment

__all__ = [
    "BenchRecord",
    "bench_engine_events",
    "bench_cancel_churn",
    "bench_experiment",
    "bench_shared_cache",
    "bench_grid",
    "bench_figure_resume",
    "bench_supervised",
    "run_benchmarks",
    "write_bench_json",
    "format_bench_table",
    "profile_callable",
    "profile_experiment",
]
