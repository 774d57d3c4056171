"""Programmatic figure-data generators.

Each function regenerates the *data* behind one of the paper's figures
and returns a :class:`FigureData` (headers + rows + a note about the
paper's expected shape), for the CLI's ``figure`` subcommand and for
notebook/scripting use.  The pytest benchmarks in ``benchmarks/`` are the
*assertion* layer for the same experiments; these generators favour
moderate default durations so a figure is obtainable in seconds-to-a-
minute from the command line, with a ``scale`` knob to trade time for
smoothness.

Execution
---------
Every generator takes a :class:`~repro.harness.parallel.RunPolicy` and
hands all of its simulation cells to one
:func:`~repro.harness.parallel.run_tasks` call through a
:class:`FigureRunner`, so figures get the same execution stack as grid
sweeps: process-pool fan-out (``jobs``), the result cache, a crash-safe
:class:`~repro.harness.journal.ResultJournal` (every completed cell is
fsync'd as it finishes), bit-exact resume, and supervised execution.  A
failing cell raises :class:`~repro.errors.FigureGenerationError` naming
the figure, the cell and the virtual time of death.

Example
-------
>>> from repro.harness.figures import FIGURES
>>> data = FIGURES["fig05"]()
>>> data.headers
['p', 'tune(p)', 'sqrt(2p)']
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.bode import margins_reno_pi, margins_reno_pi2, margins_reno_pie, margins_scal_pi
from repro.analysis.fluid import PAPER_PI2_GAINS, PAPER_PIE_GAINS, PAPER_SCAL_GAINS
from repro.aqm.tune_table import tune_table_rows
from repro.errors import ConfigError, FigureGenerationError
from repro.harness.factories import coupled_factory, pi2_factory, pi_factory, pie_factory
from repro.harness.scenarios import (
    MBPS,
    heavy_tcp,
    light_tcp,
    tcp_plus_udp,
    varying_capacity,
    varying_intensity,
)
from repro.harness.parallel import RunPolicy, RunReport, SweepTask, run_tasks
from repro.harness.sweep import format_table, grid_cells, mix_cells

__all__ = [
    "FigureData",
    "FigureRunner",
    "FIGURES",
    "MIN_STAGE_SECONDS",
    "generate_figure",
]

#: Shortest per-stage window the staged-intensity figures accept.  Below
#: this the settle offset and the averaging window collapse into nothing
#: and every per-stage statistic would be NaN.
MIN_STAGE_SECONDS = 0.5


@dataclass
class FigureData:
    """Rows regenerating one figure, plus the paper's expected shape."""

    figure: str
    headers: List[str]
    rows: List[Tuple]
    note: str = ""
    report: RunReport = field(default_factory=RunReport)

    def table(self) -> str:
        """Render headers + rows as an aligned text table."""
        title = f"{self.figure}" + (f"\n{self.note}" if self.note else "")
        return format_table(self.headers, self.rows, title=title)

    def to_csv(self, path) -> None:
        """Write the figure's rows to ``path`` as CSV (always UTF-8)."""
        import csv
        from pathlib import Path

        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.headers)
            writer.writerows(self.rows)


def _gm(m):
    return float("nan") if m.gain_margin_db is None else m.gain_margin_db


class FigureRunner:
    """Runs one figure's simulation cells and reports how.

    A figure presents specific seeds, so a failing cell must fail loudly
    rather than come back from a seed-bumped retry: whatever ``policy``
    says, the runner captures failures with ``max_retries=0`` on every
    backend and raises them as
    :class:`~repro.errors.FigureGenerationError`.  :attr:`report` is the
    :class:`~repro.harness.parallel.RunReport` of the last run.
    """

    def __init__(self, figure: str, policy: RunPolicy = RunPolicy()):
        self.figure = figure
        self.policy = replace(policy, on_error="capture", max_retries=0)
        self.report = RunReport()

    def run_cells(self, tasks: Sequence[SweepTask]) -> list:
        """Produce every cell in one run; results in task order.

        Raises :class:`~repro.errors.FigureGenerationError` for the first
        failed cell, carrying the figure name, the cell label and the
        worker-side error type / sim-time — a broken cell fails *here*,
        not later in plotting code handed a ``None``.
        """
        pairs, self.report = run_tasks(tasks, self.policy)
        for task, (result, failure) in zip(tasks, pairs):
            if result is None:
                raise self._cell_error(task.label, failure)
        return [result for result, _failure in pairs]

    def run_cell(self, label: str, experiment):
        """Produce one cell (see :meth:`run_cells`)."""
        return self.run_cells([SweepTask(label, experiment)])[0]

    def _cell_error(self, label: str, failure) -> FigureGenerationError:
        where = []
        if failure.sim_time is not None:
            where.append(f"t={failure.sim_time:.6f}s")
        if failure.component:
            where.append(f"component={failure.component}")
        suffix = f" [{' '.join(where)}]" if where else ""
        return FigureGenerationError(
            f"figure {self.figure} cell {label!r} failed: "
            f"{failure.error_type}: {failure.error}{suffix}",
            figure=self.figure,
            label=label,
            error_type=failure.error_type,
            sim_time=failure.sim_time,
            component=failure.component,
        )


def fig04(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Bode gain margins for PI on Reno: auto vs fixed tunes."""
    rows = []
    for p in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0):
        rows.append(
            (
                p,
                _gm(margins_reno_pie(p, 0.1, PAPER_PIE_GAINS)),
                _gm(margins_reno_pi(p, 0.1, PAPER_PIE_GAINS, tune_factor=1.0)),
                _gm(margins_reno_pi(p, 0.1, PAPER_PIE_GAINS, tune_factor=1 / 8)),
            )
        )
    return FigureData(
        "Figure 4", ["p", "GM auto [dB]", "GM tune=1 [dB]", "GM tune=1/8 [dB]"],
        rows, "paper shape: fixed-gain diagonal goes negative at low p",
    )


def fig05(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """PIE's stepped tune factor vs the analytic √(2p)."""
    rows = [(p, t, s) for p, t, s in tune_table_rows(points_per_decade=2)]
    return FigureData(
        "Figure 5", ["p", "tune(p)", "sqrt(2p)"], rows,
        "paper shape: the steps straddle sqrt(2p) over six decades",
    )


def fig07(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Bode margins for reno-PIE / reno-PI2 / scal-PI."""
    rows = []
    for pp in (0.001, 0.01, 0.1, 0.3, 0.6, 1.0):
        rows.append(
            (
                pp,
                _gm(margins_reno_pie(pp, 0.1, PAPER_PIE_GAINS)),
                _gm(margins_reno_pi2(pp, 0.1, PAPER_PI2_GAINS)),
                _gm(margins_scal_pi(pp, 0.1, PAPER_SCAL_GAINS)),
            )
        )
    return FigureData(
        "Figure 7", ["p or p'", "GM pie [dB]", "GM pi2 [dB]", "GM scal [dB]"],
        rows, "paper shape: pi2/scal flat and positive; >10 dB only at p'>0.6",
    )


def _stage_warmup(stage: float) -> float:
    """Settle time skipped at the head of each stage before averaging.

    The paper-scale stages (≥ 8 s) skip a fixed 1 s of transient; short
    CLI runs shrink the offset proportionally so the averaging window
    never empties (a fixed 1 s offset past the stage end fed
    ``np.mean`` an empty slice → NaN rows below ``scale = 0.125``).
    """
    return min(1.0, stage / 8.0)


def _require_min_stage(figure: str, stage: float, scale: float) -> None:
    """Reject stage lengths too short for per-stage statistics."""
    if stage < MIN_STAGE_SECONDS:
        min_scale = scale * MIN_STAGE_SECONDS / stage
        raise ConfigError(
            f"{figure}: stage length {stage:.3g}s (scale={scale:.3g}) is "
            f"below the {MIN_STAGE_SECONDS}s minimum for per-stage delay "
            f"statistics; use scale >= {min_scale:.3g}"
        )


def _stage_rows(results, stage, flows):
    warmup = _stage_warmup(stage)
    rows = []
    for name, r in results.items():
        for s in range(5):
            t0, t1 = s * stage + warmup, (s + 1) * stage
            qd = r.queue_delay.window(t0, t1)
            rows.append(
                (name, f"{s + 1} ({flows[s]} flows)",
                 float(np.mean(qd)) * 1e3, float(np.max(qd)) * 1e3)
            )
    return rows


def fig06(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Un-tuned PI vs PI2 under varying intensity at 100 Mb/s, 10 ms."""
    stage = 8.0 * scale
    _require_min_stage("fig06", stage, scale)
    tasks = []
    for name, factory in (("pi", pi_factory()), ("pi2", pi2_factory())):
        exp = varying_intensity(factory, capacity_bps=100 * MBPS, rtt=0.010,
                                stage=stage)
        exp.sample_period = 0.1
        tasks.append(SweepTask(name, exp))
    runner = FigureRunner("fig06", policy)
    results = dict(zip(("pi", "pi2"), runner.run_cells(tasks)))
    return FigureData(
        "Figure 6", ["aqm", "stage", "q mean [ms]", "q peak [ms]"],
        _stage_rows(results, stage, [10, 30, 50, 30, 10]),
        "paper shape: un-tuned PI oscillates at low load; PI2 holds 20 ms",
        runner.report,
    )


def fig11(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Queue delay and throughput under three traffic loads."""
    duration = 30.0 * scale
    scenarios = {
        "5 TCP": light_tcp, "50 TCP": heavy_tcp, "5 TCP + 2 UDP": tcp_plus_udp,
    }
    cells = [
        (label, name, scenario(factory, duration=duration))
        for label, scenario in scenarios.items()
        for name, factory in (("pie", pie_factory()), ("pi2", pi2_factory()))
    ]
    runner = FigureRunner("fig11", policy)
    results = runner.run_cells(
        [SweepTask(f"{label}/{name}", exp) for label, name, exp in cells]
    )
    rows = []
    for (label, name, _exp), r in zip(cells, results):
        soj = r.sojourn_samples()
        rows.append(
            (label, name, float(np.mean(soj)) * 1e3,
             float(np.percentile(soj, 99)) * 1e3,
             r.mean_utilization() * 100)
        )
    return FigureData(
        "Figure 11", ["scenario", "aqm", "q mean [ms]", "q p99 [ms]", "util [%]"],
        rows, "paper shape: both hold ~20 ms at full utilization",
        runner.report,
    )


def fig12(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Queue delay through capacity steps 100:20:100 Mb/s."""
    stage = 15.0 * scale
    # The transient windows around each capacity step settle for 5 s at
    # paper scale (stage = 15 s); shrink them with the stage so short
    # runs keep non-empty windows (stage/3 == 5 s exactly at scale 1).
    settle = min(5.0, stage / 3.0)
    tasks = []
    for name, factory in (("pie", pie_factory()), ("pi2", pi2_factory())):
        exp = varying_capacity(factory, stage=stage)
        exp.sample_period = 0.1
        tasks.append(SweepTask(name, exp))
    runner = FigureRunner("fig12", policy)
    rows = [
        (task.label,
         r.queue_delay.max(stage, stage + settle) * 1e3,
         r.queue_delay.mean(stage + settle, 2 * stage) * 1e3,
         r.queue_delay.max(2 * stage, 2 * stage + settle) * 1e3)
        for task, r in zip(tasks, runner.run_cells(tasks))
    ]
    return FigureData(
        "Figure 12", ["aqm", "peak@drop [ms]", "mean@20M [ms]", "peak@rise [ms]"],
        rows, "paper: 510 ms (PIE) vs 250 ms (PI2) at the drop",
        runner.report,
    )


def fig13(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Varying intensity at 10 Mb/s, 100 ms RTT: PIE vs PI2."""
    stage = 12.0 * scale
    _require_min_stage("fig13", stage, scale)
    tasks = []
    for name, factory in (("pie", pie_factory()), ("pi2", pi2_factory())):
        exp = varying_intensity(factory, capacity_bps=10 * MBPS, rtt=0.100,
                                stage=stage)
        exp.sample_period = 0.1
        tasks.append(SweepTask(name, exp))
    runner = FigureRunner("fig13", policy)
    results = dict(zip(("pie", "pi2"), runner.run_cells(tasks)))
    return FigureData(
        "Figure 13", ["aqm", "stage", "q mean [ms]", "q peak [ms]"],
        _stage_rows(results, stage, [10, 30, 50, 30, 10]),
        "paper shape: PI2 reduces overshoot at load changes",
        runner.report,
    )


def fig19(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Rate balance across flow-count mixes at 40 Mb/s, 10 ms."""
    duration = 25.0 * scale
    mixes = ((1, 1), (1, 9), (5, 5), (9, 1))
    cells = [
        (name, mix, task)
        for name, factory in (("pie", pie_factory()), ("pi2", coupled_factory()))
        for mix, task in mix_cells(factory, mixes=mixes, duration=duration,
                                   warmup=min(10.0, duration / 2))
    ]
    runner = FigureRunner("fig19", policy)
    results = runner.run_cells(
        [SweepTask(f"{name}/{task.label}", task.experiment)
         for name, _mix, task in cells]
    )
    rows = [
        (name, f"A{n_a}-B{n_b}", result.balance("dctcp", "cubic"))
        for (name, (n_a, n_b), _task), result in zip(cells, results)
    ]
    return FigureData(
        "Figure 19", ["aqm", "mix (A=dctcp B=cubic)", "DCTCP/Cubic ratio"],
        rows, "paper shape: PIE ~10 for every mix, PI2 ≈ 1",
        runner.report,
    )


def fig14(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Queue-delay distribution summary at 5 ms and 20 ms targets."""
    from repro.harness.experiment import Experiment, FlowGroup

    duration = 25.0 * scale
    cells = [
        (target, name, Experiment(
            capacity_bps=10 * MBPS,
            duration=duration,
            warmup=min(10.0, duration / 3),
            aqm_factory=make(target_delay=target),
            flows=[FlowGroup(cc="reno", count=20, rtt=0.100)],
        ))
        for target in (0.005, 0.020)
        for name, make in (("pie", pie_factory), ("pi2", pi2_factory))
    ]
    runner = FigureRunner("fig14", policy)
    results = runner.run_cells(
        [SweepTask(f"{name}@{target * 1e3:.0f}ms", exp)
         for target, name, exp in cells]
    )
    rows = []
    for (target, name, _exp), r in zip(cells, results):
        soj = r.sojourn_samples()
        rows.append(
            (f"{target * 1e3:.0f} ms", name,
             float(np.percentile(soj, 50)) * 1e3,
             float(np.percentile(soj, 90)) * 1e3,
             float(np.percentile(soj, 99)) * 1e3)
        )
    return FigureData(
        "Figure 14", ["target", "aqm", "p50 [ms]", "p90 [ms]", "p99 [ms]"],
        rows, "paper shape: PI2's CDF ≈ PIE's at both targets (20-TCP panel)",
        runner.report,
    )


def fig15(scale: float = 1.0, policy: RunPolicy = RunPolicy()) -> FigureData:
    """Rate balance on a reduced 3×3 coexistence grid.

    The full 5×5 grid with per-cell convergence budgeting lives in the
    benchmark suite; this CLI-friendly version covers the corner points.
    """
    duration = 20.0 * scale
    cells = [
        (name, link, rtt, task)
        for name, factory in (("pie", pie_factory()), ("pi2", coupled_factory()))
        for link, rtt, task in grid_cells(
            factory, links_mbps=(4, 40), rtts_ms=(10, 50),
            duration=duration, warmup=min(8.0, duration / 2),
        )
    ]
    runner = FigureRunner("fig15", policy)
    results = runner.run_cells(
        [SweepTask(f"{name}/{task.label}", task.experiment)
         for name, _link, _rtt, task in cells]
    )
    rows = [
        (name, link, rtt, result.balance("cubic", "dctcp"))
        for (name, link, rtt, _task), result in zip(cells, results)
    ]
    return FigureData(
        "Figure 15 (reduced grid)",
        ["aqm", "link [Mb/s]", "RTT [ms]", "Cubic/DCTCP ratio"],
        rows, "paper shape: ≈0.1 under PIE (starvation), ≈1 under PI2",
        runner.report,
    )


#: Registry of the CLI-accessible generators.
FIGURES: Dict[str, Callable[..., FigureData]] = {
    "fig04": fig04,
    "fig05": fig05,
    "fig06": fig06,
    "fig07": fig07,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig19": fig19,
}


def generate_figure(
    name: str, scale: float = 1.0, policy: RunPolicy = RunPolicy(),
) -> FigureData:
    """Generate one figure's data by registry name.

    ``policy`` (a :class:`~repro.harness.parallel.RunPolicy`) says how
    the simulation cells run: ``jobs`` fans them out over a process
    pool, ``cache`` reuses already-simulated runs across invocations,
    ``journal`` makes every completed cell durable as it finishes and
    ``resume=True`` replays journaled cells instead of re-simulating, so
    a figure run killed mid-way and resumed returns rows bit-identical to
    an uninterrupted run; ``supervisor`` runs each cell in a watchdogged
    worker process.  ``tracer`` observes the cells — control-law events,
    engine epochs and harness spans, ending with one ``figure_done`` —
    without changing any number in the returned rows.  The returned data
    carries the run's :class:`~repro.harness.parallel.RunReport` as
    ``report``.

    Figures that are pure analysis (fig04/05/07) ignore the policy.
    """
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    if scale <= 0:
        raise ValueError(f"scale must be positive (got {scale})")
    data = FIGURES[name](scale=scale, policy=policy)
    if policy.tracer is not None:
        policy.tracer.emit("harness", "figure_done", 0.0, {
            "figure": name,
            "executed": data.report.executed,
            "replayed": data.report.replayed,
            "journal_appends": data.report.journal_appends,
        })
    return data
