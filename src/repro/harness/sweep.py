"""Grid sweeps and result tables for the coexistence figures.

Figures 15–18 evaluate every combination of link rate {4, 12, 40, 120,
200} Mb/s and RTT {5, 10, 20, 50, 100} ms; Figures 19–20 sweep flow-count
mixes at a fixed operating point.  This module runs those grids and
renders aligned text tables (the repository's stand-in for the paper's
bar-chart panels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.experiment import AqmFactory, ExperimentResult
from repro.harness.parallel import RunPolicy, SweepTask, run_tasks
from repro.harness.resilience import RunFailure, format_failure_report
from repro.harness.scenarios import MBPS, coexistence_mix, coexistence_pair

__all__ = [
    "GridCell",
    "GridOutcome",
    "grid_cells",
    "mix_cells",
    "PAPER_LINK_MBPS",
    "PAPER_RTTS_MS",
    "PAPER_FLOW_MIXES",
    "run_coexistence_grid",
    "run_mix_sweep",
    "format_table",
]

#: The paper's evaluation grid (Figures 15–18).
PAPER_LINK_MBPS = (4, 12, 40, 120, 200)
PAPER_RTTS_MS = (5, 10, 20, 50, 100)

#: Figures 19–20's flow-count combinations (A = first class, B = second).
PAPER_FLOW_MIXES = (
    (0, 10),
    (1, 9),
    (2, 8),
    (3, 7),
    (4, 6),
    (5, 5),
    (6, 4),
    (7, 3),
    (8, 2),
    (9, 1),
    (10, 0),
    (1, 1),
    (1, 10),
    (10, 1),
)


@dataclass
class GridCell:
    """One grid point's configuration and completed result."""

    link_mbps: float
    rtt_ms: float
    result: ExperimentResult

    def balance(self, label_a: str, label_b: str) -> float:
        """Rate-balance ratio between two flow classes in this cell."""
        return self.result.balance(label_a, label_b)


class GridOutcome(List[GridCell]):
    """Completed grid cells plus the failure report of any that died.

    A plain list of :class:`GridCell` (so existing code iterating a sweep
    keeps working), with :attr:`failures` carrying one
    :class:`~repro.harness.resilience.RunFailure` per cell that failed
    every retry.  Failed cells are simply absent from the list.
    :attr:`recovery` holds the run's
    :class:`~repro.harness.parallel.RunReport` (None on the in-process
    route, where every cell simply ran).
    """

    def __init__(self, cells=(), failures=()):
        super().__init__(cells)
        self.failures: List[RunFailure] = list(failures)
        self.recovery = None

    @property
    def complete(self) -> bool:
        """True when every cell completed (no failures captured)."""
        return not self.failures

    def failure_report(self) -> str:
        """Human-readable summary of the captured cell failures."""
        return format_failure_report(self.failures)


def grid_cells(
    aqm_factory: AqmFactory,
    cc_a: str = "dctcp",
    cc_b: str = "cubic",
    links_mbps: Sequence[float] = PAPER_LINK_MBPS,
    rtts_ms: Sequence[float] = PAPER_RTTS_MS,
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 1,
    duration_for: Optional[Callable[[float, float], float]] = None,
) -> List[Tuple[float, float, SweepTask]]:
    """The Figure 15–18 grid as ``(link_mbps, rtt_ms, task)`` triples.

    One long-running flow per class per cell; ``duration_for(link_mbps,
    rtt_ms)`` may override the run length per cell — benchmarks use it
    to keep high-rate cells affordable.
    """
    cells = []
    for link in links_mbps:
        for rtt in rtts_ms:
            d = duration if duration_for is None else duration_for(link, rtt)
            exp = coexistence_pair(
                aqm_factory,
                cc_a=cc_a,
                cc_b=cc_b,
                capacity_bps=link * MBPS,
                rtt=rtt / 1000.0,
                duration=d,
                warmup=min(warmup, d / 2),
                seed=seed,
            )
            cells.append(
                (link, rtt, SweepTask(f"cell link={link}Mb/s rtt={rtt}ms", exp))
            )
    return cells


def run_coexistence_grid(
    aqm_factory: AqmFactory,
    cc_a: str = "dctcp",
    cc_b: str = "cubic",
    links_mbps: Sequence[float] = PAPER_LINK_MBPS,
    rtts_ms: Sequence[float] = PAPER_RTTS_MS,
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 1,
    duration_for: Optional[Callable[[float, float], float]] = None,
    policy: RunPolicy = RunPolicy(),
) -> GridOutcome:
    """Run the Figure 15–18 grid (cells as in :func:`grid_cells`).

    ``policy`` (a :class:`~repro.harness.parallel.RunPolicy`) says how
    the cells run.  With ``on_error="capture"`` a failing cell is retried
    on seed-bumped reruns and, if it still fails, recorded as a
    :class:`~repro.harness.resilience.RunFailure` on the outcome's
    ``failures`` while the sweep moves on, so a 25-cell sweep never dies
    on cell 23.  ``jobs``, a cache, a journal or a supervisor make the
    cells come back as :class:`~repro.harness.frozen.FrozenResult`
    snapshots — same metric API, same numbers, detached from the live
    testbed.  Cell seeds and ordering never depend on the route, so a
    fixed seed gives bit-identical outcomes serial, pooled, supervised
    or resumed.
    """
    cells = grid_cells(aqm_factory, cc_a, cc_b, links_mbps, rtts_ms,
                       duration, warmup, seed, duration_for)
    pairs, report = run_tasks([task for _, _, task in cells], policy)
    outcome = GridOutcome()
    outcome.recovery = None if policy.in_process else report
    for (link, rtt, _task), (result, failure) in zip(cells, pairs):
        if result is not None:
            outcome.append(GridCell(link, rtt, result))
        else:
            outcome.failures.append(failure)
    return outcome


def mix_cells(
    aqm_factory: AqmFactory,
    cc_a: str = "dctcp",
    cc_b: str = "cubic",
    mixes: Sequence[Tuple[int, int]] = PAPER_FLOW_MIXES,
    capacity_mbps: float = 40.0,
    rtt_ms: float = 10.0,
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 1,
) -> List[Tuple[Tuple[int, int], SweepTask]]:
    """The Figure 19–20 flow mixes as ``((n_a, n_b), task)`` pairs."""
    return [
        ((n_a, n_b), SweepTask(
            f"mix {cc_a}x{n_a} vs {cc_b}x{n_b}",
            coexistence_mix(
                aqm_factory,
                n_a,
                n_b,
                cc_a=cc_a,
                cc_b=cc_b,
                capacity_bps=capacity_mbps * MBPS,
                rtt=rtt_ms / 1000.0,
                duration=duration,
                warmup=warmup,
                seed=seed,
            ),
        ))
        for n_a, n_b in mixes
    ]


def run_mix_sweep(
    aqm_factory: AqmFactory,
    cc_a: str = "dctcp",
    cc_b: str = "cubic",
    mixes: Sequence[Tuple[int, int]] = PAPER_FLOW_MIXES,
    capacity_mbps: float = 40.0,
    rtt_ms: float = 10.0,
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 1,
    policy: RunPolicy = RunPolicy(),
) -> Dict[Tuple[int, int], ExperimentResult]:
    """Run the Figure 19–20 flow-mix sweep at one operating point.

    ``policy`` behaves as in :func:`run_coexistence_grid`.  With
    ``on_error="capture"``, failing mixes are retried on bumped seeds and
    then skipped; the returned dict's ``failures`` attribute lists them
    (a :class:`~repro.harness.resilience.RunFailure` list) and its
    ``recovery`` attribute carries the run's
    :class:`~repro.harness.parallel.RunReport` off the in-process route.
    """
    cells = mix_cells(aqm_factory, cc_a, cc_b, mixes, capacity_mbps, rtt_ms,
                      duration, warmup, seed)
    pairs, report = run_tasks([task for _, task in cells], policy)
    results = _MixResults()
    results.recovery = None if policy.in_process else report
    for (mix, _task), (result, failure) in zip(cells, pairs):
        if result is not None:
            results[mix] = result
        else:
            results.failures.append(failure)
    return results


class _MixResults(Dict[Tuple[int, int], ExperimentResult]):
    """Mix-sweep result dict with an attached failure list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures: List[RunFailure] = []
        self.recovery = None


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table (the benches' figure stand-in)."""
    cols = [
        [str(h)] + [_fmt(row[i]) for row in rows] for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append(
            "  ".join(_fmt(cell).rjust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
