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

from repro.harness.cache import ResultCache
from repro.harness.experiment import AqmFactory, ExperimentResult
from repro.harness.resilience import (
    RunFailure,
    format_failure_report,
    run_with_retries,
)
from repro.harness.scenarios import MBPS, coexistence_mix, coexistence_pair

__all__ = [
    "GridCell",
    "GridOutcome",
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
    :attr:`recovery` holds the supervised backend's
    :class:`~repro.harness.supervisor.SupervisorReport` when the sweep
    ran supervised (None otherwise).
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


def _execute_supervised_tasks(tasks, **kwargs):
    """Route a task list through the supervised backend (lazy import)."""
    from repro.harness.supervisor import run_supervised_tasks

    return run_supervised_tasks(tasks, **kwargs)


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
    on_error: str = "raise",
    max_retries: int = 1,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    supervised: bool = False,
    supervisor=None,
    journal=None,
    resume: bool = False,
    tracer=None,
) -> GridOutcome:
    """Run the Figure 15–18 grid; one long-running flow per class per cell.

    ``duration_for(link_mbps, rtt_ms)`` may override the run length per
    cell — benchmarks use it to keep high-rate cells affordable.

    ``on_error`` selects the failure policy: ``"raise"`` (default)
    propagates the first cell failure as before; ``"capture"`` retries the
    cell with seed-bumped reruns (``max_retries`` attempts beyond the
    first) and, if it still fails, records a structured
    :class:`~repro.harness.resilience.RunFailure` on the returned
    outcome's ``failures`` and moves on to the next cell, so a 25-cell
    sweep never dies on cell 23.

    ``jobs`` fans the cells out over a process pool (``0``/``None``-vs-int
    semantics per :func:`~repro.harness.parallel.resolve_jobs`; ``None``
    keeps the serial path) and ``cache`` consults/fills an on-disk result
    cache.  Either option makes the cells' results come back as
    :class:`~repro.harness.frozen.FrozenResult` snapshots — same metric
    API, same numbers, but detached from the live testbed.  Cell seeds and
    ordering are identical to the serial path, so a fixed seed gives
    bit-identical outcomes at any ``jobs``.

    ``supervised=True`` (implied by ``supervisor``, ``journal`` or
    ``resume``) routes execution through the watchdogged backend in
    :mod:`repro.harness.supervisor`: per-task timeouts, heartbeat
    monitoring, centralized retry with backoff, and — when ``journal`` (a
    :class:`~repro.harness.journal.ResultJournal` or path) is given — a
    crash-safe record of every completed cell.  ``resume=True`` replays
    journaled cells instead of re-simulating them; an
    interrupted-then-resumed sweep returns bit-identical results to an
    uninterrupted one.  The outcome's ``recovery`` attribute carries the
    backend's :class:`~repro.harness.supervisor.SupervisorReport`.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) observes the sweep:
    harness lifecycle spans from whichever backend runs the cells, plus
    per-cell AQM/engine events on in-process execution paths.  Tracing
    never changes results — digests are bit-exact with it on or off.
    """
    from repro.harness.experiment import run_experiment

    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture' (got {on_error!r})")
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
            cells.append((link, rtt, exp))

    outcome = GridOutcome()
    use_supervised = supervised or supervisor is not None \
        or journal is not None or resume
    if use_supervised or cache is not None or (jobs is not None and jobs != 1):
        from repro.harness.parallel import SweepTask, execute_tasks

        tasks = [
            SweepTask(f"cell link={link}Mb/s rtt={rtt}ms", exp)
            for link, rtt, exp in cells
        ]
        if use_supervised:
            pairs, outcome.recovery = _execute_supervised_tasks(
                tasks, jobs=jobs, on_error=on_error, max_retries=max_retries,
                cache=cache, supervisor=supervisor, journal=journal,
                resume=resume, tracer=tracer,
            )
        else:
            pairs = execute_tasks(
                tasks, jobs=jobs, on_error=on_error,
                max_retries=max_retries, cache=cache, tracer=tracer,
            )
        for (link, rtt, _exp), (result, failure) in zip(cells, pairs):
            if result is not None:
                outcome.append(GridCell(link, rtt, result))
            else:
                outcome.failures.append(failure)
        return outcome

    for link, rtt, exp in cells:
        if on_error == "raise":
            outcome.append(GridCell(link, rtt, run_experiment(exp, tracer=tracer)))
            continue
        result, failure = run_with_retries(
            exp, label=f"cell link={link}Mb/s rtt={rtt}ms",
            max_retries=max_retries,
        )
        if result is not None:
            outcome.append(GridCell(link, rtt, result))
        else:
            outcome.failures.append(failure)
    return outcome


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
    on_error: str = "raise",
    max_retries: int = 1,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    supervised: bool = False,
    supervisor=None,
    journal=None,
    resume: bool = False,
    tracer=None,
) -> Dict[Tuple[int, int], ExperimentResult]:
    """Run the Figure 19–20 flow-mix sweep at one operating point.

    With ``on_error="capture"``, failing mixes are retried on bumped
    seeds and then skipped; the returned dict gains a ``failures``
    attribute (a :class:`~repro.harness.resilience.RunFailure` list).

    ``jobs``/``cache`` behave as in :func:`run_coexistence_grid`:
    process-pool fan-out and/or on-disk result caching, with frozen
    results and unchanged per-mix seeds and ordering.
    ``supervised``/``supervisor``/``journal``/``resume`` select the
    watchdogged, journal-backed backend exactly as in
    :func:`run_coexistence_grid`; the returned dict then carries the
    :class:`~repro.harness.supervisor.SupervisorReport` as ``recovery``.
    ``tracer`` observes the sweep exactly as in
    :func:`run_coexistence_grid`, without changing any result.
    """
    from repro.harness.experiment import run_experiment

    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture' (got {on_error!r})")
    entries = []
    for n_a, n_b in mixes:
        exp = coexistence_mix(
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
        )
        entries.append((n_a, n_b, exp))

    results = _MixResults()
    use_supervised = supervised or supervisor is not None \
        or journal is not None or resume
    if use_supervised or cache is not None or (jobs is not None and jobs != 1):
        from repro.harness.parallel import SweepTask, execute_tasks

        tasks = [
            SweepTask(f"mix {cc_a}x{n_a} vs {cc_b}x{n_b}", exp)
            for n_a, n_b, exp in entries
        ]
        if use_supervised:
            pairs, results.recovery = _execute_supervised_tasks(
                tasks, jobs=jobs, on_error=on_error, max_retries=max_retries,
                cache=cache, supervisor=supervisor, journal=journal,
                resume=resume, tracer=tracer,
            )
        else:
            pairs = execute_tasks(
                tasks, jobs=jobs, on_error=on_error,
                max_retries=max_retries, cache=cache, tracer=tracer,
            )
        for (n_a, n_b, _exp), (result, failure) in zip(entries, pairs):
            if result is not None:
                results[(n_a, n_b)] = result
            else:
                results.failures.append(failure)
        return results

    for n_a, n_b, exp in entries:
        if on_error == "raise":
            results[(n_a, n_b)] = run_experiment(exp, tracer=tracer)
            continue
        result, failure = run_with_retries(
            exp, label=f"mix {cc_a}x{n_a} vs {cc_b}x{n_b}", max_retries=max_retries
        )
        if result is not None:
            results[(n_a, n_b)] = result
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
