"""One execution path for experiment sweeps.

The paper's figures are grids — 25 link×RTT cells per AQM (Figures
15–18), 14 flow mixes (Figures 19–20), five seeds per repetition — and
every cell is an independent seeded simulation.  Every sweep entry point
(grid, flow mix, seed repeats, figure cells) builds a list of
:class:`SweepTask` and hands it to :func:`run_tasks` together with one
:class:`RunPolicy`::

    tasks + RunPolicy ──▶ run_tasks
        1. journal replay (resume), cache lookup
        2. one backend runs the rest:
             in-process   no cache, journal or supervisor; jobs None or 1
             pool         execute_tasks: a multiprocessing pool
             supervised   execute_supervised: watchdogged worker processes
        3. per finished task: cache store, journal append

:func:`run_tasks` is the only place that replays the result journal,
looks up and stores the result cache, appends to the journal and picks a
backend; the backends only execute.

How determinism is preserved
----------------------------
* Each cell's :class:`~repro.harness.experiment.Experiment` (including
  its seed) is constructed *in the parent*, exactly as the serial loop
  would, and shipped whole to a worker — a worker never derives
  configuration.
* Workers return frozen results (:mod:`repro.harness.frozen`); the
  parent reassembles them **in task order**, so the outcome list is
  indistinguishable from the serial loop's.
* A simulation's randomness comes only from its seeded streams, never
  from which process or core ran it.

Experiments built from the named factories in
:mod:`repro.harness.factories` are picklable; hand-rolled lambda
factories are not, and are rejected with a pointer at the fix rather than
a bare :class:`pickle.PicklingError` from deep inside the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError, ParallelExecutionError, SupervisorError
from repro.harness.cache import (
    ResultCache,
    SharedResultCache,
    experiment_cache_key,
)
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.frozen import FrozenResult, freeze_result
from repro.harness.journal import ResultJournal
from repro.harness.resilience import (
    Attempt,
    RecoveryAction,
    RunFailure,
    current_worker,
    format_recovery_report,
    run_with_retries,
)

if TYPE_CHECKING:  # supervisor.py imports this module
    from repro.harness.supervisor import SupervisorConfig

__all__ = [
    "RunPolicy",
    "RunReport",
    "SweepTask",
    "TaskResult",
    "resolve_jobs",
    "run_tasks",
    "execute_tasks",
]

#: What run_tasks yields per task: exactly one side is non-None.
TaskResult = Tuple[Optional[FrozenResult], Optional[RunFailure]]

#: How a backend hands one finished task back to :func:`run_tasks`:
#: ``settle(index, (result, failure))``, with ``cached=True`` when the
#: result was served from the cache instead of simulated.
Settle = Callable[..., None]


@dataclass(frozen=True)
class SweepTask:
    """One independent cell of a sweep: a label for reports + its config."""

    label: str
    experiment: Experiment


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: None/0 → one worker per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be positive or 0/None for auto (got {jobs})")
    return jobs


@dataclass(frozen=True)
class RunPolicy:
    """How a task list runs: one value, validated once, for every route.

    ``jobs`` is the worker count (None or 1 = serial, 0 = one per CPU).
    ``on_error="raise"`` fails the run on the first failing task (in
    task order); ``"capture"`` retries a failing task on ``max_retries``
    seed-bumped reruns and then returns its
    :class:`~repro.harness.resilience.RunFailure` in place.  ``cache`` (a
    :class:`~repro.harness.cache.ResultCache`) is consulted before and
    filled after execution.  ``supervisor`` (a
    :class:`~repro.harness.supervisor.SupervisorConfig`) selects the
    watchdogged process-per-task backend.  ``journal`` (a
    :class:`~repro.harness.journal.ResultJournal`) receives every
    completed task as it finishes; ``resume=True`` replays journaled
    tasks instead of running them.  ``tracer`` (a
    :class:`~repro.obs.trace.Tracer`) receives harness spans, plus
    AQM/engine events for tasks run in this process; results are
    bit-exact with it on or off.
    """

    jobs: Optional[int] = None
    on_error: str = "raise"
    max_retries: int = 1
    cache: Optional[ResultCache] = None
    supervisor: Optional["SupervisorConfig"] = None
    journal: Optional[ResultJournal] = None
    resume: bool = False
    tracer: Optional[object] = None

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "capture"):
            raise ConfigError(
                f"on_error must be 'raise' or 'capture' (got {self.on_error!r})"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries cannot be negative (got {self.max_retries})"
            )
        if self.jobs is not None:
            resolve_jobs(self.jobs)
        if self.resume and self.journal is None:
            raise ConfigError("resume=True requires a journal")

    @property
    def in_process(self) -> bool:
        """True for the plain route: live results, original exceptions."""
        return (
            self.cache is None
            and self.journal is None
            and self.supervisor is None
            and self.jobs in (None, 1)
        )

    @property
    def workers(self) -> int:
        """Worker processes the pool/supervised backends may use."""
        return 1 if self.jobs is None else resolve_jobs(self.jobs)


@dataclass
class RunReport:
    """How one :func:`run_tasks` call produced its results, on any route.

    ``executed`` tasks were simulated, ``replayed`` came from the journal
    (resume), ``cache_hits`` from the result cache; ``journal_appends``
    records were written durably and ``compactions`` journal rewrites
    happened.  ``torn_journal`` is True when resume found (and
    tolerated) a crash-torn final record.  The supervised backend also
    fills ``actions`` (its recovery log: kills, retries, seed bumps,
    degradation), ``degraded``, ``heartbeats`` (proof the liveness
    channel was active) and ``deferred`` (spawns that passed over a cell
    another process held in flight in the shared cache).
    """

    executed: int = 0
    replayed: int = 0
    cache_hits: int = 0
    journal_appends: int = 0
    compactions: int = 0
    torn_journal: bool = False
    actions: List[RecoveryAction] = field(default_factory=list)
    degraded: bool = False
    heartbeats: int = 0
    deferred: int = 0

    def record(self, action: RecoveryAction) -> None:
        """Append one recovery action to the log."""
        self.actions.append(action)

    def format_actions(self) -> str:
        """Human-readable recovery log (see ``format_recovery_report``)."""
        return format_recovery_report(self.actions)

    def summary(self) -> str:
        """One-line counter summary for CLI output."""
        parts = [
            f"executed={self.executed}",
            f"replayed={self.replayed}",
            f"cache_hits={self.cache_hits}",
            f"journal_appends={self.journal_appends}",
        ]
        if self.compactions:
            parts.append(f"compactions={self.compactions}")
        if self.deferred:
            parts.append(f"deferred={self.deferred}")
        if self.torn_journal:
            parts.append("torn_journal=yes")
        return " ".join(parts)


def _start_method() -> str:
    """Prefer fork (fast, inherits sys.path — test-defined factories
    pickle by reference); fall back to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _of_requested_seed(result, experiment: Experiment) -> bool:
    """Whether ``result`` answers ``experiment`` itself, not a retry.

    A seed-bumped retry's result belongs to a different experiment, so
    it must never be stored or journaled under the requested one's key.
    """
    ran = getattr(result, "experiment", None)
    return ran is None or ran.seed == experiment.seed


def run_tasks(
    tasks: Sequence[SweepTask], policy: RunPolicy = RunPolicy()
) -> Tuple[List[TaskResult], RunReport]:
    """Run every task under ``policy``; return results and a report.

    Returns one ``(result, failure)`` pair per task **in task order**,
    whatever the route and completion order, plus the :class:`RunReport`.
    Journaled tasks are replayed (``resume``), cached ones served from
    the cache, and the rest run on one backend: in-process when the
    policy has no cache, journal or supervisor and ``jobs`` is None or 1
    (live :class:`~repro.harness.experiment.ExperimentResult`\\ s; under
    ``on_error="raise"`` the original exception propagates), otherwise
    the pool (:func:`execute_tasks`) or the supervised backend
    (:func:`~repro.harness.supervisor.execute_supervised`), both
    returning :class:`~repro.harness.frozen.FrozenResult`\\ s.  Each
    completed task is stored in the cache and appended to the journal as
    soon as it finishes; failures are never stored.  Under
    ``on_error="raise"`` every task still runs (so the journal keeps all
    that can finish), then the first failure in task order raises
    :class:`~repro.errors.ParallelExecutionError`.
    """
    report = RunReport()
    out: List[Optional[TaskResult]] = [None] * len(tasks)
    cache, journal = policy.cache, policy.journal
    emit = policy.tracer.emit if policy.tracer is not None else None
    keyed = cache is not None or journal is not None
    keys = [
        experiment_cache_key(task.experiment) if keyed else None
        for task in tasks
    ]
    replay = {}
    if policy.resume:
        journal_replay = journal.read()
        replay = journal_replay.replay_map()
        report.torn_journal = journal_replay.torn
    compactions_before = journal.compactions if journal is not None else 0
    # Pool workers publish into a shared cache themselves, under its
    # per-key single-flight lock; every other route stores here.
    workers_publish = (
        isinstance(cache, SharedResultCache) and policy.supervisor is None
    )

    def settle(index: int, task_result: TaskResult, cached: bool = False) -> None:
        out[index] = task_result
        result = task_result[0]
        if result is None:
            return
        task = tasks[index]
        if cached:
            report.cache_hits += 1
            if emit is not None:
                emit("harness", "cache_hit", 0.0, {"label": task.label})
        else:
            report.executed += 1
        key = keys[index]
        if key is None or not _of_requested_seed(result, task.experiment):
            return
        if cache is not None and not cached and not workers_publish:
            cache.put(key, result)
        if journal is not None:
            started = time.monotonic()
            journal.append(key, task.label, result)
            report.journal_appends += 1
            if emit is not None:
                emit("harness", "journal_append", 0.0, {
                    "label": task.label,
                    "seconds": time.monotonic() - started,
                })

    pending: List[int] = []
    for index, task in enumerate(tasks):
        key = keys[index]
        if key is not None and key in replay:
            out[index] = (replay[key], None)
            report.replayed += 1
            if emit is not None:
                emit("harness", "journal_replay", 0.0, {"label": task.label})
            continue
        hit = cache.get(key) if cache is not None and key is not None else None
        if hit is not None:
            settle(index, (hit, None), cached=True)
        else:
            pending.append(index)

    if pending:
        if policy.in_process:
            _run_serially(tasks, pending, policy, settle,
                          lambda task: _run_live(task, policy))
        elif policy.supervisor is not None:
            from repro.harness.supervisor import execute_supervised

            execute_supervised(tasks, pending, keys, policy, report, settle)
        else:
            execute_tasks(tasks, pending, keys, policy, settle)
    if journal is not None:
        report.compactions = journal.compactions - compactions_before
    if any(slot is None for slot in out):  # pragma: no cover - backend bug
        raise SupervisorError("execution finished with unfilled task slots")

    if policy.on_error == "raise":
        for _result, failure in out:  # type: ignore[misc]
            if failure is not None:
                raise ParallelExecutionError(
                    f"sweep cell failed: {failure}",
                    label=failure.label,
                    error_type=failure.error_type,
                    sim_time=failure.sim_time,
                    component=failure.component,
                )
    return out, report  # type: ignore[return-value]


def _run_serially(
    tasks: Sequence[SweepTask], pending: List[int], policy: RunPolicy,
    settle: Settle, run_one: Callable[[SweepTask], TaskResult],
) -> None:
    """Run the pending tasks one by one in this process, with task spans."""
    emit = policy.tracer.emit if policy.tracer is not None else None
    for index in pending:
        task = tasks[index]
        if emit is not None:
            emit("harness", "task_start", 0.0,
                 {"label": task.label, "backend": "serial"})
        started = time.monotonic()
        task_result = run_one(task)
        if emit is not None:
            emit("harness", "task_done", 0.0, {
                "label": task.label,
                "ok": task_result[0] is not None,
                "seconds": time.monotonic() - started,
            })
        settle(index, task_result)


def _run_live(task: SweepTask, policy: RunPolicy):
    """In-process backend body: a live result, the tracer threaded in."""
    if policy.on_error == "raise":
        return run_experiment(task.experiment, tracer=policy.tracer), None
    return run_with_retries(
        task.experiment, label=task.label,
        max_retries=policy.max_retries, tracer=policy.tracer,
    )


def _run_payload(payload, tracer=None) -> TaskResult:
    """Worker body: simulate one cell, freeze the outcome.

    Runs in a pool process (but is equally callable in-process).  Always
    returns instead of raising — exceptions would otherwise tear down the
    whole pool map and lose every sibling cell's work; the parent decides
    whether a failure is fatal based on ``on_error``.

    When the parent executes through a :class:`SharedResultCache` it
    ships the cache root as the payload's fifth element; the worker then
    routes the simulation through the cache's per-key single-flight lock,
    so identical cells running concurrently — in this pool or in a
    *different process's* pool over the same cache — are computed once
    and shared.  The worker publishes the entry itself (under the lock),
    so the parent skips its own ``put`` for shared caches; like the
    parent, it publishes only a result of the requested seed.
    """
    experiment, label, on_error, max_retries, shared_root = payload
    if shared_root is not None:
        key = experiment_cache_key(experiment)
        if key is not None:
            ran: List[TaskResult] = []

            def compute() -> Optional[FrozenResult]:
                task_result = _simulate_payload(
                    experiment, label, on_error, max_retries, tracer
                )
                ran.append(task_result)
                result = task_result[0]
                if result is None or not _of_requested_seed(result, experiment):
                    return None
                return result

            published = SharedResultCache(shared_root).fetch_or_compute(
                key, compute
            )
            return ran[0] if ran else (published, None)
    return _simulate_payload(experiment, label, on_error, max_retries, tracer)


def _simulate_payload(
    experiment, label, on_error, max_retries, tracer=None
) -> TaskResult:
    """The uncached worker body shared by both payload routes.

    ``tracer`` only arrives when the payload runs in the parent — a
    JSONL sink holds an open file handle and cannot cross the pool
    boundary.
    """
    if on_error == "capture":
        result, failure = run_with_retries(
            experiment, label=label, max_retries=max_retries, tracer=tracer
        )
        return (freeze_result(result) if result is not None else None, failure)
    try:
        return freeze_result(run_experiment(experiment, tracer=tracer)), None
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        worker = current_worker()
        return None, RunFailure(
            label=label,
            seeds_tried=(experiment.seed,),
            error_type=type(exc).__name__,
            error=str(exc),
            sim_time=getattr(exc, "sim_time", None),
            component=getattr(exc, "component", None),
            attempts=(
                Attempt(
                    seed=experiment.seed,
                    kind="exception",
                    error_type=type(exc).__name__,
                    error=str(exc),
                    worker=worker,
                ),
            ),
            worker=worker,
        )


def _check_picklable(tasks: Sequence[SweepTask]) -> None:
    for task in tasks:
        try:
            pickle.dumps(task.experiment)
        except Exception as exc:
            raise ConfigError(
                f"experiment for {task.label!r} cannot be pickled for parallel "
                f"execution ({type(exc).__name__}: {exc}); use the named AQM "
                f"factories from repro.harness.factories (picklable) or run "
                f"with jobs=1"
            ) from exc


def _defer_in_flight(
    pending: List[int],
    keys: List[Optional[str]],
    cache: SharedResultCache,
    emit,
) -> List[int]:
    """Reorder submission so in-flight cells run last (shared cache only).

    Another process over the same :class:`SharedResultCache` may already
    be computing some of these cells (its per-key lock is held).
    Submitting those first would make our workers sleep-poll on the
    remote winner while unclaimed cells wait behind them; submitting
    them *last* lets the fleet compute each cell once with every worker
    busy, and by the time the deferred cells run the winner has usually
    published — they resolve as cache hits inside the worker.  Only the
    submission order changes: results are reassembled by task index, so
    the returned list (and every digest built from it) is bit-identical.
    """
    in_flight = [
        i for i in pending
        if keys[i] is not None and cache.in_flight(keys[i])
    ]
    if not in_flight:
        return pending
    deferred = set(in_flight)
    if emit is not None:
        emit("harness", "cache_deferred", 0.0, {"tasks": len(in_flight)})
    return [i for i in pending if i not in deferred] + in_flight


def execute_tasks(
    tasks: Sequence[SweepTask],
    pending: List[int],
    keys: List[Optional[str]],
    policy: RunPolicy,
    settle: Settle,
) -> None:
    """Pool backend: run ``tasks[i]`` for each pending ``i``, frozen.

    With more than one worker and more than one pending task the cells
    fan out over a :mod:`multiprocessing` pool and are settled as they
    arrive (``imap``), so :func:`run_tasks` journals each one as soon as
    it finishes; otherwise they run one by one in this process, through
    the same worker body.  A :class:`SharedResultCache` is handed to the
    workers for cross-process single-flight, and cells another process
    holds in flight are submitted last.

    ``policy.tracer`` receives ``task_start``/``task_done`` spans per
    task (with per-task ``seconds`` when run in this process) and one
    aggregate ``pool_map`` span per fan-out; worker processes run
    untraced (a JSONL sink cannot cross the pool boundary).
    """
    cache = policy.cache
    emit = policy.tracer.emit if policy.tracer is not None else None
    shared_root = str(cache.root) if isinstance(cache, SharedResultCache) else None
    if shared_root is not None and len(pending) > 1:
        pending = _defer_in_flight(pending, keys, cache, emit)

    def payload(task: SweepTask):
        return (task.experiment, task.label, policy.on_error,
                policy.max_retries, shared_root)

    if policy.workers <= 1 or len(pending) <= 1:
        _run_serially(tasks, pending, policy, settle,
                      lambda task: _run_payload(payload(task), policy.tracer))
        return
    _check_picklable([tasks[i] for i in pending])
    jobs = min(policy.workers, len(pending))
    if emit is not None:
        for i in pending:
            emit("harness", "task_start", 0.0,
                 {"label": tasks[i].label, "backend": "pool"})
    started = time.monotonic()
    ctx = multiprocessing.get_context(_start_method())
    with ctx.Pool(processes=jobs) as pool:
        results = pool.imap(_run_payload, [payload(tasks[i]) for i in pending])
        for index, task_result in zip(pending, results):
            if emit is not None:
                emit("harness", "task_done", 0.0, {
                    "label": tasks[index].label,
                    "ok": task_result[0] is not None,
                })
            settle(index, task_result)
    if emit is not None:
        emit("harness", "pool_map", 0.0, {
            "tasks": len(pending),
            "jobs": jobs,
            "seconds": time.monotonic() - started,
        })
