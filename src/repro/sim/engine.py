"""Discrete-event simulation engine.

This is the substrate that replaces the paper's physical Linux testbed
(Figure 10): a virtual clock, one binary heap of pending events, and
helpers for one-shot and periodic callbacks.  Everything else in the
repository (links, pipes, queues, TCP senders, AQM update timers) is
driven by this engine.

The event core
--------------
Every pending event is one heap entry, the plain tuple ``(time, seq, fn,
args, handle)``.  ``seq`` is drawn from a single monotonic counter, so
entries are totally ordered by ``(time, seq)`` and the heap orders them
with C tuple comparisons (the unique ``seq`` means ``fn`` is never
compared).  One dispatch loop pops the head, advances the clock and runs
``fn(*args)``.

``handle`` is the cancellable :class:`Event` returned by
:meth:`Simulator.schedule` / :meth:`Simulator.at`, or ``None`` for the
fire-and-forget :meth:`Simulator.call_later` / :meth:`Simulator.call_at`,
which allocate nothing beyond the tuple.

Determinism
-----------
Events scheduled for the same timestamp fire in scheduling order (the
sequence number breaks ties), so a simulation with a fixed seed is
exactly reproducible run-to-run and platform-to-platform.  Compaction
(below) only removes cancelled entries and re-heapifies; the total order
means the pop sequence is unchanged, so compaction never perturbs
results.

Cancelled events
----------------
Cancellation is lazy: a cancelled entry stays in the heap and is skipped
when popped.  Workloads that cancel timers constantly can accumulate many
dead entries, inflating every push/pop, so the simulator counts them and
compacts the heap in place once the dead fraction crosses a threshold.
The count is exact: the dispatch loop detaches a handle from the
simulator as it fires, so cancelling an event that already fired (for
example a :class:`PeriodicTimer` stopped from inside its own callback)
counts nothing.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(1.5, lambda: fired.append(sim.now))
>>> sim.run(until=10.0)
>>> fired
[1.5]
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CallbackError, SimulationError, WatchdogExceeded
from repro.units import Seconds

__all__ = ["Simulator", "Event", "PeriodicTimer", "Watchdog"]

_heappush = heapq.heappush

#: Virtual-time span of one dispatch epoch when an engine tracer is
#: installed: the traced run loop executes in chunks of this many
#: seconds and emits one ``engine_epoch`` snapshot per chunk.  Chunked
#: ``run`` calls compose exactly (``run(10); run(20)`` ≡ ``run(20)``),
#: so chunking never changes results — only how often the loop surfaces
#: for a snapshot.
_TRACE_EPOCH_SPAN = 0.25


class Event:
    """Cancellable handle on a scheduled callback.

    Holding a reference to the returned :class:`Event` allows cancellation
    (used e.g. by TCP retransmission timers).  A cancelled event stays in
    the heap but is skipped when popped; this is the standard lazy-deletion
    scheme and keeps cancellation O(1).  ``sim`` is cleared when the event
    fires, so a late :meth:`cancel` is a no-op that counts nothing.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


#: Heap entry: ``(time, seq, fn, args, handle)``; compares in C.
_Entry = Tuple[float, int, Callable[..., Any], tuple, Optional[Event]]


class Watchdog:
    """Budget limits for a :meth:`Simulator.run` call.

    A runaway simulation (an event loop that keeps rescheduling itself, or
    a scenario far larger than intended) would otherwise consume the whole
    process.  The watchdog bounds one ``run`` call by total events
    processed and/or host wall-clock seconds; exceeding either raises
    :class:`~repro.errors.WatchdogExceeded` with the virtual time reached.

    The wall clock is sampled every :data:`WALL_CHECK_STRIDE` events to
    keep the per-event overhead negligible.
    """

    WALL_CHECK_STRIDE = 1024

    __slots__ = ("max_events", "max_wall_seconds")

    def __init__(
        self,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
    ):
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive (got {max_events})")
        if max_wall_seconds is not None and max_wall_seconds <= 0:
            raise ValueError(
                f"max_wall_seconds must be positive (got {max_wall_seconds})"
            )
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds


class Simulator:
    """Event-driven virtual-time simulator.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.  Defaults to 0.

    Notes
    -----
    The engine makes no assumptions about what the callbacks do; components
    hold a reference to the simulator and schedule their own continuations.
    Time is a float in seconds.  The paper's experiments span at most a few
    hundred seconds at microsecond-scale event granularity, comfortably
    within double precision.
    """

    #: Minimum number of pending cancelled events before a compaction is
    #: considered.  Below this the dead weight is negligible and the scan
    #: would cost more than it saves.
    COMPACT_THRESHOLD = 1024

    def __init__(self, start_time: float = 0.0):
        self.now: float = start_time
        #: The event core: a binary heap of ``(time, seq, fn, args,
        #: handle)`` entries (see module docstring).
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._running = False
        self._watchdog: Optional[Watchdog] = None
        #: Optional telemetry sink (duck-typed; see repro.obs.trace).
        #: The engine only ever *emits* into it — tracers observe, they
        #: never schedule (the OBS static-analysis rule).
        self._tracer: Optional[Any] = None
        self._trace_epochs = 0

    def set_tracer(self, tracer: Optional[Any]) -> None:
        """Install (or clear, with ``None``) an engine-event tracer.

        With a tracer installed, :meth:`run` executes in virtual-time
        chunks of :data:`_TRACE_EPOCH_SPAN` seconds and emits one
        ``engine_epoch`` snapshot (heap depth and engine counters) per
        chunk.  Chunked runs compose exactly and the chunking never pops
        an entry an untraced run would not, so results and every engine
        counter are identical with tracing on or off.  Callers should
        pass tracers through :func:`repro.obs.trace.engine_tracer` so
        the category-subscription check stays in the observability
        layer.
        """
        self._tracer = tracer

    def set_watchdog(
        self,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
    ) -> None:
        """Install (or, with no arguments, remove) a run budget.

        Subsequent :meth:`run` calls are each limited to ``max_events``
        processed events and ``max_wall_seconds`` of host time; exceeding
        either raises :class:`~repro.errors.WatchdogExceeded`.
        """
        if max_events is None and max_wall_seconds is None:
            self._watchdog = None
        else:
            self._watchdog = Watchdog(max_events, max_wall_seconds)

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: Seconds, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback
        after all events already scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: Seconds, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time {self.now}"
            )
        seq = next(self._seq)
        ev = Event(time, seq, fn, self)
        _heappush(self._heap, (time, seq, fn, args, ev))
        return ev

    def call_later(self, delay: Seconds, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is allocated.

        Identical (time, seq) semantics to :meth:`schedule`; the caller
        cannot cancel the event — use :meth:`schedule` when a handle is
        needed.  This is the engine's hottest entry point (every packet
        transmission, delivery and pipe arrival goes through it).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        _heappush(self._heap, (self.now + delay, next(self._seq), fn, args, None))

    def call_at(self, time: Seconds, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at`: no handle is allocated."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time {self.now}"
            )
        _heappush(self._heap, (time, next(self._seq), fn, args, None))

    def every(
        self,
        interval: Seconds,
        fn: Callable[..., Any],
        *args: Any,
        start_delay: Optional[Seconds] = None,
    ) -> "PeriodicTimer":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled.

        The first firing is after ``start_delay`` (default: one interval).
        Used for AQM update timers (the paper's ``T`` = 32 ms / 16 ms).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        timer = PeriodicTimer(self, interval, fn, args)
        timer.start(start_delay if start_delay is not None else interval)
        return timer

    # ------------------------------------------------------------------
    # Cancelled-event accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` on a pending event; compacts
        the heap past the threshold once dead entries make up half of it."""
        self._cancelled_pending += 1
        pending = self._cancelled_pending
        if pending >= self.COMPACT_THRESHOLD and pending * 2 >= len(self._heap):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled entries from the heap; returns how many were removed.

        The heap list is mutated in place (``run`` holds a local
        reference to it) and re-heapified.  Safe to call at any time,
        including from inside an event callback; pop order is unaffected
        because entries are totally ordered by (time, seq).
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [e for e in heap if e[4] is None or not e[4].cancelled]
        removed = before - len(heap)
        if removed:
            heapq.heapify(heap)
            self._compactions += 1
        self._cancelled_pending = 0
        return removed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the next pending event, or None if idle.

        Lazily-cancelled entries at the heap head are discarded on the
        way, exactly as the run loop would skip them, so peeking never
        changes which callbacks fire or when.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            handle = head[4]
            if handle is not None and handle.cancelled:
                heapq.heappop(heap)
                self._cancelled_pending -= 1
                continue
            return head[0], head[1]
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending (non-cancelled) event, or None."""
        head = self.peek()
        return None if head is None else head[0]

    def run(self, until: Seconds) -> None:
        """Process events in timestamp order until the clock reaches ``until``.

        The clock is left exactly at ``until`` so back-to-back ``run`` calls
        compose: ``run(10); run(20)`` is equivalent to ``run(20)``.

        If a callback raises, the exception propagates wrapped in a
        :class:`~repro.errors.CallbackError` carrying the event's virtual
        time and callback name (structured :class:`SimulationError`\\ s pass
        through with their sim-time filled in); ``_running`` is always
        reset so the simulator stays usable, with the clock left at the
        failing event's time.
        """
        if until < self.now:
            raise ValueError(f"cannot run backwards to t={until} from t={self.now}")
        if self._tracer is not None:
            self._traced_run(until)
            return
        self._run(until)

    def _traced_run(self, until: float) -> None:
        """Run to ``until`` in epoch chunks, snapshotting the heap.

        The dispatching is delegated to :meth:`_run` one
        :data:`_TRACE_EPOCH_SPAN`-sized chunk at a time; between chunks
        — never between two events — an ``engine_epoch`` event records
        the heap depth and the engine counters.  Chunks start at the
        heap head's time (live or lazily cancelled: reading it pops
        nothing), and back-to-back ``run`` calls compose exactly, so the
        dispatch order, every result bit and every engine counter are
        identical to an untraced run.
        """
        tracer = self._tracer
        heap = self._heap
        while True:
            if heap and heap[0][0] <= until:
                start = heap[0][0] if heap[0][0] > self.now else self.now
                stop = start + _TRACE_EPOCH_SPAN
                if stop > until:
                    stop = until
            else:
                stop = until
            self._run(stop)
            self._trace_epochs += 1
            tracer.emit(
                "engine",
                "engine_epoch",
                self.now,
                {
                    "epoch": self._trace_epochs,
                    "heap": len(heap),
                    "events_processed": self._events_processed,
                    "cancelled_pending": self._cancelled_pending,
                    "compactions": self._compactions,
                },
            )
            if self.now >= until:
                return

    def _run(self, until: float) -> None:
        """The dispatch loop; same contract as :meth:`run`."""
        watchdog = self._watchdog
        event_budget = (
            self._events_processed + watchdog.max_events
            if watchdog is not None and watchdog.max_events is not None
            else None
        )
        wall_limit = watchdog.max_wall_seconds if watchdog is not None else None
        # repro: allow[DET] watchdog wall-time budget; never feeds simulation state
        wall_start = time.monotonic() if wall_limit is not None else 0.0
        self._running = True
        # Hot loop: the engine spends essentially all of a simulation here,
        # so the per-event work is kept to one heap pop + the callback
        # itself.  Heap, pop and clock access are bound to locals, the
        # dispatch wrapper is inlined (one fewer Python frame per event),
        # and the budget checks are single comparisons that short-circuit
        # when no watchdog is installed.
        heap = self._heap
        heappop = heapq.heappop
        # repro: allow[DET] hot-loop local for the watchdog's wall-time check only
        monotonic = time.monotonic
        stride = Watchdog.WALL_CHECK_STRIDE
        processed = self._events_processed
        fn: Optional[Callable[..., Any]] = None
        try:
            while heap:
                t, _seq, fn, args, handle = heap[0]
                if t > until:
                    break
                heappop(heap)
                if handle is not None:
                    if handle.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    # Detach: a cancel() from here on (the callback
                    # stopping its own timer, say) is a no-op.
                    handle.sim = None
                self.now = t
                fn(*args)
                processed += 1
                if event_budget is not None and processed >= event_budget:
                    raise WatchdogExceeded(
                        f"event budget of {watchdog.max_events} events exhausted "
                        f"before reaching t={until}",
                        sim_time=self.now,
                        component="Simulator",
                        context={"events_processed": processed},
                    )
                if (
                    wall_limit is not None
                    and processed % stride == 0
                    and monotonic() - wall_start > wall_limit
                ):
                    raise WatchdogExceeded(
                        f"wall-clock budget of {wall_limit}s exhausted "
                        f"before reaching t={until}",
                        sim_time=self.now,
                        component="Simulator",
                        context={"wall_seconds": monotonic() - wall_start},
                    )
            self.now = until
        except SimulationError as exc:
            # Already structured (watchdog, invariant checker, nested
            # engine, ...); just fill in the virtual time if the raiser
            # could not.
            if exc.sim_time is None and fn is not None:
                exc.sim_time = self.now
            raise
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            raise _callback_error(fn, exc, self.now) from exc
        finally:
            self._events_processed = processed
            self._running = False

    def step(self) -> bool:
        """Process a single event.  Returns False when nothing is pending.

        Pops exactly as :meth:`run` does; callback failures receive the
        same structured wrapping.
        """
        heap = self._heap
        while heap:
            t, _seq, fn, args, handle = heapq.heappop(heap)
            if handle is not None:
                if handle.cancelled:
                    self._cancelled_pending -= 1
                    continue
                handle.sim = None
            self.now = t
            try:
                fn(*args)
            except SimulationError as exc:
                if exc.sim_time is None:
                    exc.sim_time = t
                raise
            except Exception as exc:
                raise _callback_error(fn, exc, t) from exc
            self._events_processed += 1
            return True
        return False

    @property
    def pending_events(self) -> int:
        """Number of heap entries still queued, including lazily-cancelled ones."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still sitting in the heap (exact)."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of heap compactions that removed at least one entry."""
        return self._compactions

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    def register_metrics(self, registry: Any) -> None:
        """Register the engine's counters under the ``engine.`` prefix.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`
        (duck-typed here so the engine never imports the observability
        layer); the provider is evaluated lazily at snapshot time.
        """
        registry.register_provider("engine", self._metrics_snapshot)

    def _metrics_snapshot(self) -> Dict[str, Any]:
        """Flat end-of-run metric values for :meth:`register_metrics`.

        Only counters a traced run shares with an untraced one: the
        trace's own epoch count lives in its ``engine_epoch`` events.
        """
        return {
            "events_processed": self._events_processed,
            "cancelled_pending": self._cancelled_pending,
            "compactions": self._compactions,
            "pending_events": len(self._heap),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} pending={self.pending_events}>"


def _callback_error(
    fn: Optional[Callable[..., Any]], exc: Exception, when: float
) -> CallbackError:
    """Wrap a callback's exception with its virtual time and name."""
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", repr(fn))
    return CallbackError(
        f"event callback {name!r} raised {type(exc).__name__}: {exc}",
        sim_time=when,
        callback=name,
        component="Simulator",
    )


class PeriodicTimer:
    """Re-arming timer produced by :meth:`Simulator.every`."""

    __slots__ = (
        "_sim", "interval", "_fn", "_args", "_event", "_stopped", "fires", "_jitter",
    )

    def __init__(self, sim: Simulator, interval: float, fn: Callable[..., Any], args: tuple):
        self._sim = sim
        self.interval = interval
        self._fn = fn
        self._args = args
        self._event: Optional[Event] = None
        self._stopped = False
        self.fires = 0
        self._jitter: Optional[Callable[[], float]] = None

    def start(self, delay: float) -> None:
        self._event = self._sim.schedule(delay, self._fire)

    def set_jitter(self, jitter: Optional[Callable[[], float]]) -> None:
        """Install (or clear, with ``None``) a per-firing delay perturbation.

        ``jitter()`` is sampled before each re-arm and added to the
        nominal interval; the result is floored at 0.  Used by the fault
        injector to model an AQM update timer that drifts under load.
        """
        self._jitter = jitter

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fires += 1
        self._fn(*self._args)
        if not self._stopped:
            delay = self.interval
            if self._jitter is not None:
                delay = max(0.0, delay + self._jitter())
            self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Stop the timer; pending firing is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped
