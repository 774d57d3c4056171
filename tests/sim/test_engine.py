"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_event_fires_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run(10.0)
        assert seen == [1.5]

    def test_at_absolute_time(self, sim):
        seen = []
        sim.at(3.0, lambda: seen.append(sim.now))
        sim.run(10.0)
        assert seen == [3.0]

    def test_events_fire_in_time_order(self, sim):
        seen = []
        sim.schedule(3.0, lambda: seen.append(3))
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run(10.0)
        assert seen == [1, 2, 3]

    def test_same_time_events_fire_in_schedule_order(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: seen.append(i))
        sim.run(2.0)
        assert seen == list(range(10))

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "payload")
        sim.run(2.0)
        assert seen == ["payload"]

    def test_zero_delay_runs_after_current_instant(self, sim):
        seen = []

        def first():
            sim.schedule(0.0, lambda: seen.append("nested"))
            seen.append("first")

        sim.schedule(1.0, first)
        sim.run(2.0)
        assert seen == ["first", "nested"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_into_past_rejected(self, sim):
        sim.run(5.0)
        with pytest.raises(ValueError):
            sim.at(4.0, lambda: None)


class TestRun:
    def test_run_stops_at_until(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append("late"))
        sim.run(2.0)
        assert seen == []
        assert sim.now == 2.0

    def test_run_is_composable(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run(2.0)
        sim.run(4.0)
        assert seen == [1, 3]

    def test_run_backwards_rejected(self, sim):
        sim.run(5.0)
        with pytest.raises(ValueError):
            sim.run(1.0)

    def test_events_scheduled_during_run_fire(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run(5.0)
        assert seen == [2.0]

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(10.0)
        assert sim.events_processed == 5

    def test_step_processes_one_event(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step() is True
        assert seen == [1]

    def test_step_on_empty_heap_returns_false(self, sim):
        assert sim.step() is False


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        ev = sim.schedule(1.0, lambda: seen.append(1))
        ev.cancel()
        sim.run(2.0)
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run(2.0)

    def test_cancel_after_firing_is_harmless(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.run(2.0)
        ev.cancel()


class TestPeriodicTimer:
    def test_fires_every_interval(self, sim):
        seen = []
        sim.every(1.0, lambda: seen.append(sim.now))
        sim.run(3.5)
        assert seen == [1.0, 2.0, 3.0]

    def test_start_delay_override(self, sim):
        seen = []
        sim.every(1.0, lambda: seen.append(sim.now), start_delay=0.25)
        sim.run(2.5)
        assert seen == [0.25, 1.25, 2.25]

    def test_stop_halts_firing(self, sim):
        seen = []
        timer = sim.every(1.0, lambda: seen.append(sim.now))
        sim.schedule(2.5, timer.stop)
        sim.run(10.0)
        assert seen == [1.0, 2.0]
        assert timer.stopped

    def test_stop_from_within_callback(self, sim):
        seen = []
        timer = sim.every(1.0, lambda: (seen.append(sim.now), timer.stop()))
        sim.run(10.0)
        assert seen == [1.0]

    def test_fire_count(self, sim):
        timer = sim.every(0.5, lambda: None)
        sim.run(2.4)
        assert timer.fires == 4

    def test_non_positive_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)


class TestStreamLane:
    """Handle-less entries (``call_later``/``call_at``) — what the former
    stream lane carried — share the one heap with cancellable ones."""

    def test_stream_events_merge_with_heap_in_time_order(self, sim):
        seen = []
        sim.schedule(2.0, lambda: seen.append("handle"))
        sim.call_at(1.0, lambda: seen.append("no-handle"))
        sim.schedule(3.0, lambda: seen.append("late"))
        sim.run(5.0)
        assert seen == ["no-handle", "handle", "late"]

    def test_same_time_ties_break_on_seq(self, sim):
        seen = []
        sim.call_at(1.0, lambda: seen.append("first"))
        sim.schedule(1.0, lambda: seen.append("handle"))
        sim.call_later(1.0, lambda: seen.append("last"))
        sim.run(2.0)
        assert seen == ["first", "handle", "last"]

    def test_scheduling_into_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(1.0)
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            sim.call_later(-0.5, lambda: None)

    def test_pending_events_counts_both_lanes(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_peek_spans_both_lanes(self, sim):
        assert sim.peek() is None
        ev = sim.schedule(2.0, lambda: None)
        assert sim.peek() == (2.0, ev.seq)
        sim.call_at(1.0, lambda: None)
        assert sim.peek() == (1.0, ev.seq + 1)
        assert sim.peek_time() == 1.0

    def test_step_dispatches_stream_events(self, sim):
        seen = []
        sim.call_at(1.0, lambda: seen.append(sim.now))
        assert sim.step()
        assert seen == [1.0]
        assert not sim.step()


class TestSchedulerBackends:
    """The one event core: no backend knob, exact order at any delay."""

    def test_invalid_scheduler_rejected(self):
        # The start time is the only constructor argument.
        with pytest.raises(TypeError):
            Simulator(scheduler="heap")

    def test_far_future_events_ride_overflow_and_fire(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(5.0))
        sim.schedule(0.1, lambda: seen.append(0.1))
        sim.run(10.0)
        assert seen == [0.1, 5.0]
        assert sim.pending_events == 0

    def test_wheel_spans_many_rotations(self, sim):
        # A re-arming timer walks the clock across a long span.
        seen = []

        def tick():
            seen.append(sim.now)
            if sim.now < 10.0:
                sim.schedule(0.5, tick)

        sim.schedule(0.5, tick)
        sim.run(11.0)
        assert seen == [0.5 * (i + 1) for i in range(20)]

    def test_sub_slot_bursts_keep_schedule_order(self, sim):
        # Many same-time events: FIFO by seq.
        seen = []
        for i in range(50):
            sim.schedule(0.0001, lambda i=i: seen.append(i))
        sim.run(1.0)
        assert seen == list(range(50))

    def test_handled_events_are_never_pooled(self, sim):
        # A fired handle is detached from the simulator: a stale
        # cancel() counts nothing and cannot touch a later event.
        ev = sim.schedule(0.01, lambda: None)
        sim.run(1.0)
        assert ev.sim is None
        ev.cancel()
        assert sim.cancelled_pending == 0
        sim.call_later(0.01, lambda: None)
        sim.run(2.0)
        assert sim.events_processed == 2


class _ListHandle:
    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ListSimulator:
    """Reference engine: a plain list of ``[time, seq, fn, args, handle]``;
    the next event is the live entry first in ``(time, seq)`` order."""

    def __init__(self):
        self.now = 0.0
        self._entries = []
        self._seq = 0

    def _add(self, when, fn, args, handle):
        self._entries.append([when, self._seq, fn, args, handle])
        self._seq += 1
        return handle

    def schedule(self, delay, fn, *args):
        return self._add(self.now + delay, fn, args, _ListHandle())

    def at(self, when, fn, *args):
        return self._add(when, fn, args, _ListHandle())

    def call_later(self, delay, fn, *args):
        self._add(self.now + delay, fn, args, None)

    def call_at(self, when, fn, *args):
        self._add(when, fn, args, None)

    def _pop(self, until):
        self._entries.sort(key=lambda e: (e[0], e[1]))
        while self._entries and (until is None or self._entries[0][0] <= until):
            entry = self._entries.pop(0)
            if entry[4] is None or not entry[4].cancelled:
                return entry
        return None

    def _fire(self, entry):
        if entry[4] is not None:
            entry[4].cancelled = True  # a fired handle cancels nothing
        self.now = entry[0]
        entry[2](*entry[3])

    def step(self):
        entry = self._pop(None)
        if entry is not None:
            self._fire(entry)

    def run(self, until):
        while (entry := self._pop(until)) is not None:
            self._fire(entry)
        self.now = until

    def compact(self):
        pass


def _drive(sim, ops):
    """Apply one random workload script to ``sim``; return its dispatch
    trace of ``(time, event id)``.  Callback behaviour is keyed by op:

    * ``schedule`` / ``at`` / ``call_later`` / ``call_at`` — the four
      entry points; ``rearm`` callbacks schedule a child, ``flap``
      callbacks cancel the oldest handle mid-run.
    * ``cancel`` — cancel a handle (pending or already fired) from
      outside the run loop.
    * ``step`` — dispatch one event.
    * ``run`` — run the clock a bit further (events straddle runs).
    * ``compact`` — explicit compaction between runs.
    """
    import itertools as _it

    trace = []
    handles = []
    ids = _it.count()

    def add(entry_point, delay, kind):
        i = next(ids)
        if entry_point == "schedule":
            handles.append(sim.schedule(delay, fire, i, kind))
        elif entry_point == "at":
            handles.append(sim.at(sim.now + delay, fire, i, kind))
        elif entry_point == "call_later":
            sim.call_later(delay, fire, i, kind)
        else:
            sim.call_at(sim.now + delay, fire, i, kind)

    def fire(i, kind):
        trace.append((sim.now, i))
        if kind == "rearm":
            add("call_later", 0.003, "plain")
        elif kind == "flap" and handles:
            handles.pop(0).cancel()

    for op in ops:
        name = op[0]
        if name in ("schedule", "at", "call_later", "call_at"):
            add(name, op[1], op[2])
        elif name == "cancel":
            if handles:
                handles.pop(op[1] % len(handles)).cancel()
        elif name == "step":
            sim.step()
        elif name == "run":
            sim.run(sim.now + op[1])
        else:  # compact
            sim.compact()
    sim.run(sim.now + 5.0)
    return trace


def _check_against_oracle(ops):
    sim = Simulator()
    assert _drive(sim, ops) == _drive(_ListSimulator(), ops)
    assert sim.pending_events == 0
    assert sim.cancelled_pending == 0


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _DELAY = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=0.001),
        st.floats(min_value=0.0, max_value=2.0),
    )
    _OP = st.one_of(
        st.tuples(
            st.sampled_from(["schedule", "at", "call_later", "call_at"]),
            _DELAY,
            st.sampled_from(["plain", "rearm", "flap"]),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("step")),
        st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=0.5)),
        st.tuples(st.just("compact")),
    )

    class TestDispatchOracle:
        """Property: for any interleaving of the four scheduling entry
        points, cancellation (incl. mid-run flaps), ``step``, staged
        ``run`` horizons and ``compact``, the engine's dispatch trace
        equals the reference list engine's: live events in ``(time,
        seq)`` order, cancelled ones never."""

        @settings(max_examples=100, deadline=None)
        @given(ops=st.lists(_OP, max_size=60))
        def test_dispatch_trace_equals_sorted_oracle(self, ops):
            _check_against_oracle(ops)

except ImportError:  # pragma: no cover - hypothesis is in the dev env
    def test_dispatch_trace_equals_sorted_oracle_fallback():
        kinds = ("plain", "rearm", "flap")
        points = ("schedule", "at", "call_later", "call_at")
        ops = [(points[i % 4], 0.1 * i % 0.7, kinds[i % 3]) for i in range(40)]
        ops += [("run", 0.2), ("cancel", 3), ("step",), ("compact",)]
        _check_against_oracle(ops)
