"""Heap compaction of lazily-cancelled events.

Cancellation is lazy (the event stays in the heap), so workloads that
constantly re-arm timers accumulate dead entries.  These tests pin down
the accounting (``cancelled_pending``), the compaction trigger, and the
one property compaction must never break: the pop order of live events.
"""

import pytest

from repro.sim.engine import Simulator


def _noop():
    pass


class TestCancelledAccounting:
    def test_cancel_increments_counter(self, sim):
        ev = sim.schedule(1.0, _noop)
        assert sim.cancelled_pending == 0
        ev.cancel()
        assert sim.cancelled_pending == 1

    def test_cancel_is_idempotent(self, sim):
        ev = sim.schedule(1.0, _noop)
        ev.cancel()
        ev.cancel()
        ev.cancel()
        assert sim.cancelled_pending == 1

    def test_popping_cancelled_event_decrements(self, sim):
        ev = sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        ev.cancel()
        sim.run(until=3.0)
        assert sim.cancelled_pending == 0
        assert sim.events_processed == 1

    def test_step_decrements_too(self, sim):
        ev = sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        ev.cancel()
        assert sim.step() is True  # skips the cancelled event, runs the live one
        assert sim.cancelled_pending == 0


class TestExplicitCompact:
    def test_compact_removes_only_cancelled(self, sim):
        events = [sim.schedule(float(i), _noop) for i in range(10)]
        for ev in events[::2]:
            ev.cancel()
        removed = sim.compact()
        assert removed == 5
        assert sim.pending_events == 5
        assert sim.cancelled_pending == 0
        assert sim.compactions == 1

    def test_compact_with_nothing_to_remove_is_free(self, sim):
        sim.schedule(1.0, _noop)
        assert sim.compact() == 0
        assert sim.compactions == 0

    def test_compact_preserves_pop_order(self):
        """Live events must fire in exactly the same order with and
        without a mid-stream compaction."""

        def build(compact_at):
            sim = Simulator()
            fired = []
            cancelled = []
            for i in range(200):
                ev = sim.schedule(
                    (i % 7) * 0.5, lambda i=i: fired.append(i)
                )
                if i % 3 == 0:
                    cancelled.append(ev)
            for ev in cancelled:
                ev.cancel()
            if compact_at:
                sim.compact()
            sim.run(until=10.0)
            return fired

        assert build(compact_at=True) == build(compact_at=False)

    def test_compact_during_run_is_safe(self, sim):
        """run() holds a local reference to the heap list; an in-callback
        compaction must mutate it in place, not swap it out."""
        fired = []
        doomed = [sim.schedule(5.0 + i, _noop) for i in range(50)]

        def mid_run():
            for ev in doomed:
                ev.cancel()
            sim.compact()
            fired.append("compacted")

        sim.schedule(1.0, mid_run)
        sim.schedule(2.0, lambda: fired.append("after"))
        sim.run(until=10.0)
        assert fired == ["compacted", "after"]
        assert sim.pending_events == 0


class TestAutoCompaction:
    def test_churn_past_threshold_triggers_compaction(self, sim):
        threshold = Simulator.COMPACT_THRESHOLD
        events = [sim.schedule(100.0 + i, _noop) for i in range(threshold + 10)]
        for ev in events:
            ev.cancel()
        assert sim.compactions >= 1
        assert sim.cancelled_pending < threshold
        # All dead, so the heap is (nearly) empty after compaction.
        assert sim.pending_events <= 10

    def test_below_threshold_no_compaction(self, sim):
        events = [sim.schedule(100.0 + i, _noop) for i in range(100)]
        for ev in events:
            ev.cancel()
        assert sim.compactions == 0
        assert sim.cancelled_pending == 100

    def test_mostly_live_heap_not_compacted(self, sim):
        """Compaction requires dead entries to outnumber live ones —
        a big healthy heap with a few cancellations is left alone."""
        threshold = Simulator.COMPACT_THRESHOLD
        live = [sim.schedule(100.0 + i, _noop) for i in range(4 * threshold)]
        dead = [sim.schedule(200.0 + i, _noop) for i in range(threshold + 5)]
        for ev in dead:
            ev.cancel()
        assert sim.compactions == 0
        assert sim.pending_events == len(live) + len(dead)

    def test_heavy_rearm_churn_bounds_heap(self):
        """The retransmission-timer pattern: every tick cancels and
        re-arms.  With compaction the heap stays proportional to live
        events instead of growing with total cancellations."""
        sim = Simulator()
        state = {"timer": None, "ticks": 0}

        def rearm():
            state["ticks"] += 1
            if state["timer"] is not None:
                state["timer"].cancel()
            state["timer"] = sim.schedule(1000.0, _noop)  # never fires
            if state["ticks"] < 5000:
                sim.schedule(0.001, rearm)

        sim.schedule(0.001, rearm)
        sim.run(until=20.0)
        assert state["ticks"] == 5000
        assert sim.compactions >= 1
        # 5000 cancellations happened; the heap must not retain them.
        assert sim.pending_events < Simulator.COMPACT_THRESHOLD + 10

    def test_churn_does_not_change_results(self):
        """Same workload with the auto-compactor effectively disabled
        (huge threshold) fires the same sequence."""

        def run(threshold):
            sim = Simulator()
            old = Simulator.COMPACT_THRESHOLD
            Simulator.COMPACT_THRESHOLD = threshold
            try:
                fired = []
                pending = []
                for i in range(3000):
                    ev = sim.schedule(
                        1.0 + (i % 11) * 0.1, lambda i=i: fired.append(i)
                    )
                    pending.append(ev)
                    if i % 2 == 0:
                        pending[i // 2].cancel()
                sim.run(until=50.0)
                return fired, sim.events_processed
            finally:
                Simulator.COMPACT_THRESHOLD = old

        assert run(threshold=64) == run(threshold=10**9)


class TestPeriodicTimerChurn:
    def test_stopped_timer_leaves_no_live_event(self, sim):
        timer = sim.every(0.5, _noop)
        sim.run(until=2.1)
        assert timer.fires == 4
        timer.stop()
        assert sim.cancelled_pending == 1
        sim.run(until=10.0)
        assert timer.fires == 4

    def test_cancel_after_firing_is_not_counted(self, sim):
        """The count is exact: a fired event is detached from the
        simulator, so cancelling it afterwards counts nothing."""
        ev = sim.schedule(1.0, _noop)
        sim.run(until=2.0)
        ev.cancel()
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0

    def test_timer_stopping_itself_counts_nothing(self, sim):
        """A timer stopped from inside its own callback cancels the event
        that is firing: nothing is left to count or compact."""
        timer = sim.every(0.5, lambda: timer.stop())
        sim.run(until=2.0)
        assert timer.fires == 1
        assert sim.cancelled_pending == 0
        assert sim.compactions == 0

    def test_self_stopping_timers_never_trigger_empty_compactions(self, sim):
        """Enough self-stopping timers to cross the threshold three times
        over: with exact counting no compaction scan even starts, since
        there is nothing to remove."""
        scans = []
        compact = sim.compact
        sim.compact = lambda: scans.append(sim.now) or compact()
        timers = []
        for i in range(3 * Simulator.COMPACT_THRESHOLD):
            timers.append(sim.every(1.0, lambda i=i: timers[i].stop()))
        sim.run(until=5.0)
        assert all(t.fires == 1 for t in timers)
        assert scans == []
        assert sim.cancelled_pending == 0


class TestRunSemanticsUnchanged:
    """The hot-loop rewrite must not alter run()'s contract."""

    def test_clock_lands_exactly_on_until(self, sim):
        sim.schedule(0.3, _noop)
        sim.run(until=1.0)
        assert sim.now == 1.0

    def test_back_to_back_runs_compose(self, sim):
        fired = []
        for t in (0.5, 1.5, 2.5):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run(until=1.0)
        sim.run(until=3.0)
        assert fired == [0.5, 1.5, 2.5]

    def test_callback_error_wrapped_with_context(self, sim):
        from repro.errors import CallbackError

        def boom():
            raise RuntimeError("kaput")

        sim.schedule(1.25, boom)
        with pytest.raises(CallbackError) as excinfo:
            sim.run(until=2.0)
        assert excinfo.value.sim_time == 1.25
        assert "boom" in str(excinfo.value)

    def test_events_processed_persisted_on_failure(self, sim):
        def boom():
            raise RuntimeError("kaput")

        sim.schedule(0.5, _noop)
        sim.schedule(1.0, boom)
        with pytest.raises(Exception):
            sim.run(until=2.0)
        # The noop completed; the failing callback does not count (the
        # increment is post-return, matching the pre-rewrite behaviour).
        assert sim.events_processed == 1
