"""Link/pipe timing on the one-event-per-packet schedule.

These tests once pinned batched link drains, delivery trains and pipe
arrival trains to the event-per-packet schedule.  Batching is gone; the
same properties now pin that schedule itself to the analytic times:
every callback fires at the simulated time serialization and delay
dictate, foreign events (fault flaps included) interleave exactly, and
busy/idle accounting is exact.  The end-to-end gate is the golden digests
(``tests/harness/test_digest_regression.py``, ``perfbench/golden.json``).
"""

import pytest

from repro.net.link import Link
from repro.net.pipe import Pipe
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from tests.conftest import make_packet


class TimedSink:
    """Sink recording the simulated time of every delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.times = []

    def deliver(self, packet):
        self.times.append(self.sim.now)


def make_link(sim, capacity=8e6, prop_delay=0.0):
    q = AQMQueue(sim, None, capacity)
    sink = TimedSink(sim)
    link = Link(sim, q, capacity, sink=sink, prop_delay=prop_delay)
    return q, link, sink


def run_burst(n=10, capacity=8e6, prop_delay=0.0, until=1.0):
    """Enqueue ``n`` back-to-back packets and run; returns (sim, link, sink)."""
    sim = Simulator()
    q, link, sink = make_link(sim, capacity=capacity, prop_delay=prop_delay)
    for _ in range(n):
        q.enqueue(make_packet(size=1000))  # 1 ms each at 8 Mb/s
    sim.run(until)
    return sim, link, sink


class TestTimingParity:
    def test_delivery_times_identical_batched_vs_unbatched(self):
        _, _, sink = run_burst()
        assert sink.times == pytest.approx([0.001 * k for k in range(1, 11)])

    def test_prop_delay_deliveries_identical(self):
        _, _, sink = run_burst(prop_delay=0.005)
        assert sink.times == pytest.approx(
            [0.005 + 0.001 * k for k in range(1, 11)]
        )

    def test_logical_event_count_is_conserved(self):
        # One engine event per transmission completion, one more per
        # prop-delay delivery: the dispatched count is the logical count.
        sim, _, _ = run_burst()
        assert sim.events_processed == 10
        sim, _, _ = run_burst(prop_delay=0.005)
        assert sim.events_processed == 20

    def test_pipe_arrival_times_identical(self):
        sim = Simulator()
        sink = TimedSink(sim)
        pipe = Pipe(sim, delay=0.010, sink=sink)
        for k in range(5):
            sim.schedule(0.001 * k or 1e-6, pipe.deliver, make_packet())
        sim.run(1.0)
        assert sink.times == pytest.approx(
            [0.010 + (0.001 * k or 1e-6) for k in range(5)]
        )
        assert pipe.delivered == 5


class TestCounters:
    def test_foreign_event_breaks_batch(self):
        """A foreign event mid-burst fires between two completions,
        exactly at its own time, and shifts no delivery."""
        sim = Simulator()
        q, link, sink = make_link(sim)
        for _ in range(10):
            q.enqueue(make_packet(size=1000))
        order = []
        sim.schedule(0.0055, lambda: order.append(len(sink.times)))
        sim.run(1.0)
        assert order == [5]
        assert sink.times == pytest.approx([0.001 * k for k in range(1, 11)])

    def test_step_mode_disables_batching(self):
        """``step()`` drives the link to the same times as ``run()``."""
        sim = Simulator()
        q, link, sink = make_link(sim)
        for _ in range(5):
            q.enqueue(make_packet(size=1000))
        while sim.step():
            pass
        assert len(sink.times) == 5
        assert sink.times == pytest.approx([0.001 * k for k in range(1, 6)])


class TestAccounting:
    def test_busy_time_and_utilization_match_unbatched(self):
        _, link, _ = run_burst()
        assert link.busy_time == pytest.approx(0.010)
        assert link.utilization(0.010) == pytest.approx(1.0)
        assert link.utilization(0.020) == pytest.approx(0.5)

    def test_idle_time_accrues_between_bursts(self):
        sim = Simulator()
        q, link, sink = make_link(sim)
        q.enqueue(make_packet(size=1000))
        sim.schedule(0.005, q.enqueue, make_packet(size=1000))
        sim.run(0.010)
        # Busy [0, 1ms] and [5, 6ms]; the 4 ms gap is the accrued idle
        # time (trailing idle is accounted at the next busy transition).
        assert link.busy_time == pytest.approx(0.002)
        assert link.idle_time == pytest.approx(0.004)


class TestFaultInteraction:
    def test_flap_lands_mid_batch(self):
        """An outage event interrupts a burst exactly between completions:
        the in-flight packet finishes, nothing new starts, and the
        interruption is counted."""
        sim = Simulator()
        q, link, sink = make_link(sim)
        for _ in range(10):
            q.enqueue(make_packet(size=1000))
        sim.schedule(0.0025, link.set_down)  # between 2 ms and 3 ms
        sim.schedule(0.010, link.set_up)
        sim.run(1.0)
        assert link.outages == 1
        assert link.interrupted_transmissions == 1
        # 3 packets before the outage (the one in flight at 2.5 ms
        # completes at 3 ms), 7 after restoration at 10 ms.
        assert sink.times == pytest.approx(
            [0.001, 0.002, 0.003] + [0.010 + 0.001 * k for k in range(1, 8)]
        )
        assert link.busy_time == pytest.approx(0.010)

    def test_flap_timing_matches_unbatched(self):
        """A flap at a completion instant: the outage scheduled first
        wins the tie, so the packet completing then is the last out."""
        sim = Simulator()
        q, link, sink = make_link(sim)
        sim.schedule(0.003, link.set_down)
        for _ in range(10):
            q.enqueue(make_packet(size=1000))
        sim.schedule(0.010, link.set_up)
        sim.run(1.0)
        assert sink.times == pytest.approx(
            [0.001, 0.002, 0.003] + [0.010 + 0.001 * k for k in range(1, 8)]
        )
        assert link.outages == link.interrupted_transmissions == 1

    def test_flap_while_idle_interrupts_nothing(self):
        sim = Simulator()
        q, link, sink = make_link(sim)
        q.enqueue(make_packet(size=1000))
        sim.schedule(0.005, link.set_down)  # link drained and idle by then
        sim.run(0.010)
        assert link.outages == 1
        assert link.interrupted_transmissions == 0
