"""The queue wakes its link only on an empty → non-empty transition.

The queue calls the link's wake-up only when a packet lands in an empty
queue.  That is safe because of one invariant: a non-empty queue is
always either being drained by a busy link or held by a downed one,
and a downed link restarts its drain itself when it comes back up.
These tests pin both halves, on unit queues and on a faulted dumbbell.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.coupled import CoupledPi2Aqm
from repro.harness import run_experiment
from repro.harness.factories import coupled_factory
from repro.harness.scenarios import coexistence_pair
from repro.harness.topology import Dumbbell
from repro.net.faults import LinkFlapFault, parse_fault_spec
from repro.net.link import Link
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.conftest import make_packet

#: Digest of the flapped coexistence cell below, recorded with a queue
#: that woke the link on every enqueue: the wake-up rule must not change
#: any packet's fate or timing.
GOLDEN_FLAPPED_CELL = (
    "ed86d67ff24f3a1b05e8c23910ece1813da004ac840b82d300a6c1b88c53bafe"
)


class SeqSink:
    """Records ``(time, seq)`` of every delivered packet."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def deliver(self, packet):
        self.got.append((self.sim.now, packet.seq))


def make_link(sim):
    """8 Mb/s: a 1000-byte packet serializes in exactly 1 ms."""
    queue = AQMQueue(sim, None, 8e6)
    sink = SeqSink(sim)
    link = Link(sim, queue, 8e6, sink=sink)
    return queue, link, sink


def enqueue_at(sim, queue, when, seq):
    sim.call_at(when, queue.enqueue, make_packet(seq=seq, size=1000))


def assert_deliveries(sink, expected):
    assert [seq for _, seq in sink.got] == [seq for _, seq in expected]
    assert [t for t, _ in sink.got] == pytest.approx([t for t, _ in expected])


class TestWakeupCalls:
    def test_wakeup_fires_only_when_queue_was_empty(self, sim):
        queue = AQMQueue(sim, None, 10e6)
        calls = []
        queue.set_wakeup(lambda: calls.append(len(queue)))
        for seq in range(3):
            queue.enqueue(make_packet(seq=seq))
        assert calls == [1]
        while queue.dequeue() is not None:
            pass
        queue.enqueue(make_packet(seq=3))
        assert calls == [1, 1]

    def test_dropped_arrival_into_empty_queue_wakes_nothing(self, sim):
        queue = AQMQueue(sim, None, 10e6)
        queue.set_ingress_fault(lambda packet: True)
        calls = []
        queue.set_wakeup(lambda: calls.append(True))
        queue.enqueue(make_packet())
        assert calls == []
        assert queue.stats.fault_dropped == 1


class TestLinkDrain:
    def test_backlog_held_while_down_drains_in_order_on_up(self):
        sim = Simulator()
        queue, link, sink = make_link(sim)
        for seq in range(3):
            enqueue_at(sim, queue, 0.0, seq)
        # Down mid-serialization of seq 0: it completes, the rest waits.
        sim.call_at(0.0005, link.set_down)
        # Enqueued while down into a non-empty queue: no wake-up at all.
        enqueue_at(sim, queue, 0.002, 3)
        sim.call_at(0.005, link.set_up)
        sim.run(1.0)
        assert link.interrupted_transmissions == 1
        assert_deliveries(
            sink, [(0.001, 0), (0.006, 1), (0.007, 2), (0.008, 3)]
        )
        assert len(queue) == 0 and not link.busy

    def test_arrival_into_empty_queue_while_down_waits_for_up(self):
        sim = Simulator()
        queue, link, sink = make_link(sim)
        link.set_down()
        enqueue_at(sim, queue, 0.001, 0)  # empty -> non-empty, link down
        enqueue_at(sim, queue, 0.002, 1)
        sim.call_at(0.003, link.set_up)
        sim.run(1.0)
        assert_deliveries(sink, [(0.004, 0), (0.005, 1)])

    def test_arrival_while_last_packet_serializes_starts_at_completion(self):
        sim = Simulator()
        queue, link, sink = make_link(sim)
        enqueue_at(sim, queue, 0.0, 0)
        # The queue is empty again (seq 0 is on the wire) and the link
        # busy: the wake-up is a no-op and the completion starts seq 1.
        enqueue_at(sim, queue, 0.0005, 1)
        sim.run(1.0)
        assert_deliveries(sink, [(0.001, 0), (0.002, 1)])
        assert link.busy_time == pytest.approx(0.002)
        assert link.packets_sent == 2


class TestFlappedDumbbell:
    def test_nonempty_queue_always_has_busy_or_downed_link(self):
        """Probe the invariant every 0.5 ms through two link flaps."""
        sim = Simulator()
        streams = RandomStreams(0)
        bed = Dumbbell(
            sim, streams, 40e6, CoupledPi2Aqm(rng=streams.stream("aqm"))
        )
        bed.add_tcp_flow("dctcp", rtt=0.010)
        bed.add_tcp_flow("cubic", rtt=0.010)
        bed.install_faults(
            [LinkFlapFault(start=1.0, duration=0.3),
             LinkFlapFault(start=2.0, duration=0.05)],
            streams.stream("faults"),
        )
        link, queue = bed.link, bed.queue
        violations = []
        backlogged_while_down = []

        def probe():
            if len(queue) and not (link.busy or link.down):
                violations.append(sim.now)
            if len(queue) and link.down:
                backlogged_while_down.append(sim.now)

        sim.every(0.0005, probe)
        sim.run(3.0)
        assert violations == []
        assert backlogged_while_down  # the flaps really held a backlog
        assert link.outages == 2
        assert queue.stats.dequeued == link.packets_sent

    def test_flapped_cell_keeps_golden_digest(self):
        experiment = replace(
            coexistence_pair(
                coupled_factory(), capacity_bps=40e6, rtt=0.010,
                duration=3.0, warmup=1.0, seed=0,
            ),
            faults=(
                parse_fault_spec("flap:1.0:0.3"),
                parse_fault_spec("flap:2.0:0.05"),
            ),
            validate=True,
        )
        result = run_experiment(experiment)
        digest = hashlib.sha256(
            json.dumps(result.digest(), sort_keys=True).encode()
        ).hexdigest()
        assert digest == GOLDEN_FLAPPED_CELL
        assert result.bed.link.outages == 2
