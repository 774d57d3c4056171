"""Fixed-delay, infinite-capacity path segments.

A :class:`Pipe` models the uncongested parts of the paper's testbed paths:
the per-flow netem delay that sets each flow's base RTT, and the reverse
(ACK) path, which the testbed keeps uncongested.  Packets are delivered to
the sink exactly ``delay`` seconds after entering.  Each packet in flight
is one fire-and-forget engine event
(:meth:`~repro.sim.engine.Simulator.call_later`) whose callback is the
sink's own ``deliver``: the pipe adds no frame at arrival time, arrivals
keep their order, and they interleave with every other event in exact
``(time, seq)`` order.

:class:`DropPipe` is the shared base for pipes that discard packets on the
way through; :class:`LossyPipe` (independent Bernoulli loss) lives here,
and the adverse-path family — Gilbert–Elliott bursty loss, corruption,
reordering, duplication — lives in :mod:`repro.net.faults`.  Pipes that
perturb a packet's delay (reordering's ``extra_delay``, duplication's
``dup_gap``) schedule those perturbed arrivals through
:meth:`Pipe._schedule_arrival`, onto the same sink callback.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.link import Sink
from repro.net.packet import Packet
from repro.sim.engine import Simulator

__all__ = ["Pipe", "DropPipe", "LossyPipe"]


class Pipe:
    """Deliver packets to ``sink`` after a fixed delay.

    Parameters
    ----------
    sim:
        Simulator instance.
    delay:
        One-way delay in seconds (0 delivers synchronously).
    sink:
        Downstream recipient; may be attached after construction.

    :attr:`delivered` counts the packets the pipe has accepted for
    delivery: it is incremented when a packet enters and its arrival is
    scheduled, not when the sink receives it, so packets still in flight
    are included.  Dropped packets (:class:`DropPipe`) are not counted.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: Optional[Sink] = None,
    ):
        if delay < 0:
            raise ValueError(f"delay cannot be negative (got {delay})")
        self.sim = sim
        self.delay = delay
        self.sink = sink
        self.delivered = 0

    def deliver(self, packet: Packet) -> None:
        sink = self.sink
        if sink is None:
            raise RuntimeError("pipe has no sink connected")
        self.delivered += 1
        if self.delay <= 0:
            sink.deliver(packet)
        else:
            # Fire-and-forget: arrivals are never cancelled.
            self.sim.call_later(self.delay, sink.deliver, packet)

    def _schedule_arrival(self, packet: Packet, extra_delay: float = 0.0) -> None:
        """Accept ``packet`` for delivery after ``delay + extra_delay``."""
        self.delivered += 1
        delay = self.delay + extra_delay
        if delay <= 0:
            self.sink.deliver(packet)
        else:
            self.sim.call_later(delay, self.sink.deliver, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Pipe delay={self.delay * 1e3:.2f}ms>"


class DropPipe(Pipe):
    """A pipe that may discard packets; subclasses decide which.

    Subclasses override :meth:`_should_drop`; dropped packets are counted
    in :attr:`lost` and never reach the sink.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: Optional[Sink] = None,
    ):
        super().__init__(sim, delay, sink)
        self.lost = 0

    def _should_drop(self, packet: Packet) -> bool:
        raise NotImplementedError

    def deliver(self, packet: Packet) -> None:
        if self._should_drop(packet):
            self.lost += 1
            return
        super().deliver(packet)


class LossyPipe(DropPipe):
    """A pipe that independently drops each packet with probability ``loss``."""

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        loss: float,
        rng: random.Random,
        sink: Optional[Sink] = None,
    ):
        super().__init__(sim, delay, sink)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss probability must be in [0,1] (got {loss})")
        self.loss = loss
        self.rng = rng

    def _should_drop(self, packet: Packet) -> bool:
        return self.loss > 0 and self.rng.random() < self.loss
