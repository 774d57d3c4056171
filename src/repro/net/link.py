"""Serializing bottleneck link.

Drains an :class:`~repro.net.queue.AQMQueue` at a configurable bit rate and
hands each packet to a downstream sink after its serialization time plus a
fixed propagation delay.  Utilization accounting (busy time and delivered
bytes per sampling window) feeds Figure 18.

The rate may be changed mid-simulation (:meth:`Link.set_capacity`), which
is how the Figure 12 varying-link-capacity experiment (100:20:100 Mb/s) is
driven; a rate change takes effect from the next packet, as with a real
shaper reconfiguration.

One event per packet
--------------------
A busy link schedules one fire-and-forget engine event per transmission
completion (:meth:`~repro.sim.engine.Simulator.call_later`: no handle, a
single heap tuple) and, with a positive propagation delay, one per
delivery.  A fault-injection event (a link flap or outage) is an ordinary
event in the same ``(time, seq)`` order, so it lands between two
completions exactly where the schedule puts it.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.net.packet import Packet
from repro.net.queue import AQMQueue
from repro.sim.engine import Simulator
from repro.units import BitsPerSecond, Seconds

__all__ = ["Link", "Sink"]


class Sink(Protocol):
    """Anything that can receive a packet from a link or pipe."""

    def deliver(self, packet: Packet) -> None: ...


class Link:
    """Point-to-point serializing link fed by a queue.

    Parameters
    ----------
    sim:
        Simulator instance.
    queue:
        The FIFO it drains; the link registers itself as the queue's
        wake-up callback so transmission restarts when a packet arrives
        into an empty queue.
    capacity_bps:
        Line rate in bits per second.
    sink:
        Downstream recipient of transmitted packets.
    prop_delay:
        One-way propagation delay in seconds appended after serialization.
    """

    def __init__(
        self,
        sim: Simulator,
        queue: AQMQueue,
        capacity_bps: BitsPerSecond,
        sink: Optional[Sink] = None,
        prop_delay: Seconds = 0.0,
    ):
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        if prop_delay < 0:
            raise ValueError(f"propagation delay cannot be negative (got {prop_delay})")
        self.sim = sim
        self.queue = queue
        self.capacity_bps = capacity_bps
        self.sink = sink
        self.prop_delay = prop_delay
        self.busy = False
        self.down = False
        self.outages = 0
        self.busy_time = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        #: Time the link last became busy / went idle — drives the
        #: idle-time read-out (see :meth:`idle_time`).
        self._busy_since: Optional[float] = None
        self.idle_time = 0.0
        self._idle_since = sim.now
        #: Outages that landed with a transmission in flight: the packet
        #: on the wire completes and the flap stops the drain right after.
        self.interrupted_transmissions = 0
        self._route: Optional[Callable[[Packet], Sink]] = None
        queue.set_wakeup(self._on_queue_nonempty)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_capacity(self, capacity_bps: BitsPerSecond) -> None:
        """Change the line rate; also updates the queue's delay estimator."""
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps
        self.queue.estimator.set_capacity(capacity_bps)

    def set_router(self, route: Callable[[Packet], Sink]) -> None:
        """Install per-packet routing (used by the dumbbell topology to
        deliver each flow's packets to its own receiver-side pipe)."""
        self._route = route

    def set_down(self) -> None:
        """Take the link down (fault injection: an outage / flap window).

        A transmission already in progress completes — the bits are on the
        wire — but no new packet starts serializing until :meth:`set_up`.
        Arriving packets keep queuing (and tail-drop once the buffer
        fills), exactly as behind a dead interface.  An outage that lands
        with a transmission in flight is counted in
        :attr:`interrupted_transmissions`.  Idempotent.
        """
        if not self.down:
            self.down = True
            self.outages += 1
            if self.busy:
                self.interrupted_transmissions += 1

    def set_up(self) -> None:
        """Restore a downed link and resume draining the queue.  Idempotent."""
        if self.down:
            self.down = False
            if not self.busy:
                self._transmit_next()

    # ------------------------------------------------------------------
    # Utilization accounting
    # ------------------------------------------------------------------
    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of ``elapsed`` (default: sim time so far) spent serializing.

        ``busy_time`` integrates per-packet serialization times.
        """
        if elapsed is None:
            elapsed = self.sim.now
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def _mark_busy(self) -> None:
        if self._busy_since is None:
            self._busy_since = self.sim.now
            self.idle_time += self.sim.now - self._idle_since

    def _mark_idle(self) -> None:
        if self._busy_since is not None:
            self._busy_since = None
            self._idle_since = self.sim.now

    # ------------------------------------------------------------------
    # Transmission loop
    # ------------------------------------------------------------------
    def _on_queue_nonempty(self) -> None:
        if not self.busy and not self.down:
            self._transmit_next()

    def _transmit_next(self) -> None:
        """Start serializing the head-of-line packet, if the link may."""
        if self.down:
            self.busy = False
            self._mark_idle()
            return
        packet = self.queue.dequeue()
        if packet is None:
            self.busy = False
            self._mark_idle()
            return
        self.busy = True
        self._mark_busy()
        tx_time = packet.size * 8.0 / self.capacity_bps
        self.busy_time += tx_time
        self.bytes_sent += packet.size
        self.packets_sent += 1
        # Fire-and-forget: nobody cancels a completion.
        self.sim.call_later(tx_time, self._on_tx_complete, packet)

    def _on_tx_complete(self, packet: Packet) -> None:
        """Deliver ``packet`` and start the next transmission."""
        sink = self._route(packet) if self._route is not None else self.sink
        if sink is not None:
            if self.prop_delay > 0:
                self.sim.call_later(self.prop_delay, sink.deliver, packet)
            else:
                sink.deliver(packet)
        self._transmit_next()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def register_metrics(self, registry: object) -> None:
        """Register the link's counters under the ``link.`` prefix.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`
        (duck-typed so the net layer never imports the observability
        layer); the provider runs at snapshot time, exporting end-of-run
        totals.
        """
        registry.register_provider("link", self._metrics_snapshot)  # type: ignore[attr-defined]

    def _metrics_snapshot(self) -> dict:
        """Flat metric values: throughput and outage counters."""
        return {
            "capacity_bps": self.capacity_bps,
            "bytes_sent": self.bytes_sent,
            "packets_sent": self.packets_sent,
            "busy_time": self.busy_time,
            "idle_time": self.idle_time,
            "interrupted_transmissions": self.interrupted_transmissions,
            "outages": self.outages,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.down else ("busy" if self.busy else "idle")
        return f"<Link {self.capacity_bps / 1e6:.1f}Mbps {state}>"
