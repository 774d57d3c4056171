"""FIFO bottleneck queue with an AQM hook and tail-drop backstop.

This models the router buffer of the paper's testbed (40 000 packets, i.e.
2.4 s at 200 Mb/s — Table 1).  The AQM is consulted on every enqueue; if it
neither drops nor the buffer overflows, the packet joins the FIFO.  All
traffic classes share this single queue, exactly as in the paper's
single-queue coexistence experiments ("In the network, all packets use the
same FIFO queue", Section 5).

Queue-delay estimation
----------------------
PIE was designed for hardware and estimates queuing delay as
``backlog / departure_rate`` with a measured departure-rate estimator
(unlike CoDel's per-packet timestamps).  Both estimators are implemented:

* :class:`CapacityDelayEstimator` — exact conversion using the configured
  link rate (what the PIE RFC calls the known-drain-rate simplification,
  used by DOCSIS PIE).
* :class:`DepartureRateEstimator` — PIE's measurement loop: time how long
  it takes to drain ``dq_threshold`` bytes, average the rate, divide.

The per-packet *actual* sojourn time is additionally recorded at dequeue
time (difference of timestamps); that is the quantity whose distribution
Figures 14 and 16 report.

Datapath cost
-------------
:meth:`AQMQueue.enqueue` and :meth:`AQMQueue.dequeue` run once per
bottleneck packet, so the queue decides at construction whether its
estimator measures departures: only the measured estimator is told about
backlog and departures; the exact one, which needs neither, costs no call.
Likewise the AQM's departure hook runs only if the AQM overrides it.
The link's wake-up runs only when a packet lands in an *empty* queue; a
non-empty queue is always either being drained by a busy link or held by
a downed one, which resumes draining by itself (:meth:`Link.set_up
<repro.net.link.Link.set_up>`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.aqm.base import AQM, Decision
from repro.net.packet import Packet
from repro.sim.engine import Simulator

__all__ = [
    "AQMQueue",
    "QueueStats",
    "CapacityDelayEstimator",
    "DepartureRateEstimator",
]


class QueueStats:
    """Arrival/departure/drop accounting for one queue."""

    __slots__ = (
        "arrived",
        "enqueued",
        "dequeued",
        "aqm_dropped",
        "tail_dropped",
        "fault_dropped",
        "ce_marked",
        "bytes_arrived",
        "bytes_dequeued",
    )

    def __init__(self) -> None:
        self.arrived = 0
        self.enqueued = 0
        self.dequeued = 0
        self.aqm_dropped = 0
        self.tail_dropped = 0
        self.fault_dropped = 0
        self.ce_marked = 0
        self.bytes_arrived = 0
        self.bytes_dequeued = 0

    @property
    def dropped(self) -> int:
        return self.aqm_dropped + self.tail_dropped + self.fault_dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<QueueStats in={self.arrived} out={self.dequeued} "
            f"aqm_drop={self.aqm_dropped} tail_drop={self.tail_dropped} "
            f"fault_drop={self.fault_dropped} mark={self.ce_marked}>"
        )


class CapacityDelayEstimator:
    """Exact queue-delay estimate from the configured drain rate.

    ``delay = backlog_bytes * 8 / capacity_bps``.  Tracks capacity changes
    (Figure 12's varying-link-capacity experiment) via :meth:`set_capacity`.
    """

    def __init__(self, capacity_bps: float):
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps

    def set_capacity(self, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps

    def on_dequeue(self, bytes_sent: int, now: float) -> None:
        """No measurement needed; drain rate is known."""

    def delay(self, backlog_bytes: int) -> float:
        return backlog_bytes * 8.0 / self.capacity_bps


class DepartureRateEstimator:
    """PIE's measured departure-rate estimator (RFC 8033 section 5.1).

    Measurement starts when the backlog exceeds ``dq_threshold`` bytes; the
    rate sample is ``bytes_drained / elapsed`` once at least the threshold
    has drained, and samples are smoothed with an exponential average.
    Until the first sample completes, the estimator falls back to the
    initial rate guess.
    """

    def __init__(
        self,
        initial_rate_bps: float = 10e6,
        dq_threshold: int = 16 * 1024,
        smoothing: float = 0.5,
    ):
        if initial_rate_bps <= 0:
            raise ValueError("initial rate must be positive")
        self.rate_bps = initial_rate_bps
        self.dq_threshold = dq_threshold
        self.smoothing = smoothing
        self._in_measurement = False
        self._dq_start = 0.0
        self._dq_bytes = 0
        self._backlog_hint = 0

    def set_capacity(self, capacity_bps: float) -> None:
        """Capacity changes are discovered by measurement; nothing to do."""

    def on_dequeue(self, bytes_sent: int, now: float) -> None:
        if not self._in_measurement:
            if self._backlog_hint >= self.dq_threshold:
                # The packet triggering the start drains *at* the start
                # instant; counting it would bias the rate high.
                self._in_measurement = True
                self._dq_start = now
                self._dq_bytes = 0
            return
        self._dq_bytes += bytes_sent
        if self._dq_bytes >= self.dq_threshold:
            elapsed = now - self._dq_start
            if elapsed > 0:
                sample = self._dq_bytes * 8.0 / elapsed
                w = self.smoothing
                self.rate_bps = (1 - w) * self.rate_bps + w * sample
            self._in_measurement = False

    def observe_backlog(self, backlog_bytes: int) -> None:
        self._backlog_hint = backlog_bytes

    def delay(self, backlog_bytes: int) -> float:
        return backlog_bytes * 8.0 / self.rate_bps


class AQMQueue:
    """Single FIFO queue managed by an AQM, drained by a link.

    Parameters
    ----------
    sim:
        The simulator driving timestamps and the AQM's update timer.
    aqm:
        The active queue management algorithm; ``None`` means pure
        tail-drop.
    capacity_bps:
        Drain rate used by the default exact delay estimator.
    buffer_packets:
        Hard tail-drop limit in packets (Table 1 uses 40 000).
    estimator:
        Override the queue-delay estimator (e.g. PIE's measured one).
    on_sojourn:
        Optional callback ``(now, sojourn_seconds, packet)`` invoked at each
        dequeue — the metrics layer uses this to build the per-packet queue
        delay distributions of Figures 14 and 16.
    """

    def __init__(
        self,
        sim: Simulator,
        aqm: Optional[AQM],
        capacity_bps: float,
        buffer_packets: int = 40_000,
        estimator: Optional[object] = None,
        on_sojourn: Optional[Callable[[float, float, Packet], None]] = None,
    ):
        if buffer_packets <= 0:
            raise ValueError(f"buffer must hold at least one packet (got {buffer_packets})")
        self.sim = sim
        self.aqm = aqm
        self.buffer_packets = buffer_packets
        self.estimator = estimator or CapacityDelayEstimator(capacity_bps)
        #: The estimator when it measures departures, else None (the exact
        #: estimator needs no per-packet observation).
        self._measured: Optional[DepartureRateEstimator] = (
            self.estimator if isinstance(self.estimator, DepartureRateEstimator) else None
        )
        self.on_sojourn = on_sojourn
        self.stats = QueueStats()
        self._fifo: deque[Packet] = deque()
        self._bytes = 0
        self._wakeup: Optional[Callable[[], None]] = None
        #: Whether the AQM overrides the no-op :meth:`AQM.on_dequeue` (CoDel
        #: does; the PI family does not), so the base hook costs no call.
        self._aqm_sees_departures = (
            aqm is not None and type(aqm).on_dequeue is not AQM.on_dequeue
        )
        #: Fault-injection gate: a predicate consulted before the AQM; a
        #: True return drops the arriving packet (counted separately from
        #: AQM/tail drops so loss attribution in reports stays honest).
        self._ingress_fault: Optional[Callable[[Packet], bool]] = None
        if aqm is not None:
            aqm.attach(sim, self)

    # ------------------------------------------------------------------
    # QueueView protocol (what the AQM can see)
    # ------------------------------------------------------------------
    def byte_length(self) -> int:
        return self._bytes

    def packet_length(self) -> int:
        return len(self._fifo)

    def queue_delay(self) -> float:
        return self.estimator.delay(self._bytes)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Run the AQM decision and enqueue.  Returns False if dropped."""
        stats = self.stats
        stats.arrived += 1
        stats.bytes_arrived += packet.size

        if self._ingress_fault is not None and self._ingress_fault(packet):
            stats.fault_dropped += 1
            return False

        fifo = self._fifo
        if len(fifo) >= self.buffer_packets:
            stats.tail_dropped += 1
            return False

        if self.aqm is not None:
            decision = self.aqm.decide(packet)
            if decision is Decision.DROP:
                stats.aqm_dropped += 1
                return False
            if decision is Decision.MARK:
                packet.mark_ce()
                stats.ce_marked += 1

        packet.enqueue_time = self.sim.now
        was_empty = not fifo
        fifo.append(packet)
        self._bytes += packet.size
        stats.enqueued += 1
        if self._measured is not None:
            self._measured.observe_backlog(self._bytes)
        if was_empty and self._wakeup is not None:
            # Empty -> non-empty: the only transition that can find the
            # link idle (see the module docstring).
            self._wakeup()
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None if empty."""
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        size = packet.size
        self._bytes -= size
        now = self.sim.now
        stats = self.stats
        stats.dequeued += 1
        stats.bytes_dequeued += size
        if self._measured is not None:
            self._measured.on_dequeue(size, now)
        if self._aqm_sees_departures:
            self.aqm.on_dequeue(packet, now)
        if self.on_sojourn is not None:
            self.on_sojourn(now, now - packet.enqueue_time, packet)
        return packet

    def set_wakeup(self, fn: Callable[[], None]) -> None:
        """Register the link's 'queue became non-empty' notification.

        ``fn`` runs when an enqueue finds the queue empty, and only then.
        """
        self._wakeup = fn

    def set_ingress_fault(self, fn: Optional[Callable[[Packet], bool]]) -> None:
        """Install (or clear, with ``None``) a fault-injection drop gate.

        The predicate runs on every arrival before the AQM sees the
        packet; returning True drops it and increments
        ``stats.fault_dropped``.  Used by
        :class:`repro.net.faults.FaultInjector` for bursty-loss and
        corruption windows at the bottleneck.
        """
        self._ingress_fault = fn

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def register_metrics(self, registry: object) -> None:
        """Register the queue's counters under the ``queue.`` prefix.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`
        (duck-typed so the net layer never imports the observability
        layer).  The provider reads :attr:`stats` at snapshot time, so
        the datapath pays nothing for it.
        """
        registry.register_provider("queue", self._metrics_snapshot)  # type: ignore[attr-defined]

    def _metrics_snapshot(self) -> dict:
        """Flat metric values: every :class:`QueueStats` counter."""
        stats = self.stats
        return {name: getattr(stats, name) for name in QueueStats.__slots__}

    def __len__(self) -> int:
        return len(self._fifo)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AQMQueue pkts={len(self._fifo)} bytes={self._bytes}>"
