"""TCP receiver: cumulative ACKs, delayed ACKing, ECN echo.

Two echo disciplines are implemented, selected by the sender's ECN mode:

* **Classic (RFC 3168)** — receiving a CE mark latches the ECE flag on
  every subsequent ACK until a data packet with CWR arrives.  This is the
  coarse one-signal-per-RTT feedback that Classic controls (Reno, Cubic,
  ECN-Cubic) respond to.
* **Accurate / DCTCP** — the ECE flag on each ACK reflects whether the
  segments it covers were CE-marked.  With delayed ACKs the DCTCP state
  machine is used: a change in CE state forces out an immediate ACK for
  the previous run, so every ACK covers a run of uniformly-(un)marked
  segments and the sender can reconstruct the exact marked fraction its
  ``α`` EWMA needs.

Out-of-order segments are buffered and trigger immediate duplicate ACKs so
the sender's fast-retransmit machinery works; this mirrors the mandatory
quickack-on-reordering behaviour of real stacks.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import ACK_SIZE, ECN, Packet
from repro.sim.engine import Event, Simulator

__all__ = ["TcpReceiver", "DELACK_TIMEOUT"]

#: Delayed-ACK timer (Linux uses 40 ms by default).
DELACK_TIMEOUT = 0.040


class TcpReceiver:
    """Receives data segments and generates ACKs on the reverse path.

    Parameters
    ----------
    sim:
        The driving simulator.
    flow_id:
        Flow this receiver terminates.
    ack_out:
        Callback carrying ACK packets back towards the sender.
    ecn_mode:
        Must match the sender's: "off", "classic" or "scalable".
    delayed_acks:
        ACK every second in-order segment (with a 40 ms cap) instead of
        every segment.  Defaults on, as in Linux.
    on_data:
        Optional callback ``(now, packet)`` for goodput accounting — fired
        only for in-order (new) segments.
    sack:
        Advertise selective acknowledgements: each ACK carries the
        out-of-order data above the cumulative ACK as ``(start, end)``
        blocks (inclusive), which a SACK-enabled sender uses as its
        scoreboard.
    """

    #: Maximum SACK blocks advertised per ACK.  Real stacks fit ~3 in the
    #: TCP options; we allow more since each hole costs one block and the
    #: simulator has no option-space constraint, but still bound it.
    SACK_LIMIT = 16

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        ack_out: Callable[[Packet], None],
        ecn_mode: str = "off",
        delayed_acks: bool = True,
        on_data: Optional[Callable[[float, Packet], None]] = None,
        sack: bool = False,
    ):
        self.sack = sack
        self.sim = sim
        self.flow_id = flow_id
        self.ack_out = ack_out
        self.ecn_mode = ecn_mode
        self.delayed_acks = delayed_acks
        self.on_data = on_data

        self.rcv_next = 0
        self._ooo: set[int] = set()

        # Classic RFC 3168 echo state.
        self._ece_latched = False
        # DCTCP accurate-echo state.
        self._ce_state = False

        self._pending = 0               # in-order segments not yet ACKed
        self._pending_ts = 0.0          # timestamp to echo on the next ACK
        self._delack_event: Optional[Event] = None
        self._delack_deadline: Optional[float] = None

        self.segments_received = 0
        self.duplicates = 0
        self.ce_received = 0
        self.acks_sent = 0

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def deliver(self, pkt: Packet) -> None:
        """Sink interface for the forward path: the data handler itself.

        It runs once per data segment, so the CE test is written out
        inline (``Packet.ce_marked``).  ACKs are ignored.
        """
        if pkt.is_ack:
            return
        ce = pkt.ecn is ECN.CE
        if ce:
            self.ce_received += 1
        if self.ecn_mode == "classic":
            if ce:
                self._ece_latched = True
            if pkt.cwr:
                self._ece_latched = False
        elif self.ecn_mode == "scalable" and ce != self._ce_state:
            # DCTCP state machine: flush the previous run immediately so
            # each ACK covers segments with uniform CE-ness.
            if self._pending > 0:
                self._send_ack()
            self._ce_state = ce

        if pkt.seq == self.rcv_next:
            # The arriving segment plus any buffered segments it releases
            # are all delivered to the application now.
            delivered = 1
            self.rcv_next += 1
            while self.rcv_next in self._ooo:
                self._ooo.remove(self.rcv_next)
                self.rcv_next += 1
                delivered += 1
            self.segments_received += delivered
            if self.on_data is not None:
                for _ in range(delivered):
                    self.on_data(self.sim.now, pkt)
            self._pending += 1
            self._pending_ts = pkt.send_time
            if self._ooo:
                # Filling a hole while more holes remain: ACK immediately.
                self._send_ack()
            elif not self.delayed_acks or self._pending >= 2:
                self._send_ack()
            else:
                self._arm_delack()
        elif pkt.seq > self.rcv_next:
            self._ooo.add(pkt.seq)
            self._pending_ts = pkt.send_time
            self._send_ack()  # immediate duplicate ACK
        else:
            self.duplicates += 1
            self._pending_ts = pkt.send_time
            self._send_ack()  # already have it; re-ACK

    # ------------------------------------------------------------------
    # ACK generation
    # ------------------------------------------------------------------
    def _sack_blocks(self) -> tuple:
        """Contiguous runs of the out-of-order set as (start, end) blocks."""
        seqs = sorted(self._ooo)
        blocks = []
        start = prev = seqs[0]
        for s in seqs[1:]:
            if s == prev + 1:
                prev = s
                continue
            blocks.append((start, prev))
            if len(blocks) >= self.SACK_LIMIT:
                return tuple(blocks)
            start = prev = s
        blocks.append((start, prev))
        return tuple(blocks[: self.SACK_LIMIT])

    def _send_ack(self) -> None:
        self._delack_deadline = None  # _cancel_delack(), inline
        sack_info: tuple = ()
        if self.sack and self._ooo:
            sack_info = self._sack_blocks()
        ack = Packet(
            flow_id=self.flow_id,
            size=ACK_SIZE,
            ack=self.rcv_next,
            is_ack=True,
            # The echo flag: only the classic discipline ever latches ECE
            # and only the accurate one tracks CE state, so at most one
            # of the two can be set.
            ece=self._ece_latched or self._ce_state,
            sack=sack_info,
            send_time=self._pending_ts,
        )
        self._pending = 0
        self.acks_sent += 1
        self.ack_out(ack)

    def _arm_delack(self) -> None:
        """Start the delayed-ACK timer (lazy, like the sender's RTO).

        Arming writes a deadline; the heap event — one per receiver,
        created only when none is pending — re-checks that deadline when
        it fires, so the every-other-ACK cancel + reschedule cycle never
        touches the heap.
        """
        if self._delack_deadline is None:
            deadline = self.sim.now + DELACK_TIMEOUT
            self._delack_deadline = deadline
            if self._delack_event is None:
                self._delack_event = self.sim.at(deadline, self._on_delack)

    def _cancel_delack(self) -> None:
        # Lazy disarm: a pending event sees the cleared deadline and
        # drops itself (or re-sleeps if the timer was re-armed later).
        self._delack_deadline = None

    def _on_delack(self) -> None:
        self._delack_event = None
        deadline = self._delack_deadline
        if deadline is None:
            return  # disarmed since this wakeup was scheduled
        if self.sim.now < deadline:
            # Stale wakeup for an earlier arming; sleep until the live one.
            self._delack_event = self.sim.at(deadline, self._on_delack)
            return
        self._delack_deadline = None
        if self._pending > 0:
            self._send_ack()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TcpReceiver flow={self.flow_id} rcv_next={self.rcv_next}>"
