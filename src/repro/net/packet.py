"""Packets and ECN codepoints.

The two-bit ECN field in the IP header is central to the paper: the coupled
PI+PI2 AQM (Figure 9) classifies traffic into *Scalable* and *Classic* by
ECN codepoint.  Following the paper (and the later RFC 9331 L4S identifier):

* ``NOT_ECT`` — not ECN-capable; congestion is signalled by **drop**.
* ``ECT0``    — Classic ECN (RFC 3168); a CE mark means the same as a drop.
* ``ECT1``    — Scalable / L4S traffic (the paper modified DCTCP to set
  ECT(1) instead of ECT(0)); a CE mark is a fine-grained congestion signal.
* ``CE``      — Congestion Experienced; set by the AQM on marking.  Both
  classes share CE, so the original codepoint is remembered out-of-band in
  :attr:`Packet.ect` for classification of already-marked packets — this
  mirrors how a real network node cannot distinguish the origin of a CE
  packet, which is why the paper's classifier maps ``ECT(1) or CE`` to the
  Scalable branch.
"""

from __future__ import annotations

import enum
import itertools

__all__ = ["ECN", "Packet", "DEFAULT_MSS", "ACK_SIZE", "HEADER_BYTES"]

#: Default maximum segment size in bytes (Ethernet MTU minus IP+TCP headers).
DEFAULT_MSS = 1448

#: IP + TCP header overhead carried by every segment.
HEADER_BYTES = 52

#: Size of a pure ACK on the wire.
ACK_SIZE = HEADER_BYTES

#: Draws the next packet uid (a bound C method: no Python frame per packet).
_next_uid = itertools.count().__next__


class ECN(enum.IntEnum):
    """The two-bit ECN field of the IP header (RFC 3168 codepoints)."""

    NOT_ECT = 0b00
    ECT1 = 0b01
    ECT0 = 0b10
    CE = 0b11

    @property
    def ecn_capable(self) -> bool:
        """True if the transport declared ECN capability (ECT or CE)."""
        return self is not ECN.NOT_ECT


_NOT_ECT = ECN.NOT_ECT


class Packet:
    """A simulated IP packet carrying a TCP segment, an ACK, or UDP payload.

    Sequence numbers are in **segments**, not bytes: the paper's window
    equations (Appendix A) are all expressed in segments per RTT, and
    segment granularity is what the Linux stack effectively operates at for
    long flows.  ``seq`` is the index of the first segment carried and
    ``seg_count`` how many it covers (always 1 for the senders in this
    repository, kept general for GSO-style extensions).

    Attributes
    ----------
    flow_id:
        Identifier of the owning flow; used for per-flow accounting.
    seq:
        Segment sequence number for data packets.
    ack:
        Cumulative ACK number (next expected segment) for ACK packets.
    size:
        Size on the wire in bytes, including headers.
    ecn:
        Current ECN field (mutated to :attr:`ECN.CE` by a marking AQM).
    ect:
        The original ECT codepoint, preserved across CE marking so the
        classifier can treat ``ECT(1) or CE`` as Scalable (Figure 9).
        Defaults to ``ecn`` when only ``ecn`` is given.
    ece:
        ECN-Echo flag on ACKs (classic feedback, RFC 3168) — also used by
        the DCTCP receiver's accurate per-packet echo.
    cwr:
        Congestion-Window-Reduced flag on data packets; stops the classic
        receiver's persistent ECE echo.
    sack:
        Selective-acknowledgement information on ACKs: the receiver's
        out-of-order segment numbers above ``ack`` (a bounded snapshot of
        the SACK scoreboard; empty when SACK is off).
    enqueue_time / send_time:
        Timestamps stamped by the queue and the sender; the difference
        between dequeue and ``enqueue_time`` is the per-packet queue delay
        that Figures 14 and 16 report distributions of.
    uid:
        Unique packet number, drawn from a process-wide counter.

    Every data segment and ACK is built here, so ``__init__`` is one
    hand-written frame.
    """

    __slots__ = (
        "flow_id",
        "size",
        "seq",
        "ack",
        "is_ack",
        "ecn",
        "ect",
        "ece",
        "cwr",
        "seg_count",
        "sack",
        "send_time",
        "enqueue_time",
        "is_retransmit",
        "uid",
    )

    def __init__(
        self,
        flow_id: int,
        size: int = DEFAULT_MSS + HEADER_BYTES,
        seq: int = -1,
        ack: int = -1,
        is_ack: bool = False,
        ecn: ECN = ECN.NOT_ECT,
        ect: ECN = ECN.NOT_ECT,
        ece: bool = False,
        cwr: bool = False,
        seg_count: int = 1,
        sack: tuple = (),
        send_time: float = 0.0,
        enqueue_time: float = 0.0,
        is_retransmit: bool = False,
    ):
        if size <= 0:
            raise ValueError(f"packet size must be positive (got {size})")
        self.flow_id = flow_id
        self.size = size
        self.seq = seq
        self.ack = ack
        self.is_ack = is_ack
        self.ecn = ecn
        # Preserve the original ECT codepoint if the caller set only `ecn`.
        self.ect = ecn if ect is _NOT_ECT else ect
        self.ece = ece
        self.cwr = cwr
        self.seg_count = seg_count
        self.sack = sack
        self.send_time = send_time
        self.enqueue_time = enqueue_time
        self.is_retransmit = is_retransmit
        self.uid = _next_uid()

    # ------------------------------------------------------------------
    # ECN operations
    # ------------------------------------------------------------------
    @property
    def ecn_capable(self) -> bool:
        """Whether this packet may be CE-marked instead of dropped."""
        return self.ecn.ecn_capable

    @property
    def is_scalable(self) -> bool:
        """Classifier predicate from Figure 9: ``ECT(1) or CE`` → Scalable."""
        return self.ecn is ECN.ECT1 or (self.ecn is ECN.CE and self.ect is ECN.ECT1)

    @property
    def ce_marked(self) -> bool:
        return self.ecn is ECN.CE

    def mark_ce(self) -> None:
        """Apply a CE congestion mark.  Only valid on ECN-capable packets."""
        if not self.ecn.ecn_capable:
            raise ValueError("cannot CE-mark a Not-ECT packet; it must be dropped")
        self.ecn = ECN.CE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "ACK" if self.is_ack else "DATA"
        num = self.ack if self.is_ack else self.seq
        return f"<{kind} flow={self.flow_id} num={num} {self.ecn.name} {self.size}B>"
