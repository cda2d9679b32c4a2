"""Packet model.

A :class:`Packet` is a lightweight mutable record that flows through the
simulated network.  Protocol layers attach typed header objects rather
than serialized bytes: the simulator cares about sizes and header fields,
not about bit-level encodings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = [
    "PacketKind", "EcnCodepoint", "TcpHeader", "RdmaHeader",
    "LgDataHeader", "LgAckHeader", "Packet",
    "LG_HEADER_BYTES",
]

_packet_ids = itertools.count(1)

# The paper's LinkGuardian header: 16-bit seqNo + era bit + packet type,
# packed into 3 bytes (§3.5).  The ACK header is the same size.
LG_HEADER_BYTES = 3


class PacketKind(Enum):
    """What a frame is, from the point of view of the protected link."""

    DATA = "data"                  # normal traffic (a "protected" packet)
    LG_RETX = "lg-retx"            # retransmitted copy of a protected packet
    LG_ACK = "lg-ack"              # explicit ACK from the receiver switch
    LG_LOSS_NOTIF = "lg-loss"      # high-priority loss notification
    LG_DUMMY = "lg-dummy"          # tail-loss-detection dummy packet
    LG_PAUSE = "lg-pause"          # backpressure pause (PFC-style)
    LG_RESUME = "lg-resume"        # backpressure resume
    TIMER = "timer"                # switch packet-generator timer packet


class EcnCodepoint(Enum):
    NOT_ECT = 0
    ECT = 1
    CE = 3


@dataclass
class TcpHeader:
    """The TCP fields the transport models need (sequence space in bytes)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0                    # first byte carried
    ack: int = 0                    # cumulative ack
    payload: int = 0                # payload bytes carried
    is_ack: bool = False
    fin: bool = False
    syn: bool = False
    ece: bool = False               # ECN echo
    sack_blocks: tuple = ()         # ((start, end), ...) byte ranges
    ts_val: int = 0                 # timestamp option (ns) for RACK
    ts_ecr: int = 0

    def copy(self) -> "TcpHeader":
        return TcpHeader(
            self.src_port, self.dst_port, self.seq, self.ack, self.payload,
            self.is_ack, self.fin, self.syn, self.ece, self.sack_blocks,
            self.ts_val, self.ts_ecr)


@dataclass
class RdmaHeader:
    """RoCEv2 BTH-level fields for the RC transport model."""

    qp: int = 0
    psn: int = 0
    payload: int = 0
    is_ack: bool = False
    is_nak: bool = False
    ack_psn: int = 0                # cumulative (ACK) or expected (NAK) PSN
    last: bool = False              # last packet of the message

    def copy(self) -> "RdmaHeader":
        return RdmaHeader(self.qp, self.psn, self.payload, self.is_ack,
                          self.is_nak, self.ack_psn, self.last)


@dataclass
class LgDataHeader:
    """LinkGuardian 3-byte data header: seqNo + era + original/retx flag."""

    seqno: int = 0
    era: int = 0
    is_retx: bool = False

    def copy(self) -> "LgDataHeader":
        return LgDataHeader(self.seqno, self.era, self.is_retx)


@dataclass
class LgAckHeader:
    """LinkGuardian 3-byte ACK header piggybacked on reverse traffic."""

    ackno: int = 0                  # latestRxSeqNo at the receiver switch
    era: int = 0

    def copy(self) -> "LgAckHeader":
        return LgAckHeader(self.ackno, self.era)


@dataclass
class Packet:
    """A frame in flight.  ``size`` is the full frame size in bytes."""

    size: int
    kind: PacketKind = PacketKind.DATA
    src: str = ""
    dst: str = ""
    flow_id: int = 0
    priority: int = 0               # smaller = more important (strict priority)
    ecn: EcnCodepoint = EcnCodepoint.NOT_ECT
    created_at: int = 0
    tcp: Optional[TcpHeader] = None
    rdma: Optional[RdmaHeader] = None
    lg: Optional[LgDataHeader] = None
    lg_ack: Optional[LgAckHeader] = None
    meta: dict = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_packet_ids))

    def copy(self) -> "Packet":
        """Independent copy with a fresh uid (mirroring/multicast semantics).

        Written out field by field — this runs once per mirrored frame,
        and ``copy.copy``'s reduce/reconstruct round trip per object was
        a tenth of a stress run.  ``tests/test_packets.py`` walks
        ``dataclasses.fields`` so a field added here cannot be missed.
        """
        tcp, rdma, lg, lg_ack = self.tcp, self.rdma, self.lg, self.lg_ack
        return Packet(
            self.size, self.kind, self.src, self.dst, self.flow_id,
            self.priority, self.ecn, self.created_at,
            tcp.copy() if tcp is not None else None,
            rdma.copy() if rdma is not None else None,
            lg.copy() if lg is not None else None,
            lg_ack.copy() if lg_ack is not None else None,
            dict(self.meta),
            next(_packet_ids),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = ""
        if self.lg is not None:
            extra = f" lg.seq={self.lg.seqno}{'R' if self.lg.is_retx else ''}"
        if self.tcp is not None:
            extra += f" tcp.seq={self.tcp.seq}+{self.tcp.payload}"
        return f"Packet#{self.uid}({self.kind.value}, {self.size}B{extra})"
