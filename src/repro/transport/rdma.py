"""RoCEv2 RC transport model: NIC-offloaded reliable delivery.

The paper's RDMA experiments use one-sided ``RDMA_WRITE`` over a
reliable-connection QP whose NIC implements **go-back-N** recovery and
an ~1 ms retransmission timeout:

* the responder only accepts the expected PSN; any out-of-order packet
  is *discarded* and answered with an out-of-sequence NAK carrying the
  expected PSN;
* on a NAK the requester rewinds to that PSN and retransmits everything
  from there — which is why RDMA "has no reordering window" and why
  LinkGuardianNB's out-of-order recovery does not help multi-packet
  RDMA flows (Figure 11c);
* if the NAK or tail packets are lost, only the RTO saves the flow.

A **selective-repeat** mode models the newer "RoCE selective repeat"
NIC feature the paper's §5 points at: the responder keeps out-of-order
packets and the requester resends only the missing PSN.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.engine import Simulator
from ..packets.packet import Packet, RdmaHeader
from ..units import MS
from .flow import FlowRecord

__all__ = ["RDMA_HEADER_BYTES", "RdmaRequester", "RdmaResponder"]

#: Ethernet (18) + IP (20) + UDP (8) + BTH (12) + RETH/ICRC (~20)
RDMA_HEADER_BYTES = 78
#: 1438 B payload -> 1516 B frames, close to the paper's MTU frames
DEFAULT_RDMA_MTU = 1440


class RdmaRequester:
    """Requester side of an RC QP performing one RDMA_WRITE message."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        dst: str,
        flow_id: int,
        size_bytes: int,
        mtu: int = DEFAULT_RDMA_MTU,
        rto_ns: int = 1 * MS,
        ack_every: int = 1,
        selective_repeat: bool = False,
        on_complete: Optional[Callable[[FlowRecord], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.dst = dst
        self.mtu = mtu
        self.rto_ns = rto_ns
        self.ack_every = ack_every
        #: pair with an SR responder: resend only the NAKed PSN (§5)
        self.selective_repeat = selective_repeat
        self.on_complete = on_complete
        self.flow = FlowRecord(flow_id=flow_id, size_bytes=size_bytes)

        self.n_packets = max(1, -(-size_bytes // mtu))
        self.next_psn = 0            # next new PSN to send
        self.acked_psn = -1          # highest cumulatively acked PSN
        self._rto = sim.timer(self._on_rto)
        self._done = False
        self._last_goback_psn = -1
        host.register_handler(flow_id, self._on_packet)

    def start(self) -> None:
        self.flow.start_ns = self.sim.now
        self._send_from(0)

    def _payload_of(self, psn: int) -> int:
        if psn == self.n_packets - 1:
            return self.flow.size_bytes - (self.n_packets - 1) * self.mtu
        return self.mtu

    def _send_from(self, psn: int) -> None:
        """(Re)issue PSNs from ``psn`` to the end of the message.

        RC requesters blast the whole message at line rate; the NIC's
        egress queue provides the pacing.
        """
        for current in range(psn, self.n_packets):
            payload = self._payload_of(current)
            packet = Packet(
                size=payload + RDMA_HEADER_BYTES,
                src=self.host.name,
                dst=self.dst,
                flow_id=self.flow.flow_id,
                created_at=self.sim.now,
                rdma=RdmaHeader(
                    psn=current, payload=payload, last=(current == self.n_packets - 1)
                ),
            )
            self.flow.packets_sent += 1
            if current < self.next_psn:
                self.flow.retransmissions += 1
            self.host.send(packet)
        self.next_psn = max(self.next_psn, self.n_packets)
        self._arm_rto()

    def _send_one(self, psn: int) -> None:
        """Retransmit a single PSN (selective repeat)."""
        payload = self._payload_of(psn)
        packet = Packet(
            size=payload + RDMA_HEADER_BYTES,
            src=self.host.name,
            dst=self.dst,
            flow_id=self.flow.flow_id,
            created_at=self.sim.now,
            rdma=RdmaHeader(
                psn=psn, payload=payload, last=(psn == self.n_packets - 1)
            ),
        )
        self.flow.packets_sent += 1
        self.flow.retransmissions += 1
        self.host.send(packet)
        self._arm_rto()

    def _on_packet(self, packet: Packet) -> None:
        header = packet.rdma
        if self._done or header is None or not (header.is_ack or header.is_nak):
            return
        if header.is_nak:
            self.acked_psn = max(self.acked_psn, header.ack_psn - 1)
            if header.ack_psn > self._last_goback_psn:
                self._last_goback_psn = header.ack_psn
                if self.selective_repeat:
                    # RoCE selective repeat: resend only the missing PSN.
                    self._send_one(header.ack_psn)
                else:
                    # Go-back-N: rewind to the expected PSN.  Rate-limited
                    # to one go-back per hole (no rewind on dup NAKs).
                    self._send_from(header.ack_psn)
            return
        if header.ack_psn > self.acked_psn:
            self.acked_psn = header.ack_psn
            self._arm_rto()
        if self.acked_psn >= self.n_packets - 1:
            self._complete()

    def _arm_rto(self) -> None:
        self._rto.arm(self.rto_ns)

    def _on_rto(self) -> None:
        if self._done:
            return
        self.flow.timeouts += 1
        self._last_goback_psn = -1
        self._send_from(self.acked_psn + 1)

    def _complete(self) -> None:
        self._done = True
        self.flow.end_ns = self.sim.now
        self._rto.cancel()
        self.host.unregister_handler(self.flow.flow_id)
        if self.on_complete is not None:
            self.on_complete(self.flow)


class RdmaResponder:
    """Responder side of an RC QP (go-back-N by default)."""

    ACK_SIZE = 78  # minimum RoCE ACK frame

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        src: str,
        flow_id: int,
        selective_repeat: bool = False,
        ack_every: int = 1,
    ) -> None:
        self.sim = sim
        self.host = host
        self.src = src
        self.flow_id = flow_id
        self.selective_repeat = selective_repeat
        self.ack_every = max(1, ack_every)
        self.expected_psn = 0
        self.bytes_received = 0
        self.discarded = 0          # out-of-order packets thrown away (GBN)
        self.naks_sent = 0
        self._ooo: Dict[int, int] = {}  # psn -> payload (selective repeat)
        self._nak_outstanding = False
        host.register_handler(flow_id, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        header = packet.rdma
        if header is None or header.is_ack or header.is_nak:
            return
        psn = header.psn
        if psn == self.expected_psn:
            self._accept(header)
            self._nak_outstanding = False
            if self.selective_repeat:
                while self.expected_psn in self._ooo:
                    self.bytes_received += self._ooo.pop(self.expected_psn)
                    self.expected_psn += 1
            self._send_ack(ack=True, psn=self.expected_psn - 1)
        elif psn > self.expected_psn:
            if self.selective_repeat:
                self._ooo[psn] = header.payload
                self._send_ack(ack=False, psn=self.expected_psn)
            else:
                # Go-back-N: discard and NAK once per out-of-sequence event.
                self.discarded += 1
                if not self._nak_outstanding:
                    self._nak_outstanding = True
                    self._send_ack(ack=False, psn=self.expected_psn)
        else:
            # Duplicate of something already delivered: re-ack.
            self._send_ack(ack=True, psn=self.expected_psn - 1)

    def _accept(self, header: RdmaHeader) -> None:
        self.bytes_received += header.payload
        self.expected_psn += 1

    def _send_ack(self, ack: bool, psn: int) -> None:
        if ack:
            # Coalesce: ack every Nth packet, but always ack the message tail.
            if (psn + 1) % self.ack_every and not self._is_tail(psn):
                return
        else:
            self.naks_sent += 1
        response = Packet(
            size=self.ACK_SIZE,
            src=self.host.name,
            dst=self.src,
            flow_id=self.flow_id,
            rdma=RdmaHeader(is_ack=ack, is_nak=not ack, ack_psn=psn),
        )
        self.host.send(response)

    def _is_tail(self, psn: int) -> bool:
        return True  # without message framing we ack conservatively
