"""Bidirectional LinkGuardian (paper §5, "Handling bidirectional corruption").

8.2% of corrupting links in production corrupt both directions.  The
paper's recipe: harden the control messages (send multiple copies of
loss notifications, explicit ACKs and pause/resume — the
``control_copies`` knob) and "run a parallel instance of LinkGuardian in
the reverse direction".

:class:`BidirectionalProtectedLink` wires exactly that: each switch's
port toward its peer carries a :class:`~repro.linkguardian.sender.LgSender`
for the traffic it transmits *and* the reverse-direction
:class:`~repro.linkguardian.receiver.LgReceiver` machinery for the
traffic it receives.  The two instances share the port's three
strict-priority queues — the LG queue layouts were designed to line up:

====== ======================= =========================
queue  sender instance          receiver instance
====== ======================= =========================
0      retransmissions          loss notif / pause / resume
1      normal (protected) data  (same queue, ACK-stamped)
2      dummy packets            explicit ACKs
====== ======================= =========================
"""

from __future__ import annotations

from typing import Optional

from ..core.engine import Simulator
from ..packets.packet import LG_HEADER_BYTES, Packet, PacketKind
from ..phy.loss import LossProcess
from ..switchsim.link import Link
from ..switchsim.queues import Queue
from ..switchsim.switch import Switch
from ..units import KB, gbps
from .config import LinkGuardianConfig
from .receiver import LgReceiver
from .sender import LgSender

__all__ = ["BidirectionalProtectedLink"]

_RX_KINDS = (PacketKind.DATA, PacketKind.LG_RETX, PacketKind.LG_DUMMY)


class _Endpoint:
    """One switch's half of the bidirectional link: a sender for the
    traffic it transmits and a receiver for the traffic it gets."""

    def __init__(self) -> None:
        self.sender: Optional[LgSender] = None
        self.receiver: Optional[LgReceiver] = None
        self.port = None

    # -- composite port hooks ------------------------------------------------

    def on_dequeue(self, packet: Packet, queue_index: int) -> None:
        self.sender.on_port_dequeue(packet, queue_index)
        self.receiver.on_reverse_dequeue(packet, queue_index)

    def on_transmit(self, packet: Packet, queue_index: int) -> None:
        self.sender.on_port_transmit(packet, queue_index)
        self.receiver.on_reverse_transmit(packet, queue_index)

    def egress_handler(self, packet: Packet) -> None:
        """Outgoing data: piggyback this side's ACK, then protect it."""
        if self.receiver.active:
            self.receiver.stamp_ack(packet)
        self.sender.send(packet)

    def ingress_handler(self, packet: Packet) -> None:
        """Incoming frame: demux between the two protocol instances."""
        # Piggybacked ACK info (on data of the opposite direction) feeds
        # this side's sender before the data continues to the receiver.
        if packet.lg_ack is not None and packet.kind in _RX_KINDS:
            self.sender.on_reverse_packet_ack_only(packet)
        if packet.kind in _RX_KINDS:
            self.receiver.on_link_packet(packet)
        else:
            self.sender.on_reverse_packet(packet)


class BidirectionalProtectedLink:
    """Two switches, both directions corrupting, both directions guarded."""

    def __init__(
        self,
        sim: Simulator,
        switch_a: Switch,
        switch_b: Switch,
        rate_bps: int = gbps(100),
        propagation_ns: int = 100,
        config: Optional[LinkGuardianConfig] = None,
        loss_ab: Optional[LossProcess] = None,
        loss_ba: Optional[LossProcess] = None,
        normal_queue_capacity: int = 2_000 * KB,
        ecn_threshold_bytes: Optional[int] = 100 * KB,
    ) -> None:
        self.sim = sim
        self.rate_bps = int(rate_bps)
        if config is None:
            # §5: harden control messages against reverse-path corruption.
            config = LinkGuardianConfig(control_copies=2)
        self.config = config

        self.a = _Endpoint()
        self.b = _Endpoint()
        port_ab = f"lg2:{switch_b.name}"
        port_ba = f"lg2:{switch_a.name}"

        self.link_ab = Link(
            sim, propagation_ns, receiver=switch_b.ingress(),
            loss=loss_ab, name=f"{switch_a.name}->{switch_b.name}",
        )
        self.link_ba = Link(
            sim, propagation_ns, receiver=switch_a.ingress(),
            loss=loss_ba, name=f"{switch_b.name}->{switch_a.name}",
        )

        for endpoint, switch, port_name, link, peer in (
            (self.a, switch_a, port_ab, self.link_ab, switch_b),
            (self.b, switch_b, port_ba, self.link_ba, switch_a),
        ):
            queues = [
                Queue(name="high"),
                Queue(capacity_bytes=normal_queue_capacity,
                      ecn_threshold_bytes=ecn_threshold_bytes, name="normal"),
                Queue(name="low"),
            ]
            port = switch.add_port(
                port_name, rate_bps, link, queues=queues,
                normal_queue_index=LgSender.NORMAL_QUEUE,
            )
            endpoint.port = port
            endpoint.switch = switch

        for endpoint, switch, link in ((self.a, switch_a, self.link_ba),
                                       (self.b, switch_b, self.link_ab)):
            endpoint.sender = LgSender(
                sim, config, endpoint.port.egress, n_copies=1,
                forward_reverse=None,
                name=f"lgs2:{switch.name}",
                manage_port_hooks=False,
            )
            endpoint.receiver = LgReceiver(
                sim, config,
                forward=self._continuation(switch),
                reverse_port=endpoint.port.egress,
                name=f"lgr2:{switch.name}",
                manage_port_hooks=False,
            )
            # The sender needs an ACK-only entry point for piggybacked
            # headers on data frames (which then continue to the receiver).
            endpoint.sender.on_reverse_packet_ack_only = (
                lambda packet, s=endpoint.sender: self._consume_ack(s, packet)
            )
            egress = endpoint.port.egress
            egress.on_dequeue = endpoint.on_dequeue
            egress.on_transmit = endpoint.on_transmit
            endpoint.port.egress_handler = endpoint.egress_handler
            link.ingress.handler = endpoint.ingress_handler

        self.port_ab_name = port_ab
        self.port_ba_name = port_ba
        self.deactivate()

    @staticmethod
    def _consume_ack(sender: LgSender, packet: Packet) -> None:
        """Feed a piggybacked ACK header to the sender and strip it."""
        sender._process_ack(packet.lg_ack.ackno, packet.lg_ack.era)
        packet.size -= LG_HEADER_BYTES
        packet.lg_ack = None

    def _continuation(self, switch: Switch):
        return lambda packet: self.sim.schedule(
            switch.pipeline_ns, switch.forward, packet
        )

    # -- control plane -----------------------------------------------------------

    def activate(self, loss_rate_ab: float, loss_rate_ba: Optional[float] = None) -> tuple:
        """Activate both directions; returns (N_ab, N_ba)."""
        if loss_rate_ba is None:
            loss_rate_ba = loss_rate_ab
        n_ab = self.config.copies_for(loss_rate_ab)
        n_ba = self.config.copies_for(loss_rate_ba)
        self.a.sender.activate(n_ab)
        self.b.sender.activate(n_ba)
        self.a.receiver.activate()
        self.b.receiver.activate()
        return n_ab, n_ba

    def deactivate(self) -> None:
        for endpoint in (self.a, self.b):
            endpoint.sender.deactivate()
            endpoint.receiver.deactivate()

    def summary(self) -> dict:
        return {
            "a->b": {
                "protected": self.a.sender.stats.protected,
                "loss_events": self.b.receiver.stats.loss_events,
                "recovered": self.b.receiver.stats.recovered,
                "timeouts": self.b.receiver.stats.timeouts,
                "delivered": self.b.receiver.stats.delivered,
            },
            "b->a": {
                "protected": self.b.sender.stats.protected,
                "loss_events": self.a.receiver.stats.loss_events,
                "recovered": self.a.receiver.stats.recovered,
                "timeouts": self.a.receiver.stats.timeouts,
                "delivered": self.a.receiver.stats.delivered,
            },
        }
