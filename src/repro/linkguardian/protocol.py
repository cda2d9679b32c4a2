"""Assembly of a LinkGuardian-protected link between two switches.

:class:`ProtectedLink` builds everything the paper's Figure 5 shows for
one corrupting link:

* on the **sender switch**: an egress port with three strict-priority
  queues — retransmissions (highest), normal packets, and the
  self-replenishing dummy queue (lowest) — fronted by an
  :class:`~repro.linkguardian.sender.LgSender`;
* on the **receiver switch**: an ingress handler running the
  :class:`~repro.linkguardian.receiver.LgReceiver` (loss detection,
  reordering buffer, backpressure) and a reverse-direction egress port
  with control (highest), normal and explicit-ACK (lowest) queues;
* the two unidirectional :class:`~repro.switchsim.link.Link` objects,
  with the corruption process attached to the forward direction (91.8%
  of corrupting links corrupt one direction only, §3).

The protected link starts **dormant** — packets pass through unstamped
and cost nothing — and is activated either directly (experiments) or by
the corruptd monitor.
"""

from __future__ import annotations

from typing import Optional

from ..core.engine import Simulator
from ..packets.packet import Packet
from ..phy.loss import LossProcess
from ..switchsim.link import Link
from ..switchsim.queues import Queue
from ..switchsim.switch import Switch
from ..units import KB, gbps
from .config import LinkGuardianConfig
from .receiver import LgReceiver
from .sender import LgSender

__all__ = ["ProtectedLink"]


class ProtectedLink:
    """A bidirectional switch-to-switch link with LinkGuardian attached."""

    def __init__(
        self,
        sim: Simulator,
        sender_switch: Switch,
        receiver_switch: Switch,
        rate_bps: int = gbps(100),
        propagation_ns: int = 100,
        config: Optional[LinkGuardianConfig] = None,
        loss: Optional[LossProcess] = None,
        reverse_loss: Optional[LossProcess] = None,
        normal_queue_capacity: int = 2_000 * KB,
        ecn_threshold_bytes: Optional[int] = 100 * KB,
        recirc_drain_bps: int = gbps(100),
        port_prefix: str = "lg",
        phase_rng=None,
        obs=None,
    ) -> None:
        self.sim = sim
        self.sender_switch = sender_switch
        self.receiver_switch = receiver_switch
        self.rate_bps = int(rate_bps)
        self.config = config if config is not None else LinkGuardianConfig()
        self.obs = obs

        # Each switch has exactly one port facing its peer: the sender
        # switch's port toward the receiver carries the forward direction
        # and *receives* the reverse direction, and vice versa.
        fwd_name = f"{port_prefix}:{receiver_switch.name}"   # on sender switch
        rev_name = f"{port_prefix}:{sender_switch.name}"     # on receiver switch

        # Forward direction: sender switch -> (corrupting) -> receiver switch.
        self.forward_link = Link(
            sim, propagation_ns,
            receiver=receiver_switch.receiver_for(rev_name),
            loss=loss,
            name=f"{sender_switch.name}->{receiver_switch.name}",
            obs=obs,
        )
        forward_queues = [
            Queue(name="retx"),
            Queue(
                capacity_bytes=normal_queue_capacity,
                ecn_threshold_bytes=ecn_threshold_bytes,
                name="normal",
            ),
            Queue(name="dummy"),
        ]
        self.sender_port = sender_switch.add_port(
            fwd_name, rate_bps, self.forward_link,
            queues=forward_queues, normal_queue_index=LgSender.NORMAL_QUEUE,
        )

        # Reverse direction: receiver switch -> sender switch.
        self.reverse_link = Link(
            sim, propagation_ns,
            receiver=sender_switch.receiver_for(fwd_name),
            loss=reverse_loss,
            name=f"{receiver_switch.name}->{sender_switch.name}",
            obs=obs,
        )
        reverse_queues = [
            Queue(name="ctrl"),
            Queue(
                capacity_bytes=normal_queue_capacity,
                ecn_threshold_bytes=ecn_threshold_bytes,
                name="normal",
            ),
            Queue(name="ack"),
        ]
        self.receiver_port = receiver_switch.add_port(
            rev_name, rate_bps, self.reverse_link,
            queues=reverse_queues,
            normal_queue_index=LgReceiver.REVERSE_NORMAL_QUEUE,
        )

        # Protocol endpoints.
        self.sender = LgSender(
            sim, self.config, self.sender_port.egress,
            n_copies=1,
            forward_reverse=self._continue_on_sender_switch,
            name=f"lgs:{self.forward_link.name}",
            phase_rng=phase_rng,
            obs=obs,
            span_scope=self.forward_link.name,
        )
        self.receiver = LgReceiver(
            sim, self.config,
            forward=self._continue_on_receiver_switch,
            reverse_port=self.receiver_port.egress,
            drain_rate_bps=recirc_drain_bps,
            name=f"lgr:{self.forward_link.name}",
            obs=obs,
            span_scope=self.forward_link.name,
        )
        if obs is not None:
            # Queue-depth gauges and watermarks for both directions.
            self.sender_port.egress.attach_obs(obs)
            self.receiver_port.egress.attach_obs(obs)

        # Hook the endpoints into the switch datapaths.  Ingress-side LG
        # processing (loss detection, notification/ACK handling) happens
        # one pipeline pass after the frame leaves the wire, as on Tofino.
        self.sender_port.egress_handler = self.sender.send
        self.receiver_port.ingress_handler = lambda packet: sim.schedule(
            receiver_switch.pipeline_ns, self.receiver.on_link_packet, packet
        )
        self.receiver_port.egress_handler = self.receiver.on_reverse_data
        self.sender_port.ingress_handler = lambda packet: sim.schedule(
            sender_switch.pipeline_ns, self.sender.on_reverse_packet, packet
        )

        # Each self-replenishing loop learns which endpoint its frames
        # land on and how long after leaving, so a quiet link can coast
        # (see linkguardian/replenish.py).
        self.sender.dummy_loop.couple(
            self.receiver, propagation_ns, receiver_switch.pipeline_ns,
            self.receiver.on_link_packet)
        self.receiver.ack_loop.couple(
            self.sender, propagation_ns, sender_switch.pipeline_ns,
            self.sender.on_reverse_packet)

        self.forward_port_name = fwd_name
        self.reverse_port_name = rev_name
        self.sender.deactivate()

    # -- datapath continuations ---------------------------------------------------

    def _continue_on_receiver_switch(self, packet: Packet) -> None:
        self.sim.schedule(
            self.receiver_switch.pipeline_ns, self.receiver_switch.forward, packet
        )

    def _continue_on_sender_switch(self, packet: Packet) -> None:
        self.sim.schedule(
            self.sender_switch.pipeline_ns, self.sender_switch.forward, packet
        )

    # -- control plane ---------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.sender.active

    def activate(self, actual_loss_rate: float) -> int:
        """Turn LinkGuardian on, sized for the measured loss rate.

        Returns the number of retransmit copies N chosen by Equation 2.
        """
        n_copies = self.config.copies_for(actual_loss_rate)
        self.sender.activate(n_copies)
        self.receiver.activate()
        return n_copies

    def deactivate(self) -> None:
        self.sender.deactivate()
        self.receiver.deactivate()

    def set_loss(self, loss: Optional[LossProcess]) -> None:
        """Dial the VOA: change the forward-direction corruption process."""
        self.forward_link.set_loss(loss)

    # -- snapshot / restore ------------------------------------------------------------

    def snapshot(self):
        """Capture the whole protected link at a data-quiescent point.

        Endpoints, both egress ports, both link counters and the
        capture-time clock are recorded; in-flight frames and scheduled
        callbacks are not (see :mod:`repro.core.state`).
        """
        from ..core.state import ProtectedLinkState
        return ProtectedLinkState(
            sim_now=self.sim.now,
            sender=self.sender.snapshot(),
            receiver=self.receiver.snapshot(),
            sender_port=self.sender_port.egress.snapshot_state(),
            receiver_port=self.receiver_port.egress.snapshot_state(),
            forward_link=self.forward_link.snapshot_state(),
            reverse_link=self.reverse_link.snapshot_state(),
        )

    def restore(self, state, restore_loss: bool = True,
                jump_clock: bool = True) -> None:
        """Materialize a snapshot into this (freshly built) link.

        Jumps the clock to the capture time, restores protocol state,
        re-kicks both ports, and re-primes the self-replenishing dummy
        and explicit-ACK cycles exactly as activation would — a copy in
        flight at capture time is simply replaced.  With
        ``restore_loss=False`` the forward corruption position is left
        alone so a splicing window can attach its own process.
        """
        from ..core.state import ProtectedLinkState, check_version
        check_version(state, ProtectedLinkState)
        if jump_clock and self.sim.now < state.sim_now:
            self.sim.jump_to(state.sim_now)
        self.sender.restore(state.sender)
        self.receiver.restore(state.receiver)
        self.sender_port.egress.restore_state(state.sender_port)
        self.receiver_port.egress.restore_state(state.receiver_port)
        self.forward_link.restore_state(state.forward_link,
                                        restore_loss=restore_loss)
        self.reverse_link.restore_state(state.reverse_link)
        if self.sender.active and self.config.tail_loss_detection:
            self.sender.dummy_loop.restored(
                state.sender_port.queues[LgSender.DUMMY_QUEUE].packets)
        if self.receiver.active:
            self.receiver.ack_loop.restored(
                state.receiver_port.queues[LgReceiver.ACK_QUEUE].packets)

    # -- measurement -------------------------------------------------------------------

    def effective_loss_events(self) -> int:
        """Packets the transport layer still lost despite LinkGuardian."""
        return (
            self.receiver.stats.timeouts
            + self.receiver.stats.overflow_drops
        )

    def summary(self) -> dict:
        send, recv = self.sender.stats, self.receiver.stats
        return {
            "protected": send.protected,
            "retx_events": send.retx_events,
            "retx_copies": send.retx_copies,
            "loss_events": recv.loss_events,
            "recovered": recv.recovered,
            "timeouts": recv.timeouts,
            "overflow_drops": recv.overflow_drops,
            "notifications": recv.notifications,
            "delivered": recv.delivered,
            "delivered_bytes": recv.delivered_bytes,
            "pauses": recv.pauses_sent,
            "resumes": recv.resumes_sent,
            "tx_buffer": self.sender.tx_occupancy.summary(),
            "rx_buffer": self.receiver.rx_occupancy.summary(),
        }
