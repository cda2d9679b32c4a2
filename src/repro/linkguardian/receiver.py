"""LinkGuardian receiver-switch logic (paper §3.1–§3.4, Algorithms 1–2).

The receiver sits at the ingress of the corrupting link.  It:

* detects corruption losses from gaps in the LinkGuardian seqNo space
  (both against newly arriving data packets and against the *send
  frontier* advertised by the sender's dummy packets, which is what
  catches tail losses without a timeout);
* sends high-priority **loss notifications** carrying the missing seqNos
  and the cumulative ``next_rx`` ACK;
* in ordered mode, holds out-of-order packets in a recirculation-based
  **reordering buffer** and releases them in seqNo order (Algorithm 1),
  pacing the release at the recirculation port's drain rate;
* runs the **backpressure** state machine (Algorithm 2) against the
  reordering-buffer occupancy, pausing/resuming the sender's normal
  packet queue;
* keeps a strictly-lowest-priority self-replenishing **ACK-packet
  queue** on the reverse port and piggybacks the cumulative ACK on any
  reverse-direction traffic (§3.1);
* falls back to **ackNoTimeout** when a loss is never recovered — the
  rare event (0.0016% of loss events in the paper) that becomes the
  link's residual *effective loss rate*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..analysis.stats import OccupancyTracker
from ..core.engine import Simulator
from ..core.state import SnapshotError, apply, capture
from ..obs.trace import NULL_TRACER
from ..packets.packet import (
    LG_HEADER_BYTES, LgAckHeader, Packet, PacketKind,
)
from ..packets.seqno import SeqCounter, seq_compare, seq_distance
from ..switchsim.port import EgressPort
from ..units import gbps, serialization_ns
from .config import LinkGuardianConfig
from .replenish import ReplenishLoop

__all__ = ["LgReceiver", "ReceiverStats"]


@dataclass
class ReceiverStats:
    """Counters the evaluation harness reads off a receiver."""

    delivered: int = 0            # protected packets handed to forwarding
    delivered_bytes: int = 0
    recovered: int = 0            # losses masked by a retransmission
    loss_events: int = 0          # distinct missing seqNos detected
    notifications: int = 0        # loss-notification packets sent
    timeouts: int = 0             # ackNoTimeout expiries (effective loss)
    duplicates_dropped: int = 0   # extra retx copies de-duplicated
    overflow_drops: int = 0       # reordering-buffer overflows
    reordered_deliveries: int = 0 # NB-mode out-of-order deliveries
    pauses_sent: int = 0
    resumes_sent: int = 0
    explicit_acks: int = 0
    dummies_seen: int = 0
    recirc_passes: int = 0        # reordering-buffer loop passes
    #: loss detected -> retx received, per recovery (Fig 19); summarized
    #: (not dumped) by snapshot() — the histogram metric keeps the shape.
    retx_delays_ns: List[int] = field(default_factory=list)

    def snapshot(self) -> dict:
        snap = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name != "retx_delays_ns"
        }
        snap["retx_delay_samples"] = len(self.retx_delays_ns)
        return snap


class _AckLoop(ReplenishLoop):
    """The explicit-ACK queue (§3.1); ``peer`` is the link's LgSender."""

    kind = PacketKind.LG_ACK

    def __init__(self, receiver: "LgReceiver") -> None:
        super().__init__(
            receiver.sim, receiver.config, receiver.reverse_port,
            receiver.ACK_QUEUE,
            hooks=(receiver._on_reverse_dequeue,
                   receiver._on_reverse_transmit))
        self.receiver = receiver

    def make_frame(self) -> Packet:
        return self.receiver._make_explicit_ack()

    def wanted(self) -> bool:
        return self.receiver._active

    def count_sent(self, n: int) -> None:
        self.receiver.stats.explicit_acks += n

    def carries_news(self) -> bool:
        # an ackNo the sender already holds frees nothing
        return self.receiver.next_rx != self.peer.acked_next

    def lands_quietly(self, packet: Packet) -> bool:
        # an ackNo at or below the sender's frees nothing
        if packet.kind is not PacketKind.LG_ACK:
            return False
        ack = packet.lg_ack
        era, value = self.peer.acked_next
        return seq_compare(ack.ackno, ack.era, value, era) <= 0


class LgReceiver:
    """Protocol endpoint on the receiver switch for one protected link."""

    # Queue layout on the reverse-direction egress port (strict priority).
    CTRL_QUEUE = 0      # loss notifications, pause/resume
    REVERSE_NORMAL_QUEUE = 1
    ACK_QUEUE = 2       # self-replenishing explicit-ACK queue

    def __init__(
        self,
        sim: Simulator,
        config: LinkGuardianConfig,
        forward: Callable[[Packet], None],
        reverse_port: EgressPort,
        drain_rate_bps: int = gbps(100),
        name: str = "lg-receiver",
        manage_port_hooks: bool = True,
        obs=None,
        link_name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.forward = forward
        self.reverse_port = reverse_port
        self.drain_rate_bps = int(drain_rate_bps)
        self.name = name
        self.stats = ReceiverStats()
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        #: the forward link's name: the ``link`` every trace event
        #: carries, so episode events correlate across components
        self.link_name = link_name if link_name is not None else name
        self._retx_delay_hist = None
        self._pause_hist = None
        self._paused_at = None
        if obs is not None:
            obs.registry.register_provider(f"lg.receiver.{name}", self.obs_snapshot)
            # The loss -> recovery latency distribution: the paper's
            # central sub-RTT claim (Figure 19) read straight off a run.
            self._retx_delay_hist = obs.registry.histogram(
                f"lg.receiver.{name}.retx_delay_ns"
            )
            self._pause_hist = obs.registry.histogram(
                f"lg.receiver.{name}.pause_ns"
            )

        self._next_rx = SeqCounter()       # next seqNo expected off the wire
        self._ack_no = SeqCounter()        # next seqNo to deliver (ordered mode)
        self._missing: Dict[tuple, int] = {}   # key -> detection time (ns)
        self._gave_up = set()              # keys abandoned by ackNoTimeout
        self._buffer: Dict[tuple, Packet] = {}  # reordering buffer
        self._buffer_bytes = 0
        self._draining = False
        self._paused_sender = False
        self._delivered_retx = set()       # NB-mode de-duplication
        self._stall_key = None             # ackNo the stall watchdog is on
        #: after an ordered->NB fallback, seqNos below this were already
        #: delivered in ordered mode; stale in-flight retx copies of them
        #: must not be delivered a second time.  Time-bounded (see
        #: switch_to_non_blocking) so seqNo wrap can never confuse it.
        self._nb_floor = None
        self._nb_floor_expiry_ns = 0
        self.rx_occupancy = OccupancyTracker(sim.now)

        self._active = False
        if manage_port_hooks:
            reverse_port.on_transmit = self._on_reverse_transmit
            reverse_port.on_dequeue = self._on_reverse_dequeue
        #: the self-replenishing explicit-ACK queue; primed on activation
        self.ack_loop = _AckLoop(self)

    # -- activation --------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    def activate(self) -> None:
        """Start the self-replenishing explicit-ACK queue (§3.1)."""
        self._active = True
        self.ack_loop.prime()

    def deactivate(self) -> None:
        """Dormant receivers send nothing and cost nothing."""
        self._active = False

    def seed_sequence(self, value: int, era: int = 0) -> None:
        """Match a sender seeded at ``value`` (see ``LgSender.seed_sequence``)."""
        if self.stats.delivered or self.stats.loss_events:
            raise RuntimeError("seed_sequence after packets were received")
        self._next_rx = SeqCounter(value, era)
        self._ack_no = SeqCounter(value, era)

    def switch_to_non_blocking(self) -> None:
        """Runtime fallback to LinkGuardianNB (§5, "Automatic fallback").

        Ordering is abandoned: everything held in the reordering buffer
        is released immediately (in seqNo order, which is the best the
        switch can still do), the sender is un-paused, and subsequent
        arrivals are delivered out of order.
        """
        if not self.config.ordered:
            return
        self.config.ordered = False
        # Retx copies still in flight may duplicate seqNos the ordered
        # path already delivered (they are not in _delivered_retx).  The
        # frozen ackNo is the exactly-once floor for them; it expires
        # once every pre-switch recovery must have resolved, so it can
        # never miscompare against far-future (wrapped) seqNos.
        self._nb_floor = (self._ack_no.value, self._ack_no.era)
        self._nb_floor_expiry_ns = self.sim.now + 2 * self.config.ack_no_timeout_ns
        for key in sorted(self._buffer):
            packet = self._buffer.pop(key)
            self._buffer_bytes -= packet.size
            # Remember the flushed seqNos: a straggler retx copy of one
            # of them must be de-duplicated, not delivered again.
            self._delivered_retx.add(key)
            self._deliver(packet)
        self.rx_occupancy.update(self.sim.now, 0)
        self._gave_up.clear()
        if self._paused_sender:
            self._paused_sender = False
            self.stats.resumes_sent += 1
            if self._paused_at is not None:
                if self._pause_hist is not None:
                    self._pause_hist.observe(self.sim.now - self._paused_at)
                self._paused_at = None
            if self._tracer.enabled:
                self._tracer.end(self.sim.now, "lg.receiver", "pause",
                                 {"link": self.link_name, "nb_fallback": True})
            self._send_control(self._control_packet(PacketKind.LG_RESUME))

    # -- helpers ----------------------------------------------------------------

    def obs_snapshot(self) -> dict:
        snap = self.stats.snapshot()
        snap["buffer_bytes"] = self._buffer_bytes
        snap["buffer_packets"] = len(self._buffer)
        snap["missing_outstanding"] = len(self._missing)
        snap["active"] = self._active
        return snap

    @property
    def next_rx(self) -> tuple:
        """(era, value): everything below this arrived or was accounted for."""
        return (self._next_rx.era, self._next_rx.value)

    @property
    def buffer_bytes(self) -> int:
        return self._buffer_bytes

    def _key(self, counter: SeqCounter) -> tuple:
        return (counter.era, counter.value)

    def _control_packet(self, kind: PacketKind) -> Packet:
        return Packet(
            size=self.config.control_frame_bytes,
            kind=kind,
            src=self.name,
            priority=self.CTRL_QUEUE,
        )

    def _send_control(self, packet: Packet) -> None:
        for index in range(self.config.control_copies):
            copy = packet if index == 0 else packet.copy()
            self.reverse_port.enqueue(copy, self.CTRL_QUEUE)

    # -- ingress from the protected link ------------------------------------------

    def on_link_packet(self, packet: Packet) -> None:
        """Ingress-handler entry for frames arriving over the corrupting link."""
        if packet.kind is PacketKind.LG_DUMMY:
            self.stats.dummies_seen += 1
            frontier = packet.meta.get("lg_frontier")
            if frontier is not None:
                self._detect_gap_upto(frontier[1], frontier[0])
            return
        if packet.lg is None:
            # Unprotected traffic (LinkGuardian dormant on this link).
            self.forward(packet)
            return
        seqno, era = packet.lg.seqno, packet.lg.era
        if not packet.lg.is_retx:
            self._advance_frontier_for(seqno, era)
        else:
            self._record_retx_arrival(seqno, era)
        if self.config.ordered:
            self._algorithm1(packet, seqno, era)
        else:
            self._non_blocking_deliver(packet, seqno, era)

    def _advance_frontier_for(self, seqno: int, era: int) -> None:
        """Original-transmission arrival: detect gaps, advance ``next_rx``."""
        gap = seq_distance(seqno, era, self._next_rx.value, self._next_rx.era)
        if gap > 0:
            self._detect_gap_upto(seqno, era)
        if gap >= 0:
            # next_rx = seqno + 1
            self._next_rx = SeqCounter(seqno, era)
            self._next_rx.advance()

    def _detect_gap_upto(self, upto_value: int, upto_era: int) -> None:
        """Everything in [next_rx, upto) is missing: notify the sender."""
        gap = seq_distance(upto_value, upto_era, self._next_rx.value, self._next_rx.era)
        if gap <= 0:
            return
        missing_keys = []
        cursor = SeqCounter(self._next_rx.value, self._next_rx.era)
        for _ in range(gap):
            key = (cursor.era, cursor.value)
            missing_keys.append(key)
            self._missing[key] = self.sim.now
            self.stats.loss_events += 1
            deadline = self.config.quantize_timer(
                self.sim.now + self.config.ack_no_timeout_ns
            )
            self.sim.schedule_at(deadline, self._ack_no_timeout, key)
            cursor.advance()
        self._next_rx = cursor
        notification = self._control_packet(PacketKind.LG_LOSS_NOTIF)
        notification.meta["lg_missing"] = tuple(missing_keys)
        notification.meta["lg_next_rx"] = (self._next_rx.era, self._next_rx.value)
        self.stats.notifications += 1
        if self._tracer.enabled:
            for era, seqno in missing_keys:
                self._tracer.instant(
                    self.sim.now, "lg.receiver", "loss_notification",
                    {"link": self.link_name, "seq": seqno, "era": era})
        self._send_control(notification)

    def _record_retx_arrival(self, seqno: int, era: int) -> None:
        key = (era, seqno)
        if key in self._missing:
            detected = self._missing.pop(key)
            self.stats.recovered += 1
            delay = self.sim.now - detected
            self.stats.retx_delays_ns.append(delay)
            if self._retx_delay_hist is not None:
                self._retx_delay_hist.observe(delay)
            if self._tracer.enabled:
                self._tracer.instant(self.sim.now, "lg.receiver", "recovered", {
                    "link": self.link_name, "seq": seqno, "era": era,
                    "delay_ns": delay,
                })

    # -- Algorithm 1: de-duplication & in-order recovery ---------------------------

    def _algorithm1(self, packet: Packet, seqno: int, era: int) -> None:
        relation = seq_compare(seqno, era, self._ack_no.value, self._ack_no.era)
        if relation == 0 and not self._draining:
            self._deliver(packet)
            self._ack_no.advance()
            self._drain()
        elif relation >= 0:
            # relation == 0 while a buffered release is in flight: the
            # packet must queue behind it to keep delivery in order.
            key = (era, seqno)
            if key in self._buffer or key in self._gave_up:
                self.stats.duplicates_dropped += 1
                return
            if (
                self._buffer_bytes + packet.size
                > self.config.rx_buffer_capacity_bytes
            ):
                # Reordering-buffer overflow: the loss the transport sees
                # when backpressure is disabled (Figure 9b).
                self.stats.overflow_drops += 1
                if self._tracer.enabled:
                    self._tracer.instant(
                        self.sim.now, "lg.receiver", "overflow_drop",
                        {"link": self.link_name, "seq": seqno, "era": era},
                    )
                return
            self._buffer[key] = packet
            self._buffer_update(packet.size)
        else:
            self.stats.duplicates_dropped += 1

    def _drain(self) -> None:
        """Release consecutive buffered packets, paced at the recirc drain rate."""
        if self._draining:
            return
        while True:
            key = self._key(self._ack_no)
            if key in self._gave_up:
                self._gave_up.discard(key)
                self._ack_no.advance()
                continue
            packet = self._buffer.pop(key, None)
            if packet is None:
                self._check_backpressure()
                if self._buffer and key not in self._missing:
                    # Later packets are buffered but the head-of-line one
                    # is neither in the buffer nor known-missing: it was
                    # dropped by a reordering-buffer overflow.  The
                    # timer-packet-driven ackNoTimeout unsticks ackNo
                    # (§3.5, "Preventing transmission stalls").
                    self._arm_stall_watchdog(key)
                return
            self._ack_no.advance()
            self._draining = True
            self.sim.schedule(
                serialization_ns(packet.size, self.drain_rate_bps),
                self._release, packet,
            )
            return

    def _release(self, packet: Packet) -> None:
        self._draining = False
        self._buffer_update(-packet.size)
        self.stats.recirc_passes += 1
        self._deliver(packet)
        self._drain()

    def _deliver(self, packet: Packet) -> None:
        if packet.kind is PacketKind.LG_RETX:
            packet.kind = PacketKind.DATA
            if self._tracer.enabled:
                # A retransmitted copy is the only delivery that can
                # close a recovery episode.
                self._tracer.instant(
                    self.sim.now, "lg.receiver",
                    "in_order_release" if self.config.ordered
                    else "reordered_release",
                    {"link": self.link_name, "seq": packet.lg.seqno,
                     "era": packet.lg.era})
        packet.size -= LG_HEADER_BYTES
        packet.lg = None
        self.stats.delivered += 1
        self.stats.delivered_bytes += packet.size
        self.forward(packet)

    # -- non-blocking (LinkGuardianNB) delivery ------------------------------------

    def _non_blocking_deliver(self, packet: Packet, seqno: int, era: int) -> None:
        key = (era, seqno)
        if packet.lg.is_retx:
            if self._nb_floor is not None:
                if self.sim.now >= self._nb_floor_expiry_ns:
                    self._nb_floor = None
                elif seq_compare(seqno, era, *self._nb_floor) < 0:
                    # Already delivered in ordered mode before the
                    # fallback switch: a stale in-flight copy.
                    self.stats.duplicates_dropped += 1
                    return
            # First useful retx copy is delivered (out of order); later
            # copies of the same seqNo are de-duplicated.
            if not self._claim_retx(key):
                self.stats.duplicates_dropped += 1
                return
            self.stats.reordered_deliveries += 1
        self._deliver(packet)

    def _claim_retx(self, key: tuple) -> bool:
        """True exactly once per retransmitted seqNo."""
        if key in self._delivered_retx:
            return False
        self._delivered_retx.add(key)
        return True

    # -- ackNoTimeout (transmission-stall prevention, §3.5) --------------------------

    def _ack_no_timeout(self, key: tuple) -> None:
        if key not in self._missing:
            return  # recovered in time
        self._missing.pop(key)
        self.stats.timeouts += 1
        if self._tracer.enabled:
            self._tracer.instant(self.sim.now, "lg.receiver", "ack_no_timeout", {
                "link": self.link_name, "seq": key[1], "era": key[0],
            })
        if not self.config.ordered:
            return
        if key == self._key(self._ack_no):
            # Give up on the lost packet and move on (Algorithm 1's escape).
            self._ack_no.advance()
            self._drain()
        else:
            self._gave_up.add(key)

    def _arm_stall_watchdog(self, key: tuple) -> None:
        if self._stall_key == key:
            return
        self._stall_key = key
        deadline = self.config.quantize_timer(
            self.sim.now + self.config.ack_no_timeout_ns
        )
        self.sim.schedule_at(deadline, self._stall_check, key)

    def _stall_check(self, key: tuple) -> None:
        if self._stall_key != key:
            return  # ackNo moved on; stale watchdog
        self._stall_key = None
        if key == self._key(self._ack_no) and self._buffer:
            self.stats.timeouts += 1
            if self._tracer.enabled:
                self._tracer.instant(self.sim.now, "lg.receiver",
                                     "stall_advance",
                                     {"link": self.link_name,
                                      "seq": key[1], "era": key[0]})
            self._ack_no.advance()
            self._drain()

    # -- backpressure (Algorithm 2) ---------------------------------------------------

    def _buffer_update(self, delta: int) -> None:
        self._buffer_bytes += delta
        self.rx_occupancy.update(self.sim.now, self._buffer_bytes)
        if self._tracer.enabled:
            self._tracer.counter(self.sim.now, "lg.receiver",
                                 "rx_buffer_bytes", self._buffer_bytes)
        self._check_backpressure()

    def _check_backpressure(self) -> None:
        if not (self.config.ordered and self.config.backpressure):
            return
        depth = self._buffer_bytes
        if depth >= self.config.pause_threshold_bytes and not self._paused_sender:
            self._paused_sender = True
            self.stats.pauses_sent += 1
            self._paused_at = self.sim.now
            if self._tracer.enabled:
                self._tracer.begin(self.sim.now, "lg.receiver", "pause",
                                   {"link": self.link_name,
                                    "buffer_bytes": depth})
            self._send_control(self._control_packet(PacketKind.LG_PAUSE))
        elif depth <= self.config.resume_threshold_bytes and self._paused_sender:
            self._paused_sender = False
            self.stats.resumes_sent += 1
            if self._paused_at is not None:
                if self._pause_hist is not None:
                    self._pause_hist.observe(self.sim.now - self._paused_at)
                self._paused_at = None
            if self._tracer.enabled:
                self._tracer.end(self.sim.now, "lg.receiver", "pause",
                                 {"link": self.link_name,
                                  "resume_buffer_bytes": depth})
            self._send_control(self._control_packet(PacketKind.LG_RESUME))

    # -- snapshot / restore ----------------------------------------------------------

    #: what a snapshot captures (:mod:`repro.core.state`): the frontier,
    #: the reordering buffer, outstanding losses — each with its
    #: *detection time*, from which ``restore`` re-arms its ackNoTimeout
    #: — and backpressure.  ``_draining`` is always False in a snapshot.
    STATE = (
        "stats", "_next_rx", "_ack_no", "_missing", "_gave_up", "_buffer",
        "_buffer_bytes", "_draining", "_paused_sender", "_delivered_retx",
        "_nb_floor", "_nb_floor_expiry_ns", "_active", "rx_occupancy",
        "_paused_at",
    )

    def snapshot(self, memo=None):
        """Capture :attr:`STATE`, ``config.ordered`` (the NB fallback
        flips it) and the stall watchdog's key.

        Refused mid-release (``_draining``): the packet being paced out
        lives only in a scheduled callback.
        """
        if self._draining:
            raise SnapshotError(
                f"receiver {self.name!r} is mid-release; snapshot at a "
                f"drain boundary (quiesce first)")
        state = capture(self, memo)
        state["ordered"] = self.config.ordered
        state["stall_key"] = self._stall_key
        return state

    def restore(self, state, memo=None) -> None:
        """Apply a snapshot; re-arms ackNoTimeout + stall timers."""
        apply(self, state, memo)
        self.config.ordered = state["ordered"]
        self._stall_key = None
        # Re-arm plumbing implied by the restored state: one ackNoTimeout
        # per outstanding loss (from its original detection time) and the
        # stall watchdog if one was pending.
        for key, detected in self._missing.items():
            deadline = self.config.quantize_timer(
                detected + self.config.ack_no_timeout_ns)
            self.sim.schedule_at(max(deadline, self.sim.now),
                                 self._ack_no_timeout, key)
        if state["stall_key"] is not None:
            self._arm_stall_watchdog(state["stall_key"])

    # -- reverse direction: ACKs (§3.1) --------------------------------------------------

    def stamp_ack(self, packet: Packet) -> None:
        """Attach the 3-byte ACK header (value refreshed at dequeue)."""
        packet.lg_ack = LgAckHeader()
        packet.size += LG_HEADER_BYTES

    def on_reverse_data(self, packet: Packet) -> None:
        """Egress-handler entry for normal traffic heading back to the sender.

        The 3-byte ACK header is attached here (for byte accounting) and
        its value is refreshed at dequeue time in the egress pipeline.
        """
        self.stamp_ack(packet)
        self.reverse_port.enqueue(packet, self.REVERSE_NORMAL_QUEUE)

    def _make_explicit_ack(self) -> Packet:
        packet = Packet(
            size=self.config.control_frame_bytes,
            kind=PacketKind.LG_ACK,
            src=self.name,
            priority=self.ACK_QUEUE,
        )
        packet.lg_ack = LgAckHeader()
        return packet

    def on_reverse_dequeue(self, packet: Packet, queue_index: int) -> None:
        """Egress-pipeline hook: refresh the ACK value just before the wire."""
        self._on_reverse_dequeue(packet, queue_index)

    def on_reverse_transmit(self, packet: Packet, queue_index: int) -> None:
        """Post-serialization hook: replenish the explicit-ACK queue."""
        self._on_reverse_transmit(packet, queue_index)

    def _on_reverse_dequeue(self, packet: Packet, queue_index: int) -> None:
        if packet.lg_ack is not None:
            packet.lg_ack.ackno = self._next_rx.value
            packet.lg_ack.era = self._next_rx.era

    def _on_reverse_transmit(self, packet: Packet, queue_index: int) -> None:
        if packet.kind is PacketKind.LG_ACK:
            self.ack_loop.transmitted()
