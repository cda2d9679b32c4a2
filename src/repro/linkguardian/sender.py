"""LinkGuardian sender-switch logic (paper §3, Appendix A.2).

The sender sits at the egress of the corrupting link.  For every
protected packet it:

* stamps the 3-byte LinkGuardian data header (era'd 16-bit seqNo);
* egress-mirrors a copy into the **Tx buffer**, modelled after the
  Tofino recirculation loop: a buffered copy "comes around" once per
  ``recirc_loop_ns`` and is only then eligible to be retransmitted or
  freed — which is exactly why the paper's measured ReTx delays (2–6 µs,
  Figure 19) dwarf the 123 ns serialization time of an MTU frame.

Reverse-direction packets from the receiver switch carry:

* piggybacked / explicit cumulative ACKs (``next_rx``: everything below
  it was received or accounted for) — the sender frees buffered copies;
* loss notifications — the sender marks ``reTxReqs`` (bounded by the
  number of provisioned 1-bit registers, §3.5) and, when each requested
  copy next comes around the recirculation loop, multicasts ``N`` copies
  into the high-priority retransmission queue (§3.4);
* pause/resume backpressure — the sender pauses *only the normal packet
  queue*, never the retransmission queue (§3.3).

A strictly-lowest-priority self-replenishing **dummy-packet queue**
advertises the sender's send frontier whenever the link would otherwise
go quiet, letting the receiver detect tail losses without any timeout
(§3.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from ..analysis.stats import OccupancyTracker
from ..core.engine import Simulator
from ..obs.spans import NULL_SPANS
from ..obs.trace import NULL_TRACER
from ..packets.packet import LG_HEADER_BYTES, LgDataHeader, Packet, PacketKind
from ..packets.seqno import SeqCounter, seq_compare, seq_distance
from ..switchsim.port import EgressPort
from .config import LinkGuardianConfig
from .replenish import ReplenishLoop

__all__ = ["LgSender", "SenderStats"]


@dataclass
class SenderStats:
    """Counters the evaluation harness reads off a sender."""

    protected: int = 0           # data packets stamped + mirrored
    unprotected: int = 0         # sent without a buffer copy (Tx buffer full)
    retx_events: int = 0         # distinct packets retransmitted
    retx_copies: int = 0         # total copies injected (N per event)
    retx_misses: int = 0         # requested but no longer buffered
    reqs_overflow: int = 0       # losses beyond the reTxReqs registers
    freed: int = 0               # buffer copies freed by ACKs
    dummies_sent: int = 0
    pauses: int = 0
    resumes: int = 0
    recirc_passes: int = 0       # Tx-buffer recirculation loop passes

    def snapshot(self) -> dict:
        return asdict(self)


class _TxEntry:
    __slots__ = ("seqno", "era", "packet", "mirrored_at", "freed")

    def __init__(self, seqno: int, era: int, packet: Packet, mirrored_at: int) -> None:
        self.seqno = seqno
        self.era = era
        self.packet = packet
        self.mirrored_at = mirrored_at
        self.freed = False


class _DummyLoop(ReplenishLoop):
    """The dummy-packet queue (§3.2); ``peer`` is the link's LgReceiver."""

    kind = PacketKind.LG_DUMMY

    def __init__(self, sender: "LgSender") -> None:
        super().__init__(
            sender.sim, sender.config, sender.port, sender.DUMMY_QUEUE,
            hooks=(sender._on_dequeue, sender._on_transmit),
            copies=sender.config.dummy_copies)
        self.sender = sender

    def make_frame(self) -> Packet:
        return self.sender._make_dummy()

    def wanted(self) -> bool:
        return self.sender._active and self.config.tail_loss_detection

    def count_sent(self, n: int) -> None:
        self.sender.stats.dummies_sent += n

    def carries_news(self) -> bool:
        # a frontier the receiver already expects detects no gap
        return self.sender.send_frontier != self.peer.next_rx

    def count_landed(self, n: int) -> None:
        self.peer.stats.dummies_seen += n

    def lands_quietly(self, packet: Packet) -> bool:
        # a frontier the receiver has reached detects no gap
        if packet.kind is not PacketKind.LG_DUMMY:
            return False
        frontier = packet.meta.get("lg_frontier")
        if frontier is None:
            return True
        era, value = self.peer.next_rx
        return seq_distance(frontier[1], frontier[0], value, era) <= 0


class LgSender:
    """Protocol endpoint on the sender switch for one protected link."""

    # Queue layout on the protected egress port (strict priority order).
    RETX_QUEUE = 0
    NORMAL_QUEUE = 1
    DUMMY_QUEUE = 2

    def __init__(
        self,
        sim: Simulator,
        config: LinkGuardianConfig,
        port: EgressPort,
        n_copies: int,
        forward_reverse: Optional[Callable[[Packet], None]] = None,
        name: str = "lg-sender",
        phase_rng=None,
        manage_port_hooks: bool = True,
        obs=None,
        span_scope: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.port = port
        self.n_copies = max(1, int(n_copies))
        self.forward_reverse = forward_reverse
        self.name = name
        self.stats = SenderStats()
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self._spans = getattr(obs, "spans", NULL_SPANS) if obs is not None \
            else NULL_SPANS
        #: correlation scope for causal spans: the forward link's name
        #: (the link opens the episode root under that scope).
        self.span_scope = span_scope if span_scope is not None else name
        self._pause_span = None
        self._pause_hist = None
        self._paused_at: Optional[int] = None
        if obs is not None:
            obs.registry.register_provider(f"lg.sender.{name}", self.obs_snapshot)
            self._pause_hist = obs.registry.histogram(f"lg.sender.{name}.pause_ns")

        self._seq = SeqCounter()
        self._acked_next = (0, 0)          # receiver's next expected (value, era)
        self._buffer: deque = deque()      # _TxEntry in seq order
        self._entries = {}                 # (era, seq) -> _TxEntry
        self._buffer_bytes = 0
        self._requested = set()            # (era, seq) pending retransmission
        #: randomizes each buffered copy's recirculation-loop phase: the
        #: loop is not synchronized to packet arrivals in hardware, so the
        #: wait until a copy next "comes around" is uniform over the loop.
        self._phase_rng = phase_rng
        self.tx_occupancy = OccupancyTracker(sim.now)
        self._active = True

        if manage_port_hooks:
            port.on_transmit = self._on_transmit
            port.on_dequeue = self._on_dequeue
        #: the self-replenishing dummy queue; primed on activation — a
        #: dormant LinkGuardian sends nothing and costs nothing (§3)
        self.dummy_loop = _DummyLoop(self)

    # -- activation -----------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    def deactivate(self) -> None:
        """Stop protecting new packets (corruptd turned LinkGuardian off)."""
        self._active = False

    def seed_sequence(self, value: int, era: int = 0) -> None:
        """Start the seqNo space at ``value`` instead of 0.

        Conformance-check scenarios use this to place a run right before
        the 16-bit wrap so the era-bit machinery (§3.5) is exercised in a
        few hundred packets instead of 65k.  Must be called before any
        packet is stamped; the receiver must be seeded to match.
        """
        if self.stats.protected:
            raise RuntimeError("seed_sequence after packets were stamped")
        self._seq = SeqCounter(value, era)
        self._acked_next = (value, era)

    def activate(self, n_copies: Optional[int] = None) -> None:
        if n_copies is not None:
            self.n_copies = max(1, int(n_copies))
        self._active = True
        if self.config.tail_loss_detection:
            self.dummy_loop.prime()

    # -- forward datapath ------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Egress-handler entry: a data packet heading onto the protected link.

        The packet is only *marked* for protection here; the seqNo is
        assigned and the Tx-buffer copy mirrored in the egress pipeline
        when the frame is dequeued for serialization (``_stamp``) — so
        the advertised send frontier never runs ahead of the wire.
        """
        if self._active:
            packet.meta["lg_protect"] = True
            packet.size += LG_HEADER_BYTES
        self.port.enqueue(packet, self.NORMAL_QUEUE)

    def _stamp(self, packet: Packet) -> None:
        """Egress-pipeline work: assign the seqNo and egress-mirror a copy."""
        packet.meta.pop("lg_protect", None)
        assigned = self._seq.next()
        packet.lg = LgDataHeader(seqno=assigned.value, era=assigned.era)
        self.stats.protected += 1
        if (
            self._buffer_bytes + packet.size
            <= self.config.tx_buffer_capacity_bytes
        ):
            self._mirror(packet, assigned)
        else:
            self.stats.unprotected += 1

    def _mirror(self, packet: Packet, assigned: SeqCounter) -> None:
        copy = packet.copy()
        mirrored_at = self.sim.now
        if self._phase_rng is not None:
            mirrored_at -= int(self._phase_rng.integers(0, self.config.recirc_loop_ns))
        entry = _TxEntry(assigned.value, assigned.era, copy, mirrored_at)
        self._buffer.append(entry)
        self._entries[(assigned.era, assigned.value)] = entry
        self._buffer_bytes += copy.size
        self.tx_occupancy.update(self.sim.now, self._buffer_bytes)

    # -- reverse datapath ------------------------------------------------------

    def on_reverse_packet(self, packet: Packet) -> None:
        """Ingress-handler entry for frames arriving from the receiver switch."""
        if packet.lg_ack is not None:
            self._process_ack(packet.lg_ack.ackno, packet.lg_ack.era)
        if packet.kind is PacketKind.LG_ACK:
            return  # explicit ACK: consumed entirely
        if packet.kind is PacketKind.LG_LOSS_NOTIF:
            self._process_loss_notification(packet)
            return
        if packet.kind is PacketKind.LG_PAUSE:
            if not self.port.is_paused(self.NORMAL_QUEUE):
                self.stats.pauses += 1
                self.port.pause(self.NORMAL_QUEUE)
                self._paused_at = self.sim.now
                if self._tracer.enabled:
                    self._tracer.begin(self.sim.now, "lg.sender", "pause",
                                       {"link": self.name})
                if self._spans.enabled:
                    episode = self._spans.current(self.span_scope)
                    self._pause_span = self._spans.begin(
                        self.sim.now, "lg.sender", "pause", parent=episode,
                        args={"link": self.name})
            return
        if packet.kind is PacketKind.LG_RESUME:
            if self.port.is_paused(self.NORMAL_QUEUE):
                self.stats.resumes += 1
                self.port.resume(self.NORMAL_QUEUE)
                if self._paused_at is not None:
                    if self._pause_hist is not None:
                        self._pause_hist.observe(self.sim.now - self._paused_at)
                    self._paused_at = None
                if self._tracer.enabled:
                    self._tracer.end(self.sim.now, "lg.sender", "pause",
                                     {"link": self.name})
                if self._pause_span is not None:
                    self._spans.end(self._pause_span, self.sim.now)
                    self._pause_span = None
            return
        # Normal reverse traffic: strip the piggybacked ACK header and
        # hand the packet back to the switch pipeline.
        if packet.lg_ack is not None:
            packet.size -= LG_HEADER_BYTES
            packet.lg_ack = None
        if self.forward_reverse is not None:
            self.forward_reverse(packet)

    def _process_ack(self, ackno: int, era: int) -> None:
        if seq_compare(ackno, era, self._acked_next[0], self._acked_next[1]) > 0:
            self._acked_next = (ackno, era)
            self._sweep()

    def _process_loss_notification(self, packet: Packet) -> None:
        missing = packet.meta.get("lg_missing", ())
        for index, key in enumerate(missing):
            if index >= self.config.max_consecutive_retx:
                # More consecutive losses than reTxReqs registers: the
                # hardware cannot record them; the receiver will time out.
                self.stats.reqs_overflow += 1
                continue
            self._requested.add(key)
        next_rx = packet.meta.get("lg_next_rx")
        if next_rx is not None:
            self._process_ack(next_rx[1], next_rx[0])
        else:
            self._sweep()

    # -- Tx buffer sweep (the recirculation loop) ------------------------------

    def _sweep(self) -> None:
        """Free or retransmit buffered copies the receiver has accounted for."""
        ack_val, ack_era = self._acked_next
        while self._buffer:
            entry = self._buffer[0]
            if seq_compare(entry.seqno, entry.era, ack_val, ack_era) >= 0:
                break
            self._buffer.popleft()
            key = (entry.era, entry.seqno)
            self._entries.pop(key, None)
            self._account_passes(entry)
            if key in self._requested:
                self._requested.discard(key)
                self._schedule_retx(entry)
            else:
                entry.freed = True
                self._buffer_bytes -= entry.packet.size
                self.stats.freed += 1
                self.tx_occupancy.update(self.sim.now, self._buffer_bytes)

    def _account_passes(self, entry: _TxEntry) -> None:
        residence = self.sim.now - entry.mirrored_at
        self.stats.recirc_passes += 1 + residence // self.config.recirc_loop_ns

    def _schedule_retx(self, entry: _TxEntry) -> None:
        """Retransmit when the copy next comes around the recirculation loop."""
        loop = self.config.recirc_loop_ns
        since_mirror = self.sim.now - entry.mirrored_at
        wait = (-since_mirror) % loop
        self.sim.schedule(wait, self._fire_retx, entry)

    def _fire_retx(self, entry: _TxEntry) -> None:
        entry.freed = True
        self._buffer_bytes -= entry.packet.size
        self.tx_occupancy.update(self.sim.now, self._buffer_bytes)
        self.stats.retx_events += 1
        if self._tracer.enabled:
            self._tracer.instant(self.sim.now, "lg.sender", "retx_fire", {
                "seq": entry.seqno, "era": entry.era, "copies": self.n_copies,
            })
        if self._spans.enabled:
            episode = self._spans.lookup(
                (self.span_scope, entry.era, entry.seqno))
            if episode is not None:
                self._spans.event(
                    self.sim.now, "lg.sender", "retx_fire", parent=episode,
                    args={"seq": entry.seqno, "era": entry.era,
                          "copies": self.n_copies})
        for _ in range(self.n_copies):
            copy = entry.packet.copy()
            copy.kind = PacketKind.LG_RETX
            copy.lg.is_retx = True
            self.stats.retx_copies += 1
            self.port.enqueue(copy, self.RETX_QUEUE)

    # -- dummy-packet queue (§3.2) ----------------------------------------------

    def _make_dummy(self) -> Packet:
        return Packet(
            size=self.config.control_frame_bytes,
            kind=PacketKind.LG_DUMMY,
            src=self.name,
            priority=self.DUMMY_QUEUE,
        )

    def on_port_dequeue(self, packet: Packet, queue_index: int) -> None:
        """Egress-pipeline hook: stamp seqNos / dummy frontiers."""
        self._on_dequeue(packet, queue_index)

    def on_port_transmit(self, packet: Packet, queue_index: int) -> None:
        """Post-serialization hook: replenish the dummy queue."""
        self._on_transmit(packet, queue_index)

    def _on_dequeue(self, packet: Packet, queue_index: int) -> None:
        if packet.meta.get("lg_protect"):
            self._stamp(packet)
        elif packet.kind is PacketKind.LG_DUMMY:
            # Stamp the send frontier in the egress pipeline, so the value
            # is fresh even if the dummy waited behind normal traffic.
            packet.meta["lg_frontier"] = (self._seq.era, self._seq.value)

    def _on_transmit(self, packet: Packet, queue_index: int) -> None:
        if packet.kind is PacketKind.LG_DUMMY:
            self.dummy_loop.transmitted()

    # -- snapshot / restore -------------------------------------------------------

    def snapshot(self):
        """Capture protocol state for mid-run materialization.

        Captures the seqNo space, the Tx buffer (packet copies + mirror
        times), outstanding ``reTxReqs`` and counters.  Pending
        ``_fire_retx`` events are scheduled-event plumbing and are *not*
        captured — take snapshots at data-quiescent points (empty
        ``_requested``, no retx in flight); :mod:`repro.fastpath.splice`
        quiesces before snapshotting.
        """
        from ..core.state import SenderState, SeqState, TxEntryState, rng_state
        return SenderState(
            stats=self.stats.snapshot(),
            seq=SeqState(value=self._seq.value, era=self._seq.era),
            acked_next=tuple(self._acked_next),
            n_copies=self.n_copies,
            active=self._active,
            buffer=[
                TxEntryState(seqno=entry.seqno, era=entry.era,
                             packet=entry.packet.copy(),
                             mirrored_at=entry.mirrored_at)
                for entry in self._buffer
            ],
            requested=sorted(self._requested),
            buffer_bytes=self._buffer_bytes,
            occupancy=self.tx_occupancy.snapshot_state(),
            paused_at=self._paused_at,
            phase_rng=rng_state(self._phase_rng) if self._phase_rng is not None
            else None,
        )

    def restore(self, state) -> None:
        """Materialize captured protocol state into this (fresh) sender."""
        from ..core.state import (
            SenderState, check_version, rng_restore,
        )
        check_version(state, SenderState)
        for field_name, value in state.stats.items():
            setattr(self.stats, field_name, value)
        self._seq = SeqCounter(state.seq.value, state.seq.era)
        self._acked_next = tuple(state.acked_next)
        self.n_copies = state.n_copies
        self._active = state.active
        self._buffer = deque()
        self._entries = {}
        for entry_state in state.buffer:
            entry = _TxEntry(entry_state.seqno, entry_state.era,
                             entry_state.packet.copy(),
                             entry_state.mirrored_at)
            self._buffer.append(entry)
            self._entries[(entry.era, entry.seqno)] = entry
        self._requested = {tuple(key) for key in state.requested}
        self._buffer_bytes = state.buffer_bytes
        self.tx_occupancy.restore_state(state.occupancy)
        self._paused_at = state.paused_at
        if state.phase_rng is not None and self._phase_rng is not None:
            rng_restore(self._phase_rng, state.phase_rng)

    # -- introspection ------------------------------------------------------------

    def obs_snapshot(self) -> dict:
        snap = self.stats.snapshot()
        snap["buffer_bytes"] = self._buffer_bytes
        snap["buffer_packets"] = len(self._buffer)
        snap["active"] = self._active
        return snap

    @property
    def buffer_bytes(self) -> int:
        return self._buffer_bytes

    @property
    def buffer_packets(self) -> int:
        return len(self._buffer)

    @property
    def acked_next(self) -> tuple:
        """(era, value): the receiver's ``next_rx`` as last ACKed here."""
        return (self._acked_next[1], self._acked_next[0])

    @property
    def send_frontier(self) -> tuple:
        """(era, next unassigned seqno) — what the next packet would get."""
        return (self._seq.era, self._seq.value)
