"""Packet-level TCP model: SACK scoreboard, RACK/TLP, RTO, ECN.

This is the endpoint stack the paper's testbed runs (kernel DCTCP /
CUBIC / BBR with SACK and RACK-TLP enabled, RTOmin = 1 ms) reduced to
the mechanisms that determine flow completion times under corruption
loss:

* a **SACK scoreboard** with RFC 6675-style "3 SACKed segments above a
  hole" loss marking;
* **RACK** time-based marking with an adaptive reordering window (this
  is what lets short flows tolerate LinkGuardianNB's out-of-order
  retransmissions — or not, Figure 13);
* a **tail-loss probe** so the last segments of a flow can be recovered
  without a full RTO;
* an **RTO** with RFC 6298 estimation, a 1 ms floor and exponential
  backoff — the 99.9th-percentile FCT killer the paper eliminates;
* per-packet **ECN echo** feeding DCTCP's alpha.

Congestion control is pluggable (:mod:`repro.transport.congestion`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.engine import Event, Simulator
from ..packets.packet import EcnCodepoint, Packet, TcpHeader
from ..units import MS
from .congestion import BbrCC, CongestionControl
from .flow import FlowRecord

__all__ = ["TCP_HEADER_BYTES", "TcpSender", "TcpReceiver"]

#: Ethernet (14+4) + IPv4 (20) + TCP (20) headers per segment frame.
TCP_HEADER_BYTES = 58
#: default MSS giving 1518 B frames, as in the paper's testbed
DEFAULT_MSS = 1460


class _SegmentState:
    __slots__ = ("seq", "length", "last_tx_ns", "tx_count", "sacked", "lost")

    def __init__(self, seq: int, length: int) -> None:
        self.seq = seq
        self.length = length
        self.last_tx_ns = 0
        self.tx_count = 0
        self.sacked = False
        self.lost = False


class TcpSender:
    """One TCP flow's sender endpoint."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        dst: str,
        flow_id: int,
        size_bytes: int,
        cc: Optional[CongestionControl] = None,
        mss: int = DEFAULT_MSS,
        rto_min_ns: int = 1 * MS,
        rwnd_bytes: int = 1_000_000,
        on_complete: Optional[Callable[[FlowRecord], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.dst = dst
        self.mss = mss
        self.cc = cc if cc is not None else CongestionControl(mss=mss)
        self.rto_min_ns = rto_min_ns
        #: receiver-window / socket-buffer cap on the effective window
        self.rwnd_bytes = rwnd_bytes
        self.on_complete = on_complete
        self.flow = FlowRecord(flow_id=flow_id, size_bytes=size_bytes)

        self.snd_una = 0
        self.snd_nxt = 0
        self.segments: Dict[int, _SegmentState] = {}
        self._seq_queue = deque()      # segment seqs in creation order
        self._sacked_bytes = 0
        self._lost_bytes = 0           # RFC 6675 pipe: lost bytes are not in flight
        self._recovery_point = -1      # snd_nxt when the last cut happened
        self._srtt: Optional[int] = None
        self._rttvar = 0
        self._min_rtt: Optional[int] = None
        self._reorder_wnd_ns = 0       # RACK window; adapts upward
        self._reorder_seen = False
        self._rto = sim.timer(self._on_rto)
        self._tlp = sim.timer(self._on_tlp)
        self._rack_event: Optional[Event] = None
        self._backoff = 1
        self._pacing_next_ns = 0
        self._pacing_scheduled = False
        self._tlp_fired = False        # one probe per flight (RFC 8985)
        self._last_delivery_ns: Optional[int] = None  # BBR rate sampler
        self._done = False
        self._newest_sacked_tx: int = -1
        host.register_handler(flow_id, self._on_packet)

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        self.flow.start_ns = self.sim.now
        if self.flow.size_bytes <= 0:
            self._complete()
            return
        self._send_available()

    # -- sending --------------------------------------------------------------------

    def _in_flight(self) -> int:
        # RFC 6675 "pipe": SACKed bytes were delivered, lost bytes are
        # presumed gone — neither occupies the network.
        return (self.snd_nxt - self.snd_una) - self._sacked_bytes - self._lost_bytes

    def _mark_lost(self, segment: _SegmentState) -> None:
        if not segment.lost:
            segment.lost = True
            self._lost_bytes += segment.length

    def _send_available(self) -> None:
        if self._done:
            return
        pacing = self.cc.pacing_rate_bps(self.sim.now)
        window = min(self.cc.cwnd, self.rwnd_bytes)
        # Retransmissions of marked-lost segments take precedence over
        # new data (RFC 6675 NextSeg rule), bounded by cwnd via pipe.
        if self._lost_bytes:
            for seq in sorted(self.segments):
                segment = self.segments[seq]
                if segment.lost and self._in_flight() < window:
                    self._transmit(segment, is_retx=True)
        while self.snd_nxt < self.flow.size_bytes and self._in_flight() < window:
            if pacing is not None and self.sim.now < self._pacing_next_ns:
                self._schedule_pacing()
                return
            length = min(self.mss, self.flow.size_bytes - self.snd_nxt)
            segment = _SegmentState(self.snd_nxt, length)
            self.segments[self.snd_nxt] = segment
            self._seq_queue.append(self.snd_nxt)
            self._transmit(segment)
            self.snd_nxt += length
            if pacing is not None:
                self._pacing_next_ns = self.sim.now + (length + TCP_HEADER_BYTES) * 8 * 10**9 // pacing
        # Window-limited or out of data: the ACK clock re-triggers sending;
        # only a pacing-gated exit (above) schedules a timer retry.

    def _schedule_pacing(self) -> None:
        if self._pacing_scheduled or self._done:
            return
        delay = max(1, self._pacing_next_ns - self.sim.now)
        self._pacing_scheduled = True

        def fire():
            self._pacing_scheduled = False
            self._send_available()

        self.sim.schedule(delay, fire)

    def _transmit(self, segment: _SegmentState, is_retx: bool = False) -> None:
        segment.last_tx_ns = self.sim.now
        segment.tx_count += 1
        if segment.lost:
            segment.lost = False
            self._lost_bytes -= segment.length
        packet = Packet(
            size=segment.length + TCP_HEADER_BYTES,
            src=self.host.name,
            dst=self.dst,
            flow_id=self.flow.flow_id,
            ecn=EcnCodepoint.ECT,
            created_at=self.sim.now,
            tcp=TcpHeader(
                # `or 1`: a timestamp of 0 (flows starting at t=0) would
                # read as "no timestamp option" on the echo.
                seq=segment.seq, payload=segment.length, ts_val=self.sim.now or 1
            ),
        )
        self.flow.packets_sent += 1
        if is_retx:
            self.flow.retransmissions += 1
        self.host.send(packet)
        self._arm_rto()
        self._arm_tlp()

    # -- receiving ACKs -----------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        if self._done or packet.tcp is None or not packet.tcp.is_ack:
            return
        header = packet.tcp
        now = self.sim.now
        if header.ts_ecr:
            self._rtt_sample(now - header.ts_ecr)

        acked = header.ack - self.snd_una
        newly_sacked = self._apply_sack(header.sack_blocks)
        if acked > 0:
            self._advance_una(header.ack)
            self._backoff = 1
            self._tlp_fired = False    # flight advanced: probing re-allowed
        if acked > 0 or newly_sacked > 0:
            rtt = self._srtt if self._srtt is not None else 0
            self.cc.on_ack(max(acked, 0), header.ece, rtt, now)
            if isinstance(self.cc, BbrCC):
                # Delivery-rate sample over the ACK inter-arrival time —
                # robust to self-inflicted queueing delay, unlike srtt.
                if self._last_delivery_ns is not None:
                    interval = now - self._last_delivery_ns
                    self.cc.deliver_sample(
                        max(acked, 0) + newly_sacked, interval, now
                    )
                self._last_delivery_ns = now
        self._detect_losses()
        if self.snd_una >= self.flow.size_bytes:
            self._complete()
            return
        self._arm_rto()
        if self.snd_una < self.snd_nxt:
            self._arm_tlp()  # RFC 8985: the probe timer restarts per ACK
        self._send_available()

    def _rtt_sample(self, rtt: int) -> None:
        if rtt <= 0:
            return
        if self._min_rtt is None or rtt < self._min_rtt:
            self._min_rtt = rtt
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt // 2
        else:
            err = abs(self._srtt - rtt)
            self._rttvar = (3 * self._rttvar + err) // 4
            self._srtt = (7 * self._srtt + rtt) // 8
        if not self._reorder_seen:
            self._reorder_wnd_ns = self._min_rtt // 4

    def _advance_una(self, ackno: int) -> None:
        # Segments are created in increasing-seq order, so the ack frontier
        # pops from the front of the insertion order.
        while self._seq_queue and self._seq_queue[0] + self.segments[self._seq_queue[0]].length <= ackno:
            seq = self._seq_queue.popleft()
            segment = self.segments.pop(seq)
            if segment.sacked:
                self._sacked_bytes -= segment.length
            if segment.lost:
                self._lost_bytes -= segment.length
        self.snd_una = max(self.snd_una, ackno)

    def _apply_sack(self, blocks: Tuple) -> int:
        newly = 0
        for start, end in blocks:
            for seq, segment in self.segments.items():
                if segment.sacked or seq < start or seq + segment.length > end:
                    continue
                if segment.lost and segment.tx_count == 1:
                    # A segment we marked lost was merely reordered.
                    self._reorder_seen = True
                    if self._srtt:
                        self._reorder_wnd_ns = max(self._reorder_wnd_ns, self._srtt)
                segment.sacked = True
                if segment.lost:
                    segment.lost = False
                    self._lost_bytes -= segment.length
                newly += segment.length
                self._sacked_bytes += segment.length
                self._newest_sacked_tx = max(self._newest_sacked_tx, segment.last_tx_ns)
        if newly:
            self.flow.saw_sack = True
            self.flow.sacked_bytes_total += newly
            self.flow.max_sack_burst = max(self.flow.max_sack_burst, self._sacked_bytes)
        return newly

    # -- loss detection (RFC 6675 + RACK) ---------------------------------------------------

    def _detect_losses(self) -> None:
        if self._sacked_bytes == 0:
            return  # no holes: nothing to mark (fast path for clean acks)
        lost_any = False
        earliest_deadline = None
        now = self.sim.now
        sorted_seqs = sorted(self.segments)
        # Suffix sums of SACKed bytes above each segment, O(n) once.
        sacked_above_map = {}
        running = 0
        for seq in reversed(sorted_seqs):
            sacked_above_map[seq] = running
            segment = self.segments[seq]
            if segment.sacked:
                running += segment.length
        for seq in sorted_seqs:
            segment = self.segments[seq]
            if segment.sacked or segment.lost:
                continue
            # Loss marking needs SACK evidence *newer than the segment's
            # last transmission* — otherwise a just-retransmitted segment
            # would be re-marked by every subsequent ACK (retx storm).
            rack_eligible = (
                self._newest_sacked_tx >= segment.last_tx_ns and self._sacked_bytes > 0
            )
            dupack_lost = rack_eligible and sacked_above_map[seq] >= 3 * self.mss
            if dupack_lost:
                self._mark_lost(segment)
                lost_any = True
            elif rack_eligible:
                deadline = segment.last_tx_ns + max(self._reorder_wnd_ns, 1)
                if now >= deadline:
                    self._mark_lost(segment)
                    lost_any = True
                elif earliest_deadline is None or deadline < earliest_deadline:
                    earliest_deadline = deadline
        if earliest_deadline is not None:
            self._arm_rack(earliest_deadline)
        if lost_any:
            self._enter_recovery()
            self._send_available()

    def _enter_recovery(self) -> None:
        if self.snd_una >= self._recovery_point:
            self._recovery_point = self.snd_nxt
            self.cc.on_loss_event(self.sim.now)
            self.flow.cwnd_reductions += 1
            self.flow.pending_bytes_at_reduction = max(
                self.flow.pending_bytes_at_reduction,
                self.flow.size_bytes - self.snd_nxt,
            )

    def _arm_rack(self, deadline: int) -> None:
        if self._rack_event is not None:
            self._rack_event.cancel()
        self._rack_event = self.sim.schedule_at(
            max(deadline, self.sim.now), self._on_rack_timer
        )

    def _on_rack_timer(self) -> None:
        self._rack_event = None
        if not self._done:
            self._detect_losses()

    # -- tail-loss probe ------------------------------------------------------------------------

    #: RFC 8985 §7.5.1 worst-case delayed-ACK allowance: with a single
    #: segment in flight the probe cannot distinguish "ACK delayed" from
    #: "segment lost", so the PTO is padded by WCDelAckT.  In practice
    #: this means a *tail* loss is recovered by the (smaller) RTO, not by
    #: TLP — exactly the pathology the paper measures (§4.5: "for very
    #: short flows RACK-TLP does not have a reliable estimate").
    WCDELACK_NS = 200 * MS

    def _one_unsacked_at_most(self) -> bool:
        """At most one segment in flight unSACKed?  Stops at the second."""
        seen = False
        for segment in self.segments.values():
            if not segment.sacked:
                if seen:
                    return False
                seen = True
        return True

    def _tlp_timeout_ns(self) -> int:
        if self._srtt is None:
            return 2 * self.rto_min_ns
        pto = 2 * self._srtt + max(2 * self._rttvar, 1_000)
        if self._one_unsacked_at_most():
            pto += self.WCDELACK_NS
        return pto

    def _arm_tlp(self) -> None:
        if self._tlp_fired:
            return  # one probe per flight: the RTO takes over from here
        self._tlp.arm(self._tlp_timeout_ns())

    def _on_tlp(self) -> None:
        if self._done or self.snd_una >= self.snd_nxt:
            return
        # Probe with the highest outstanding unSACKed segment.
        candidates = [s for s, seg in self.segments.items() if not seg.sacked]
        if not candidates:
            return
        self._tlp_fired = True
        self._transmit(self.segments[max(candidates)], is_retx=True)

    # -- RTO ---------------------------------------------------------------------------------------

    def _rto_ns(self) -> int:
        if self._srtt is None:
            base = self.rto_min_ns
        else:
            base = max(self.rto_min_ns, self._srtt + 4 * self._rttvar)
        return base * self._backoff

    def _arm_rto(self) -> None:
        if self.snd_una >= self.flow.size_bytes:
            self._rto.cancel()
            return
        self._rto.arm(self._rto_ns())

    def _on_rto(self) -> None:
        if self._done or self.snd_una >= self.snd_nxt:
            return
        self.flow.timeouts += 1
        self._tlp_fired = False
        self._backoff = min(self._backoff * 2, 64)
        self.cc.on_rto(self.sim.now)
        # Go-back: everything outstanding is presumed lost; slow-start
        # retransmission resumes from the front of the scoreboard.
        for segment in self.segments.values():
            if not segment.sacked:
                self._mark_lost(segment)
        self._send_available()
        self._arm_rto()

    # -- completion ------------------------------------------------------------------------------------

    def _complete(self) -> None:
        self._done = True
        self.flow.end_ns = self.sim.now
        self._rto.cancel()
        self._tlp.cancel()
        if self._rack_event is not None:
            self._rack_event.cancel()
        self.host.unregister_handler(self.flow.flow_id)
        if self.on_complete is not None:
            self.on_complete(self.flow)


class TcpReceiver:
    """One TCP flow's receiver endpoint: cumulative ACK + SACK + ECN echo."""

    ACK_SIZE = TCP_HEADER_BYTES + 12  # timestamp + SACK options

    def __init__(self, sim: Simulator, host: "Host", src: str, flow_id: int) -> None:
        self.sim = sim
        self.host = host
        self.src = src
        self.flow_id = flow_id
        self.rcv_nxt = 0
        self.bytes_received = 0
        self._ooo: List[Tuple[int, int]] = []  # sorted disjoint (start, end)
        host.register_handler(flow_id, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        header = packet.tcp
        if header is None or header.is_ack:
            return
        start, end = header.seq, header.seq + header.payload
        self.bytes_received += header.payload
        if start <= self.rcv_nxt:
            self.rcv_nxt = max(self.rcv_nxt, end)
            self._merge_ooo()
        else:
            self._add_ooo(start, end)
        ece = packet.ecn is EcnCodepoint.CE
        self._send_ack(header.ts_val, ece, recent=(start, end))

    def _add_ooo(self, start: int, end: int) -> None:
        # Merge in sorted order — a new range below an existing one must
        # not be swallowed by the running merge.
        merged = []
        for s, e in sorted(self._ooo + [(start, end)]):
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._ooo = merged

    def _merge_ooo(self) -> None:
        while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
            _, e = self._ooo.pop(0)
            self.rcv_nxt = max(self.rcv_nxt, e)

    def _send_ack(self, ts_val: int, ece: bool, recent: Tuple[int, int]) -> None:
        blocks = []
        if self._ooo:
            ordered = sorted(self._ooo, key=lambda r: 0 if r[0] <= recent[0] < r[1] else 1)
            blocks = ordered[:3]
        ack = Packet(
            size=self.ACK_SIZE,
            src=self.host.name,
            dst=self.src,
            flow_id=self.flow_id,
            tcp=TcpHeader(
                is_ack=True,
                ack=self.rcv_nxt,
                ts_ecr=ts_val,
                ece=ece,
                sack_blocks=tuple(blocks),
            ),
        )
        self.host.send(ack)
