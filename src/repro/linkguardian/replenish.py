"""The self-replenishing low-priority queue (paper §3.1, §3.2).

LinkGuardian keeps one minimum-size frame circulating through the
lowest-priority queue of each direction's egress port: *dummy packets*
on the sender switch advertise the send frontier so the receiver detects
tail losses without a timeout, *explicit ACKs* on the receiver switch
carry the cumulative ACK when no reverse traffic is there to piggyback
it.  Egress mirroring puts a replacement into the queue
``replenish_delay_ns`` after each one leaves, so a quiet link sees one
64 B frame per ~1 µs per direction, forever.

:class:`ReplenishLoop` is that loop, once, for both endpoints.  It owns
the frames it has in the port and — through the simulator's idle-loop
registry — its pending replenish events, so :meth:`prime` never doubles
a loop that is already turning.

**Idle loops coast** (DESIGN §5a).  On a quiet link every such frame is
pure bookkeeping: it bumps counters at both ends and tells the far end
nothing it does not know.  When the loop's own replenish event fires and
that is provably so (:meth:`coastable`), the loop books every cycle
whose last bit leaves before anything else in the simulation can happen
(``Simulator.idle_horizon``) in one step — queue, port, link and
endpoint counters, the loss process's draws — and schedules its next
replenish after them: no frame object, no serialization or landing
event.  A frame still in flight at the horizon keeps its landing (wire
and pipeline are one event, ``Simulator.schedule_via``), so every
counter is right at every handler.  Anything that wants to see frames —
a ``Link.tap``, an enabled tracer, an attached ``Observability``,
foreign port hooks — pins the per-frame path, event for event.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from ..core.engine import Simulator
from ..packets.packet import Packet
from ..switchsim.port import EgressPort
from ..units import serialization_ns
from .config import LinkGuardianConfig

__all__ = ["ReplenishLoop"]


class ReplenishLoop:
    """One self-replenishing queue; the endpoint subclasses it to say
    what a frame is, when the loop should turn and what to count."""

    def __init__(
        self,
        sim: Simulator,
        config: LinkGuardianConfig,
        port: EgressPort,
        queue_index: int,
        hooks: tuple,
        copies: int = 1,
    ) -> None:
        self.sim = sim
        self.config = config
        self.port = port
        self.queue_index = queue_index
        #: the endpoint's own ``(on_dequeue, on_transmit)``: coasting
        #: stands in for them, so they must be what the port calls
        self._hooks = hooks
        #: frames kept circulating
        self.copies = copies
        #: frames of this loop queued or on the serializer
        self._frames = 0
        #: the far endpoint, once ``couple`` wired it; None never coasts
        self.peer = None
        self._wire_ns = 0
        self._pipeline_ns = 0

    # -- what the endpoint supplies ---------------------------------------------

    #: the :class:`~repro.packets.packet.PacketKind` of this loop's frames
    kind = None

    def make_frame(self) -> Packet:
        raise NotImplementedError

    def wanted(self) -> bool:
        """Should a transmitted frame be replaced?"""
        raise NotImplementedError

    def count_sent(self, n: int) -> None:
        raise NotImplementedError

    def carries_news(self) -> bool:
        """Would a frame dequeued now change anything at ``peer``?  Only
        called once coupled.  What it compares against only grows, so a
        frame that is a no-op at dequeue is one on arrival."""
        raise NotImplementedError

    def count_landed(self, n: int) -> None:
        """``n`` no-op frames reached ``peer``'s ingress handler."""

    def lands_quietly(self, packet: Packet) -> bool:
        """Is ``packet``, arriving at ``peer``'s ingress handler, one of
        this loop's frames (already stamped on the wire) that changes
        nothing there but a counter?  Only called once coupled."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------------

    def couple(self, peer, wire_ns: int, pipeline_ns: int,
               landing) -> None:
        """Name the endpoint these frames land on, ``wire_ns`` after the
        last bit leaves plus ``pipeline_ns`` in its ingress pipeline,
        where the pipeline calls ``landing(frame)``.  A quiet frame's
        pending landing is idle chatter to ``Simulator.idle_horizon``."""
        self.peer = peer
        self._wire_ns = int(wire_ns)
        self._pipeline_ns = int(pipeline_ns)
        self.sim.idle_landing(landing, self.lands_quietly)

    def prime(self) -> None:
        """Start the loop, or top it up to ``copies``: a frame it still
        has in the port, or a replenish still pending, is not doubled."""
        turning = self._frames + self.sim.idle_pending(self)
        for _ in range(self.copies - turning):
            self._send()

    def restored(self, queued: Iterable[Packet]) -> None:
        """A snapshot was materialized into this (fresh) link and
        ``queued`` came back in the port's lowest-priority queue: adopt
        the loop's own frames among them, then prime."""
        self._frames = sum(1 for packet in queued if packet.kind is self.kind)
        self.prime()

    def transmitted(self) -> None:
        """The endpoint's ``on_transmit`` hook saw one of our frames leave."""
        self._frames -= 1
        self.count_sent(1)
        if self.wanted():
            # Egress mirroring puts a replacement back after one trip
            # through the mirror path.
            self.sim.schedule_idle(self.config.replenish_delay_ns, self)

    def _send(self) -> None:
        self._frames += 1
        self.port.enqueue(self.make_frame(), self.queue_index)

    # -- the replenish event ----------------------------------------------------------

    def coastable(self) -> bool:
        """Is the next frame pure bookkeeping, with nothing watching?

        Also asked by ``Simulator.idle_horizon`` on behalf of *other*
        loops, which look past this one's pending replenish while it
        holds (the two loops of a link start phase-aligned; without that
        each would pin the other to the per-frame path) — as they look
        past the landing of its frames in flight while
        :meth:`lands_quietly` holds (after a recovery the loops can be
        half a cycle apart, each landing just after the other decides).
        """
        port = self.port
        return (
            self.peer is not None
            and self.copies == 1
            and port.idle
            and not port.is_paused(self.queue_index)
            and self.wanted()
            and port.on_dequeue == self._hooks[0]
            and port.on_transmit == self._hooks[1]
            and port.link.unobserved
            and not self.carries_news()
        )

    def replenish(self) -> None:
        """The loop's own event: a replacement frame is due.

        Coasting is decided here and nowhere else.  The successor
        replenish is then allocated *earlier* than the per-frame path
        would allocate it, with only this loop's events in between, so
        its ``(time, seq)`` order against every other event is the
        per-frame one; a loop re-materialized by a later wake-up would
        get a later ``seq`` and flip same-nanosecond ties.
        """
        if self.coastable():
            sim = self.sim
            size = self.config.control_frame_bytes
            ser_ns = serialization_ns(size, self.port.rate_bps)
            first_out = sim.now + ser_ns
            horizon = sim.idle_horizon()
            if first_out < horizon:
                period = ser_ns + self.config.replenish_delay_ns
                # cycles whose last bit leaves strictly before the horizon
                cycles = -((first_out - horizon) // period)
                self._coast(cycles, size, first_out, period, horizon)
                return
        self._send()

    def _coast(self, cycles: int, size: int, first_out: int, period: int,
               horizon: int) -> None:
        sim = self.sim
        lost = self.port.transmit_idle(
            self.queue_index, cycles, size, self._frame_on_wire)
        self.count_sent(cycles)
        # Of those, the frames that also land before the horizon are
        # booked at the far end now ...
        flight_ns = self._wire_ns + self._pipeline_ns
        landed = min(cycles, max(
            0, -((first_out + flight_ns - horizon) // period)))
        delivered = landed - bisect_left(lost, landed)
        if delivered:
            self.count_landed(delivered)
        # ... and one still in flight keeps its landing, keyed where the
        # per-frame path keys it: caused at its arrival, with a seq
        # allocated ahead of the successor replenish.
        for index in range(landed, cycles):
            if index not in lost:
                sim.schedule_via(
                    first_out + index * period + self._wire_ns - sim.now,
                    self._pipeline_ns, self._land)
        # elided: every enqueue but this event, every serializer finish,
        # and the landings booked above
        sim.events_elided += 2 * cycles - 1 + delivered
        sim.schedule_idle(cycles * period, self)

    def _frame_on_wire(self) -> Packet:
        """A coasted frame as the wire would have carried it."""
        frame = self.make_frame()
        self.port.on_dequeue(frame, self.queue_index)
        return frame

    def _land(self) -> None:
        self.count_landed(1)
