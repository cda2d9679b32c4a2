"""Unidirectional link with corruption injection.

A :class:`Link` carries already-serialized frames from an egress port to
its :class:`Ingress` — what runs at the receiving end, and how long
after the last bit lands.  Corruption (per the attached loss process)
drops a frame at the receiving MAC, exactly as an FCS failure would: the
frame still consumed wire time and still shows up in ``framesRxAll``,
but never reaches the ingress pipeline.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from ..core.engine import Simulator
from ..obs.trace import NULL_TRACER
from ..packets.packet import Packet
from ..phy.loss import LossProcess, NoLoss
from .counters import PortCounters

__all__ = ["Ingress", "Link"]


class Ingress:
    """The receiving end of a link: ``handler(frame)`` runs
    ``delay_ns`` after the frame's last bit lands — a switch port's
    ingress pipeline, a host's stack, or nothing at all.

    Mutable, so a protocol can take over a port's ingress after the
    cable is built (LinkGuardian rebinds ``handler``).
    """

    __slots__ = ("delay_ns", "handler")

    def __init__(self, delay_ns: int, handler: Callable[[Packet], None]) -> None:
        self.delay_ns = int(delay_ns)
        self.handler = handler


class Link:
    """One direction of a switch-to-switch (or host-to-switch) cable."""

    def __init__(
        self,
        sim: Simulator,
        propagation_ns: int,
        receiver: Union[Ingress, Callable[[Packet], None]],
        loss: Optional[LossProcess] = None,
        name: str = "",
        obs=None,
    ) -> None:
        self.sim = sim
        self.propagation_ns = int(propagation_ns)
        #: where frames land; a plain callable is called on arrival
        self.ingress = (receiver if isinstance(receiver, Ingress)
                        else Ingress(0, receiver))
        self.loss = loss if loss is not None else NoLoss()
        self.name = name
        self.rx_counters = PortCounters()
        #: optional hook observing (packet, corrupted) for every frame —
        #: while set, every frame is really transmitted (``unobserved``)
        self.tap: Optional[Callable[[Packet, bool], None]] = None
        #: optional hook called with each frame the receiving MAC drops,
        #: and with nothing else: unlike ``tap`` it does not ask to see
        #: clean frames, so idle control frames may still be booked in
        #: bulk (``transmit_idle``)
        self.on_corrupt: Optional[Callable[[Packet], None]] = None
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        if obs is not None and name:
            obs.registry.register_provider(f"link.{name}", self.obs_snapshot)

    def obs_snapshot(self) -> dict:
        snap = self.rx_counters.snapshot()
        snap["corruption_drops"] = (
            self.rx_counters.frames_rx_all - self.rx_counters.frames_rx_ok
        )
        snap["rx_loss_rate"] = self.rx_counters.rx_loss_rate
        return snap

    #: what a snapshot captures (:mod:`repro.core.state`): the RX
    #: counters.  Not the loss process (a restored world keeps the one it
    #: was built with) nor frames on the wire (scheduled callbacks).
    STATE = ("rx_counters",)

    def set_loss(self, loss: Optional[LossProcess]) -> None:
        """Swap the corruption process at runtime (VOA dial, link repair)."""
        self.loss = loss if loss is not None else NoLoss()

    def transmit(self, packet: Packet) -> None:
        """Called by the egress port when the last bit leaves the sender."""
        corrupted = self.loss.corrupts(packet)
        if self.tap is not None:
            self.tap(packet, corrupted)
        self.rx_counters.record_rx(packet.size, ok=not corrupted)
        if corrupted:
            if self.on_corrupt is not None:
                self.on_corrupt(packet)
            if self._tracer.enabled:
                self._trace_drop(packet)
            return  # dropped by the receiving MAC
        # wire and ingress latency are one event (Simulator.schedule_via)
        ingress = self.ingress
        self.sim.schedule_via(self.propagation_ns, ingress.delay_ns,
                              ingress.handler, packet)

    @property
    def unobserved(self) -> bool:
        """May idle control frames be booked in bulk (``transmit_idle``)?
        Not while a ``tap`` or an enabled tracer wants to see every
        frame, nor when the loss process has to."""
        return (self.tap is None and not self._tracer.enabled
                and self.loss.corrupts_idle(0) is not None)

    def transmit_idle(self, n: int, size: int,
                      frame: Callable[[], Packet]) -> List[int]:
        """``n`` calls of :meth:`transmit` for header-less control
        frames of ``size`` bytes on an :attr:`unobserved` link: the loss
        process draws for all of them at once and the RX counters move;
        nothing is delivered — the caller knows what arriving would do.

        Returns the sorted 0-based indices of the corrupted frames;
        ``frame()`` builds one for ``on_corrupt``, which is told *what*
        was lost, ahead of *when*.
        """
        lost = self.loss.corrupts_idle(n)
        counters = self.rx_counters
        ok = n - len(lost)
        counters.frames_rx_all += n
        counters.frames_rx_ok += ok
        counters.bytes_rx_ok += ok * size
        if lost and self.on_corrupt is not None:
            for _ in lost:
                self.on_corrupt(frame())
        return lost

    def _trace_drop(self, packet: Packet) -> None:
        """A corrupted LG original opens a recovery episode keyed by
        ``(link, era, seq)``; a corrupted retransmission copy joins it as
        ``retx_drop`` (see :data:`repro.obs.spans.EPISODE_EVENTS`)."""
        lg = packet.lg
        if lg is None:
            name, args = "corruption_drop", {
                "link": self.name, "size": packet.size, "seq": None}
        elif lg.is_retx:
            name, args = "retx_drop", {
                "link": self.name, "seq": lg.seqno, "era": lg.era}
        else:
            name, args = "corruption_drop", {
                "link": self.name, "seq": lg.seqno, "size": packet.size,
                "era": lg.era}
        self._tracer.instant(self.sim.now, "link", name, args)
