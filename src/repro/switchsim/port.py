"""Strict-priority egress port.

An :class:`EgressPort` owns an ordered list of queues (index 0 drains
first) and serializes one frame at a time onto its link.  Individual
queues can be paused and resumed — the PFC-style primitive LinkGuardian's
backpressure uses to throttle only the *normal packet queue* while
letting retransmissions through (paper §3.3/§3.5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.engine import Simulator
from ..core.state import apply
from ..packets.packet import Packet
from ..units import serialization_ns
from .counters import PortCounters
from .link import Link
from .queues import Queue

__all__ = ["EgressPort"]


class EgressPort:
    """Serializes frames from strict-priority queues onto a link."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: int,
        link: Link,
        queues: Optional[List[Queue]] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.rate_bps = int(rate_bps)
        self.link = link
        self.queues: List[Queue] = queues if queues is not None else [Queue()]
        self.name = name
        self.tx_counters = PortCounters()
        self._paused = [False] * len(self.queues)
        self._busy = False
        #: frame size -> serialization time at this port's (fixed) rate
        self._serialization_ns: Dict[int, int] = {}
        self._residence_hist = None   # set by attach_obs
        #: hook called as on_transmit(packet, queue_index) when a frame's
        #: last bit leaves — LinkGuardian uses it for egress mirroring
        #: (Tx-buffer copies, self-replenishing ACK/dummy queues).
        self.on_transmit: Optional[Callable[[Packet, int], None]] = None
        #: hook called as on_dequeue(packet, queue_index) the instant a
        #: frame is pulled for serialization — the egress-pipeline point
        #: where LinkGuardian stamps fresh ACK/dummy header values.
        self.on_dequeue: Optional[Callable[[Packet, int], None]] = None

    # -- observability -------------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Register this port's counters/queues with a metrics registry.

        Also starts timing queue residence (enqueue -> dequeue) into a
        per-port nanosecond histogram.  Without this call the datapath
        carries no instrumentation cost at all.
        """
        prefix = f"port.{self.name or hex(id(self))}"
        self._residence_hist = obs.registry.histogram(f"{prefix}.queue_residence_ns")
        obs.registry.register_provider(prefix, self.snapshot)

    def snapshot(self) -> dict:
        return {
            "tx": self.tx_counters.snapshot(),
            "busy": self._busy,
            "queues": {
                queue.name or str(index): queue.snapshot()
                for index, queue in enumerate(self.queues)
            },
        }

    # -- snapshot / restore --------------------------------------------------

    #: what a snapshot captures (:mod:`repro.core.state`).  The
    #: serializer (``_busy`` + the in-flight frame's ``_finish`` event)
    #: is plumbing: snapshot between frames or while the frame on it is
    #: expendable (dummies, stale control).
    STATE = ("_paused", "tx_counters", "queues")

    def restore(self, state, memo=None) -> None:
        """Apply a snapshot, then re-kick the serializer from queue content."""
        apply(self, state, memo)
        self._busy = False
        self._kick()

    # -- queue management ---------------------------------------------------

    def enqueue(self, packet: Packet, queue_index: int = 0) -> bool:
        """Push into a queue and kick the serializer.  False on tail drop."""
        if not self.queues[queue_index].push(packet):
            return False
        if self._residence_hist is not None:
            packet.meta["_obs_enq_ns"] = self.sim.now
        if not self._busy:
            self._kick()
        return True

    def pause(self, queue_index: int) -> None:
        """PFC-style pause: the queue stops draining at a frame boundary."""
        self._paused[queue_index] = True

    def resume(self, queue_index: int) -> None:
        if self._paused[queue_index]:
            self._paused[queue_index] = False
            self._kick()

    def is_paused(self, queue_index: int) -> bool:
        return self._paused[queue_index]

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def idle(self) -> bool:
        """Nothing on the serializer, nothing queued (paused or not) and
        no residence histogram waiting to time each frame."""
        if self._busy or self._residence_hist is not None:
            return False
        for queue in self.queues:
            if queue._fifo:
                return False
        return True

    def transmit_idle(self, queue_index: int, n: int, size: int,
                      frame: Callable[[], Packet]) -> List[int]:
        """Book ``n`` header-less control frames of ``size`` bytes, each
        enqueued into the :attr:`idle` port, serialized and put on the
        (``unobserved``) wire before the next: queue, TX and the link's
        RX counters move as ``n`` trips through ``enqueue``/``_finish``
        would move them, with no frame object and no event.  The port's
        hooks are not called — the caller owns them.  Returns what
        :meth:`Link.transmit_idle` does.
        """
        self.queues[queue_index].pass_idle(n, size)
        counters = self.tx_counters
        counters.frames_tx += n
        counters.bytes_tx += n * size
        return self.link.transmit_idle(n, size, frame)

    # -- serializer ----------------------------------------------------------

    def _kick(self) -> None:
        """Start serializing the first frame of the highest-priority
        queue that is neither empty nor paused, if the port is idle."""
        if self._busy:
            return
        paused = self._paused
        index = 0
        for queue in self.queues:
            # the deque's own truthiness: len(queue) is a Python call
            if queue._fifo and not paused[index]:
                break
            index += 1
        else:
            return
        self._busy = True
        packet = queue.pop()
        hist = self._residence_hist
        if hist is not None:
            enqueued_at = packet.meta.pop("_obs_enq_ns", None)
            if enqueued_at is not None:
                hist.observe(self.sim.now - enqueued_at)
        hook = self.on_dequeue
        if hook is not None:
            hook(packet, index)
        size = packet.size   # read after the hook: it may add a header
        self.tx_counters.record_tx(size)
        delay = self._serialization_ns.get(size)
        if delay is None:
            delay = self._serialization_ns[size] = serialization_ns(
                size, self.rate_bps)
        self.sim.schedule(delay, self._finish, packet, index)

    def _finish(self, packet: Packet, queue_index: int) -> None:
        self._busy = False
        self.link.transmit(packet)
        hook = self.on_transmit
        if hook is not None:
            hook(packet, queue_index)
        self._kick()
