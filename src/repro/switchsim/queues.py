"""Egress queue models.

Datacenter switch output queues in this simulator are byte-accounted
drop-tail FIFOs with optional ECN marking at a configurable threshold
(the DCTCP-style "mark on enqueue above K" behaviour the paper's testbed
uses with a 100 KB threshold).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..packets.packet import EcnCodepoint, Packet

__all__ = ["Queue", "QueueStats"]


class QueueStats:
    """Counters a queue keeps for the lifetime of a run."""

    __slots__ = (
        "enqueued", "dropped", "dequeued", "ecn_marked",
        "max_bytes", "max_packets",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        self.ecn_marked = 0
        # Depth high watermarks, in both units: Figure 14's buffer-usage
        # analysis needs bytes for sizing and packets for descriptor cost.
        self.max_bytes = 0
        self.max_packets = 0


class Queue:
    """A byte-accounted drop-tail FIFO with optional ECN marking.

    Args:
        capacity_bytes: drop-tail limit; ``None`` means unbounded.
        ecn_threshold_bytes: mark ECT packets CE when the queue depth at
            enqueue is at or above this many bytes; ``None`` disables ECN.
        on_drop: optional callback invoked with each dropped packet.
    """

    #: what a snapshot captures (:mod:`repro.core.state`): held frames
    #: and lifetime counters
    STATE = ("_fifo", "_bytes", "stats")

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        ecn_threshold_bytes: Optional[int] = None,
        name: str = "",
        on_drop: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.name = name
        self.on_drop = on_drop
        self.stats = QueueStats()
        self._fifo: deque = deque()
        self._bytes = 0

    @property
    def depth_bytes(self) -> int:
        return self._bytes

    @property
    def depth_packets(self) -> int:
        return len(self._fifo)

    def __len__(self) -> int:
        return len(self._fifo)

    def push(self, packet: Packet) -> bool:
        """Enqueue; returns False (and drops) when the queue is full."""
        if self.capacity_bytes is not None and self._bytes + packet.size > self.capacity_bytes:
            self.stats.dropped += 1
            if self.on_drop is not None:
                self.on_drop(packet)
            return False
        if (
            self.ecn_threshold_bytes is not None
            and self._bytes >= self.ecn_threshold_bytes
            and packet.ecn is EcnCodepoint.ECT
        ):
            packet.ecn = EcnCodepoint.CE
            self.stats.ecn_marked += 1
        self._fifo.append(packet)
        self._bytes += packet.size
        self.stats.enqueued += 1
        self._note_watermarks()
        return True

    def _note_watermarks(self) -> None:
        if self._bytes > self.stats.max_bytes:
            self.stats.max_bytes = self._bytes
        if len(self._fifo) > self.stats.max_packets:
            self.stats.max_packets = len(self._fifo)

    def pop(self) -> Optional[Packet]:
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        self._bytes -= packet.size
        self.stats.dequeued += 1
        return packet

    def pass_idle(self, n: int, size: int) -> None:
        """Book ``n`` frames of ``size`` bytes that each entered this
        queue while it was empty and left before the next arrived."""
        stats = self.stats
        stats.enqueued += n
        stats.dequeued += n
        if size > stats.max_bytes:
            stats.max_bytes = size
        if not stats.max_packets:
            stats.max_packets = 1

    def peek(self) -> Optional[Packet]:
        return self._fifo[0] if self._fifo else None

    def clear(self) -> None:
        self._fifo.clear()
        self._bytes = 0

    @property
    def depth_high_watermark(self) -> dict:
        """Peak depth seen so far, in both accounting units."""
        return {"bytes": self.stats.max_bytes, "packets": self.stats.max_packets}

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "depth_bytes": self._bytes,
            "depth_packets": len(self._fifo),
            "enqueued": self.stats.enqueued,
            "dequeued": self.stats.dequeued,
            "dropped": self.stats.dropped,
            "ecn_marked": self.stats.ecn_marked,
            "depth_high_watermark_bytes": self.stats.max_bytes,
            "depth_high_watermark_packets": self.stats.max_packets,
        }
