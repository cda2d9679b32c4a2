"""Bounded-ring event tracer with simulation-time (ns) timestamps.

Instrumentation points emit typed :class:`TraceEvent` records — packet
tx/rx, corruption drops, loss notifications, retransmission fires,
pause/resume spans, buffer-occupancy counters, corruptd decisions — into
a preallocated ring buffer.  When the tracer is disabled, ``emit`` is a
single attribute test and call sites guard with ``tracer.enabled``, so a
cold run allocates nothing and pays (close to) nothing.

Phases follow the Chrome trace-event convention so export is a direct
mapping: ``"i"`` instant, ``"B"``/``"E"`` duration begin/end, ``"C"``
counter sample.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER"]


class TraceEvent(NamedTuple):
    ts: int                 # simulation time, integer nanoseconds
    category: str           # "link", "lg", "engine", "corruptd", ...
    name: str               # "retx_fire", "pause", "corruption_drop", ...
    phase: str              # "i" | "B" | "E" | "C"
    args: Optional[dict]    # small payload (seqno, bytes, ...)


class Tracer:
    """Fixed-capacity ring of :class:`TraceEvent`; oldest entries overwritten.

    ``sink`` is the live-observation hook: when set to a callable it
    receives every emitted event *before* it can be overwritten by ring
    wrap-around.  Runtime monitors (``repro.checker``) and the span
    reader (:mod:`repro.obs.spans`) attach here — the checker chains
    whatever sink it finds — so neither depends on the ring being large
    enough.
    """

    __slots__ = ("enabled", "capacity", "_ring", "_head", "emitted", "sink")

    def __init__(self, capacity: int = 1 << 16, enabled: bool = True) -> None:
        if enabled and capacity <= 0:
            raise ValueError("an enabled tracer needs capacity > 0")
        self.enabled = enabled
        self.capacity = int(capacity)
        self._ring: List[Optional[TraceEvent]] = [None] * self.capacity
        self._head = 0          # next write slot
        self.emitted = 0        # total emits, including overwritten ones
        self.sink = None        # optional callable(TraceEvent)

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring wrapped."""
        return max(0, self.emitted - self.capacity)

    def emit(self, ts: int, category: str, name: str,
             phase: str = "i", args: Optional[dict] = None) -> None:
        if not self.enabled:
            return
        event = TraceEvent(ts, category, name, phase, args)
        self._ring[self._head] = event
        self._head = (self._head + 1) % self.capacity
        self.emitted += 1
        if self.sink is not None:
            self.sink(event)

    # convenience wrappers (call sites read better; all funnel into emit)

    def instant(self, ts: int, category: str, name: str,
                args: Optional[dict] = None) -> None:
        self.emit(ts, category, name, "i", args)

    def begin(self, ts: int, category: str, name: str,
              args: Optional[dict] = None) -> None:
        self.emit(ts, category, name, "B", args)

    def end(self, ts: int, category: str, name: str,
            args: Optional[dict] = None) -> None:
        self.emit(ts, category, name, "E", args)

    def counter(self, ts: int, category: str, name: str, value) -> None:
        self.emit(ts, category, name, "C", {"value": value})

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first (emission order)."""
        if self.emitted < self.capacity:
            return [e for e in self._ring[: self._head]]
        return [
            e for e in self._ring[self._head:] + self._ring[: self._head]
            if e is not None
        ]

    def clear(self) -> None:
        self._ring = [None] * self.capacity
        self._head = 0
        self.emitted = 0


#: Shared disabled tracer: components default to this so the hot path is
#: one attribute test (``tracer.enabled``) with no per-component branch.
NULL_TRACER = Tracer(capacity=1, enabled=False)
