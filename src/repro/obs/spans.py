"""Causal recovery-episode spans, read off the flat event stream.

The flat event ring (:mod:`repro.obs.trace`) answers "what happened";
spans answer "what caused what".  A :class:`SpanTracer` turns those
events into records with ``span_id`` / ``parent_id`` / ``trace_id`` so
a corruption drop, the LinkGuardian loss notification, each
retransmission copy, the reordering-buffer release, and any pause/resume
it triggers link into one recovery-episode tree (one ``trace_id`` per
episode).

Design constraints:

* Spans chain the tracer's ``sink``: :class:`~repro.obs.Observability`
  installs :meth:`SpanTracer.observe` there and the checker chains
  whatever sink it finds, so spans see every event before the ring can
  overwrite it and keep their *own* bounded storage.  Components emit
  flat events only; no protocol code knows spans exist, and replaying a
  run's events into a fresh reader rebuilds the same trees.
* Every event that belongs to an episode carries ``link`` (the forward
  link's name), ``era`` and ``seq``; the reader correlates on
  ``(link, era, seq)``, so parallel protected links never cross wires.
* :data:`EPISODE_EVENTS` is the whole mapping from events to spans; a
  tier gets episode trees by adding rows to it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["Span", "SpanTracer", "EPISODE_EVENTS"]


#: event name -> (action, outcome).  ``open``: a corrupted original
#: starts an episode, the event its first child; ``child``: an instant
#: under the episode; ``close``: an instant, then the episode ends with
#: ``outcome``; ``pause``: ``B`` begins a span under the link's newest
#: open episode, ``E`` ends it.  A span's args are its event's args
#: minus ``link``; an ``E`` merges its args into the pause span.
EPISODE_EVENTS = {
    "corruption_drop": ("open", None),
    "retx_drop": ("child", None),
    "loss_notification": ("child", None),
    "retx_fire": ("child", None),
    "recovered": ("child", None),
    "overflow_drop": ("child", None),
    "in_order_release": ("close", "recovered"),
    "reordered_release": ("close", "recovered"),
    "ack_no_timeout": ("close", "timeout"),
    "stall_advance": ("close", "stalled"),
    "pause": ("pause", None),
}


class Span:
    """One node in a recovery-episode tree.

    ``end_ns is None`` means the span is still open.  Instant children
    (a drop, a retx fire) are spans whose ``end_ns == start_ns``.
    """

    __slots__ = ("span_id", "parent_id", "trace_id", "category", "name",
                 "start_ns", "end_ns", "args")

    def __init__(self, span_id: int, parent_id: Optional[int], trace_id: int,
                 category: str, name: str, start_ns: int,
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.category = category
        self.name = name
        self.start_ns = int(start_ns)
        self.end_ns: Optional[int] = None
        self.args = args

    @property
    def open(self) -> bool:
        return self.end_ns is None

    @property
    def duration_ns(self) -> int:
        return 0 if self.end_ns is None else self.end_ns - self.start_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "cat": self.category,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "args": self.args or {},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"dur={self.duration_ns}ns"
        return (f"Span({self.span_id} parent={self.parent_id} "
                f"trace={self.trace_id} {self.category}/{self.name} {state})")


class SpanTracer:
    """Bounded store of causal spans, fed by :meth:`observe`.

    Completed spans live in a ring (oldest evicted first, counted in
    ``dropped``); open spans are pinned until finished so an episode
    tree is never torn in half by eviction pressure.
    """

    __slots__ = ("enabled", "capacity", "started", "dropped",
                 "_next_id", "_completed", "_open", "_binds", "_scope_roots",
                 "_pauses")

    def __init__(self, capacity: int = 4096, enabled: bool = True) -> None:
        self.enabled = enabled
        self.capacity = int(capacity)
        self.started = 0
        self.dropped = 0
        self._next_id = 1
        self._completed: deque = deque()
        self._open: Dict[int, Span] = {}
        #: (link, era, seq) -> open episode root
        self._binds: Dict[tuple, Span] = {}
        #: link -> its newest still-open episode root (a pause's parent)
        self._scope_roots: Dict[str, Span] = {}
        #: (link, category) -> open pause span
        self._pauses: Dict[tuple, Span] = {}

    # -- reading the event stream ----------------------------------------

    def observe(self, event) -> None:
        """Tracer sink: fold one flat event into the episode trees."""
        row = EPISODE_EVENTS.get(event.name)
        if row is None or not event.args or "link" not in event.args:
            return
        args = dict(event.args)
        link = args.pop("link")
        action, outcome = row
        ts, category = event.ts, event.category
        if action == "pause":
            key = (link, category)
            if event.phase == "B":
                self._pauses[key] = self.begin(
                    ts, category, event.name,
                    parent=self._scope_roots.get(link), args=args)
            elif key in self._pauses:
                self.end(self._pauses.pop(key), ts, args=args)
            return
        if "era" not in args:
            return  # a frame without a LinkGuardian header
        key = (link, args["era"], args["seq"])
        if action == "open":
            episode = self.begin(ts, "episode", "recovery_episode", args={
                "link": link, "seq": args["seq"], "era": args["era"]})
            self._binds[key] = self._scope_roots[link] = episode
        else:
            episode = self._binds.get(key)
            if episode is None:
                return
        self.event(ts, category, event.name, parent=episode, args=args)
        if action == "close":
            self.end(episode, ts, args={"outcome": outcome})
            del self._binds[key]

    # -- recording -------------------------------------------------------

    def begin(self, ts: int, category: str, name: str,
              parent: Optional[Span] = None,
              args: Optional[Dict] = None) -> Span:
        """Open a span.  With no ``parent`` it is an episode root (its
        ``trace_id`` is its own id)."""
        span_id = self._next_id
        self._next_id += 1
        trace_id = parent.trace_id if parent is not None else span_id
        parent_id = parent.span_id if parent is not None else None
        span = Span(span_id, parent_id, trace_id, category, name, ts, args)
        self.started += 1
        self._open[span_id] = span
        return span

    def event(self, ts: int, category: str, name: str,
              parent: Optional[Span] = None,
              args: Optional[Dict] = None) -> Span:
        """Record an instant child (``end == start``)."""
        span = self.begin(ts, category, name, parent=parent, args=args)
        self.end(span, ts)
        return span

    def end(self, span: Span, ts: int,
            args: Optional[Dict] = None) -> None:
        """Finish an open span; merges ``args`` into the span's."""
        if span.end_ns is not None:
            return
        span.end_ns = int(ts)
        if args:
            span.args = {**(span.args or {}), **args}
        self._open.pop(span.span_id, None)
        for scope, root in list(self._scope_roots.items()):
            if root is span:
                del self._scope_roots[scope]
        self._completed.append(span)
        while len(self._completed) > self.capacity:
            self._completed.popleft()
            self.dropped += 1

    # -- reading ---------------------------------------------------------

    def spans(self) -> List[Span]:
        """All retained spans: completed (oldest first) then still-open,
        ordered by start time for stable export."""
        live = sorted(self._open.values(),
                      key=lambda s: (s.start_ns, s.span_id))
        return list(self._completed) + live

    def trees(self) -> Dict[int, List[Span]]:
        """Retained spans grouped by ``trace_id`` (one entry per
        episode), each group ordered by start time."""
        groups: Dict[int, List[Span]] = {}
        for span in self.spans():
            groups.setdefault(span.trace_id, []).append(span)
        for group in groups.values():
            group.sort(key=lambda s: (s.start_ns, s.span_id))
        return groups

    def clear(self) -> None:
        self._completed.clear()
        self._open.clear()
        self._binds.clear()
        self._scope_roots.clear()
        self._pauses.clear()
        self.started = 0
        self.dropped = 0
