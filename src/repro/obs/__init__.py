"""Unified simulation observability: metrics, traces, spans, timelines.

One :class:`Observability` object is threaded through a run — engine,
switch model, LinkGuardian endpoints, corruptd — and everything records
into its shared :class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.trace.Tracer`.  Components accept ``obs=None`` and
fall back to :data:`~repro.obs.trace.NULL_TRACER` / skip registration,
so an uninstrumented run pays only a disabled-flag test on the hot path.

obs v2 adds two opt-in layers (both off by default, same null-object
discipline):

* :class:`~repro.obs.spans.SpanTracer` (``spans=True``) — causal
  recovery-episode trees linking a corruption drop to its loss
  notification, retransmissions, in-order release, and pause/resume,
  read off the tracer's events through its ``sink`` (so spans imply an
  enabled tracer);
* :class:`~repro.obs.timeline.TimelineRecorder` (``timeline=...``) — a
  flight recorder sampling the registry on a simulated-time cadence.

Typical usage::

    obs = Observability(spans=True, timeline={"interval_ns": 100_000})
    result = run_timeline("dctcp", obs=obs)
    write_chrome_trace("trace.json", obs.tracer, obs.registry,
                       spans=obs.spans)                        # Perfetto
    print(obs.registry.prometheus_text())
"""

from __future__ import annotations

from typing import Optional, Union

from .export import (
    events_to_jsonl, prometheus_escape_label, prometheus_line,
    prometheus_text, read_span_records, to_chrome_trace, write_chrome_trace,
    write_jsonl,
    write_metrics_json, write_metrics_prometheus, write_timeline_json,
)
from .metrics import (
    DEFAULT_NS_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry,
)
from .profile import PhaseTimer
from .spans import Span, SpanTracer
from .timeline import TimelineRecorder
from .trace import NULL_TRACER, TraceEvent, Tracer

__all__ = [
    "Observability",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "DEFAULT_NS_BUCKETS",
    "Tracer", "TraceEvent", "NULL_TRACER",
    "SpanTracer", "Span",
    "TimelineRecorder", "PhaseTimer",
    "to_chrome_trace", "write_chrome_trace", "events_to_jsonl", "write_jsonl",
    "read_span_records",
    "write_metrics_json", "write_metrics_prometheus", "write_timeline_json",
    "prometheus_escape_label", "prometheus_line", "prometheus_text",
]


class Observability:
    """Registry + tracer (+ optional spans and timeline) for one run.

    ``timeline`` accepts ``None`` (off), ``True`` (defaults), or a dict
    of :class:`TimelineRecorder` keyword arguments (``interval_ns``,
    ``capacity``, ``include``).  ``spans=True`` enables the tracer
    whatever ``tracing`` says: spans are built from its events.
    """

    def __init__(self, tracing: bool = True, trace_capacity: int = 1 << 16,
                 spans: bool = False, span_capacity: int = 4096,
                 timeline: Union[None, bool, dict] = None) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(capacity=trace_capacity,
                             enabled=tracing or spans)
        self.spans = SpanTracer(capacity=span_capacity, enabled=spans)
        if spans:
            self.tracer.sink = self.spans.observe
        self.timeline: Optional[TimelineRecorder] = None
        if timeline:
            kwargs = dict(timeline) if isinstance(timeline, dict) else {}
            self.timeline = TimelineRecorder(self.registry, **kwargs)

    def attach_engine(self, sim) -> None:
        """Called by each :class:`~repro.core.engine.Simulator` built
        with this obs: installs the timeline recorder's sampling tick
        onto the new simulator."""
        if self.timeline is not None:
            self.timeline.install(sim)

    def snapshot(self) -> dict:
        return self.registry.snapshot()
