"""Exporters: JSONL, Chrome trace-event JSON (Perfetto) and Prometheus text.

The Chrome trace-event format is the JSON schema Perfetto and
``chrome://tracing`` open directly: a ``traceEvents`` array where every
record carries ``name``/``cat``/``ph``/``ts``/``pid``/``tid``.  Timestamps
are **microseconds**; the simulator's integer nanoseconds are divided by
1000.0 so sub-µs spacing survives as fractional ts.  Events are sorted by
timestamp before export so traces stitched from several runs still load.

Spans (:mod:`repro.obs.spans`) export two ways on top of the flat
events: duration spans as complete ("X") records and instant children as
"i" records, each carrying ``span_id``/``parent_id``/``trace_id`` in
``args``; and one flow-event chain ("s"/"t"/"f", ``id`` = trace id) per
recovery episode so Perfetto draws the causal arrows from the corruption
drop through to the in-order release.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional

from .metrics import MetricsRegistry
from .spans import Span, SpanTracer
from .timeline import TimelineRecorder
from .trace import TraceEvent, Tracer

__all__ = [
    "to_chrome_trace", "write_chrome_trace",
    "events_to_jsonl", "write_jsonl", "read_span_records",
    "write_metrics_json", "write_metrics_prometheus",
    "write_timeline_json",
    "prometheus_escape_label", "prometheus_line", "prometheus_text",
]

#: Stable thread-track ids per category so Perfetto groups related events.
_CATEGORY_TIDS = {
    "engine": 1,
    "link": 2,
    "lg": 3,
    "lg.sender": 4,
    "lg.receiver": 5,
    "corruptd": 6,
    "fleet": 7,
    "episode": 8,
}
_DEFAULT_TID = 9


def _sorted_events(tracer: Tracer) -> List[TraceEvent]:
    return sorted(tracer.events(), key=lambda e: e.ts)


def _span_args(span: Span) -> dict:
    return {"span_id": span.span_id, "parent_id": span.parent_id,
            "trace_id": span.trace_id, **(span.args or {})}


def _span_records(spans: SpanTracer) -> List[dict]:
    """Chrome-trace records for every retained span plus per-episode
    flow chains."""
    records: List[dict] = []
    trees = spans.trees()
    for span in spans.spans():
        record = {
            "name": span.name,
            "cat": span.category,
            "ts": span.start_ns / 1000.0,
            "pid": 1,
            "tid": _CATEGORY_TIDS.get(span.category, _DEFAULT_TID),
            "args": _span_args(span),
        }
        if span.end_ns is None:
            record["ph"] = "B"  # still open: unfinished slice
        elif span.end_ns == span.start_ns:
            record["ph"] = "i"
            record["s"] = "t"
        else:
            record["ph"] = "X"
            record["dur"] = (span.end_ns - span.start_ns) / 1000.0
        records.append(record)
    for trace_id, group in trees.items():
        if len(group) < 2:
            continue
        root = group[0]
        flow = {"name": root.name, "cat": "flow", "pid": 1, "id": trace_id}
        records.append({**flow, "ph": "s", "ts": root.start_ns / 1000.0,
                        "tid": _CATEGORY_TIDS.get(root.category, _DEFAULT_TID)})
        for child in group[1:]:
            records.append({
                **flow, "ph": "t", "ts": child.start_ns / 1000.0,
                "tid": _CATEGORY_TIDS.get(child.category, _DEFAULT_TID)})
        if root.end_ns is not None:
            # The finish must not precede any step (a pause child can
            # straddle the release), so clamp it to the last step.
            finish_ns = max([root.end_ns] + [c.start_ns for c in group[1:]])
            records.append({
                **flow, "ph": "f", "bp": "e", "ts": finish_ns / 1000.0,
                "tid": _CATEGORY_TIDS.get(root.category, _DEFAULT_TID)})
    return records


def to_chrome_trace(tracer: Tracer,
                    registry: Optional[MetricsRegistry] = None,
                    spans: Optional[SpanTracer] = None) -> dict:
    """Render retained events (and spans, if given) as a Chrome
    trace-event JSON object."""
    trace_events = []
    for event in _sorted_events(tracer):
        record = {
            "name": event.name,
            "cat": event.category,
            "ph": event.phase,
            "ts": event.ts / 1000.0,
            "pid": 1,
            "tid": _CATEGORY_TIDS.get(event.category, _DEFAULT_TID),
        }
        if event.args:
            record["args"] = event.args
        elif event.phase == "C":
            record["args"] = {"value": 0}
        trace_events.append(record)
    if spans is not None:
        trace_events.extend(_span_records(spans))
        trace_events.sort(key=lambda r: r["ts"])
    out = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "emitted": tracer.emitted,
            "dropped": tracer.dropped,
        },
    }
    if spans is not None:
        out["otherData"]["spans"] = {
            "started": spans.started,
            "dropped": spans.dropped,
        }
    if registry is not None:
        out["otherData"]["metrics"] = registry.snapshot()
    return out


def write_chrome_trace(path: str, tracer: Tracer,
                       registry: Optional[MetricsRegistry] = None,
                       spans: Optional[SpanTracer] = None) -> str:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(tracer, registry, spans=spans), handle)
    return path


def events_to_jsonl(tracer: Tracer,
                    spans: Optional[SpanTracer] = None) -> str:
    """One compact JSON object per line, oldest event first.

    Span records (marked ``"kind": "span"``, native-ns fields) follow
    the event records, so existing line-by-line event readers keep
    working unchanged.
    """
    lines = []
    for event in _sorted_events(tracer):
        record = {
            "ts": event.ts,
            "cat": event.category,
            "name": event.name,
            "ph": event.phase,
        }
        if event.args:
            record["args"] = event.args
        lines.append(json.dumps(record, separators=(",", ":")))
    if spans is not None:
        for span in spans.spans():
            record = {"kind": "span", **span.to_dict()}
            lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str, tracer: Tracer,
                spans: Optional[SpanTracer] = None) -> str:
    with open(path, "w") as handle:
        handle.write(events_to_jsonl(tracer, spans=spans))
    return path


def read_span_records(text: str, jsonl: bool = False) -> List[dict]:
    """Span records (the :meth:`Span.to_dict` shape, native ns) back out
    of an exported artifact: the inverse of :func:`events_to_jsonl`'s
    ``"kind": "span"`` lines (``jsonl=True``) or of the records
    :func:`to_chrome_trace` marks with ``args.span_id``, whose µs
    ``ts``/``dur`` are scaled back to integer ns."""
    if jsonl:
        records = (json.loads(line) for line in text.splitlines()
                   if line.strip())
        return [record for record in records if record.get("kind") == "span"]
    ids = ("span_id", "parent_id", "trace_id")
    spans = []
    for event in json.loads(text).get("traceEvents", []):
        meta = event.get("args") or {}
        if "span_id" not in meta:
            continue
        start_ns = int(round(event.get("ts", 0) * 1000))
        spans.append({
            **{key: meta.get(key) for key in ids},
            "cat": event.get("cat"),
            "name": event.get("name"),
            "start_ns": start_ns,
            # "B" is a still-open span; "i" an instant (no "dur")
            "end_ns": (None if event.get("ph") == "B" else
                       start_ns + int(round(event.get("dur", 0) * 1000))),
            "args": {k: v for k, v in meta.items() if k not in ids},
        })
    return spans


def _json_safe(value):
    """Replace non-finite floats with None so the file is strict JSON.

    Snapshot providers with zero samples can roll up to NaN/Inf (0/0
    rates etc.); ``json.dump`` would happily write ``NaN``, which most
    parsers then reject.
    """
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_metrics_json(path: str, registry: MetricsRegistry) -> str:
    with open(path, "w") as handle:
        json.dump(_json_safe(registry.snapshot()), handle, indent=2,
                  sort_keys=True, allow_nan=False)
    return path


def prometheus_escape_label(value) -> str:
    """Escape a label value per the Prometheus text exposition format.

    The spec's label-value escaping: backslash -> ``\\\\``, double-quote
    -> ``\\"``, line feed -> ``\\n``.  Without this, a label value
    containing any of the three (link names, file paths, operator-typed
    strings) splits or corrupts the sample line and the whole scrape
    fails to parse.
    """
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def prometheus_line(family: str, labels: Optional[dict], value) -> str:
    """One exposition sample line, label values escaped.

    ``family`` must already be a valid metric name (callers sanitize);
    labels render in the given dict order.  Non-finite values are the
    caller's problem — Prometheus accepts ``NaN``/``+Inf`` spelled that
    way, but the registry convention is to skip them.
    """
    if labels:
        rendered = ",".join(
            f'{key}="{prometheus_escape_label(val)}"'
            for key, val in labels.items()
        )
        return f"{family}{{{rendered}}} {value}"
    return f"{family} {value}"


def prometheus_text(registry: MetricsRegistry,
                    extra_lines: Optional[List[str]] = None) -> str:
    """Full exposition document: the registry dump plus labeled extras.

    ``extra_lines`` lets a caller (the control-plane service) append
    label-carrying series built with :func:`prometheus_line` after the
    registry's flat families; the result stays one scrape-valid body.
    """
    body = registry.prometheus_text()
    if extra_lines:
        body += "\n".join(extra_lines) + "\n"
    return body


def write_metrics_prometheus(path: str, registry: MetricsRegistry) -> str:
    with open(path, "w") as handle:
        handle.write(registry.prometheus_text())
    return path


def write_timeline_json(path: str, recorder: TimelineRecorder) -> str:
    """Persist a flight-recorder series as strict JSON."""
    with open(path, "w") as handle:
        json.dump(_json_safe(recorder.series()), handle, sort_keys=True,
                  allow_nan=False)
    return path
