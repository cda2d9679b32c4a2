"""Streaming port-counter telemetry: records, parsing, and sources.

The service's ingestion loop consumes a stream of *telemetry records* —
one RX counter snapshot per line, the same ``framesRxAll``/``framesRxOk``
pair corruptd polls in-sim::

    {"t": 120.0, "link": 17, "rx_all": 2000000, "rx_ok": 1999978}

Three sources produce that stream:

* :func:`file_source` — read (and optionally tail) a JSONL file;
* the service's TCP ingest listener, one JSONL connection per switch;
* :class:`SyntheticTelemetry` — a deterministic generator driven by a
  :mod:`repro.lifecycle` failure trace: it applies the repair loop to
  get per-link corrupting intervals, then walks simulated time in fixed
  ticks emitting counter snapshots whose loss reflects each link's
  current state.  This is the demo/test source — the fleet's month of
  failures replayed as a live counter feed.

Byte streams are cut into lines by one :class:`LineSplitter`, a read
at a time; malformed lines (and lines over :data:`MAX_LINE_BYTES`) are
counted and skipped, never fatal to the loop.

When the service runs with ``evidence="voting"`` the stream carries
*flow reports* instead (:class:`~repro.blame.evidence.FlowReport` JSONL,
see :func:`parse_evidence_line`), and :class:`SyntheticFlowEvidence` is
the demo source — the same lifecycle trace, harvested as per-flow
retransmission evidence rather than counter snapshots.
"""

from __future__ import annotations

import asyncio
import json
from typing import (
    Any, AsyncIterator, Callable, Dict, Iterator, List, NamedTuple, Tuple,
)

from ..blame.evidence import (
    EvidenceSpec, FlowReport, LossOracle, finite_time, iter_reports,
    parse_flow_report,
)
from ..fleet.topology import FleetTopology
from ..lifecycle.repair import corruption_episodes
from ..lifecycle.traces import TraceSpec

__all__ = [
    "TelemetryRecord", "TelemetryError", "parse_record",
    "parse_evidence_line", "READ_BYTES", "MAX_LINE_BYTES", "LineSplitter",
    "file_source", "SyntheticTelemetry", "SyntheticFlowEvidence",
]


class TelemetryError(ValueError):
    """A record line that cannot be parsed into a counter snapshot."""


class TelemetryRecord(NamedTuple):
    """One port-counter snapshot for one link."""

    time_s: float
    link_id: int
    rx_all: int
    rx_ok: int

    def to_dict(self) -> dict:
        return {"t": self.time_s, "link": self.link_id,
                "rx_all": self.rx_all, "rx_ok": self.rx_ok}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


#: JSON's whitespace; ``str.strip()`` would also take ``\x0b``, ``\xa0``, ...
_JSON_WS = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode
#: builds a record from its field tuple without a Python-level ``__new__``
_new = tuple.__new__


def _parse_line(line: str, what: str,
                build: Callable[[dict], Any]) -> Any:
    """The shared ingest boundary: a JSON-object line in, a record with
    a finite timestamp out, :class:`TelemetryError` on anything else.

    One C decode per line: the line is accepted exactly when
    ``json.loads`` takes it (one value, JSON whitespace around it and
    nothing else) and ``build`` takes the object it decodes to.
    """
    text = line.strip(_JSON_WS)
    try:
        data, end = _raw_decode(text)
    except ValueError as exc:
        raise TelemetryError(f"not valid JSON: {exc}") from None
    if end != len(text):
        raise TelemetryError(f"not valid JSON: extra data at {end}")
    if type(data) is not dict:
        raise TelemetryError(f"{what} is not an object")
    try:
        return build(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise TelemetryError(f"bad {what}: {exc}") from None


def _counter_record(data: dict) -> TelemetryRecord:
    time_s, link_id = data["t"], data["link"]
    rx_all, rx_ok = data["rx_all"], data["rx_ok"]
    if (type(link_id) is not int or type(rx_all) is not int
            or type(rx_ok) is not int):
        raise TypeError("link, rx_all and rx_ok must be integers")
    if link_id < 0 or rx_all < 0 or rx_ok < 0:
        raise ValueError("counters and link id must be non-negative")
    if rx_ok > rx_all:
        raise ValueError("rx_ok exceeds rx_all")
    return _new(TelemetryRecord,
                (finite_time(time_s), link_id, rx_all, rx_ok))


def parse_record(line: str) -> TelemetryRecord:
    """Parse one JSONL telemetry line; :class:`TelemetryError` on junk."""
    return _parse_line(line, "record", _counter_record)


def parse_evidence_line(line: str) -> FlowReport:
    """Parse one JSONL flow-report line; :class:`TelemetryError` on junk."""
    return _parse_line(line, "flow report", parse_flow_report)


#: bytes one read takes from an ingest stream
READ_BYTES = 64 * 1024
#: longest ingest line (newline not counted); a longer one is one bad
#: line, never buffered whole
MAX_LINE_BYTES = 64 * 1024
#: stands in for an overlong line; not JSON, so it counts as a bad line
OVERLONG_LINE = "<line over MAX_LINE_BYTES>"


class LineSplitter:
    """Cuts a byte stream, read in chunks of any size, into lines.

    Whole lines are decoded with ``errors="replace"`` (``b"\\n"`` is never
    inside a UTF-8 character, so where the stream splits changes
    nothing); the partial last line waits for the next chunk.
    """

    def __init__(self) -> None:
        self._tail = b""

    def feed(self, chunk: bytes) -> List[str]:
        """The lines ``chunk`` completes, in stream order."""
        parts = (self._tail + chunk).split(b"\n")
        # An overlong partial line keeps only enough bytes to stay overlong.
        self._tail = parts.pop()[:MAX_LINE_BYTES + 1]
        return [part.decode("utf-8", "replace")
                if len(part) <= MAX_LINE_BYTES else OVERLONG_LINE
                for part in parts]

    def close(self) -> List[str]:
        """At end of stream: the unterminated last line, if any."""
        return self.feed(b"\n") if self._tail else []


async def file_source(path: str, follow: bool = False,
                      poll_s: float = 0.05) -> AsyncIterator[List[str]]:
    """Yield batches of lines from a JSONL file; with ``follow``, tail it.

    A tailing source never terminates on its own — the ingest task is
    cancelled at drain — and holds a partial last line back until its
    newline is appended.  Without ``follow``, iteration stops at EOF
    (replay-a-capture mode) and a partial last line is the last line.
    """
    splitter = LineSplitter()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(READ_BYTES)
            if chunk:
                yield splitter.feed(chunk)
            elif follow:
                await asyncio.sleep(poll_s)
            else:
                yield splitter.close()
                return


class SyntheticTelemetry:
    """Deterministic counter feed regenerated from a lifecycle trace.

    The trace's failure onsets plus the repair policy's clear times give
    each link a set of corrupting intervals; the generator then walks
    simulated time in ``tick_s`` steps and emits, per tick, one counter
    snapshot for every link that is *interesting* at that instant —
    currently corrupting, or inside the warm-up/cool-down tick right
    around a transition — plus a small rotating sample of healthy links
    so the estimator sees clean baselines too.  Counters are cumulative
    per link; corrupted frames are the deterministic expectation
    ``round(frames * loss)`` so the window estimator recovers the
    trace's loss rate exactly (no sampling noise to flake tests on).
    """

    def __init__(self, spec: TraceSpec, repair: str = "corropt",
                 tick_s: float = 60.0, frames_per_tick: int = 2_000_000,
                 healthy_per_tick: int = 2, limit: int = 0) -> None:
        self.spec = spec
        self.tick_s = float(tick_s)
        self.frames_per_tick = int(frames_per_tick)
        self.healthy_per_tick = int(healthy_per_tick)
        self.limit = int(limit)
        self.oracle = LossOracle(corruption_episodes(spec, repair))
        #: per-link corrupting intervals [(onset_s, clear_s, loss_rate)]
        self.intervals = self.oracle.intervals

    def _active_near(self, time_s: float) -> List[int]:
        """Links corrupting at ``time_s`` or transitioning within a tick."""
        out = []
        for link_id, spans in self.intervals.items():
            for onset_s, clear_s, _ in spans:
                if onset_s - self.tick_s <= time_s < clear_s + self.tick_s:
                    out.append(link_id)
                    break
        return sorted(out)

    def records(self) -> Iterator[TelemetryRecord]:
        """The full deterministic record sequence, oldest first."""
        n_links = self.spec.fleet.n_links
        counters: Dict[int, Tuple[int, int]] = {}
        emitted = 0
        tick = 1
        duration_s = self.spec.duration_s
        while tick * self.tick_s <= duration_s:
            time_s = tick * self.tick_s
            watched = self._active_near(time_s)
            # Rotate a few healthy links through so clean estimates and
            # per-link window state don't exist only for bad links.
            for offset in range(self.healthy_per_tick):
                candidate = (tick * self.healthy_per_tick + offset) % n_links
                if candidate not in watched:
                    watched.append(candidate)
            for link_id in watched:
                loss = self.oracle.loss_at(link_id, time_s)
                rx_all, rx_ok = counters.get(link_id, (0, 0))
                frames = self.frames_per_tick
                good = frames - int(round(frames * loss))
                rx_all += frames
                rx_ok += good
                counters[link_id] = (rx_all, rx_ok)
                yield TelemetryRecord(time_s, link_id, rx_all, rx_ok)
                emitted += 1
                if self.limit and emitted >= self.limit:
                    return
            tick += 1


class SyntheticFlowEvidence:
    """Deterministic flow-report feed regenerated from a lifecycle trace.

    The counterpart of :class:`SyntheticTelemetry` for the voting
    evidence path: the same trace + repair loop yields per-link
    corrupting intervals, but instead of counter snapshots the generator
    harvests the fleet's per-flow retransmission reports against that
    ground truth (:func:`repro.blame.evidence.iter_reports`), in
    ``chunk_s`` slices so memory stays bounded on month-long traces.
    Report streams are addressed per flow index, so the slicing never
    changes the evidence.
    """

    def __init__(self, spec: TraceSpec, repair: str = "corropt",
                 flows_per_s: float = 0.0, coverage: float = 1.0,
                 chunk_s: float = 600.0, limit: int = 0) -> None:
        self.spec = spec
        self.chunk_s = float(chunk_s)
        self.limit = int(limit)
        self.topology = FleetTopology(spec.fleet, seed=spec.seed)
        self.evidence = EvidenceSpec(flows_per_s=flows_per_s,
                                     coverage=coverage, seed=spec.seed)
        self.oracle = LossOracle(corruption_episodes(spec, repair))

    def reports(self) -> Iterator[FlowReport]:
        """The full deterministic report sequence, oldest first."""
        emitted = 0
        t_lo = 0.0
        duration_s = self.spec.duration_s
        while t_lo < duration_s:
            t_hi = min(t_lo + self.chunk_s, duration_s)
            for report in iter_reports(self.evidence, self.topology,
                                       self.oracle.loss_at, t_lo, t_hi):
                yield report
                emitted += 1
                if self.limit and emitted >= self.limit:
                    return
            t_lo = t_hi
