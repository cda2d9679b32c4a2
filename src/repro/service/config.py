"""Configuration of the always-on control-plane service.

One frozen dataclass carries every knob ``repro serve`` exposes, in four
groups: the HTTP front end (bind address, admission limits), the query
path (worker pool, default backend, cache sizing), the telemetry
ingestion side (source kind, synthetic-trace shape, loss thresholds),
and the fleet the service arbitrates over (a full
:class:`~repro.fleet.topology.FleetSpec` plus controller policy).
Beside it sits the evidence table: everything the service does
differently per ``evidence`` kind is one :data:`EVIDENCE` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional

from ..blame.adapter import BlameMonitor
from ..core.spec import Spec
from ..fleet.controller import ControllerConfig
from ..fleet.monitor import EvidenceMonitor
from ..fleet.policies import POLICIES
from ..fleet.topology import FleetSpec
from ..lifecycle.traces import TraceSpec
from .arbiter import StreamingArbiter
from .telemetry import (
    SyntheticFlowEvidence, SyntheticTelemetry, parse_evidence_line,
    parse_record,
)

__all__ = ["ServiceConfig", "TELEMETRY_KINDS", "EXECUTOR_KINDS",
           "EVIDENCE", "EVIDENCE_KINDS", "EvidenceKind"]

#: where telemetry records come from
TELEMETRY_KINDS = ("synthetic", "file", "tcp", "none")


class EvidenceKind(NamedTuple):
    """What the corruption signal is built from: one evidence-table row."""

    #: one ingest line -> one record (``TelemetryError`` on junk)
    parse_line: Callable[[str], Any]
    #: ``(config, trace_spec)`` -> the deterministic demo record sequence
    synthetic: Callable[..., Iterable[Any]]
    #: ``(config, topology, controller_config, policy, **common)``
    monitor: Callable[..., EvidenceMonitor]


EVIDENCE: Dict[str, EvidenceKind] = {
    # RX counter snapshots through per-link LossWindows
    "port_counters": EvidenceKind(
        parse_record,
        lambda config, spec: SyntheticTelemetry(
            spec, tick_s=config.tick_s,
            frames_per_tick=config.frames_per_tick,
            limit=config.synthetic_records).records(),
        lambda config, *args, **common: StreamingArbiter(
            *args, window_frames=config.window_frames, **common)),
    # per-flow retransmission reports through 007-style voting (no
    # switch counters needed)
    "voting": EvidenceKind(
        parse_evidence_line,
        lambda config, spec: SyntheticFlowEvidence(
            spec, flows_per_s=config.flows_per_s, coverage=config.coverage,
            limit=config.synthetic_records).reports(),
        lambda config, *args, **common: BlameMonitor(
            *args, window_s=config.blame_window_s, **common)),
}
EVIDENCE_KINDS = tuple(EVIDENCE)

#: how what-if cells are executed ("inline" runs on the event loop —
#: tests and debugging only, it blocks the service during a query)
EXECUTOR_KINDS = ("process", "thread", "inline")


@dataclass(frozen=True)
class ServiceConfig(Spec):
    """Everything that determines one service instance's behaviour."""

    # -- HTTP front end -------------------------------------------------------
    host: str = "127.0.0.1"
    port: int = 8351            # 0 = ephemeral (the bound port is published)
    #: pending what-if queries admitted beyond the in-flight set; the
    #: queue filling up is the 429 admission boundary
    queue_limit: int = 64
    #: concurrent queries dispatched to the worker pool
    max_inflight: int = 8
    #: per-query server-side deadline; expiry answers 503 rather than
    #: holding the connection forever
    query_timeout_s: float = 60.0
    #: drain deadline: in-flight queries get this long after SIGTERM
    drain_timeout_s: float = 30.0

    # -- query path -----------------------------------------------------------
    executor: str = "process"
    workers: int = 2
    #: default execution backend for what-if cells (a query may override)
    backend: str = "fastpath"
    #: what-if result cache entries (LRU beyond this)
    cache_size: int = 1024
    #: significant figures loss rates are quantized to when building
    #: cache keys — the "cell grid" that makes near-duplicate queries
    #: collide onto one entry (0 disables quantization)
    loss_sigfigs: int = 3

    # -- telemetry ingestion --------------------------------------------------
    telemetry: str = "synthetic"
    #: corruption signal: "port_counters" (LossWindow over RX snapshots)
    #: or "voting" (007-style blame over per-flow retx reports)
    evidence: str = "port_counters"
    #: voting mode: sliding evidence window the monitor re-votes over
    blame_window_s: float = 60.0
    #: voting mode: aggregate synthetic flow rate (0 = sized to fleet)
    flows_per_s: float = 0.0
    #: voting mode: fraction of flow reports surviving telemetry loss
    coverage: float = 1.0
    #: JSONL file to tail (telemetry="file")
    telemetry_file: Optional[str] = None
    #: keep tailing the file for appends instead of stopping at EOF
    follow: bool = False
    #: TCP ingest listener port (telemetry="tcp"; 0 = ephemeral); reads
    #: are folded as they arrive, so TCP flow control is the backpressure
    ingest_port: int = 0
    #: synthetic source: simulated fleet days the generated trace covers
    synthetic_days: float = 30.0
    #: synthetic source: stop after this many records (0 = whole trace)
    synthetic_records: int = 0
    #: synthetic source: simulated seconds between counter snapshots
    tick_s: float = 60.0
    #: synthetic source: frames a busy link carries per tick
    frames_per_tick: int = 2_000_000
    #: real-time pacing between synthetic records (0 = flat out)
    interval_s: float = 0.0
    #: window of frames loss rates are estimated over (corruptd-style)
    window_frames: int = 10_000_000
    #: loss rate at which a link is declared corrupting
    onset_threshold: float = 1e-6
    #: hysteresis: declared clear only below onset_threshold * this
    clear_hysteresis: float = 0.1

    # -- fleet state ----------------------------------------------------------
    fleet: FleetSpec = field(default_factory=FleetSpec)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    policy: str = "incremental"
    seed: int = 1

    # -- lifecycle ------------------------------------------------------------
    #: final state snapshot written on graceful shutdown (None = skip)
    snapshot_path: Optional[str] = None
    #: recent controller decisions retained for GET /decisions
    decision_log: int = 1024

    def __post_init__(self) -> None:
        if self.telemetry not in TELEMETRY_KINDS:
            raise ValueError(
                f"unknown telemetry {self.telemetry!r}; "
                f"known: {', '.join(TELEMETRY_KINDS)}")
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"known: {', '.join(EXECUTOR_KINDS)}")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"known: {', '.join(sorted(POLICIES))}")
        if self.evidence not in EVIDENCE_KINDS:
            raise ValueError(
                f"unknown evidence {self.evidence!r}; "
                f"known: {', '.join(EVIDENCE_KINDS)}")
        if self.blame_window_s <= 0:
            raise ValueError("blame_window_s must be positive")
        if self.flows_per_s < 0:
            raise ValueError("flows_per_s must be >= 0")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if self.telemetry == "file" and not self.telemetry_file:
            raise ValueError("telemetry='file' needs telemetry_file")
        if self.queue_limit < 1 or self.max_inflight < 1:
            raise ValueError("queue_limit and max_inflight must be >= 1")
        if self.workers < 1 and self.executor != "inline":
            raise ValueError("workers must be >= 1")
        if self.cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if not 0.0 < self.onset_threshold < 1.0:
            raise ValueError("onset_threshold must be in (0, 1)")
        if not 0.0 < self.clear_hysteresis <= 1.0:
            raise ValueError("clear_hysteresis must be in (0, 1]")
        if self.tick_s <= 0 or self.frames_per_tick < 1:
            raise ValueError("tick_s and frames_per_tick must be positive")

    def synthetic_feed(self) -> Iterable[Any]:
        """The deterministic demo feed of this config's evidence kind."""
        spec = TraceSpec(fleet=self.fleet, duration_days=self.synthetic_days,
                         seed=self.seed)
        return EVIDENCE[self.evidence].synthetic(self, spec)
