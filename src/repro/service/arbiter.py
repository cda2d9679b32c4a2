"""Port-counter evidence: counters in, controller decisions out.

:class:`StreamingArbiter` is the :class:`~repro.fleet.monitor.EvidenceMonitor`
fed by ``framesRxAll``/``framesRxOk`` snapshots — the service-side
analogue of corruptd's polling loop.  The loop is the monitor's; this
module supplies the estimator: per link, a corruptd-style
:class:`~repro.monitor.corruptd.LossWindow` over the cumulative RX
counters, so each record yields a one-link verdict.

Window state is sharded by pod — the shard map is what a scaled-out
deployment would partition across ingestion workers, and the per-shard
sizes are exported as service gauges.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..fleet.monitor import Estimator, EvidenceMonitor, Verdict
from ..fleet.topology import FleetTopology
from ..monitor.corruptd import LossWindow
from .telemetry import TelemetryRecord

__all__ = ["CounterEstimator", "StreamingArbiter"]


class CounterEstimator(Estimator):
    """Per-link :class:`LossWindow` estimates, sharded by pod."""

    evidence = "port_counters"
    obs_prefix = "service.arbiter"

    def __init__(self, topology: FleetTopology, *,
                 window_frames: int = 10_000_000, obs=None) -> None:
        self.topology = topology
        self.window_frames = int(window_frames)
        #: pod -> link_id -> LossWindow; the shard map
        self.shards: Dict[int, Dict[int, LossWindow]] = {}
        self._windows: Dict[int, LossWindow] = {}   # flat index over shards

    def links(self, record: TelemetryRecord) -> Tuple[int]:
        return (record.link_id,)

    def fold(self, record: TelemetryRecord) -> Optional[Verdict]:
        link_id = record.link_id
        window = self._windows.get(link_id)
        if window is None:
            window = self._windows[link_id] = LossWindow(self.window_frames)
            pod = self.topology.link(link_id).pod
            self.shards.setdefault(pod, {})[link_id] = window
        window.observe(record.rx_all, record.rx_ok)
        loss = window.loss_rate()
        return None if loss is None else {link_id: loss}

    def shard_sizes(self) -> Dict[int, int]:
        return {pod: len(shard) for pod, shard in sorted(self.shards.items())}


class StreamingArbiter(EvidenceMonitor):
    """Drives a :class:`FleetController` from a live counter stream."""

    estimator_cls = CounterEstimator
