"""The evidence monitor: one onset/clear loop for every evidence kind.

The paper's control plane is one loop (Appendix C, §5): an evidence
stream becomes a windowed loss estimate, a threshold crossing opens a
corruption episode (the policy runs right there), a later crossing
closes it.  What the estimate is *built from* — port counters, or 007
per-flow retransmission votes — changes nothing about that loop, so it
lives here once, feeding the controller's own event heap.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict
from typing import (
    Any, Deque, Dict, List, Mapping, Optional, Tuple, Type,
)

from ..obs.trace import NULL_TRACER
from .controller import ControllerConfig, FleetController
from .policies import fleet_policy
from .topology import CorruptionEpisode, FleetTopology

__all__ = ["Estimator", "EvidenceMonitor", "Verdict"]

#: link_id -> loss estimate, for the links one verdict speaks for
Verdict = Mapping[int, float]


class Estimator:
    """What an evidence kind plugs into :class:`EvidenceMonitor`.

    Constructed as ``cls(topology, obs=obs, **kind_specific_kwargs)``.
    Required: ``links(record)`` — the link ids a record names (the
    monitor range-checks them); ``fold(record)`` — absorb an accepted
    record and return a :data:`Verdict` when estimates moved, else
    ``None``; ``shard_sizes()`` — ``{pod: links under evidence}``.
    The hooks below are optional.
    """

    #: stamped on every decision record and on ``state_dict()``
    evidence = ""
    #: registry namespace of the onset/clear counters; its first
    #: component is the tracer category of the onset/clear instants
    obs_prefix = ""
    #: True when a verdict names *every* suspect link, so an open link
    #: it omits has recovered; False when it speaks only for the links
    #: it names (one port's counters say nothing about the rest)
    complete = False

    def flush(self, now_s: float) -> Optional[Verdict]:
        """Force a verdict from evidence still pending (end of a feed)."""
        return None

    def explain(self, link_id: int) -> Dict[str, Any]:
        """Extra provenance for a link's onset trace instant."""
        return {}

    def counts(self) -> Dict[str, int]:
        """Kind-specific additions to :meth:`EvidenceMonitor.counts`."""
        return {}

    def state(self) -> Dict[str, Any]:
        """Kind-specific additions to :meth:`EvidenceMonitor.state_dict`."""
        return {}


class EvidenceMonitor:
    """Drives a :class:`FleetController` from a live evidence stream.

    Subclasses bind an evidence kind by setting ``estimator_cls``;
    keyword arguments the monitor does not name go to its constructor.
    """

    estimator_cls: Type[Estimator]

    def __init__(self, topology: FleetTopology, config: ControllerConfig,
                 policy: str = "incremental", *,
                 onset_threshold: float = 1e-6,
                 clear_hysteresis: float = 0.1,
                 decision_log: int = 1024,
                 mean_burst: float = 1.0,
                 obs=None, **estimator_kwargs) -> None:
        self.topology = topology
        self._n_links = topology.n_links    # a fabric's link set is fixed
        self.controller = FleetController(
            topology, config, fleet_policy(policy), obs=obs)
        self.estimator = self.estimator_cls(
            topology, obs=obs, **estimator_kwargs)
        self.evidence = self.estimator.evidence
        self.onset_threshold = float(onset_threshold)
        self.clear_threshold = float(onset_threshold) * float(clear_hysteresis)
        self.mean_burst = float(mean_burst)
        self._estimates: Dict[int, float] = {}   # open link -> latest estimate
        self.decisions: Deque[dict] = deque(maxlen=int(decision_log))
        self.records_seen = self.rejected = self.onsets = self.clears = 0
        self.last_record_s = 0.0
        prefix = self.estimator.obs_prefix
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self._trace_category = prefix.split(".")[0]
        self._counters = None if obs is None else {
            name: obs.registry.counter(f"{prefix}.{name}s")
            for name in ("onset", "clear")}

    # -- state access ----------------------------------------------------------

    def corrupting_links(self) -> List[Tuple[int, float]]:
        return sorted(self._estimates.items())

    def shard_sizes(self) -> Dict[int, int]:
        return self.estimator.shard_sizes()

    def tracked_links(self) -> int:
        return sum(self.estimator.shard_sizes().values())

    # -- the streaming transition function -------------------------------------

    def observe(self, record: Any) -> List[dict]:
        """Fold one evidence record in; return any new decisions."""
        estimator = self.estimator
        n_links = self._n_links
        for link_id in estimator.links(record):
            if link_id < 0 or link_id >= n_links:
                self.rejected += 1
                return []
        self.records_seen += 1
        self.last_record_s = now_s = record.time_s
        return self._apply(estimator.fold(record), now_s)

    def flush(self, time_s: Optional[float] = None) -> List[dict]:
        """Force a verdict from pending evidence (end of a feed, drain)."""
        now_s = time_s if time_s is not None else self.last_record_s
        return self._apply(self.estimator.flush(now_s), now_s)

    def _apply(self, verdict: Optional[Verdict], now_s: float) -> List[dict]:
        """The one transition function: schedule onsets and clears, run
        the controller to ``now_s``; returns the decisions they caused."""
        if verdict is None:
            return []
        open_links, estimates = self.controller.open_episodes, self._estimates
        onset_threshold = self.onset_threshold
        for link_id, estimate in verdict.items():
            if link_id in open_links:
                estimates[link_id] = estimate
            elif estimate >= onset_threshold:
                self.controller.schedule_onset(CorruptionEpisode(
                    link_id=link_id, onset_s=now_s, clear_s=math.inf,
                    loss_rate=estimate, mean_burst=self.mean_burst))
                estimates[link_id] = estimate
                self.onsets += 1
                self._emit("onset", link_id, now_s, {
                    "loss_estimate": estimate,
                    **self.estimator.explain(link_id)})
        clear_threshold = self.clear_threshold
        for link_id in (list(open_links) if self.estimator.complete
                        else verdict):
            # a link a complete verdict dropped reads -inf: always clears
            if (link_id in open_links
                    and verdict.get(link_id, -math.inf) < clear_threshold):
                self.controller.schedule_clear(link_id, now_s)
                self.clears += 1
                self._emit("clear", link_id, now_s, {
                    "loss_estimate": estimates.pop(link_id)})
        self.controller.advance(now_s)
        return self._drain_decisions()

    def _emit(self, name: str, link_id: int, now_s: float,
              args: Dict[str, Any]) -> None:
        """One onset or clear onto the registry and the trace."""
        if self._counters is not None:
            self._counters[name].inc()
        if self._tracer.enabled:
            self._tracer.instant(int(now_s * 1e9), self._trace_category,
                                 name, {"link": link_id, **args})

    def _drain_decisions(self) -> List[dict]:
        """The controller's decisions since the last drain, as dicts;
        its list is emptied, so only ``decisions`` keeps them."""
        log = self.controller.outcome.decisions
        if not log:
            return []
        fresh = [{**asdict(decision), "evidence": self.evidence}
                 for decision in log]
        log.clear()
        self.decisions.extend(fresh)
        return fresh

    # -- summaries -------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return {
            **self.controller.outcome.counts(),
            "records_seen": self.records_seen,
            "records_rejected": self.rejected,
            "onsets": self.onsets,
            "clears": self.clears,
            "tracked_links": self.tracked_links(),
            "open_episodes": len(self.controller.open_episodes),
            **self.estimator.counts(),
        }

    def state_dict(self) -> dict:
        """A JSON-able snapshot of the arbitration state (GET /state)."""
        return {
            "evidence": self.evidence,
            "counts": self.counts(),
            "shard_sizes": self.shard_sizes(),
            "corrupting": [
                {"link_id": link_id, "loss_estimate": loss}
                for link_id, loss in self.corrupting_links()
            ],
            "lg_active": self.controller.lg_active_links(),
            "exposed": self.controller.exposed_links(),
            "last_record_s": self.last_record_s,
            **self.estimator.state(),
        }
