"""BlameMonitor: voting verdicts driving corruptd's onset/clear signals.

The monitor is the drop-in replacement for the port-counter path: the
same :class:`~repro.fleet.monitor.EvidenceMonitor` loop the service's
:class:`~repro.service.arbiter.StreamingArbiter` runs, fed by an
estimator that folds **flow reports** into a sliding evidence window
and re-runs the 007 vote at a fixed cadence — so the policy, capacity
checks, budget accounting, and decision audit trail are byte-for-byte
the machinery the oracle path uses.  The only difference an operator
sees is the ``evidence`` label on each decision record: ``"voting"``
here, ``"port_counters"`` there.

A re-vote is a *complete* verdict: a link enters with an inverted loss
estimate at or above ``onset_threshold``; an open link clears when it
leaves the blamed set or its estimate falls below the clear threshold
— with the extra lag that flagged flows take up to ``window_s`` to age
out of the evidence window after the link actually heals.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..fleet.controller import ControllerConfig, FleetController
from ..fleet.monitor import Estimator, EvidenceMonitor, Verdict
from ..fleet.policies import fleet_policy
from ..fleet.topology import FleetSpec, FleetTopology
from .evidence import FlowReport
from .voting import BlameReport, VoteWindow

__all__ = [
    "BlameMonitor", "VotingEstimator", "decision_signature", "run_oracle",
    "run_voting",
]


class VotingEstimator(Estimator):
    """A sliding window of flow reports, re-voted every ``eval_interval_s``.

    The window is a :class:`~repro.blame.voting.VoteWindow`: crossing
    counts move as reports enter and expire, so a re-vote costs the
    flagged flows in the window, not the window.
    """

    evidence = "voting"
    obs_prefix = "blame.monitor"
    complete = True

    def __init__(self, topology: FleetTopology, *,
                 window_s: float = 60.0,
                 eval_interval_s: Optional[float] = None,
                 flow_packets: int = 100,
                 min_votes: float = 2.0,
                 obs=None) -> None:
        self.topology = topology
        self.window_s = float(window_s)
        self.eval_interval_s = (float(eval_interval_s)
                                if eval_interval_s is not None
                                else self.window_s / 4.0)
        if self.window_s <= 0 or self.eval_interval_s <= 0:
            raise ValueError("window_s and eval_interval_s must be positive")
        self.flow_packets = int(flow_packets)
        self.min_votes = float(min_votes)
        self.window = VoteWindow()
        #: the window's reports, oldest first (the deque it owns)
        self._reports = self.window.reports
        self._newest_s = -math.inf
        self._next_eval_s: Optional[float] = None
        self.last_verdict: Optional[BlameReport] = None
        self.flagged_seen = 0
        self.evaluations = 0
        self._counters = None if obs is None else {
            name: obs.registry.counter(f"{self.obs_prefix}.{name}")
            for name in ("reports", "flagged", "evaluations")}

    def links(self, report: FlowReport) -> Tuple[int, ...]:
        return report.path

    def fold(self, report: FlowReport) -> Optional[Verdict]:
        if report.retx:
            self.flagged_seen += 1
        if self._counters is not None:
            self._counters["reports"].inc()
            if report.retx:
                self._counters["flagged"].inc()
        # The window ends at the newest time it has seen: a report that
        # arrives already older than that horizon never enters, and one
        # far-future report cannot pin the rest in place.
        time_s = report.time_s
        if time_s > self._newest_s:
            self._newest_s = time_s
        horizon = self._newest_s - self.window_s
        window = self.window
        if time_s >= horizon:
            window.add(report)
        window.expire(horizon)
        if self._next_eval_s is None:
            self._next_eval_s = time_s + self.eval_interval_s
        if time_s < self._next_eval_s:
            return None
        self._next_eval_s = time_s + self.eval_interval_s
        return self.flush(time_s)

    def flush(self, now_s: float) -> Verdict:
        """Re-run the vote over the current window."""
        self.evaluations += 1
        if self._counters is not None:
            self._counters["evaluations"].inc()
        self.last_verdict = verdict = self.window.tally(
            self.flow_packets, self.min_votes)
        estimates = {
            score.link_id: score.loss_estimate for score in verdict.ranked}
        return {link_id: estimates.get(link_id, 0.0)
                for link_id in verdict.blamed}

    def explain(self, link_id: int) -> Dict[str, Any]:
        score = self.last_verdict.score_for(link_id)
        return {"votes": score.votes if score else 0.0}

    def shard_sizes(self) -> Dict[int, int]:
        """Links under evidence in the current window, grouped by pod."""
        by_pod: Dict[int, int] = {}
        for link_id in self.window.crossings:
            pod = self.topology.link(link_id).pod
            by_pod[pod] = by_pod.get(pod, 0) + 1
        return dict(sorted(by_pod.items()))

    def counts(self) -> Dict[str, int]:
        return {"reports_flagged": self.flagged_seen,
                "evaluations": self.evaluations}

    def state(self) -> Dict[str, Any]:
        return {"last_verdict": (self.last_verdict.to_dict()
                                 if self.last_verdict is not None else None)}


class BlameMonitor(EvidenceMonitor):
    """Drives a :class:`FleetController` from a live flow-report stream."""

    estimator_cls = VotingEstimator


# ---------------------------------------------------------------------------
# Oracle comparison: does voting reach the counters' verdicts?
# ---------------------------------------------------------------------------

def decision_signature(decisions) -> List[Tuple[int, str]]:
    """The policy-visible core of a decision stream: (link, action).

    Times and loss rates are excluded on purpose — the voting path sees
    onsets later (evidence must accumulate) and estimates loss rather
    than measuring it, but *which link* got *which remedy* must match
    the oracle within hysteresis.
    """
    out = []
    for decision in decisions:
        if isinstance(decision, dict):
            link_id, action = decision["link_id"], decision["action"]
        else:
            link_id, action = decision.link_id, decision.action
        if action != "clear":
            out.append((link_id, action))
    return out


def run_oracle(fleet: FleetSpec, seed: int, config: ControllerConfig,
               policy: str, episodes) -> List[Tuple[int, str]]:
    """Batch-arbitrate ground-truth episodes on a fresh topology."""
    topology = FleetTopology(fleet, seed=seed)
    controller = FleetController(topology, config, fleet_policy(policy))
    outcome = controller.run(list(episodes))
    return decision_signature(outcome.decisions)


def run_voting(fleet: FleetSpec, seed: int, config: ControllerConfig,
               policy: str, reports, **monitor_kwargs) -> BlameMonitor:
    """Feed a report stream through a fresh BlameMonitor; returns it.

    A final :meth:`BlameMonitor.flush` runs so evidence at the tail of
    the stream still reaches a verdict.
    """
    topology = FleetTopology(fleet, seed=seed)
    monitor = BlameMonitor(topology, config, policy, **monitor_kwargs)
    for report in reports:
        monitor.observe(report)
    monitor.flush()
    return monitor
