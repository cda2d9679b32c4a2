"""007-style voting: flagged flows split votes over their paths.

The scheme is 007's (PAPERS.md): every flow that retransmitted casts
one vote, split equally across the links of its inferred ECMP path.
Innocent links collect diluted votes from many different flagged flows;
the corrupting link collects a share of *every* flow that crossed it,
so its tally dominates.  Ranking uses explain-away iteration — blame
the top link, discard the flagged flows it explains, re-tally — which
suppresses the path-sharing neighbours of a genuinely bad link (they
were only ever co-voted, never independently flagged).

A :class:`BlameReport` is the windowed output: per-link scores,
crossing counts, an inverted per-packet loss estimate, and the blamed
set.  :func:`evaluate_blame` scores reports against ground truth —
synthetic single-bad-link trials, or a lifecycle trace's repaired
episodes — into precision / recall / top-1 accuracy, the metrics the
acceptance bar and CI assert on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence

from ..core.rng import RngFactory
from ..core.spec import Spec, ranged
from ..fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology
from .evidence import EvidenceSpec, FlowReport, LossOracle, harvest_evidence

__all__ = [
    "LinkScore", "BlameReport", "VoteWindow", "tally_votes",
    "invert_flow_loss",
    "BlameEvalSpec", "evaluate_blame",
]


@dataclass(frozen=True)
class LinkScore:
    """One link's standing in a voting window."""

    link_id: int
    votes: float          # explain-away-attributed vote mass
    flagged: int          # flagged flows attributed to this link
    crossings: int        # all surviving flows that crossed it
    loss_estimate: float  # inverted per-packet loss rate
    confidence: float     # attributed share of the window's vote mass

    def to_dict(self) -> Dict[str, Any]:
        return {
            "link_id": self.link_id, "votes": self.votes,
            "flagged": self.flagged, "crossings": self.crossings,
            "loss_estimate": self.loss_estimate,
            "confidence": self.confidence,
        }


@dataclass
class BlameReport:
    """The voting verdict over one evidence window."""

    t_lo: float
    t_hi: float
    n_reports: int
    n_flagged: int
    #: explain-away ranking, strongest blame first
    ranked: List[LinkScore] = field(default_factory=list)
    #: links blamed with enough independent support (see ``min_votes``)
    blamed: List[int] = field(default_factory=list)

    def top(self, k: int = 1) -> List[int]:
        return [score.link_id for score in self.ranked[:k]]

    @property
    def top1(self) -> Optional[int]:
        return self.ranked[0].link_id if self.ranked else None

    def score_for(self, link_id: int) -> Optional[LinkScore]:
        for score in self.ranked:
            if score.link_id == link_id:
                return score
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t_lo": self.t_lo, "t_hi": self.t_hi,
            "n_reports": self.n_reports, "n_flagged": self.n_flagged,
            "blamed": self.blamed,
            "ranked": [score.to_dict() for score in self.ranked],
        }


_time_of = attrgetter("time_s")


def invert_flow_loss(flagged_fraction: float, flow_packets: int) -> float:
    """Per-packet loss from the flagged fraction of a link's crossings.

    Inverts ``p_flow = 1 - (1 - p_pkt)^packets``; clipped away from 1
    so a window where every crossing flagged still inverts finitely.
    """
    p_flow = min(max(flagged_fraction, 0.0), 1.0 - 1e-12)
    return 1.0 - (1.0 - p_flow) ** (1.0 / max(flow_packets, 1))


class VoteWindow:
    """The reports of one voting window, tallied as they enter and leave.

    Three things are kept up to date on :meth:`add` and :meth:`expire`:
    the report deque, the flagged subset (``retx`` with a non-empty
    path) in window order, and a per-link crossing count — exact
    integers, a link counted once per appearance on a path.  A
    :meth:`tally` then reads crossings from the running map and touches
    only the flagged flows, not the whole window; the keys of
    ``crossings`` are exactly the links some report in the window
    crossed.
    """

    __slots__ = ("reports", "flagged", "crossings")

    def __init__(self, reports: Iterable[FlowReport] = ()) -> None:
        self.reports: Deque[FlowReport] = deque()
        self.flagged: Deque[FlowReport] = deque()
        self.crossings: Dict[int, int] = {}
        for report in reports:
            self.add(report)

    def add(self, report: FlowReport) -> None:
        """Append one report on the right."""
        self.reports.append(report)
        crossings = self.crossings
        path = report.path
        for link in path:
            crossings[link] = crossings.get(link, 0) + 1
        if report.retx and path:
            self.flagged.append(report)

    def expire(self, horizon_s: float) -> None:
        """Drop reports from the left while the oldest is before
        ``horizon_s``; a report behind a newer one waits its turn."""
        reports, crossings = self.reports, self.crossings
        while reports and reports[0].time_s < horizon_s:
            report = reports.popleft()
            path = report.path
            for link in path:
                left = crossings[link] - 1
                if left:
                    crossings[link] = left
                else:
                    del crossings[link]
            if report.retx and path:
                # the flagged subset is in window order: this is its head
                self.flagged.popleft()

    def tally(self, flow_packets: int = 100, min_votes: float = 2.0,
              max_rounds: int = 32) -> BlameReport:
        """The window's :class:`BlameReport`; see :func:`tally_votes`."""
        reports, crossings = self.reports, self.crossings
        # Vote mass and flagged counts are summed over the flagged flows
        # in window order, so every float addition happens in the order
        # a full pass over the window would make it.
        flagged_by_link: Dict[int, int] = {}
        votes: Dict[int, float] = {}
        flagged_flows = list(self.flagged)
        for report in flagged_flows:
            share = 1.0 / len(report.path)
            for link in report.path:
                votes[link] = votes.get(link, 0.0) + share
                flagged_by_link[link] = flagged_by_link.get(link, 0) + 1
        if reports:
            t_lo = min(map(_time_of, reports))
            t_hi = max(map(_time_of, reports))
        else:
            t_lo = t_hi = 0.0

        total_votes = float(len(flagged_flows))
        out = BlameReport(
            t_lo=t_lo, t_hi=t_hi,
            n_reports=len(reports), n_flagged=len(flagged_flows),
        )

        def score_of(link: int, vote_mass: float, flows: int) -> LinkScore:
            n_cross = crossings.get(link, 0)
            fraction = flows / n_cross if n_cross else 0.0
            return LinkScore(
                link_id=link, votes=vote_mass, flagged=flows,
                crossings=n_cross,
                loss_estimate=invert_flow_loss(fraction, flow_packets),
                confidence=vote_mass / total_votes if total_votes else 0.0,
            )

        # Explain-away rounds over the flagged flows.  A link is blamed
        # only while it carries ``min_votes`` of vote mass AND its flagged
        # count clears the binomial noise bar: against the *residual*
        # background flag rate (recomputed each round, so one severe link
        # does not inflate the bar for milder ones), the expected chance
        # flags on its crossings plus four standard deviations.
        # Background retransmissions (congestion, timeouts) therefore
        # stop promoting innocent links into the blamed set as windows
        # grow.
        n_total = max(len(reports), 1)
        remaining = list(flagged_flows)
        live_votes = dict(votes)
        live_flagged = dict(flagged_by_link)
        for _ in range(max_rounds):
            if not remaining:
                break
            top_link = max(live_votes,
                           key=lambda link: (live_votes[link], -link))
            if live_votes[top_link] < min_votes:
                break
            noise_rate = len(remaining) / n_total
            noise_mean = noise_rate * crossings.get(top_link, 0)
            noise_bar = noise_mean + 4.0 * math.sqrt(noise_mean) + 2.0
            if live_flagged[top_link] < noise_bar:
                break
            out.ranked.append(score_of(
                top_link, live_votes[top_link], live_flagged[top_link]))
            out.blamed.append(top_link)
            survivors = []
            for report in remaining:
                if top_link in report.path:
                    share = 1.0 / len(report.path)
                    for link in report.path:
                        live_votes[link] -= share
                        live_flagged[link] -= 1
                        if live_flagged[link] <= 0:
                            live_votes.pop(link, None)
                            live_flagged.pop(link, None)
                else:
                    survivors.append(report)
            remaining = survivors

        # Residuals: everything not blamed, by leftover vote mass.
        blamed_set = set(out.blamed)
        residual = sorted(
            ((mass, link) for link, mass in live_votes.items()
             if link not in blamed_set),
            key=lambda item: (-item[0], item[1]))
        for mass, link in residual:
            out.ranked.append(score_of(link, mass, live_flagged.get(link, 0)))
        return out


def tally_votes(
    reports: Sequence[FlowReport],
    *,
    flow_packets: int = 100,
    min_votes: float = 2.0,
    max_rounds: int = 32,
) -> BlameReport:
    """Tally one window of reports into a ranked :class:`BlameReport`.

    Explain-away rounds run while the strongest remaining link holds at
    least ``min_votes`` of un-attributed vote mass; the links blamed in
    those rounds form ``blamed``.  Remaining links are appended to the
    ranking by residual votes so the report is a total order.
    """
    return VoteWindow(reports).tally(flow_packets, min_votes, max_rounds)


# ---------------------------------------------------------------------------
# Accuracy evaluation against ground truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlameEvalSpec(Spec):
    """One blame-accuracy experiment: evidence shape x ground truth.

    ``mode="trials"`` runs synthetic single-bad-link windows: trial k
    plants one corrupting link (drawn from the addressed stream
    ``blame.eval.trial`` at ``index=k``) at a log-uniform loss rate and
    asks voting to find it — the top-1 acceptance bar.  ``mode="trace"``
    replays lifecycle ground truth: windows over a generated failure
    trace with the repair loop applied, truth being every link
    corrupting above ``detectable_loss`` during the window.
    """

    fleet: FleetSpec = field(default_factory=lambda: FleetSpec(
        n_pods=2, tors_per_pod=4, fabrics_per_pod=2, spine_uplinks=4))
    mode: str = "trials"
    n_trials: int = ranged(20, "[1, inf)")
    window_s: float = ranged(60.0, "(0, inf)")
    #: the evidence shape (see :class:`EvidenceSpec`, which checks it)
    coverage: float = 1.0
    flows_per_s: float = 0.0
    flow_packets: int = 100
    base_retx_prob: float = 0.002
    min_votes: float = ranged(2.0, "[0, inf)")
    #: trials mode: planted loss rates, log-uniform in [lo, hi]
    loss_lo: float = ranged(5e-4, "(0, 1]")
    loss_hi: float = ranged(5e-3, "(0, 1]")
    #: trace mode: days of lifecycle time to window over
    trace_days: float = ranged(10.0, "(0, inf)")
    #: trace mode: truth is links corrupting at or above this rate
    detectable_loss: float = ranged(1e-4, "[0, 1]")
    repair: str = "corropt"
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("trials", "trace"):
            raise ValueError(f"unknown eval mode {self.mode!r}")
        if not self.loss_lo <= self.loss_hi:
            raise ValueError("need loss_lo <= loss_hi")
        self.evidence(self.seed)

    def evidence(self, seed: int) -> EvidenceSpec:
        return EvidenceSpec(
            flows_per_s=self.flows_per_s, flow_packets=self.flow_packets,
            coverage=self.coverage, base_retx_prob=self.base_retx_prob,
            seed=seed)


def _score_window(report: BlameReport, truth: List[int],
                  totals: Dict[str, float]) -> None:
    truth_set = set(truth)
    blamed = set(report.blamed)
    correct = len(blamed & truth_set)
    totals["windows"] += 1
    totals["blamed"] += len(blamed)
    totals["correct"] += correct
    totals["truth"] += len(truth_set)
    totals["recalled"] += len(truth_set & blamed)
    if len(truth_set) == 1:
        totals["single_windows"] += 1
        if report.top1 in truth_set:
            totals["single_top1"] += 1
    if report.top1 in truth_set:
        totals["top1"] += 1


def _finalize(totals: Dict[str, float], spec: BlameEvalSpec,
              skipped: int) -> Dict[str, Any]:
    windows = totals["windows"]
    single = totals["single_windows"]
    return {
        "mode": spec.mode,
        "coverage": spec.coverage,
        "windows": int(windows),
        "windows_skipped": skipped,
        "single_bad_link_windows": int(single),
        "top1_accuracy": totals["top1"] / windows if windows else 0.0,
        "single_top1_accuracy": (
            totals["single_top1"] / single if single else 0.0),
        "precision": (
            totals["correct"] / totals["blamed"] if totals["blamed"]
            else 0.0),
        "recall": (
            totals["recalled"] / totals["truth"] if totals["truth"]
            else 0.0),
        "mean_blamed": totals["blamed"] / windows if windows else 0.0,
    }


def evaluate_blame(spec: BlameEvalSpec, obs=None) -> Dict[str, Any]:
    """Run one accuracy evaluation; returns the metrics summary.

    Deterministic for a given spec: trials address their bad-link and
    loss draws by trial index, evidence addresses its flows by global
    flow index, and trace mode regenerates the same lifecycle trace the
    replay pipeline would.
    """
    topology = FleetTopology(spec.fleet, seed=spec.seed)
    factory = RngFactory(spec.seed)
    totals = {key: 0.0 for key in (
        "windows", "blamed", "correct", "truth", "recalled", "top1",
        "single_windows", "single_top1")}
    skipped = 0
    counter = None
    if obs is not None:
        counter = obs.registry.counter("blame.eval.windows")

    if spec.mode == "trials":
        for trial in range(spec.n_trials):
            rng = factory.stream("blame.eval.trial", index=trial)
            bad_link = int(rng.integers(topology.n_links))
            log_lo, log_hi = math.log(spec.loss_lo), math.log(spec.loss_hi)
            loss = math.exp(float(rng.uniform(log_lo, log_hi)))
            episode = CorruptionEpisode(
                link_id=bad_link, onset_s=0.0, clear_s=spec.window_s,
                loss_rate=loss, mean_burst=1.0)
            evidence = spec.evidence(
                seed=factory.child_seed("blame.eval.evidence", index=trial))
            reports = harvest_evidence(
                evidence, topology, [episode], 0.0, spec.window_s)
            verdict = tally_votes(
                reports, flow_packets=spec.flow_packets,
                min_votes=spec.min_votes)
            _score_window(verdict, [bad_link], totals)
            if counter is not None:
                counter.inc()
        return _finalize(totals, spec, skipped)

    # mode == "trace": lifecycle ground truth.
    from ..lifecycle.repair import corruption_episodes
    from ..lifecycle.traces import TraceSpec

    episodes = corruption_episodes(TraceSpec(
        fleet=spec.fleet, duration_days=spec.trace_days, seed=spec.seed),
        spec.repair)
    oracle = LossOracle(episodes)
    evidence = spec.evidence(seed=factory.child_seed("blame.trace.evidence"))
    duration_s = spec.trace_days * 24 * 3600.0
    n_windows = int(duration_s // spec.window_s)
    evaluated = 0
    for index in range(n_windows):
        if evaluated >= spec.n_trials:
            break
        t_lo = index * spec.window_s
        mid = t_lo + spec.window_s / 2
        truth = oracle.corrupting_at(mid, min_loss=spec.detectable_loss)
        if not truth:
            skipped += 1
            continue
        reports = harvest_evidence(
            evidence, topology, episodes, t_lo, t_lo + spec.window_s)
        verdict = tally_votes(
            reports, flow_packets=spec.flow_packets,
            min_votes=spec.min_votes)
        _score_window(verdict, truth, totals)
        evaluated += 1
        if counter is not None:
            counter.inc()
    return _finalize(totals, spec, skipped)
