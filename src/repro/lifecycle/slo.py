"""Longitudinal SLOs: per-day fleet health series and their rollup.

One-shot campaigns report a single number per SLO; a lifecycle replay
reports the *time series* — day by day across months of simulated fleet
time — plus attainment summaries against explicit targets.  This module
owns the arithmetic:

* :func:`accumulate_days` turns controller segments + decisions +
  repair-queue occupancy into aligned per-day columns (goodput fraction,
  affected-flow fraction, LG activation churn, capacity-floor
  violations, repair-queue depth, link-state seconds) for any day range
  — the unit of work one replay chunk computes;
* :class:`SloConfig` names the availability targets;
* :class:`LifecycleRollup` is the merged result: day columns
  concatenated across chunks, summary SLOs recomputed from the merged
  columns, and a :meth:`~LifecycleRollup.canonical_json` that excludes
  execution detail (chunk count, wall clock) so a time-chunked parallel
  replay is byte-identical to the serial run.

Every quantity here is closed-form over the segment lists — no
randomness — so chunk boundaries can never change a value: a day's
column entry is computed from the same globally-sorted inputs whichever
chunk computes it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ..core.spec import Spec
from ..fleet.controller import ControllerOutcome
from ..fleet.cost import DISABLED, EXPOSED, PROTECTED, segment_cost
from ..units import DAY_S
from .repair import RepairedEpisode

__all__ = [
    "SloConfig", "DAY_COLUMNS", "accumulate_days", "summarize_days",
    "LifecycleRollup", "ROLLUP_VERSION",
]

#: format tag carried by LifecycleRollup.to_json documents
ROLLUP_VERSION = 1


@dataclass(frozen=True)
class SloConfig(Spec):
    """Availability targets the per-day series are scored against."""

    #: a day meets the goodput SLO when fleet goodput fraction >= this
    goodput_target: float = 0.97
    #: ... and the flow SLO when its affected-flow fraction <= this
    affected_target: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.goodput_target <= 1.0:
            raise ValueError("goodput_target must be in (0, 1]")
        if not 0.0 <= self.affected_target <= 1.0:
            raise ValueError("affected_target must be in [0, 1]")


#: the aligned per-day columns every chunk emits, in canonical order
DAY_COLUMNS = (
    "day",
    "goodput_fraction",
    "affected_flow_fraction",
    "exposed_link_s",
    "protected_link_s",
    "disabled_link_s",
    "activations",
    "disables",
    "blocked",
    "preempts",
    "lg_churn",
    "capacity_floor_violations",
    "repair_queue_depth_max",
    "repair_queue_depth_mean",
    "episode_onsets",
)


def accumulate_days(
    replay,
    day_lo: int,
    day_hi: int,
    episodes: List[RepairedEpisode],
    outcome: ControllerOutcome,
    affected_of: Callable[[int], float],
) -> Tuple[Dict[str, list], List[float]]:
    """Per-day columns for days ``[day_lo, day_hi)`` of ``replay`` (a
    :class:`~repro.lifecycle.replay.ReplaySpec`), plus the exposed
    (unprotected) share of each day's affected-flow fraction — what the
    one-shot campaign view needs to place its p99 FCT level, kept out of
    the canonical :data:`DAY_COLUMNS`.

    ``affected_of(episode_index)`` supplies the (tier-evaluated)
    affected-flow fraction of an episode; everything else is closed-form
    over the controller's segments and decisions.  Inputs are always the
    *full* replay's globally-sorted structures — a chunk restricts the
    day range, never the inputs — which is what makes the output
    independent of how the replay was chunked.
    """
    fleet = replay.trace.fleet
    duration_s = replay.trace.duration_s
    n_links, n_pods = fleet.n_links, fleet.n_pods
    links_per_pod = n_links // n_pods
    flows_per_link_per_s = replay.flows_per_link_per_s
    n_days = day_hi - day_lo
    day_span = [
        min(duration_s, (day_lo + d + 1) * DAY_S) - (day_lo + d) * DAY_S
        for d in range(n_days)
    ]

    state_s = {state: [0.0] * n_days
               for state in (EXPOSED, PROTECTED, DISABLED)}
    affected = [0.0] * n_days
    affected_exposed = [0.0] * n_days
    goodput_delta = [0.0] * n_days
    pod_lost = [[0.0] * n_pods for _ in range(n_days)]

    def day_windows(start_s: float, end_s: float):
        """(local day index, overlap seconds) for the chunk's day range."""
        if end_s <= start_s:
            return
        first = max(int(start_s / DAY_S), day_lo)
        last = min(int(end_s / DAY_S), day_hi - 1)
        for day in range(first, last + 1):
            span = min(end_s, (day + 1) * DAY_S) - max(start_s, day * DAY_S)
            if span > 0:
                yield day - day_lo, span

    for index, segments in sorted(outcome.segments.items()):
        episode = episodes[index].episode
        pod = min(episode.link_id // links_per_pod, n_pods - 1)
        for segment in segments:
            exposed = segment.state == EXPOSED
            cost, fraction = segment_cost(
                segment.state, episode.loss_rate, replay.flow_packets,
                replay.controller.lg_target_loss,
                affected_of(index) if exposed else 0.0)
            for day, span in day_windows(segment.start_s, segment.end_s):
                flows = flows_per_link_per_s * span * fraction
                state_s[segment.state][day] += span
                affected[day] += flows
                goodput_delta[day] += span * cost
                if exposed:
                    affected_exposed[day] += flows
                else:
                    # exposed links still carry traffic at full capacity
                    pod_lost[day][pod] += span * cost

    # Clamp instants landing exactly on the trace end into the (global)
    # final day — never into the *chunk's* final day, which would pull
    # later-day events into whichever chunk is being computed.
    last_day = max(0, math.ceil(duration_s / DAY_S) - 1)

    # -- decision buckets (LG activation churn) ---------------------------
    decisions = {name: [0] * n_days
                 for name in ("activate", "disable", "blocked", "preempt")}
    for decision in outcome.decisions:
        day = min(int(decision.time_s / DAY_S), last_day)
        if day_lo <= day < day_hi and decision.action in decisions:
            decisions[decision.action][day - day_lo] += 1

    # -- repair-queue occupancy (global sweep, day-range projection) ------
    queue_events: List[Tuple[float, int]] = []
    onsets = [0] * n_days
    for repaired in episodes:
        onset = repaired.episode.onset_s
        clear = min(onset + repaired.repair_delay_s, duration_s)
        queue_events.append((onset, 1))
        if clear > onset:
            queue_events.append((clear, -1))
        day = min(int(onset / DAY_S), last_day)
        if day_lo <= day < day_hi:
            onsets[day - day_lo] += 1
    queue_events.sort()
    depth_max = [0] * n_days
    depth_weight = [0.0] * n_days
    depth, cursor = 0, 0.0
    for time_s, delta in queue_events:
        for day, span in day_windows(cursor, min(time_s, duration_s)):
            depth_weight[day] += span * depth
            depth_max[day] = max(depth_max[day], depth)
        cursor = min(time_s, duration_s)
        depth += delta
        day = int(min(time_s, duration_s - 1e-9) / DAY_S)
        if day_lo <= day < day_hi:
            depth_max[day - day_lo] = max(depth_max[day - day_lo], depth)
    for day, span in day_windows(cursor, duration_s):
        depth_weight[day] += span * depth
        depth_max[day] = max(depth_max[day], depth)

    # -- capacity-floor violations (pod-days below the floor) -------------
    violations = [0] * n_days
    for d in range(n_days):
        for pod in range(n_pods):
            capacity = 1.0 - pod_lost[d][pod] / (links_per_pod * day_span[d])
            if capacity < replay.controller.pod_capacity_floor:
                violations[d] += 1

    link_day = [n_links * span for span in day_span]
    flow_day = [n_links * flows_per_link_per_s * span for span in day_span]
    days = {
        "day": list(range(day_lo, day_hi)),
        "goodput_fraction": [
            round(1.0 - goodput_delta[d] / link_day[d], 12)
            for d in range(n_days)
        ],
        "affected_flow_fraction": [
            round(affected[d] / flow_day[d], 12) for d in range(n_days)
        ],
        "exposed_link_s": [round(v, 6) for v in state_s[EXPOSED]],
        "protected_link_s": [round(v, 6) for v in state_s[PROTECTED]],
        "disabled_link_s": [round(v, 6) for v in state_s[DISABLED]],
        "activations": decisions["activate"],
        "disables": decisions["disable"],
        "blocked": decisions["blocked"],
        "preempts": decisions["preempt"],
        "lg_churn": [
            decisions["activate"][d] + decisions["preempt"][d]
            for d in range(n_days)
        ],
        "capacity_floor_violations": violations,
        "repair_queue_depth_max": depth_max,
        "repair_queue_depth_mean": [
            round(depth_weight[d] / day_span[d], 6) for d in range(n_days)
        ],
        "episode_onsets": onsets,
    }
    return days, [round(affected_exposed[d] / flow_day[d], 12)
                  for d in range(n_days)]


def summarize_days(days: Dict[str, list], slo: SloConfig) -> Dict[str, float]:
    """Attainment summaries over merged per-day columns."""
    n_days = len(days["day"])
    goodput = days["goodput_fraction"]
    affected = days["affected_flow_fraction"]
    good_days = sum(1 for v in goodput if v >= slo.goodput_target)
    ok_days = sum(1 for v in affected if v <= slo.affected_target)
    return {
        "goodput_slo_attainment": good_days / n_days,
        "affected_slo_attainment": ok_days / n_days,
        "mean_goodput_fraction": sum(goodput) / n_days,
        "min_goodput_fraction": min(goodput),
        "mean_affected_flow_fraction": sum(affected) / n_days,
        "max_affected_flow_fraction": max(affected),
        "capacity_floor_violation_pod_days":
            float(sum(days["capacity_floor_violations"])),
        "repair_queue_depth_max": float(max(days["repair_queue_depth_max"])),
        "repair_queue_depth_mean":
            sum(days["repair_queue_depth_mean"]) / n_days,
        "lg_churn_per_day": sum(days["lg_churn"]) / n_days,
        "exposed_link_s": round(sum(days["exposed_link_s"]), 6),
        "protected_link_s": round(sum(days["protected_link_s"]), 6),
        "disabled_link_s": round(sum(days["disabled_link_s"]), 6),
    }


@dataclass
class LifecycleRollup:
    """The replay's merged longitudinal result.

    ``days`` holds the aligned per-day columns (:data:`DAY_COLUMNS`),
    ``slos`` the attainment summaries, ``counts`` the controller and
    repair audit counters.  ``artifacts`` (obs timeline series) and
    ``wall_s`` are execution detail, excluded from the canonical form.
    """

    spec: Dict[str, Any]
    slos: Dict[str, float]
    counts: Dict[str, int]
    days: Dict[str, list]
    wall_s: float = 0.0
    artifacts: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        return {**self.slos, **self.counts}

    def canonical_json(self) -> str:
        """Deterministic serialization: same trace + replay knobs =>
        byte-identical, independent of chunking/workers.  ``n_chunks``
        is an execution detail (like worker count and wall clock), so a
        time-chunked parallel replay serializes identically to the
        serial run."""
        spec = dict(self.spec)
        spec.pop("n_chunks", None)
        data = {
            "lifecycle_rollup": ROLLUP_VERSION,
            "spec": spec,
            "slos": self.slos,
            "counts": self.counts,
            "days": self.days,
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        """Full one-document form for ``--out`` files (wall clock and
        artifacts included; ``repro lifecycle report`` reads this)."""
        data = json.loads(self.canonical_json())
        data["spec"] = dict(self.spec)
        data["wall_s"] = self.wall_s
        if self.artifacts:
            data["artifacts"] = self.artifacts
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "LifecycleRollup":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
        if not isinstance(data, dict) or (
                data.get("lifecycle_rollup") != ROLLUP_VERSION):
            raise ValueError(
                f"not a lifecycle rollup document (lifecycle_rollup tag "
                f"{data.get('lifecycle_rollup') if isinstance(data, dict) else None!r}, "
                f"expected {ROLLUP_VERSION})")
        return cls(
            spec=data.get("spec", {}),
            slos=data.get("slos", {}),
            counts=data.get("counts", {}),
            days=data.get("days", {}),
            wall_s=data.get("wall_s", 0.0),
            artifacts=data.get("artifacts", {}),
        )
