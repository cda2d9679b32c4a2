"""Longitudinal SLOs: per-day fleet health series and their rollup.

One-shot campaigns report a single number per SLO; a lifecycle replay
reports the *time series* — day by day across months of simulated fleet
time — plus attainment summaries against explicit targets.  This module
owns the arithmetic:

* :func:`accumulate_days` turns controller segments + decisions +
  repair-queue occupancy into aligned per-day columns (goodput fraction,
  affected-flow fraction, LG activation churn, capacity-floor
  violations, repair-queue depth, link-state seconds) for every day of
  a replay, computed once per replay and sliced into its chunks;
* :class:`SloConfig` names the availability targets;
* :class:`LifecycleRollup` is the merged result: day columns
  concatenated across chunks, summary SLOs recomputed from the merged
  columns, and a :meth:`~LifecycleRollup.canonical_json` that excludes
  execution detail (chunk count, wall clock) so a time-chunked parallel
  replay is byte-identical to the serial run.

Every quantity here is closed-form over the segment lists — no
randomness — and a chunk is a slice of the one evaluation, so chunk
boundaries can never change a value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

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


def _day_windows(starts, ends):
    """Every ``[start, end)`` row's overlap with each day as aligned
    ``(row, day, seconds)`` arrays: rows in input order, days ascending
    within a row, empty overlaps dropped — the order a per-row loop over
    the days visits them."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    first = (starts / DAY_S).astype(np.int64)
    last = (ends / DAY_S).astype(np.int64)
    count = np.where(ends > starts, np.maximum(last - first + 1, 0), 0)
    row = np.repeat(np.arange(len(starts)), count)
    day = (first[row] + np.arange(len(row))
           - np.repeat(np.cumsum(count) - count, count))
    span = (np.minimum(ends[row], (day + 1) * DAY_S)
            - np.maximum(starts[row], day * DAY_S))
    keep = span > 0
    return row[keep], day[keep], span[keep]


def accumulate_days(
    replay,
    episodes: List[RepairedEpisode],
    outcome: ControllerOutcome,
    affected_of: Callable[[int], float],
) -> Tuple[Dict[str, list], List[float]]:
    """Per-day columns for every day of ``replay`` (a
    :class:`~repro.lifecycle.replay.ReplaySpec`), plus the exposed
    (unprotected) share of each day's affected-flow fraction — what the
    one-shot campaign view needs to place its p99 FCT level, kept out of
    the canonical :data:`DAY_COLUMNS`.

    ``affected_of(episode_index)`` supplies the (tier-evaluated)
    affected-flow fraction of an episode; everything else is closed-form
    over the controller's segments and decisions.  A replay chunk is a
    slice of these columns, so the output cannot depend on how the
    replay was chunked.
    """
    fleet = replay.trace.fleet
    duration_s = replay.trace.duration_s
    n_links, n_pods = fleet.n_links, fleet.n_pods
    links_per_pod = n_links // n_pods
    flows_per_link_per_s = replay.flows_per_link_per_s
    n_days = replay.n_days
    day_span = [min(duration_s, (d + 1) * DAY_S) - d * DAY_S
                for d in range(n_days)]

    def fold(day, weights, minlength=n_days):
        """Per-day sums: ``bincount`` adds each bin's weights in input
        order from 0.0, the per-row loop's own summation.  An empty input
        comes back int64, hence the cast."""
        return np.bincount(day, weights, minlength).astype(np.float64)

    # -- segment pricing: one segment_cost call per controller segment ----
    states: List[str] = []
    rows: List[Tuple[float, float, int, float, float]] = []
    for index, segments in sorted(outcome.segments.items()):
        episode = episodes[index].episode
        pod = min(episode.link_id // links_per_pod, n_pods - 1)
        for segment in segments:
            cost, fraction = segment_cost(
                segment.state, episode.loss_rate, replay.flow_packets,
                replay.controller.lg_target_loss,
                affected_of(index) if segment.state == EXPOSED else 0.0)
            states.append(segment.state)
            rows.append((segment.start_s, segment.end_s, pod, cost, fraction))
    start, end, pod, cost, fraction = np.array(
        rows, dtype=np.float64).reshape(-1, 5).T
    row, day, span = _day_windows(start, end)
    state = np.array(states, dtype=str)[row]
    exposed = state == EXPOSED
    flows = flows_per_link_per_s * span * fraction[row]
    lost = span * cost[row]
    state_s = {name: fold(day[state == name], span[state == name])
               for name in (EXPOSED, PROTECTED, DISABLED)}
    affected = fold(day, flows)
    affected_exposed = fold(day[exposed], flows[exposed])
    goodput_delta = fold(day, lost)
    # exposed links still carry traffic at full capacity
    carried = ~exposed
    pod_lost = fold(
        day[carried] * n_pods + pod[row][carried].astype(np.int64),
        lost[carried], n_days * n_pods).reshape(n_days, n_pods)

    # Clamp instants landing exactly on the trace end into the final day.
    last_day = n_days - 1

    # -- decision buckets (LG activation churn) ---------------------------
    decisions = {name: [0] * n_days
                 for name in ("activate", "disable", "blocked", "preempt")}
    for decision in outcome.decisions:
        if decision.action in decisions:
            decisions[decision.action][
                min(int(decision.time_s / DAY_S), last_day)] += 1

    # -- repair-queue occupancy (one sweep over every onset and clear) -----
    onset = np.array([r.episode.onset_s for r in episodes], dtype=np.float64)
    clear = np.minimum(
        onset + np.array([r.repair_delay_s for r in episodes],
                         dtype=np.float64), duration_s)
    onset_day = np.minimum((onset / DAY_S).astype(np.int64), last_day)
    onsets = np.bincount(onset_day, minlength=n_days)
    # +1 at every onset, -1 at every clear after it, in (time, delta) order
    times = np.concatenate([onset, clear[clear > onset]])
    deltas = np.concatenate([np.ones(len(onset), dtype=np.int64),
                             np.full(len(times) - len(onset), -1)])
    order = np.lexsort((deltas, times))
    times = times[order]
    depth = np.cumsum(deltas[order])
    # the queue sits at depth[k] over the gap [c_k, c_{k+1})
    cursor = np.minimum(times, duration_s)
    level = np.concatenate([[0], depth])
    row, day, span = _day_windows(np.concatenate([[0.0], cursor]),
                                  np.concatenate([cursor, [duration_s]]))
    depth_weight = fold(day, span * level[row])
    depth_max = np.zeros(n_days, dtype=np.int64)
    np.maximum.at(depth_max, day, level[row])
    instant = np.minimum((times / DAY_S).astype(np.int64), last_day)
    np.maximum.at(depth_max, instant, depth)

    # -- capacity-floor violations (pod-days below the floor) -------------
    capacity = 1.0 - pod_lost / (links_per_pod * np.array(day_span))[:, None]
    violations = (capacity < replay.controller.pod_capacity_floor).sum(axis=1)

    # Python floats from here on: numpy's round() is not Python's.
    link_day = [n_links * span for span in day_span]
    flow_day = [n_links * flows_per_link_per_s * span for span in day_span]
    days = {
        "day": list(range(n_days)),
        "goodput_fraction": [
            round(1.0 - delta / link, 12)
            for delta, link in zip(goodput_delta.tolist(), link_day)
        ],
        "affected_flow_fraction": [
            round(flows / total, 12)
            for flows, total in zip(affected.tolist(), flow_day)
        ],
        "exposed_link_s": [round(v, 6) for v in state_s[EXPOSED].tolist()],
        "protected_link_s": [round(v, 6) for v in state_s[PROTECTED].tolist()],
        "disabled_link_s": [round(v, 6) for v in state_s[DISABLED].tolist()],
        "activations": decisions["activate"],
        "disables": decisions["disable"],
        "blocked": decisions["blocked"],
        "preempts": decisions["preempt"],
        "lg_churn": [
            decisions["activate"][d] + decisions["preempt"][d]
            for d in range(n_days)
        ],
        "capacity_floor_violations": violations.tolist(),
        "repair_queue_depth_max": depth_max.tolist(),
        "repair_queue_depth_mean": [
            round(weight / span, 6)
            for weight, span in zip(depth_weight.tolist(), day_span)
        ],
        "episode_onsets": onsets.tolist(),
    }
    return days, [round(flows / total, 12)
                  for flows, total in zip(affected_exposed.tolist(), flow_day)]


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
