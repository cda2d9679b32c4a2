"""Large-scale deployment study (paper Figures 15 and 16, §4.8).

Runs the CorrOpt-vs-(LinkGuardian+CorrOpt) comparison on the
Facebook-fabric topology for both capacity constraints (50% and 75%)
and post-processes the time series into:

* hourly **series** (Figure 15): total penalty, least paths per ToR
  and least capacity per pod versus time;
* year-long **CDFs** (Figure 16): the gain in total penalty and the
  decrease in least capacity per pod of the combined policy relative to
  vanilla CorrOpt.

Following the authors' simulator, every solution replays one fixed
failure trace (:func:`repro.lifecycle.generate_trace`) through the one
arbitration engine (:class:`~repro.fleet.controller.FleetController`)
and prices LinkGuardian with the one cost model (:mod:`repro.fleet.cost`).
What stays local is CorrOpt's **repair clock**: the 2-or-4-day repair
starts when a link is *disabled*, not when it starts corrupting, so a
link the fast checker blocks keeps corrupting until an optimizer pass
(run at every repair completion) finds room to disable it.  That is why
this is not a view over :mod:`repro.lifecycle.replay`, whose tickets
open at onset — a blocked link there clears itself in 2-4 days, which
would erase exactly the penalty Figure 16 measures.

The topology scale is configurable; the paper's ~100K-link fabric is
``n_pods=260`` with 48/4/48 — the defaults here are a smaller fabric
that preserves per-pod structure (and hence the checker's behaviour)
while keeping the simulation seconds-fast in Python.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from ..corropt.trace import MTTF_HOURS
from ..fleet.controller import ControllerConfig, FleetController
from ..fleet.policies import IncrementalDeploymentPolicy
from ..fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology
from ..lifecycle.repair import CorrOptRepairPolicy, repair_delay_s
from ..lifecycle.traces import LifecycleTrace, TraceSpec, generate_trace
from ..runner import CellResult, ExperimentSpec, RunContext
from ..units import HOURS

__all__ = [
    "DeploymentResult", "DeploymentComparison", "replay_corropt",
    "penalty_gain", "capacity_decrease", "run_deployment_comparison",
    "deployment_cell",
]

_PENALTY_FLOOR = 1e-12
_REPAIR = CorrOptRepairPolicy()
#: a comparison's hourly series, each named ``<policy>_<name>``: name ->
#: the DeploymentResult field it is
_SERIES = {"penalty": "total_penalty", "least_paths": "least_paths_fraction",
           "least_capacity": "least_capacity_fraction"}


@dataclass
class DeploymentResult:
    """One policy's sampled metrics (Zhuo et al.: total penalty, least
    paths per ToR; the paper adds least capacity per pod) and counters."""

    times_s: np.ndarray
    total_penalty: np.ndarray
    least_paths_fraction: np.ndarray
    least_capacity_fraction: np.ndarray
    corruption_events: int = 0
    disabled_immediately: int = 0
    disabled_by_optimizer: int = 0
    constraint_blocked: int = 0
    max_concurrent_lg_links: int = 0
    max_lg_links_per_pod: int = 0


class _CorrOptStudyPolicy(IncrementalDeploymentPolicy):
    """CorrOpt as §4.8 runs it: disable when the fast checker allows,
    LinkGuardian (where deployed) on what it blocks, and an optimizer
    pass at every repair completion that revisits LG-protected links as
    well — masking a link is not repairing it.  Deliberately not in the
    ``POLICIES`` registry: it only makes sense on the disable-then-repair
    clock :func:`replay_corropt` keeps."""

    name = "corropt-study"

    def on_clear(self, controller, link, episode, index) -> None:
        held = (controller.exposed_worst_first()
                + controller.protected_worst_first())
        for other_index, other in held:
            other_link = controller.topology.link(other.link_id)
            # the checker's verdict is per pod: only the repaired link's
            # pod has gained room since these links were last tried
            if other_link.pod == link.pod:
                controller.try_disable(other_link, other, other_index,
                                       episode.clear_s)


def replay_corropt(
    trace: LifecycleTrace,
    capacity_constraint: float,
    lg_deployment_fraction: float,
    sample_interval_s: float = HOURS,
) -> DeploymentResult:
    """One policy's run over ``trace`` on CorrOpt's repair clock.

    ``lg_deployment_fraction`` 0 is vanilla CorrOpt, 1 the fleet-wide
    upgrade.  LinkGuardian is bounded only by where it is deployed (no
    activation budget, no pod floor), as in the paper's study.  An onset
    on a link that is still corrupting or out for repair is the same
    physical fault and is dropped.
    """
    spec = trace.spec
    duration_s = spec.duration_s
    topology = FleetTopology(spec.fleet, seed=spec.seed)
    controller = FleetController(topology, ControllerConfig(
        capacity_constraint=capacity_constraint, pod_capacity_floor=0.0,
        activation_budget=topology.n_links,
        lg_deployment_fraction=lg_deployment_fraction,
    ), _CorrOptStudyPolicy())
    decisions = controller.outcome.decisions

    # Metrics only move at events: keep each corrupting-and-up link's
    # penalty and each pod's paths/capacity, update what the event's
    # decisions touched, and record one change-point per event.
    penalty_of: Dict[int, float] = {}
    lg_active = [set() for _ in range(topology.n_pods)]    # per pod
    pod_paths = [1.0] * topology.n_pods
    pod_capacity = [1.0] * topology.n_pods
    points = [(-math.inf, 0.0, 1.0, 1.0)]

    # (time, is_onset, link_id, FailureEvent | None): clears sort before
    # same-instant onsets, as in FleetController.run.
    heap = [(e.time_s, 1, e.link_id, e) for e in trace.events]
    open_episodes: Dict[int, tuple] = {}    # link -> (index, event_index)
    events = max_lg_per_pod = 0
    disabled = [0, 0]                       # [by the optimizer, at onset]
    while heap:
        now_s, is_onset, link_id, event = heapq.heappop(heap)
        cursor = len(decisions)
        dirty = {topology.link(link_id).pod}
        if not is_onset:
            controller.stream_clear(open_episodes.pop(link_id)[0], now_s)
        elif link_id in open_episodes:
            continue
        else:
            events += 1
            index = controller.stream_onset(CorruptionEpisode(
                link_id, now_s, math.inf, event.loss_rate, event.mean_burst))
            open_episodes[link_id] = (index, event.event_index)
        for decision in decisions[cursor:]:
            pod = topology.link(decision.link_id).pod
            dirty.add(pod)
            if decision.action == "blocked":
                penalty_of[decision.link_id] = decision.loss_rate
            elif decision.action == "activate":
                penalty_of[decision.link_id] = controller.effective_loss(
                    decision.loss_rate)
                lg_active[pod].add(decision.link_id)
                max_lg_per_pod = max(max_lg_per_pod, len(lg_active[pod]))
            else:   # disable: the crew's clock starts now; the delay is
                # the draw the lifecycle replay makes for the same event
                penalty_of.pop(decision.link_id, None)
                lg_active[pod].discard(decision.link_id)
                disabled[is_onset] += 1
                clear_s = now_s + repair_delay_s(
                    topology.factory, _REPAIR, decision.link_id,
                    open_episodes[decision.link_id][1], decision.loss_rate)
                if clear_s <= duration_s:
                    heapq.heappush(heap, (clear_s, 0, decision.link_id, None))
        for pod in dirty:
            pod_paths[pod] = (topology.pod_min_tor_paths(pod)
                              / topology.max_paths_per_tor)
            pod_capacity[pod] = topology.pod_capacity_fraction(pod)
        points.append((now_s, sum(penalty_of.values()),
                       min(pod_paths), min(pod_capacity)))

    times = sample_interval_s * np.arange(int(duration_s // sample_interval_s) + 1)
    series = np.asarray(points)
    series = series[np.searchsorted(series[:, 0], times, side="right") - 1]
    return DeploymentResult(
        times_s=times,
        total_penalty=series[:, 1],
        least_paths_fraction=series[:, 2],
        least_capacity_fraction=series[:, 3],
        corruption_events=events,
        disabled_immediately=disabled[1],
        disabled_by_optimizer=disabled[0],
        constraint_blocked=events - disabled[1],
        max_concurrent_lg_links=controller.outcome.max_concurrent_lg,
        max_lg_links_per_pod=max_lg_per_pod,
    )


@dataclass
class DeploymentComparison:
    capacity_constraint: float
    vanilla: DeploymentResult
    combined: DeploymentResult

    def series(self) -> Dict[str, np.ndarray]:
        """Both policies' hourly series (the three Figure 15 panels),
        ``vanilla_penalty`` .. ``combined_least_capacity``."""
        return {f"{policy}_{name}": getattr(getattr(self, policy), field)
                for policy in ("vanilla", "combined")
                for name, field in _SERIES.items()}

    def summary(self) -> dict:
        series = self.series()
        gain = penalty_gain(series)
        return {
            "constraint": self.capacity_constraint,
            "median_gain": float(np.median(gain)),
            "p90_gain": float(np.percentile(gain, 90)),
            "fraction_no_gain": float((gain <= 1.0 + 1e-9).mean()),
            "max_capacity_decrease_%": float(capacity_decrease(series).max()),
            "vanilla_blocked": self.vanilla.constraint_blocked,
            "combined_blocked": self.combined.constraint_blocked,
            "max_lg_links": self.combined.max_concurrent_lg_links,
            "max_lg_links_per_pod": self.combined.max_lg_links_per_pod,
        }


def penalty_gain(series: Mapping[str, Sequence[float]]) -> np.ndarray:
    """Per-sample gain in total penalty (Figure 16a), >= floor-limited,
    from a comparison's :meth:`~DeploymentComparison.series` (or a
    deployment cell's, which are the same lists)."""
    return (np.maximum(series["vanilla_penalty"], _PENALTY_FLOOR)
            / np.maximum(series["combined_penalty"], _PENALTY_FLOOR))


def capacity_decrease(series: Mapping[str, Sequence[float]]) -> np.ndarray:
    """Per-sample decrease in least capacity per pod (Figure 16b), in
    normalized percent (positive = combined has less capacity)."""
    return 100.0 * (np.asarray(series["vanilla_least_capacity"])
                    - series["combined_least_capacity"])


def run_deployment_comparison(
    capacity_constraint: float = 0.75,
    n_pods: int = 8,
    tors_per_pod: int = 16,
    fabrics_per_pod: int = 4,
    spine_uplinks: int = 16,
    duration_days: float = 365.0,
    mttf_hours: float = MTTF_HOURS,
    sample_interval_hours: float = 1.0,
    seed: int = 21,
) -> DeploymentComparison:
    """Run both policies on the same trace and compare (§4.8 methodology)."""
    fleet = FleetSpec(n_pods, tors_per_pod, fabrics_per_pod, spine_uplinks,
                      mttf_hours=mttf_hours)
    trace = generate_trace(TraceSpec(fleet, duration_days, seed))
    vanilla, combined = (
        replay_corropt(trace, capacity_constraint, fraction,
                       sample_interval_hours * HOURS)
        for fraction in (0.0, 1.0))
    return DeploymentComparison(capacity_constraint, vanilla, combined)


def deployment_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """The ``("deployment", "packet")`` row of :data:`repro.runner.cells.CELLS`."""
    comparison = run_deployment_comparison(seed=spec.seed, **spec.params)
    return CellResult.for_spec(spec, comparison.summary(), {
        name: values.tolist() for name, values in comparison.series().items()})
