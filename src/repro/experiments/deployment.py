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
arbitration loop (:meth:`~repro.fleet.controller.FleetController.run`)
and prices LinkGuardian with the one cost model (:mod:`repro.fleet.cost`).
What stays local is CorrOpt's **repair clock**: the 2-or-4-day repair
starts when a link is *disabled* (the study schedules its clear then),
so a link the fast checker blocks keeps corrupting until an optimizer
pass (run at every repair completion) finds room to disable it.  That
is why this is not a view over :mod:`repro.lifecycle.replay`, whose
tickets open at onset — a blocked link there clears itself in 2-4
days, which would erase exactly the penalty Figure 16 measures.

The topology scale is configurable; the paper's ~100K-link fabric is
``n_pods=260`` with 48/4/48 — the defaults here are a smaller fabric
that preserves per-pod structure (and hence the checker's behaviour)
while keeping the simulation seconds-fast in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from ..corropt.trace import MTTF_HOURS
from ..fleet.controller import ControllerConfig, FleetController
from ..fleet.policies import IncrementalDeploymentPolicy
from ..fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology
from ..lifecycle.repair import CorrOptRepairPolicy, repair_delays
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
    clock it keeps.  It is also the study's reader: each event's
    decisions become metric change-points; a disable schedules a repair."""

    name = "corropt-study"

    def __init__(self, trace: LifecycleTrace, topology: FleetTopology) -> None:
        # The delay a disable starts: ``_REPAIR``'s draw ignores the loss
        # rate, so every event's is drawn up front, the streams seeded in
        # one batch — the draw the lifecycle replay makes for that event.
        self.repair_s = repair_delays(topology.factory, _REPAIR, trace.events)
        n_pods = topology.n_pods
        self.max_lg_per_pod = self._cursor = 0
        self.disabled = [0, 0]                  # [by the optimizer, at onset]
        # Metrics only move at events: keep each corrupting-and-up link's
        # penalty and each pod's paths/capacity, one change-point an event
        self._penalty_of: Dict[int, float] = {}
        self._pod_paths, self._pod_capacity = [1.0] * n_pods, [1.0] * n_pods
        self.points = [(-math.inf, 0.0, 1.0, 1.0)]

    def on_onset(self, controller, link, episode, index) -> None:
        super().on_onset(controller, link, episode, index)
        self._read(controller, link.pod, episode.onset_s, at_onset=True)

    def on_clear(self, controller, link, episode, index) -> None:
        # the checker's verdict is per pod: only the repaired link's pod
        # has gained room since its held links were last tried
        pod = link.pod
        for other_index, other in (controller.exposed_worst_first(pod)
                                   + controller.protected_worst_first(pod)):
            controller.try_disable(controller.topology.link(other.link_id),
                                   other, other_index, episode.clear_s)
        self._read(controller, pod, episode.clear_s, at_onset=False)

    def _read(self, controller, pod, now_s, at_onset) -> None:
        """Fold one event's decisions, all in the event link's ``pod``."""
        decisions = controller.outcome.decisions
        penalty_of, topology = self._penalty_of, controller.topology
        for decision in decisions[self._cursor:]:
            link_id = decision.link_id
            if decision.action == "blocked":
                penalty_of[link_id] = decision.loss_rate
            elif decision.action == "activate":
                penalty_of[link_id] = controller.effective_loss(
                    decision.loss_rate)
                self.max_lg_per_pod = max(
                    self.max_lg_per_pod,
                    len(controller.protected_worst_first(pod)))
            else:   # disable: the crew's clock starts now
                penalty_of.pop(link_id, None)
                self.disabled[at_onset] += 1
                controller.schedule_clear(link_id, now_s + self.repair_s[
                    controller.open_episodes[link_id]])
        self._cursor = len(decisions)
        self._pod_paths[pod] = (topology.pod_min_tor_paths(pod)
                                / topology.max_paths_per_tor)
        self._pod_capacity[pod] = topology.pod_capacity_fraction(pod)
        self.points.append((now_s, sum(penalty_of.values()),
                            min(self._pod_paths), min(self._pod_capacity)))


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
    on a link still corrupting or out for repair is the same fault.
    """
    duration_s = trace.spec.duration_s
    topology = FleetTopology(trace.spec.fleet, seed=trace.spec.seed)
    study = _CorrOptStudyPolicy(trace, topology)
    controller = FleetController(topology, ControllerConfig(
        capacity_constraint=capacity_constraint, pod_capacity_floor=0.0,
        activation_budget=topology.n_links,
        lg_deployment_fraction=lg_deployment_fraction,
    ), study)
    controller.run([
        CorruptionEpisode(e.link_id, e.time_s, math.inf, e.loss_rate,
                          e.mean_burst)
        for e in trace.events], until_s=duration_s)
    onsets = len(controller.outcome.segments)   # the onsets not dropped

    times = sample_interval_s * np.arange(int(duration_s // sample_interval_s) + 1)
    series = np.asarray(study.points)
    series = series[np.searchsorted(series[:, 0], times, side="right") - 1]
    return DeploymentResult(
        times_s=times,
        total_penalty=series[:, 1],
        least_paths_fraction=series[:, 2],
        least_capacity_fraction=series[:, 3],
        corruption_events=onsets,
        disabled_immediately=study.disabled[1],
        disabled_by_optimizer=study.disabled[0],
        constraint_blocked=onsets - study.disabled[1],
        max_concurrent_lg_links=controller.outcome.max_concurrent_lg,
        max_lg_links_per_pod=study.max_lg_per_pod,
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
