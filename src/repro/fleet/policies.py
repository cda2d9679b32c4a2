"""First-class activation policies: registry + trace-replay optimizer.

The arbitration strategies the :class:`~repro.fleet.controller.
FleetController` delegates to were born as two hard-wired classes
inside the controller module; this module promotes them to a proper
registry — :data:`POLICIES` plus :func:`register_policy` /
:func:`fleet_policy` — mirroring the repair-policy registry in
:mod:`repro.lifecycle.repair`, so subsystems (service config, CLI,
replay, the blame adapter) name policies by string and new strategies
plug in without touching the controller.

On top sits :func:`optimize_policies`: given a window of repaired
corruption episodes (a lifecycle trace), it replays every candidate
``(policy, ControllerConfig)`` pair through
:meth:`FleetController.run` on its own topology copy and prices the
segments the run leaves with :func:`~repro.fleet.cost.segment_cost` —
lost link-seconds, weighting an exposed link by its Mathis goodput
collapse, an LG-protected link by the Figure 8 speed tax, and a
disabled link by its full capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from .cost import segment_cost

__all__ = [
    "POLICIES", "FleetPolicy", "IncrementalDeploymentPolicy",
    "GreedyWorstLinkPolicy", "register_policy", "fleet_policy",
    "PolicyCandidate", "default_candidates", "optimize_policies",
]


class FleetPolicy:
    """Pluggable arbitration strategy; subclasses decide per onset."""

    name = "base"

    def on_onset(self, controller, link, episode, index) -> None:
        raise NotImplementedError

    def on_clear(self, controller, link, episode, index) -> None:
        """Hook after a repaired link returns (optimizer pass etc.)."""


#: registry of policy name -> class; extend via :func:`register_policy`
POLICIES: Dict[str, Type[FleetPolicy]] = {}


def register_policy(cls: Type[FleetPolicy]) -> Type[FleetPolicy]:
    """Class decorator: add a :class:`FleetPolicy` to the registry."""
    if not cls.name or cls.name == "base":
        raise ValueError("policy classes must set a distinct .name")
    POLICIES[cls.name] = cls
    return cls


def fleet_policy(name: str) -> FleetPolicy:
    """Instantiate a registered policy by name; ValueError on unknown."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown fleet policy {name!r}; "
            f"known: {', '.join(sorted(POLICIES))}") from None
    return cls()


@register_policy
class IncrementalDeploymentPolicy(FleetPolicy):
    """The paper's deployment policy (§6): disable-first, LG when blocked.

    CorrOpt semantics with LinkGuardian as the relief valve: a corrupting
    link is disabled for repair whenever the capacity constraint allows;
    when it does not, LinkGuardian keeps the link carrying traffic.  On
    every repair completion an optimizer pass retries the still-exposed
    links, worst first.
    """

    name = "incremental"

    def on_onset(self, controller, link, episode, index) -> None:
        if controller.try_disable(link, episode, index):
            return
        if controller.try_activate(link, episode, index):
            return
        controller.mark_blocked(link, episode, index)

    def on_clear(self, controller, link, episode, index) -> None:
        now_s = episode.clear_s
        for other_index, other in controller.exposed_worst_first():
            other_link = controller.topology.link(other.link_id)
            if controller.try_disable(other_link, other, other_index, now_s):
                continue
            controller.try_activate(other_link, other, other_index, now_s)


@register_policy
class GreedyWorstLinkPolicy(FleetPolicy):
    """Baseline: spend the LG budget on the worst links, preempting.

    Activation-first — corruption is masked rather than routed around —
    and when the budget is full the mildest active link is preempted if
    the newcomer is strictly worse.  Links that miss the budget fall back
    to CorrOpt disable, then to exposed.
    """

    name = "greedy-worst"

    def on_onset(self, controller, link, episode, index) -> None:
        if controller.try_activate(link, episode, index):
            return
        if controller.can_preempt_for(episode):
            controller.preempt_mildest(episode.onset_s)
            if controller.try_activate(link, episode, index):
                return
        if controller.try_disable(link, episode, index):
            return
        controller.mark_blocked(link, episode, index)

    def on_clear(self, controller, link, episode, index) -> None:
        now_s = episode.clear_s
        for other_index, other in controller.exposed_worst_first():
            other_link = controller.topology.link(other.link_id)
            if controller.try_activate(other_link, other, other_index, now_s):
                continue
            controller.try_disable(other_link, other, other_index, now_s)


# ---------------------------------------------------------------------------
# Trace-driven policy optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyCandidate:
    """One (policy, controller-config) point the optimizer scores."""

    policy: str
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        if not self.overrides:
            return self.policy
        knobs = ",".join(f"{key}={value}" for key, value in self.overrides)
        return f"{self.policy}({knobs})"

    def config(self, base) -> Any:
        if not self.overrides:
            return base
        return replace(base, **dict(self.overrides))


def default_candidates(
        budgets: Sequence[int] = (8, 64)) -> List[PolicyCandidate]:
    """The stock sweep: every registered policy x activation budgets
    (a repeated budget counts once, first-seen order kept)."""
    budgets = dict.fromkeys(int(budget) for budget in budgets)
    return [PolicyCandidate(name, (("activation_budget", budget),))
            for name in sorted(POLICIES) for budget in budgets]


def optimize_policies(fleet, episodes, base_config=None, seed: int = 0,
                      candidates: Optional[Sequence[PolicyCandidate]] = None,
                      ) -> List[Dict[str, Any]]:
    """Replay ``episodes`` once per candidate; rows cheapest damage first.

    Each candidate runs :meth:`FleetController.run` on its own topology
    copy, and its cost is the link-seconds of capacity its segments
    lose, priced by :func:`~repro.fleet.cost.segment_cost`.
    """
    from .controller import ControllerConfig, FleetController
    from .topology import FleetTopology

    episodes = list(episodes)
    if not all(math.isfinite(episode.clear_s) for episode in episodes):
        raise ValueError("every episode needs a finite clear_s")
    if base_config is None:
        base_config = ControllerConfig()
    if candidates is None:
        candidates = default_candidates()
    if not candidates:
        raise ValueError("need at least one candidate")
    configs = [candidate.config(base_config) for candidate in candidates]
    rows = []
    for candidate, config in zip(candidates, configs):
        outcome = FleetController(
            FleetTopology(fleet, seed=seed), config,
            fleet_policy(candidate.policy)).run(episodes)
        cost = sum(
            (segment.end_s - segment.start_s) * segment_cost(
                segment.state, episodes[index].loss_rate)[0]
            for index, segments in outcome.segments.items()
            for segment in segments)
        rows.append({
            "label": candidate.label,
            "policy": candidate.policy,
            "overrides": dict(candidate.overrides),
            "cost_link_seconds": cost,
            **outcome.counts(),
        })
    rows.sort(key=lambda row: (row["cost_link_seconds"], row["label"]))
    return rows
