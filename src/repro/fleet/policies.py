"""First-class activation policies: registry + trace-driven optimizer.

The arbitration strategies the :class:`~repro.fleet.controller.
FleetController` delegates to were born as two hard-wired classes
inside the controller module; this module promotes them to a proper
registry — :data:`POLICIES` plus :func:`register_policy` /
:func:`fleet_policy` — mirroring the repair-policy registry in
:mod:`repro.lifecycle.repair`, so subsystems (service config, CLI,
replay, the blame adapter) name policies by string and new strategies
plug in without touching the controller.

On top sits :class:`TraceDrivenOptimizer`: given a window of corruption
episodes (a lifecycle trace with repair applied, or a live stream), it
replays every candidate ``(policy, ControllerConfig)`` pair against its
own private topology copy and scores the SLO damage — lost
link-seconds, weighting an exposed link by its Mathis goodput collapse,
an LG-protected link by the Figure 8 speed tax, and a disabled link by
its full capacity.  The recomputation is **incremental per event**:
each onset/clear updates only the per-candidate cost *rate* by the
delta of new controller decisions (O(decisions changed), never O(links)),
so sweeping candidates over an O(100k)-link fleet stays interactive and
:meth:`TraceDrivenOptimizer.best` is readable between any two events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from .cost import DISABLED, EXPOSED, PROTECTED, segment_cost

__all__ = [
    "POLICIES", "FleetPolicy", "IncrementalDeploymentPolicy",
    "GreedyWorstLinkPolicy", "register_policy", "fleet_policy",
    "PolicyCandidate", "TraceDrivenOptimizer", "default_candidates",
    "optimize_policies",
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
        from dataclasses import replace
        return replace(base, **dict(self.overrides))


#: the state a controller decision leaves its link in
_ACTION_STATE = {"disable": DISABLED, "activate": PROTECTED}


class _CandidateState:
    """One candidate's controller, its private fleet, and its cost."""

    __slots__ = ("candidate", "controller", "topology", "cost_rate",
                 "weights", "open_index", "cursor", "cost", "last_s")

    def __init__(self, candidate, controller, topology) -> None:
        self.candidate = candidate
        self.controller = controller
        self.topology = topology
        self.cost_rate = 0.0          # lost link-capacity per second, now
        self.weights: Dict[int, float] = {}   # link_id -> current weight
        self.open_index: Dict[int, int] = {}  # link_id -> episode index
        self.cursor = 0               # consumed controller decisions
        self.cost = 0.0               # accumulated lost link-seconds
        self.last_s = 0.0


class TraceDrivenOptimizer:
    """Score policy/config candidates over one episode stream.

    Feed it a merged episode timeline (:meth:`run`), or stream events
    one at a time (:meth:`feed_onset` / :meth:`feed_clear`) and read
    :meth:`best` whenever a verdict is needed — per-event work is
    proportional to the decisions the event caused, not to fleet size.
    """

    def __init__(self, fleet, base_config=None, seed: int = 0,
                 candidates: Optional[Sequence[PolicyCandidate]] = None,
                 obs=None) -> None:
        from .controller import ControllerConfig, FleetController
        from .topology import FleetTopology

        self.fleet = fleet
        self.base_config = (base_config if base_config is not None
                            else ControllerConfig())
        if candidates is None:
            candidates = default_candidates()
        if not candidates:
            raise ValueError("need at least one candidate")
        self._states: List[_CandidateState] = []
        for candidate in candidates:
            config = candidate.config(self.base_config)
            topology = FleetTopology(fleet, seed=seed)
            controller = FleetController(
                topology, config, fleet_policy(candidate.policy))
            self._states.append(
                _CandidateState(candidate, controller, topology))
        self.events_seen = 0
        self._gauge = None
        if obs is not None:
            obs.registry.register_provider(
                "blame.optimizer", self._obs_snapshot)

    def _obs_snapshot(self) -> Dict[str, Any]:
        leader = self.best()
        return {
            "events": self.events_seen,
            "candidates": len(self._states),
            "best_label": leader["label"],
            "best_cost": leader["cost_link_seconds"],
        }

    # -- incremental cost accounting ------------------------------------------

    @staticmethod
    def _weight(action: str, loss_rate: float) -> float:
        """Lost capacity (0..1 of one link) while the state persists."""
        # blocked / preempted-back-to-exposed: flows eat the loss
        state = _ACTION_STATE.get(action, EXPOSED)
        return segment_cost(state, loss_rate)[0]

    def _advance(self, state: _CandidateState, now_s: float) -> None:
        if now_s > state.last_s:
            state.cost += state.cost_rate * (now_s - state.last_s)
            state.last_s = now_s

    def _absorb_decisions(self, state: _CandidateState) -> None:
        """Fold fresh controller decisions into the cost rate — the
        incremental step: O(new decisions), independent of fleet size."""
        log = state.controller.outcome.decisions
        while state.cursor < len(log):
            decision = log[state.cursor]
            state.cursor += 1
            if decision.action == "clear":
                continue
            old = state.weights.pop(decision.link_id, 0.0)
            new = self._weight(decision.action, decision.loss_rate)
            state.weights[decision.link_id] = new
            state.cost_rate += new - old

    def feed_onset(self, episode) -> None:
        """One live onset, fanned out to every candidate."""
        self.events_seen += 1
        for state in self._states:
            self._advance(state, episode.onset_s)
            index = state.controller.stream_onset(episode)
            state.open_index[episode.link_id] = index
            self._absorb_decisions(state)

    def feed_clear(self, link_id: int, clear_s: float) -> None:
        """The matching clear; unknown link ids are ignored."""
        self.events_seen += 1
        for state in self._states:
            index = state.open_index.pop(link_id, None)
            if index is None:
                continue
            self._advance(state, clear_s)
            state.cost_rate -= state.weights.pop(link_id, 0.0)
            state.controller.stream_clear(index, clear_s)
            # The policy's on_clear pass may have re-homed exposed links.
            self._absorb_decisions(state)

    # -- batch convenience ------------------------------------------------------

    def run(self, episodes: Sequence[Any]) -> List[Dict[str, Any]]:
        """Replay a merged timeline; returns :meth:`results`.

        Event order matches :meth:`FleetController.run` — ``(time,
        kind)`` with clears first on ties, so a repaired link frees
        budget before a same-instant onset claims it.
        """
        events: List[Tuple[float, int, int, int]] = []
        for index, episode in enumerate(episodes):
            events.append((episode.onset_s, 1, episode.link_id, index))
            if math.isfinite(episode.clear_s):
                events.append((episode.clear_s, 0, episode.link_id, index))
        events.sort()
        for time_s, kind, link_id, index in events:
            if kind == 1:
                self.feed_onset(episodes[index])
            else:
                self.feed_clear(link_id, time_s)
        return self.results()

    # -- verdicts ---------------------------------------------------------------

    def results(self) -> List[Dict[str, Any]]:
        """Every candidate's score so far, cheapest damage first."""
        rows = []
        for state in self._states:
            counts = state.controller.outcome.counts()
            rows.append({
                "label": state.candidate.label,
                "policy": state.candidate.policy,
                "overrides": dict(state.candidate.overrides),
                "cost_link_seconds": state.cost,
                "cost_rate_now": state.cost_rate,
                **counts,
            })
        rows.sort(key=lambda row: (row["cost_link_seconds"], row["label"]))
        return rows

    def best(self) -> Dict[str, Any]:
        return self.results()[0]


def default_candidates(
        budgets: Sequence[int] = (8, 64)) -> List[PolicyCandidate]:
    """The stock sweep: every registered policy x activation budgets."""
    out = []
    for name in sorted(POLICIES):
        for budget in budgets:
            out.append(PolicyCandidate(
                name, (("activation_budget", int(budget)),)))
    return out


def optimize_policies(fleet, episodes, base_config=None, seed: int = 0,
                      candidates: Optional[Sequence[PolicyCandidate]] = None,
                      obs=None) -> List[Dict[str, Any]]:
    """One-shot: replay ``episodes`` over candidates, ranked results."""
    optimizer = TraceDrivenOptimizer(
        fleet, base_config=base_config, seed=seed, candidates=candidates,
        obs=obs)
    return optimizer.run(episodes)
