"""Fleet-wide corruptd: capacity-aware arbitration over corrupting links.

The single-link :class:`~repro.monitor.corruptd.Corruptd` answers one
question — "is this link corrupting?".  At fleet scale the paper's §6
deployment story needs a second, global decision per corrupting link:

* **disable** it for repair (CorrOpt) when the fast checker says the
  pod keeps ``capacity_constraint`` of its valley-free ToR paths, or
* **activate LinkGuardian** and keep carrying traffic at the Figure 8
  effective speed, bounded by a fleet-wide activation budget (dataplane
  resources are finite) and a per-pod capacity floor, or
* leave it **exposed** (blocked) when neither is possible.

The arbitration loop replays the fleet's merged corruption-episode
timeline in deterministic ``(time, link_id)`` order, delegating each
onset to a pluggable :class:`FleetPolicy` from the
:mod:`repro.fleet.policies` registry.  Two policies ship: the paper's
incremental-deployment policy (disable-first, LG as the relief valve
when capacity is tight) and a greedy-worst-link baseline (LG-first on
the highest loss rates, preempting milder links when the budget is
full).  Every decision is counted in the metrics registry and emitted on
the event trace under the ``fleet`` category.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core.spec import Spec
from ..fabric.topology import FabricLink
from ..obs.trace import NULL_TRACER
from .cost import (
    DISABLED, EXPOSED, PROTECTED, lg_effective_loss_rate,
    lg_effective_speed_fraction,
)
from .policies import FleetPolicy
from .topology import CorruptionEpisode, FleetTopology

__all__ = [
    "ControllerConfig", "Decision", "EpisodeSegment", "ControllerOutcome",
    "FleetController",
]


@dataclass(frozen=True)
class ControllerConfig(Spec):
    """Fleet-wide knobs of the arbitration loop."""

    #: CorrOpt fast-checker floor: min fraction of valley-free ToR paths
    capacity_constraint: float = 0.75
    #: per-pod capacity floor LG activation must preserve (activating at
    #: reduced effective speed still costs capacity)
    pod_capacity_floor: float = 0.5
    #: max concurrent LinkGuardian activations fleet-wide
    activation_budget: int = 64
    #: fraction of links whose endpoints are LG-capable (§6 incremental)
    lg_deployment_fraction: float = 1.0
    lg_target_loss: float = 1e-8

    def __post_init__(self) -> None:
        if self.activation_budget < 0:
            raise ValueError("activation_budget must be >= 0")
        for name in ("capacity_constraint", "pod_capacity_floor",
                     "lg_deployment_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.lg_target_loss < 1.0:
            raise ValueError("lg_target_loss must be in (0, 1)")


@dataclass(frozen=True)
class Decision:
    """One controller action, for the audit trail and the event trace."""

    time_s: float
    link_id: int
    action: str          # "disable" | "activate" | "blocked" | "preempt" | "clear"
    loss_rate: float


@dataclass
class EpisodeSegment:
    """A [start, end) slice of one episode spent in one state."""

    start_s: float
    end_s: float
    state: str           # EXPOSED | PROTECTED | DISABLED


@dataclass
class ControllerOutcome:
    """What the arbitration loop decided, episode by episode."""

    #: episode index -> state slices (a stream drops a cleared episode's)
    segments: Dict[int, List[EpisodeSegment]] = field(default_factory=dict)
    decisions: List[Decision] = field(default_factory=list)
    activations: int = 0
    disables: int = 0
    blocked: int = 0
    preemptions: int = 0
    max_concurrent_lg: int = 0

    def counts(self) -> Dict[str, int]:
        return {
            "activations": self.activations,
            "disables": self.disables,
            "blocked": self.blocked,
            "preemptions": self.preemptions,
            "max_concurrent_lg": self.max_concurrent_lg,
        }


class FleetController:
    """Replays a merged episode timeline and arbitrates each onset."""

    def __init__(
        self,
        topology: FleetTopology,
        config: ControllerConfig,
        policy: FleetPolicy,
        obs=None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.policy = policy
        self.outcome = ControllerOutcome()
        self._active: Dict[int, int] = {}    # link_id -> episode index (LG on)
        self._exposed: Dict[int, int] = {}   # link_id -> episode index
        self._lg_capable: Dict[int, bool] = {}
        #: episode index -> episode: a replay's whole timeline, or the
        #: streamed episodes still open (keyed by ``_stream_index``)
        self._episodes: Dict[int, CorruptionEpisode] = {}
        self._stream_index = itertools.count()
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self._counters = None
        if obs is not None:
            prefix = f"fleet.controller.{policy.name}"
            self._counters = {
                action: obs.registry.counter(f"{prefix}.{action}")
                for action in ("activate", "disable", "blocked", "preempt")
            }
            self._lg_gauge = obs.registry.gauge(f"{prefix}.lg_active")

    # -- state transitions used by policies ------------------------------------

    def _record(self, time_s: float, link_id: int, action: str,
                loss_rate: float) -> None:
        self.outcome.decisions.append(Decision(time_s, link_id, action, loss_rate))
        if self._counters is not None and action in self._counters:
            self._counters[action].inc()
        if self._tracer.enabled:
            self._tracer.instant(int(time_s * 1e9), "fleet", action, {
                "link": link_id, "loss_rate": loss_rate,
            })

    def _open_segment(self, index: int, start_s: float, state: str) -> None:
        self.outcome.segments.setdefault(index, []).append(
            EpisodeSegment(start_s, self._episodes[index].clear_s, state))

    def _close_segment(self, index: int, end_s: float) -> None:
        self.outcome.segments[index][-1].end_s = end_s

    def _is_lg_capable(self, link_id: int) -> bool:
        fraction = self.config.lg_deployment_fraction
        if fraction >= 1.0:
            return True
        cached = self._lg_capable.get(link_id)
        if cached is None:
            # A deterministic per-link coin from the fleet's own seed stream.
            rng = self.topology.factory.stream(f"fleet.link.{link_id}.lg-capable")
            cached = float(rng.random()) < fraction
            self._lg_capable[link_id] = cached
        return cached

    def try_disable(self, link: FabricLink, episode: CorruptionEpisode,
                    index: int, time_s: Optional[float] = None) -> bool:
        if not self.topology.can_disable(link, self.config.capacity_constraint):
            return False
        time_s = episode.onset_s if time_s is None else time_s
        if link.link_id in self._exposed:
            del self._exposed[link.link_id]
            self._close_segment(index, time_s)
        elif link.link_id in self._active:
            # masked is not repaired: an optimizer pass may still pull an
            # LG-protected link once the constraint has room for it
            del self._active[link.link_id]
            self._close_segment(index, time_s)
            if self._counters is not None:
                self._lg_gauge.set(len(self._active))
        link.up = False
        link.lg_enabled = False
        link.speed_fraction = 1.0
        self.outcome.disables += 1
        self._record(time_s, link.link_id, "disable", episode.loss_rate)
        self._open_segment(index, time_s, DISABLED)
        return True

    def try_activate(self, link: FabricLink, episode: CorruptionEpisode,
                     index: int, time_s: Optional[float] = None) -> bool:
        if len(self._active) >= self.config.activation_budget:
            return False
        if not self._is_lg_capable(link.link_id):
            return False
        speed = lg_effective_speed_fraction(episode.loss_rate)
        if speed <= 0.0:
            return False    # a dead link: nothing left to protect
        previous = link.speed_fraction
        link.lg_enabled = True
        link.speed_fraction = speed
        if (self.topology.pod_capacity_fraction(link.pod)
                < self.config.pod_capacity_floor):
            link.lg_enabled = False
            link.speed_fraction = previous
            return False
        time_s = episode.onset_s if time_s is None else time_s
        if link.link_id in self._exposed:
            del self._exposed[link.link_id]
            self._close_segment(index, time_s)
        self._active[link.link_id] = index
        self.outcome.activations += 1
        self.outcome.max_concurrent_lg = max(
            self.outcome.max_concurrent_lg, len(self._active))
        if self._counters is not None:
            self._lg_gauge.set(len(self._active))
        self._record(time_s, link.link_id, "activate", episode.loss_rate)
        self._open_segment(index, time_s, PROTECTED)
        return True

    def mark_blocked(self, link: FabricLink, episode: CorruptionEpisode,
                     index: int) -> None:
        self._exposed[link.link_id] = index
        self.outcome.blocked += 1
        self._record(episode.onset_s, link.link_id, "blocked", episode.loss_rate)
        self._open_segment(index, episode.onset_s, EXPOSED)

    def can_preempt_for(self, episode: CorruptionEpisode) -> bool:
        mildest = self._mildest_active()
        return (mildest is not None
                and self._episodes[mildest[1]].loss_rate < episode.loss_rate)

    def preempt_mildest(self, time_s: float) -> None:
        mildest = self._mildest_active()
        if mildest is None:
            return
        link_id, index = mildest
        link = self.topology.link(link_id)
        del self._active[link_id]
        link.lg_enabled = False
        link.speed_fraction = 1.0
        self._close_segment(index, time_s)
        self._exposed[link_id] = index
        self._open_segment(index, time_s, EXPOSED)
        self.outcome.preemptions += 1
        if self._counters is not None:
            self._lg_gauge.set(len(self._active))
        self._record(time_s, link_id, "preempt", self._episodes[index].loss_rate)

    def _mildest_active(self) -> Optional[Tuple[int, int]]:
        """(link_id, episode index) of the mildest LG-protected link."""
        if not self._active:
            return None
        return min(
            self._active.items(),
            key=lambda item: (self._episodes[item[1]].loss_rate, item[0]),
        )

    def _worst_first(self, held: Dict[int, int], penalty,
                     ) -> List[Tuple[int, CorruptionEpisode]]:
        ordered = sorted(
            held.items(),
            key=lambda item: (-penalty(self._episodes[item[1]].loss_rate),
                              item[0]),
        )
        return [(index, self._episodes[index]) for _, index in ordered]

    def exposed_worst_first(self) -> List[Tuple[int, CorruptionEpisode]]:
        """Still-exposed episodes, highest loss rate first (ties by link)."""
        return self._worst_first(self._exposed, float)

    def protected_worst_first(self) -> List[Tuple[int, CorruptionEpisode]]:
        """LG-protected episodes, highest *effective* loss first (Eq. 1 is
        a sawtooth in the actual loss rate; ties by link)."""
        return self._worst_first(self._active, self.effective_loss)

    # -- streaming arbitration (the always-on service) ---------------------------
    #
    # ``run`` below replays a complete, pre-generated timeline.  The
    # control-plane service instead discovers onsets and clears one at a
    # time from live telemetry, so episodes arrive with an unknown clear
    # time (+inf) that is filled in when the link recovers.  Both paths
    # share the same policy hooks and state transitions, so a streamed
    # sequence of onset/clear pairs reaches the same verdicts as a batch
    # replay of the equivalent timeline.  A streamed episode is forgotten
    # once it clears — with its segments — so an always-on controller
    # holds only what is open.

    def stream_onset(self, episode: CorruptionEpisode) -> int:
        """Arbitrate one live onset; returns its episode index.

        The episode's ``clear_s`` is typically ``inf`` — pass the index
        to :meth:`stream_clear` when telemetry shows the link healthy.
        """
        index = next(self._stream_index)
        self._episodes[index] = episode
        link = self.topology.link(episode.link_id)
        link.corrupting = True
        link.loss_rate = episode.loss_rate
        self.policy.on_onset(self, link, episode, index)
        return index

    def stream_clear(self, index: int, clear_s: float) -> CorruptionEpisode:
        """Close a streamed episode at its observed clear time, then
        drop it and its segments."""
        episode = replace(self._episodes[index], clear_s=clear_s)
        self._episodes[index] = episode
        link = self.topology.link(episode.link_id)
        self._clear(link, episode, index)
        self.policy.on_clear(self, link, episode, index)
        del self._episodes[index]
        del self.outcome.segments[index]
        return episode

    @property
    def episodes(self) -> Dict[int, CorruptionEpisode]:
        """Episodes by index, the keys of ``outcome.segments``: every
        replayed one, or the streamed ones still open."""
        return self._episodes

    def lg_active_links(self) -> List[int]:
        """Links currently carrying traffic under LinkGuardian."""
        return sorted(self._active)

    def exposed_links(self) -> List[int]:
        """Links corrupting unprotected (blocked from both remedies)."""
        return sorted(self._exposed)

    # -- the arbitration loop ----------------------------------------------------

    def run(self, episodes: List[CorruptionEpisode]) -> ControllerOutcome:
        """Replay ``episodes`` (the fleet's merged timeline) to a verdict.

        The event order — onsets and clears interleaved by ``(time,
        link_id)``, clears first on ties so a repaired link frees budget
        before a same-instant onset claims it — is what makes the outcome
        independent of how episodes were sharded for generation.
        """
        self._episodes = dict(enumerate(episodes))
        events: List[Tuple[float, int, int, int]] = []
        for index, episode in enumerate(episodes):
            events.append((episode.onset_s, 1, episode.link_id, index))
            events.append((episode.clear_s, 0, episode.link_id, index))
        events.sort()

        for time_s, kind, link_id, index in events:
            episode = episodes[index]
            link = self.topology.link(link_id)
            if kind == 1:
                link.corrupting = True
                link.loss_rate = episode.loss_rate
                self.policy.on_onset(self, link, episode, index)
            else:
                self._clear(link, episode, index)
                self.policy.on_clear(self, link, episode, index)
        return self.outcome

    def _clear(self, link: FabricLink, episode: CorruptionEpisode,
               index: int) -> None:
        link.up = True
        link.corrupting = False
        link.loss_rate = 0.0
        link.lg_enabled = False
        link.speed_fraction = 1.0
        self._active.pop(link.link_id, None)
        self._exposed.pop(link.link_id, None)
        if self._counters is not None:
            self._lg_gauge.set(len(self._active))
        self._close_segment(index, episode.clear_s)
        if self._tracer.enabled:
            self._tracer.instant(int(episode.clear_s * 1e9), "fleet", "clear", {
                "link": link.link_id,
            })

    def effective_loss(self, loss_rate: float) -> float:
        return lg_effective_loss_rate(loss_rate, self.config.lg_target_loss)
