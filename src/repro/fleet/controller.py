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

The arbitration loop pops one event heap (a replay, a live evidence
stream and the §4.8 study's repair clock all feed it) in deterministic
``(time, link_id)`` order, delegating each onset to a pluggable
:class:`FleetPolicy` from the :mod:`repro.fleet.policies` registry.
Two policies ship: the paper's incremental-deployment policy
(disable-first, LG as the relief valve when capacity is tight) and a
greedy-worst-link baseline (LG-first on the highest loss rates,
preempting milder links when the budget is full).  Every decision is
counted in the metrics registry and emitted on the event trace under
the ``fleet`` category.
"""

from __future__ import annotations

import heapq
import itertools
import math
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
#: (episode index, episode) pairs, worst first
_Held = List[Tuple[int, CorruptionEpisode]]


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
    """Arbitrates each onset of an event timeline, batch or streamed."""

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
        self.open_episodes: Dict[int, int] = {}  # link_id -> episode index
        #: pod -> its open links, so one pod's held links are read alone
        self._open_by_pod = [set() for _ in range(topology.n_pods)]
        self._events: List[Tuple[float, int, int, int]] = []    # the heap
        self._retain = False    # a replay keeps cleared episodes; a stream not
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
        if fraction >= 1.0 or fraction <= 0.0:
            # no coin needed: a draw in [0, 1) is always < 1, never < 0
            return fraction >= 1.0
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

    def _worst_first(self, held: Dict[int, int], penalty, pod) -> _Held:
        links = held if pod is None else self._open_by_pod[pod] & held.keys()
        if not links:
            return []
        episodes = self._episodes
        ranked = sorted((-penalty(episodes[held[link_id]].loss_rate), link_id)
                        for link_id in links)
        return [(held[link_id], episodes[held[link_id]])
                for _, link_id in ranked]

    def exposed_worst_first(self, pod: Optional[int] = None) -> _Held:
        """Still-exposed episodes (of ``pod``, or fleet-wide), highest
        loss rate first (ties by link)."""
        return self._worst_first(self._exposed, float, pod)

    def protected_worst_first(self, pod: Optional[int] = None) -> _Held:
        """LG-protected episodes (of ``pod``, or fleet-wide), highest
        *effective* loss first (Eq. 1 is a sawtooth in the loss rate)."""
        return self._worst_first(self._active, self.effective_loss, pod)

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
    #
    # One heap of (time, 0 clear | 1 onset, link_id, index) events: a
    # repaired link frees budget before a same-instant onset claims it,
    # and a replay's outcome does not depend on how it was sharded.
    # ``run`` replays a timeline, a live feed schedules and advances to now,
    # and a repair clock (the §4.8 study) schedules clears from the loop.

    def run(self, episodes: List[CorruptionEpisode],
            until_s: float = math.inf) -> ControllerOutcome:
        """Replay ``episodes`` (the fleet's merged timeline) to a verdict;
        events later than ``until_s`` never fire."""
        self._retain = True
        self._episodes = dict(enumerate(episodes))
        events = self._events = []
        for index, episode in enumerate(episodes):
            events.append((episode.onset_s, 1, episode.link_id, index))
            events.append((episode.clear_s, 0, episode.link_id, index))
        events.sort()       # a sorted list is a heap
        self.advance(until_s)
        return self.outcome

    def schedule_onset(self, episode: CorruptionEpisode) -> int:
        """Queue a live onset (not its clear); returns its episode index."""
        index = next(self._stream_index)
        self._episodes[index] = episode
        heapq.heappush(self._events,
                       (episode.onset_s, 1, episode.link_id, index))
        return index

    def schedule_clear(self, link_id: int, clear_s: float) -> None:
        """Queue a clear of the episode open on ``link_id`` now (a no-op
        if that episode closes first)."""
        heapq.heappush(self._events, (
            clear_s, 0, link_id, self.open_episodes.get(link_id, -1)))

    def advance(self, until_s: float) -> None:
        """Fire every queued event up to and including ``until_s``."""
        events, episodes = self._events, self._episodes
        open_episodes, open_by_pod = self.open_episodes, self._open_by_pod
        while events and events[0][0] <= until_s:
            time_s, is_onset, link_id, index = heapq.heappop(events)
            if not is_onset:
                if open_episodes.get(link_id) == index:
                    self._clear(link_id, index, time_s)
            elif link_id in open_episodes:
                # still corrupting or out for repair: the same fault
                if not self._retain:
                    del episodes[index]
            else:
                open_episodes[link_id] = index
                episode = episodes[index]
                link = self.topology.link(link_id)
                open_by_pod[link.pod].add(link_id)
                link.corrupting = True
                link.loss_rate = episode.loss_rate
                self.policy.on_onset(self, link, episode, index)

    def _clear(self, link_id: int, index: int, time_s: float) -> None:
        del self.open_episodes[link_id]
        episode = self._episodes[index]
        if episode.clear_s != time_s:
            episode = self._episodes[index] = replace(episode, clear_s=time_s)
        link = self.topology.link(link_id)
        self._open_by_pod[link.pod].discard(link_id)
        link.up = True
        link.corrupting = False
        link.loss_rate = 0.0
        link.lg_enabled = False
        link.speed_fraction = 1.0
        self._active.pop(link_id, None)
        self._exposed.pop(link_id, None)
        if self._counters is not None:
            self._lg_gauge.set(len(self._active))
        self._close_segment(index, time_s)
        if self._tracer.enabled:
            self._tracer.instant(int(time_s * 1e9), "fleet", "clear",
                                 {"link": link_id})
        self.policy.on_clear(self, link, episode, index)
        if not self._retain:
            del self._episodes[index]
            del self.outcome.segments[index]

    def effective_loss(self, loss_rate: float) -> float:
        return lg_effective_loss_rate(loss_rate, self.config.lg_target_loss)
