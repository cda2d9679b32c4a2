"""The repair loop: how long a corrupting link waits for a crew.

CorrOpt §7.1 (via the LinkGuardian simulator's recovery model) observed
that 80% of corrupting links are correctly repaired within 2 days and
the remainder take 4 days overall — the default
:class:`CorrOptRepairPolicy` reproduces exactly that two-point mixture.
Repair is where one-shot campaigns become a *lifecycle*: a link that
fails, waits in the repair queue, clears, and fails again weeks later is
what month-scale SLO series are made of.

Policies are pluggable (:data:`REPAIR_POLICIES` + :func:`repair_policy`)
and deterministic by construction: a policy's only randomness source is
the per-event stream handed to :meth:`RepairPolicy.delay_s`
(``lifecycle.link.<id>.repair`` at ``index=event_index``), so changing
policy — or evaluating the same trace under several — never perturbs the
failure arrivals, and re-sharding a replay never perturbs a repair draw.

:func:`apply_repair` turns a failure trace into the repaired episode
timeline the :class:`~repro.fleet.controller.FleetController` arbitrates:
each onset gets a clear time; an onset arriving while its link is still
awaiting repair is *coalesced* (the crew fixes the physical fault once),
counted so the rollup can report how often the model saturated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..core.rng import RngFactory
from ..fleet.topology import CorruptionEpisode
from ..units import DAY_S, HOURS
from .traces import FailureEvent, LifecycleTrace, TraceSpec, generate_trace

__all__ = [
    "RepairPolicy", "CorrOptRepairPolicy", "ExponentialRepairPolicy",
    "SeverityTieredRepairPolicy", "REPAIR_POLICIES", "repair_policy",
    "RepairedEpisode", "repair_delays", "apply_repair",
    "corruption_episodes",
]


class RepairPolicy:
    """Maps one failure event to the delay until its link is repaired."""

    name = "base"

    def __init__(self, **params: Any) -> None:
        if params:
            raise ValueError(
                f"repair policy {self.name!r} takes no parameters "
                f"(got {sorted(params)})")

    def delay_s(self, rng: np.random.Generator, loss_rate: float) -> float:
        """Repair delay in seconds; ``rng`` is the event's own stream."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name}


class CorrOptRepairPolicy(RepairPolicy):
    """CorrOpt §7.1: 80% of links repaired in 2 days, the rest in 4."""

    name = "corropt"

    def __init__(self, fast_days: float = 2.0, slow_days: float = 4.0,
                 fast_fraction: float = 0.8) -> None:
        if not 0.0 <= fast_fraction <= 1.0:
            raise ValueError("fast_fraction must be in [0, 1]")
        if not 0.0 < fast_days <= slow_days:
            raise ValueError("need 0 < fast_days <= slow_days")
        self.fast_days = float(fast_days)
        self.slow_days = float(slow_days)
        self.fast_fraction = float(fast_fraction)

    def delay_s(self, rng: np.random.Generator, loss_rate: float) -> float:
        days = (self.fast_days
                if float(rng.random()) < self.fast_fraction
                else self.slow_days)
        return days * DAY_S

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "fast_days": self.fast_days,
                "slow_days": self.slow_days,
                "fast_fraction": self.fast_fraction}


class ExponentialRepairPolicy(RepairPolicy):
    """Memoryless crews: exponential repair time with a configurable mean."""

    name = "exponential"

    def __init__(self, mean_hours: float = 48.0) -> None:
        if mean_hours <= 0:
            raise ValueError("mean_hours must be positive")
        self.mean_hours = float(mean_hours)

    def delay_s(self, rng: np.random.Generator, loss_rate: float) -> float:
        return float(rng.exponential(self.mean_hours * HOURS))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "mean_hours": self.mean_hours}


class SeverityTieredRepairPolicy(RepairPolicy):
    """Triage: links corrupting above a threshold get the fast crew.

    Models an operator who expedites tickets for the links dropping the
    most packets; mild corruption waits the slow queue.  Both tiers keep
    the CorrOpt two-point mixture shape but with different day counts.
    """

    name = "severity"

    def __init__(self, threshold_loss_rate: float = 1e-4,
                 urgent_days: float = 1.0, routine_days: float = 4.0) -> None:
        if threshold_loss_rate <= 0:
            raise ValueError("threshold_loss_rate must be positive")
        if not 0.0 < urgent_days <= routine_days:
            raise ValueError("need 0 < urgent_days <= routine_days")
        self.threshold_loss_rate = float(threshold_loss_rate)
        self.urgent_days = float(urgent_days)
        self.routine_days = float(routine_days)

    def delay_s(self, rng: np.random.Generator, loss_rate: float) -> float:
        base = (self.urgent_days if loss_rate >= self.threshold_loss_rate
                else self.routine_days)
        # +/- 25% uniform jitter so same-day repairs do not all land on
        # the exact same instant (one draw, index-addressed stream).
        return base * DAY_S * (0.75 + 0.5 * float(rng.random()))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "threshold_loss_rate": self.threshold_loss_rate,
                "urgent_days": self.urgent_days,
                "routine_days": self.routine_days}


REPAIR_POLICIES = {
    CorrOptRepairPolicy.name: CorrOptRepairPolicy,
    ExponentialRepairPolicy.name: ExponentialRepairPolicy,
    SeverityTieredRepairPolicy.name: SeverityTieredRepairPolicy,
}


def repair_policy(name: str, params: Dict[str, Any] = None) -> RepairPolicy:
    """Instantiate a registered policy from ``(name, params)``."""
    try:
        cls = REPAIR_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown repair policy {name!r}; "
            f"known: {sorted(REPAIR_POLICIES)}") from None
    return cls(**(params or {}))


@dataclass(frozen=True)
class RepairedEpisode:
    """One arbitratable episode: a failure onset plus its repair clear.

    Wraps the controller-facing :class:`CorruptionEpisode` with the
    event key (``link_id, event_index``) that names every downstream
    RNG stream, and the raw (unclipped) repair delay for queue-depth
    accounting.
    """

    episode: CorruptionEpisode
    event_index: int
    repair_delay_s: float


def _repair_stream(link_id: int, event_index: int) -> Tuple[str, int]:
    """The ``(name, index)`` key of one failure event's repair stream."""
    return f"lifecycle.link.{link_id}.repair", event_index


def repair_delays(factory: RngFactory, policy: RepairPolicy,
                  events: Sequence[FailureEvent]) -> List[float]:
    """Each failure event's repair delay: one draw from the event's own
    addressed ``(link_id, event_index)`` stream, so it is the same whoever
    asks and whenever the crew's clock starts.  The streams are seeded in
    one batch (:meth:`~repro.core.rng.RngFactory.streams`)."""
    return [float(policy.delay_s(rng, event.loss_rate))
            for event, rng in zip(events, factory.streams(
                _repair_stream(event.link_id, event.event_index)
                for event in events))]


def apply_repair(
    trace: LifecycleTrace,
    policy: RepairPolicy,
) -> Tuple[List[RepairedEpisode], int]:
    """Failure trace -> repaired episode timeline, plus coalesced count.

    Per link, events are walked in time order; an onset that lands while
    the link is still awaiting repair is coalesced into the open episode
    (dropped; counted).  Clear times are clipped to the trace duration so
    segment arithmetic stays within the replay window; the raw delay is
    kept on the :class:`RepairedEpisode` for repair-queue series.

    Every event's delay is drawn up front by :func:`repair_delays` (a
    coalesced event's draw goes unused).
    """
    delays = repair_delays(RngFactory(trace.spec.seed), policy, trace.events)
    duration_s = trace.spec.duration_s
    episodes: List[RepairedEpisode] = []
    coalesced = 0
    open_until: Dict[int, float] = {}
    # Trace events are (time, link)-sorted; per-link order follows.
    for event, delay_s in zip(trace.events, delays):
        if event.time_s < open_until.get(event.link_id, 0.0):
            coalesced += 1
            continue
        clear_s = event.time_s + delay_s
        open_until[event.link_id] = clear_s
        episodes.append(RepairedEpisode(
            episode=CorruptionEpisode(
                link_id=event.link_id,
                onset_s=event.time_s,
                clear_s=min(clear_s, duration_s),
                loss_rate=event.loss_rate,
                mean_burst=event.mean_burst,
            ),
            event_index=event.event_index,
            repair_delay_s=delay_s,
        ))
    return episodes, coalesced


def corruption_episodes(
    spec: TraceSpec, repair: str = "corropt", params: Dict[str, Any] = None,
) -> List[CorruptionEpisode]:
    """Trace spec -> the repaired fleet's corruption episodes.

    The generate -> repair recipe behind every consumer of lifecycle
    ground truth that needs only the controller-facing episodes (blame
    scoring, the policy optimizer, the service's synthetic feeds); the
    replay itself also wants event keys and the coalesced count, so it
    calls :func:`apply_repair` directly.
    """
    repaired, _ = apply_repair(generate_trace(spec),
                               repair_policy(repair, params))
    return [item.episode for item in repaired]
