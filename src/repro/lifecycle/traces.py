"""Month-scale fleet failure traces (paper Appendix D at fleet scale).

A *lifecycle trace* is the production failure history the paper's
deployment study replays: a deterministic sequence of ``<time, link_id,
loss_rate>`` corruption onsets across every link of a
:class:`~repro.fleet.topology.FleetSpec` fleet, generated from

* per-link **time-to-corruption** draws — exponential with the fleet's
  MTTF (Weibull shape 1: corruption arrives from memoryless external
  damage, Meza et al. via Appendix D);
* the **CorrOpt Table 1 loss-rate distribution** measured across 350K
  production links (log-uniform within buckets), drawn fresh per event;
* a per-event Gilbert–Elliott **mean burst length** from the fleet
  spec's configured range (§3.5 observed short geometric bursts).

Determinism is addressed, not sequential: every draw for a link's k-th
failure comes from the ``(link_id, event_index)``-addressed stream
``lifecycle.link.<id>.event`` at index ``k``
(:meth:`~repro.core.rng.RngFactory.stream` with ``index=``).  Event k's
values therefore never depend on how many values event k-1 consumed —
truncating a trace, extending its duration, or changing the repair
model downstream regenerates every surviving event byte-identically,
and regeneration inside a replay chunk is always safe.

Traces serialize to a tagged JSON document (:meth:`LifecycleTrace.to_json`)
that embeds the generating spec — including the full
:class:`~repro.fleet.topology.FleetSpec` — so a trace written on one
machine replays on another against a verified-identical topology.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, List

from ..core.rng import RngFactory
from ..core.spec import Spec
from ..corropt.trace import sample_loss_rates
from ..fleet.topology import FleetSpec
from ..units import DAY_S, HOURS

__all__ = [
    "TRACE_VERSION", "TraceSpec", "FailureEvent", "LifecycleTrace",
    "failure_events", "generate_trace",
]

#: format tag carried by LifecycleTrace.to_json documents (2: the
#: embedded FleetSpec lost its repair and loss-distribution fields)
TRACE_VERSION = 2


@dataclass(frozen=True)
class TraceSpec(Spec):
    """Everything that determines a failure trace, and nothing else.

    Repair is deliberately *not* here: a trace is the raw arrival
    process (when links start corrupting, and how badly), so one trace
    can be replayed under many repair models and controller policies
    without regenerating.  The fleet spec's ``mttf_hours`` drives the
    inter-arrival draws; its burst range bounds the per-event
    Gilbert–Elliott character.
    """

    fleet: FleetSpec = field(default_factory=FleetSpec)
    duration_days: float = 30.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")

    @property
    def duration_s(self) -> float:
        return self.duration_days * DAY_S

    @property
    def n_days(self) -> int:
        return max(1, math.ceil(self.duration_days))


@dataclass(frozen=True)
class FailureEvent(Spec):
    """One corruption onset: a link starts corrupting at a loss rate.

    ``event_index`` is the event's ordinal on its own link — the index
    half of the trace's ``(link_id, event_index)`` RNG addressing, and
    the key every downstream consumer (repair draws, affected-flow
    sampling, packet re-simulation) uses to name its streams.
    """

    time_s: float
    link_id: int
    loss_rate: float
    mean_burst: float
    event_index: int


def failure_events(spec: TraceSpec, factory: RngFactory,
                   link_ids: Iterable[int]) -> List[FailureEvent]:
    """Every failure onset of each link in ``link_ids`` within
    ``[0, duration_s)``.

    Event k's three draws — inter-arrival gap, Table 1 loss rate, burst
    length — all come from the link's event stream *at index k*, so a
    link's events are a pure function of ``(spec.seed, link_id)``,
    whichever other links are asked for, and prefix-stable under any
    duration change.  Draws go in rounds of k over the links still
    inside the horizon, so each round's streams are seeded in one batch
    (:meth:`~repro.core.rng.RngFactory.streams`).  Events come out in
    (k, link) order; a link's own events in k order."""
    fleet = spec.fleet
    mean_gap_s = fleet.mttf_hours * HOURS
    log_lo = math.log(fleet.mean_burst_min)
    log_hi = math.log(fleet.mean_burst_max)
    events: List[FailureEvent] = []
    now = dict.fromkeys(link_ids, 0.0)
    for k in range(_MAX_EVENTS_PER_LINK):
        if not now:
            break
        links = list(now)
        keys = [(f"lifecycle.link.{link_id}.event", k) for link_id in links]
        for link_id, rng in zip(links, factory.streams(keys)):
            time_s = now[link_id] + float(rng.exponential(mean_gap_s))
            if time_s >= spec.duration_s:
                del now[link_id]
                continue
            now[link_id] = time_s
            rate = float(sample_loss_rates(rng, 1)[0])
            rate = min(max(rate, fleet.loss_floor), fleet.loss_cap)
            mean_burst = math.exp(float(rng.uniform(log_lo, log_hi)))
            events.append(FailureEvent(
                time_s=time_s, link_id=link_id, loss_rate=rate,
                mean_burst=mean_burst, event_index=k,
            ))
    return events


#: hard backstop against a pathological spec (mttf ~ 0) looping forever;
#: at the default MTTF a link sees well under one event per month.
_MAX_EVENTS_PER_LINK = 100_000


@dataclass
class LifecycleTrace:
    """A generated trace bound to its spec: events in (time, link) order."""

    spec: TraceSpec
    events: List[FailureEvent] = field(default_factory=list)

    @classmethod
    def generate(cls, spec: TraceSpec) -> "LifecycleTrace":
        """Deterministically generate the fleet's full failure history."""
        events = failure_events(spec, RngFactory(spec.seed),
                                range(spec.fleet.n_links))
        events.sort(key=lambda e: (e.time_s, e.link_id))
        return cls(spec=spec, events=events)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Canonical one-document form (sorted keys, no whitespace):
        the same spec always serializes to the same bytes."""
        return json.dumps({
            "lifecycle_trace": TRACE_VERSION,
            "spec": self.spec.to_dict(),
            "n_events": len(self.events),
            "events": [e.to_dict() for e in self.events],
        }, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str, verify: bool = True) -> "LifecycleTrace":
        """Parse a :meth:`to_json` document; optionally re-verify it.

        With ``verify`` (the default) the trace is regenerated from the
        embedded spec and compared event for event — a trace edited by
        hand, truncated by a torn write, or generated by an incompatible
        version fails here instead of silently replaying the wrong fleet
        history.
        """
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("lifecycle trace JSON must be an object")
        version = data.get("lifecycle_trace")
        if version != TRACE_VERSION:
            raise ValueError(
                f"not a lifecycle trace document (lifecycle_trace tag "
                f"{version!r}, expected {TRACE_VERSION})")
        spec = TraceSpec.from_dict(data.get("spec", {}))
        events = [FailureEvent.from_dict(e) for e in data.get("events", [])]
        if data.get("n_events") != len(events):
            raise ValueError(
                f"trace header claims {data.get('n_events')} events, "
                f"found {len(events)}")
        trace = cls(spec=spec, events=events)
        if verify:
            regenerated = cls.generate(spec)
            if regenerated.events != events:
                raise ValueError(
                    "trace events do not match regeneration from the "
                    "embedded spec (edited, corrupted, or version-skewed "
                    "trace file)")
        return trace


def generate_trace(spec: TraceSpec) -> LifecycleTrace:
    """Module-level convenience mirroring :meth:`LifecycleTrace.generate`."""
    return LifecycleTrace.generate(spec)
