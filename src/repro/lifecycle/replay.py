"""Longitudinal replay: trace → repair → arbitration → per-day SLO series.

The lifecycle pipeline's execution layer.  One :class:`ReplaySpec` binds
a failure trace (:class:`~repro.lifecycle.traces.TraceSpec`) to a repair
policy, a :class:`~repro.fleet.controller.FleetController` arbitration
policy, an evaluation tier, and the SLO targets — everything a months-long
fleet history needs to become the per-day series of
:mod:`repro.lifecycle.slo`.

Execution is **time-chunked**, not link-sharded: the month is split into
contiguous day ranges, each a ``lifecycle_chunk`` cell result (JSONL
checkpoint/resume through :func:`~repro.runner.sweep.run_cells`).  A
replay is computed **once**, in the calling process — trace, repair
draws, arbitration (:func:`arbitrate`), then one evaluation of every day
(:func:`~repro.lifecycle.slo.accumulate_days`) — and each pending chunk
is the ``[day_lo, day_hi)`` slice of that evaluation: a worker pool
would only repeat the work, and evaluating each chunk on its own would
price every segment of the replay once per chunk (12 chunks of 256 links
× 180 days: 20.3 ms on the hybrid tier and 1.3 s on the packet tier,
against 2.5 ms and 0.1 s for one evaluation).  Nothing evaluated reads
``n_chunks``, and a resumed chunk equals a fresh one because every
random quantity is addressed, not sequential:

* failure and repair draws come from ``(link_id, event_index)`` streams;
* per-episode affected-flow fractions are pure functions of the same
  event key (``lifecycle.link.<id>.flows`` at ``index=event_index``);
* the flagged-for-resim set ranks the *fleet-wide* episode list
  (closed-form, cheap).

Hence :meth:`~repro.lifecycle.slo.LifecycleRollup.canonical_json` is
byte-identical for any ``(n_chunks, workers)`` — the acceptance bar this
module is built around.

Tiers: ``fastpath`` is the Gilbert–Elliott closed form everywhere plus
empirical re-simulation of the flagged worst episodes; ``hybrid``
additionally samples any episode whose analytic fraction reaches the
splice threshold; ``packet`` samples every episode.  A fleet campaign
(:mod:`repro.fleet.campaign`) is the one-shot view of this same replay.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.rng import RngFactory
from ..core.spec import Spec, ranged
from ..fleet.controller import (
    ControllerConfig, ControllerOutcome, FleetController,
)
from ..fleet.policies import POLICIES
from ..fleet.topology import FleetTopology, sample_affected_fraction
from ..runner import CellResult, ExperimentSpec, run_cells
from ..units import DAY_S
from .repair import RepairedEpisode, apply_repair, repair_policy
from .slo import LifecycleRollup, SloConfig, accumulate_days, summarize_days
from .traces import LifecycleTrace, TraceSpec

__all__ = [
    "ReplaySpec", "HYBRID_EMPIRICAL_THRESHOLD", "shard_bounds", "arbitrate",
    "run_chunk", "evaluate_chunks", "merge_chunks", "run_replay",
]

_BACKENDS = ("packet", "fastpath", "hybrid")
#: hybrid-tier cutover: episodes whose *analytic* affected fraction
#: reaches this are sampled empirically instead (the Gilbert–Elliott
#: closed form is weakest exactly where bursts touch most flows).  A
#: module constant, not a spec field, so canonical output stays
#: byte-compatible across backends.
HYBRID_EMPIRICAL_THRESHOLD = 0.5


def shard_bounds(n_items: int, n_shards: int, shard: int) -> Tuple[int, int]:
    """Contiguous ``[lo, hi)`` range of one shard (balanced)."""
    if not 0 <= shard < n_shards:
        raise ValueError(f"shard {shard} out of range [0, {n_shards})")
    base, extra = divmod(n_items, n_shards)
    lo = shard * base + min(shard, extra)
    hi = lo + base + (1 if shard < extra else 0)
    return lo, hi


@dataclass(frozen=True)
class ReplaySpec(Spec):
    """Everything one lifecycle replay needs, serializable (it rides in
    every chunk result)."""

    trace: TraceSpec = field(default_factory=TraceSpec)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    #: fleet arbitration policy (see repro.fleet.policies.POLICIES)
    policy: str = "incremental"
    #: repair policy name + parameters (see repro.lifecycle.repair)
    repair: str = "corropt"
    repair_params: Dict[str, Any] = field(default_factory=dict)
    #: evaluation tier for per-episode affected-flow fractions
    backend: str = "hybrid"
    #: contiguous day ranges the replay is split into for execution
    n_chunks: int = ranged(1, "[1, inf)")
    #: offered load per link, for the affected-flow rollup
    flows_per_link_per_s: float = ranged(100.0, "(0, inf)")
    flow_packets: int = ranged(100, "[1, inf)")
    #: flows sampled per empirically-evaluated episode
    sample_flows: int = ranged(128, "[1, inf)")
    #: fraction of episodes (the worst, by analytic affected fraction)
    #: re-simulated empirically even on the fastpath tier
    resim_fraction: float = ranged(0.05, "[0, 1]")
    slo: SloConfig = field(default_factory=SloConfig)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; known: {sorted(POLICIES)}")
        # Validate the repair (name, params) combination eagerly so a bad
        # spec fails at construction, not mid-replay.
        repair_policy(self.repair, self.repair_params)
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"known: {', '.join(_BACKENDS)}")
        if self.n_chunks > self.trace.n_days:
            raise ValueError(
                f"n_chunks must be in [1, {self.trace.n_days}] "
                f"(one chunk needs at least one day)")

    @property
    def n_days(self) -> int:
        return self.trace.n_days

    def chunk_days(self, chunk: int) -> Tuple[int, int]:
        """The ``[day_lo, day_hi)`` range of one chunk (balanced)."""
        return shard_bounds(self.n_days, self.n_chunks, chunk)


def arbitrate(
    replay: ReplaySpec, obs=None,
) -> Tuple[List[RepairedEpisode], int, ControllerOutcome]:
    """The global serial pipeline every chunk regenerates identically:
    trace generation, repair application, controller arbitration.
    ``obs`` instruments the controller (decision counters and trace
    instants) without changing a verdict."""
    trace = LifecycleTrace.generate(replay.trace)
    episodes, coalesced = apply_repair(
        trace, repair_policy(replay.repair, replay.repair_params))
    topology = FleetTopology(replay.trace.fleet, replay.trace.seed)
    controller = FleetController(
        topology, replay.controller, POLICIES[replay.policy](), obs=obs)
    outcome = controller.run([r.episode for r in episodes])
    return episodes, coalesced, outcome


def _flagged_keys(
    replay: ReplaySpec,
    episodes: List[RepairedEpisode],
    analytic: List[float],
) -> Set[Tuple[int, int]]:
    """Event keys of the worst ``resim_fraction`` episodes, by analytic
    affected fraction (loss rate breaking ties).  Ranks the fleet-wide
    list — a pure function of the replay spec, so chunking-independent."""
    if not episodes or replay.resim_fraction <= 0.0:
        return set()
    n_flagged = min(len(episodes), max(1, math.ceil(
        replay.resim_fraction * len(episodes))))
    ranked = sorted(
        range(len(episodes)),
        key=lambda i: (-analytic[i],
                       -episodes[i].episode.loss_rate,
                       episodes[i].episode.link_id,
                       episodes[i].episode.onset_s))
    return {(episodes[i].episode.link_id, episodes[i].event_index)
            for i in ranked[:n_flagged]}


class _AffectedEvaluator:
    """Lazy tiered evaluation of per-episode affected-flow fractions.

    The tier decision (analytic closed form vs empirical Gilbert–Elliott
    sampling) is made per episode from fleet-wide information, and the
    empirical draw comes from the episode's own
    ``(link_id, event_index)``-addressed stream, so the value depends on
    nothing but the replay spec.  A replay's one evaluation asks for
    every episode with an exposed segment (the cache answers repeats);
    ``empirical_evaluated`` counts the episodes sampled.
    """

    def __init__(self, replay: ReplaySpec,
                 episodes: List[RepairedEpisode]) -> None:
        from ..fastpath.model import ge_affected_fraction

        self.replay = replay
        self.episodes = episodes
        self.factory = RngFactory(replay.trace.seed)
        self.analytic = ge_affected_fraction(
            [r.episode.loss_rate for r in episodes],
            [r.episode.mean_burst for r in episodes],
            replay.flow_packets).tolist()
        self.flagged = _flagged_keys(replay, episodes, self.analytic)
        self.empirical_evaluated = 0
        self._cache: Dict[int, float] = {}

    def _needs_empirical(self, index: int) -> bool:
        backend = self.replay.backend
        if backend == "packet":
            return True
        key = (self.episodes[index].episode.link_id,
               self.episodes[index].event_index)
        if key in self.flagged:
            return True
        return (backend == "hybrid"
                and self.analytic[index] >= HYBRID_EMPIRICAL_THRESHOLD)

    def __call__(self, index: int) -> float:
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        repaired = self.episodes[index]
        episode = repaired.episode
        if self._needs_empirical(index):
            rng = self.factory.stream(
                f"lifecycle.link.{episode.link_id}.flows",
                index=repaired.event_index)
            value = sample_affected_fraction(
                rng, episode.loss_rate, episode.mean_burst,
                self.replay.flow_packets, self.replay.sample_flows)
            self.empirical_evaluated += 1
        else:
            value = self.analytic[index]
        self._cache[index] = value
        return value


def _evaluate(
    replay: ReplaySpec,
    arbitration: Tuple[List[RepairedEpisode], int, ControllerOutcome],
) -> Tuple[Dict[str, list], List[float], Dict[str, int], int]:
    """The replay's one evaluation of ``arbitration`` (what
    :func:`arbitrate` returned): every day's columns, the exposed share
    of each day's affected-flow fraction (for the one-shot campaign
    view), the controller/repair counters and the number of episodes
    sampled empirically — the last two replay-wide."""
    episodes, coalesced, outcome = arbitration
    evaluator = _AffectedEvaluator(replay, episodes)
    days, exposed_affected = accumulate_days(
        replay, episodes, outcome, evaluator)
    counts = dict(outcome.counts())
    counts["n_episodes"] = len(episodes)
    counts["coalesced_events"] = coalesced
    counts["flagged_resim"] = len(evaluator.flagged)
    return days, exposed_affected, counts, evaluator.empirical_evaluated


def _slice(replay: ReplaySpec, chunk: int, evaluation) -> Dict[str, Any]:
    """One chunk: the ``[day_lo, day_hi)`` rows of ``evaluation`` and its
    replay-wide counters, which the merge takes from any one chunk."""
    days, exposed_affected, counts, empirical = evaluation
    day_lo, day_hi = replay.chunk_days(chunk)
    return {
        "days": {name: column[day_lo:day_hi]
                 for name, column in days.items()},
        "exposed_affected_flow_fraction": exposed_affected[day_lo:day_hi],
        "counts": dict(counts),
        "chunk": {"chunk": chunk, "day_lo": day_lo, "day_hi": day_hi,
                  "empirical_evaluated": empirical},
    }


def run_chunk(replay: ReplaySpec, chunk: int) -> Dict[str, Any]:
    """One chunk on its own: :func:`arbitrate`, evaluate, slice."""
    return _slice(replay, chunk, _evaluate(replay, arbitrate(replay)))


def evaluate_chunks(replay: ReplaySpec, workers: int = 1,
                    checkpoint: Optional[str] = None, progress=None,
                    obs=None) -> List[CellResult]:
    """The replay's chunks as ``lifecycle_chunk`` cell results, in order.

    Chunks already in ``checkpoint`` are re-used; the rest are sliced
    here out of one :func:`_evaluate` of one :func:`arbitrate` and
    appended to it.  ``obs`` instruments the arbitration, which runs
    under ``obs`` even when nothing is pending, so its counters are
    always recorded; the evaluation runs only for a pending chunk.
    ``progress`` sees each new chunk; its ``wall_s`` times the slice
    alone.  ``workers`` is validated and starts no pool (DESIGN §5j).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base = ExperimentSpec(kind="lifecycle_chunk", scenario=replay.policy,
                          n_trials=1, seed=replay.trace.seed,
                          params={"replay": replay.to_dict()})

    def execute(pending):
        if pending or obs is not None:
            arbitration = arbitrate(replay, obs=obs)
        evaluation = _evaluate(replay, arbitration) if pending else None
        for spec in pending:
            started = time.perf_counter()
            out = _slice(replay, spec.params["chunk"], evaluation)
            result = CellResult.for_spec(spec, out.pop("chunk"), out)
            result.wall_s = time.perf_counter() - started
            result.timings = {"total_s": round(result.wall_s, 6)}
            yield result

    return run_cells(
        [base.with_axis("params.chunk", c) for c in range(replay.n_chunks)],
        checkpoint=checkpoint, progress=progress, execute=execute)


def merge_chunks(replay: ReplaySpec, results) -> LifecycleRollup:
    """Concatenate the chunks' disjoint day ranges in canonical sweep
    order and recompute the attainment summaries over the merged
    columns — no floating-point reduction crosses a chunk boundary, so
    the rollup is byte-identical for any ``(n_chunks, workers)``."""
    days: Dict[str, list] = {}
    for result in results:
        for name, column in result.series["days"].items():
            days.setdefault(name, []).extend(column)
    return LifecycleRollup(
        spec=replay.to_dict(),
        slos=summarize_days(days, replay.slo),
        counts=dict(results[0].series["counts"]),
        days=days,
    )


def run_replay(
    replay: ReplaySpec,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    obs=None,
    progress=None,
) -> LifecycleRollup:
    """Run the full replay: one arbitration and evaluation, sliced into
    chunks, merge, SLO rollup.  ``workers`` is validated but starts no
    pool (see :func:`evaluate_chunks`)."""
    started = time.perf_counter()
    results = evaluate_chunks(replay, workers, checkpoint, progress)
    rollup = merge_chunks(replay, results)
    rollup.wall_s = time.perf_counter() - started
    if obs is not None:
        _record_obs(obs, replay, rollup, results)
    return rollup


def _record_obs(obs, replay: ReplaySpec, rollup: LifecycleRollup,
                results) -> None:
    """Longitudinal obs integration: registry counters and a per-day
    timeline sampled through a decimating :class:`TimelineRecorder`.

    The timeline is diagnostics — it rides in ``rollup.artifacts``, never
    the canonical form — and deliberately exercises the recorder's
    ``decimate`` policy so month-scale series degrade to coarser cadence
    instead of losing their head.
    """
    from ..obs.timeline import TimelineRecorder

    registry = obs.registry
    registry.counter("lifecycle.replay.runs").inc()
    registry.counter("lifecycle.replay.chunks").inc(replay.n_chunks)
    registry.counter("lifecycle.replay.episodes").inc(
        rollup.counts.get("n_episodes", 0))
    registry.counter("lifecycle.replay.coalesced").inc(
        rollup.counts.get("coalesced_events", 0))
    # every chunk carries the replay-wide count
    registry.counter("lifecycle.replay.empirical").inc(
        results[0].metrics.get("empirical_evaluated", 0))
    registry.register_provider(
        f"lifecycle.rollup.{replay.policy}", rollup.summary)

    gauges = {
        name: registry.gauge(f"lifecycle.day.{name}")
        for name in ("goodput_fraction", "affected_flow_fraction",
                     "repair_queue_depth_mean", "lg_churn",
                     "capacity_floor_violations")
    }
    recorder = TimelineRecorder(
        registry, interval_ns=int(DAY_S * 1e9), capacity=64,
        include=("lifecycle.day.",), policy="decimate")
    for row, day in enumerate(rollup.days["day"]):
        for name, gauge in gauges.items():
            gauge.set(rollup.days[name][row])
        recorder.sample(int(day * DAY_S * 1e9))
    recorder.stop()
    rollup.artifacts["timeline"] = recorder.series()
