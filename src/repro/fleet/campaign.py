"""Fleet campaigns: the one-shot view of a lifecycle replay.

A campaign answers the production-scale question in one line of SLOs:
across a whole fleet of links under the Table 1 corruption distribution,
what fraction of flows does corruption touch, what does fleet-wide
goodput look like, and how hard does the controller work?

There is one planner engine — the lifecycle pipeline of
:mod:`repro.lifecycle.replay` (failure trace → repair → controller
arbitration → tiered affected-flow evaluation → per-day segment rollup).
A :class:`FleetCampaignSpec` is a :class:`~repro.lifecycle.replay.
ReplaySpec` with CorrOpt repair and ``n_shards`` time chunks, evaluated
in process from one arbitration (which ``obs`` instruments: decision
counters and trace instants land in the caller's registry and tracer);
the campaign's SLOs are horizon-wide aggregates of the replay's per-day
columns, so they inherit its guarantee: the same seed yields a
byte-identical :meth:`FleetCampaignResult.canonical_json` for any
``(n_shards, workers)`` combination.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.spec import Spec
from ..units import DAY_S
from .controller import ControllerConfig, ControllerOutcome
from .cost import EXPOSED_FCT_INFLATION, LG_FCT_INFLATION
from .topology import FleetSpec

__all__ = ["FleetCampaignSpec", "FleetCampaignResult", "run_fleet_campaign"]


@dataclass(frozen=True)
class FleetCampaignSpec(Spec):
    """Everything one fleet campaign needs; maps onto a replay spec."""

    fleet: FleetSpec = field(default_factory=FleetSpec)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    policy: str = "incremental"
    duration_days: float = 30.0
    seed: int = 1
    #: contiguous day ranges the campaign is split into for execution
    n_shards: int = 1
    #: offered load per link, for the affected-flow and FCT rollups
    flows_per_link_per_s: float = 100.0
    flow_packets: int = 100
    #: flows sampled per episode for the empirical Gilbert-Elliott
    #: affected-fraction measurement
    sample_flows: int = 128
    #: evaluation tier for per-episode affected-flow fractions: "packet",
    #: "fastpath" or "hybrid" (see :mod:`repro.lifecycle.replay`)
    backend: str = "packet"
    #: fraction of episodes (the worst, by analytic affected fraction)
    #: re-simulated empirically on the analytic tiers
    resim_fraction: float = 0.05

    def __post_init__(self) -> None:
        n_days = max(1, math.ceil(self.duration_days))
        if not 1 <= self.n_shards <= n_days:
            raise ValueError(
                f"n_shards must be in [1, {n_days}] "
                f"(one shard needs at least one day)")
        # Everything else fails here exactly as the replay would.
        self.replay_spec()

    def replay_spec(self):
        """The lifecycle replay this campaign is a view of."""
        from ..lifecycle.replay import ReplaySpec
        from ..lifecycle.traces import TraceSpec

        return ReplaySpec(
            trace=TraceSpec(fleet=self.fleet,
                            duration_days=self.duration_days, seed=self.seed),
            controller=self.controller,
            policy=self.policy,
            repair="corropt",
            backend=self.backend,
            n_chunks=self.n_shards,
            flows_per_link_per_s=self.flows_per_link_per_s,
            flow_packets=self.flow_packets,
            sample_flows=self.sample_flows,
            resim_fraction=self.resim_fraction,
        )


@dataclass
class FleetCampaignResult:
    """Fleet SLOs plus the controller's audit counters and time series."""

    spec: Dict[str, Any]
    slos: Dict[str, float]
    counts: Dict[str, int]
    series: Dict[str, list]
    wall_s: float = 0.0

    def summary(self) -> Dict[str, Any]:
        return {**self.slos, **self.counts}

    def canonical_json(self) -> str:
        """Deterministic serialization: same seed => byte-identical,
        independent of sharding/workers.  ``n_shards`` is an execution
        detail (like worker count and wall clock), so it is excluded —
        a 4-shard parallel run serializes identically to a serial run."""
        spec = dict(self.spec)
        spec.pop("n_shards", None)
        data = {
            "spec": spec,
            "slos": self.slos,
            "counts": self.counts,
            "series": self.series,
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))


def run_fleet_campaign(
    campaign: FleetCampaignSpec,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    obs=None,
    progress=None,
) -> FleetCampaignResult:
    """Run the campaign's replay and fold its days into one-shot SLOs.
    ``workers`` is validated but starts no pool (see
    :func:`~repro.lifecycle.replay.evaluate_chunks`)."""
    from ..lifecycle.replay import evaluate_chunks, merge_chunks

    started = time.perf_counter()
    replay = campaign.replay_spec()
    results = evaluate_chunks(replay, workers, checkpoint, progress, obs)
    rollup = merge_chunks(replay, results)
    days = rollup.days

    # Horizon-wide fractions are the day columns weighted by day length
    # (only the last day of a fractional horizon is short).
    duration_s = replay.trace.duration_s
    weights = [min(duration_s, (day + 1) * DAY_S) - day * DAY_S
               for day in days["day"]]

    def horizon_mean(column) -> float:
        return sum(v * w for v, w in zip(column, weights)) / duration_s

    affected = horizon_mean(days["affected_flow_fraction"])
    affected_exposed = horizon_mean([
        value for result in results
        for value in result.series["exposed_affected_flow_fraction"]])
    # p99 FCT inflation from the three-level mixture: unaffected flows
    # (1.0), flows hit behind LinkGuardian, flows hit unprotected.
    if affected <= 0.01:
        p99_inflation = 1.0
    elif affected_exposed <= 0.01:
        p99_inflation = LG_FCT_INFLATION
    else:
        p99_inflation = EXPOSED_FCT_INFLATION

    result = FleetCampaignResult(
        spec=campaign.to_dict(),
        slos={
            "affected_flow_fraction": affected,
            "fleet_goodput_fraction": horizon_mean(days["goodput_fraction"]),
            "p99_fct_inflation": p99_inflation,
            "exposed_link_s": rollup.slos["exposed_link_s"],
            "protected_link_s": rollup.slos["protected_link_s"],
            "disabled_link_s": rollup.slos["disabled_link_s"],
            "n_episodes": float(rollup.counts["n_episodes"]),
        },
        counts={name: rollup.counts[name]
                for name in ControllerOutcome().counts()},
        series={
            "activate_per_day": days["activations"],
            "blocked_per_day": days["blocked"],
            "disable_per_day": days["disables"],
            "preempt_per_day": days["preempts"],
        },
        wall_s=time.perf_counter() - started,
    )
    if obs is not None:
        registry = obs.registry
        registry.register_provider(
            f"fleet.rollup.{campaign.policy}", result.summary)
        # One summary per campaign through the registry, so the CLI and
        # exporters read the same source of truth.
        n_flagged = rollup.counts["flagged_resim"]
        n_episodes = rollup.counts["n_episodes"]
        registry.counter("fleet.campaign.runs").inc()
        registry.counter("fleet.campaign.cells").inc(campaign.n_shards)
        registry.counter(
            f"fleet.campaign.cells.{campaign.backend}").inc(campaign.n_shards)
        registry.counter("fleet.campaign.episodes").inc(n_episodes)
        registry.counter("fleet.campaign.flagged_resim").inc(n_flagged)
        summary = {
            "cells": campaign.n_shards,
            "backend": campaign.backend,
            "backend_mix": {campaign.backend: campaign.n_shards},
            "flagged_resim": n_flagged,
            "episodes": n_episodes,
            "links": campaign.fleet.n_links,
            "duration_days": campaign.duration_days,
            "policy": campaign.policy,
            "wall_s": round(result.wall_s, 4),
        }
        registry.register_provider(
            "fleet.campaign.summary", lambda: summary)
    return result
