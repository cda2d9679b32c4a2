"""repro.lifecycle: month-scale fleet failure traces, repair, SLO replay.

The longitudinal layer on top of :mod:`repro.fleet`: deterministic
``<time, link_id, loss_rate>`` failure traces (:mod:`.traces`), a
pluggable repair-delay loop (:mod:`.repair`), and a time-chunked replay
(:mod:`.replay`) that pushes months of simulated fleet time through the
:class:`~repro.fleet.controller.FleetController` and rolls the outcome
up into per-day availability SLO series (:mod:`.slo`).

Quick start::

    from repro.lifecycle import TraceSpec, ReplaySpec, run_replay

    replay = ReplaySpec(trace=TraceSpec(duration_days=30.0, seed=1))
    rollup = run_replay(replay)
    print(rollup.summary())

CLI: ``repro lifecycle generate|replay|report``.
"""

from .repair import (
    REPAIR_POLICIES, CorrOptRepairPolicy, ExponentialRepairPolicy,
    RepairPolicy, RepairedEpisode, SeverityTieredRepairPolicy, apply_repair,
    corruption_episodes, repair_policy,
)
from .replay import ReplaySpec, run_chunk, run_replay
from .slo import DAY_COLUMNS, LifecycleRollup, SloConfig, summarize_days
from .traces import (
    FailureEvent, LifecycleTrace, TraceSpec, failure_events, generate_trace,
)

__all__ = [
    "TraceSpec", "FailureEvent", "LifecycleTrace", "generate_trace",
    "failure_events",
    "RepairPolicy", "CorrOptRepairPolicy", "ExponentialRepairPolicy",
    "SeverityTieredRepairPolicy", "REPAIR_POLICIES", "repair_policy",
    "RepairedEpisode", "apply_repair", "corruption_episodes",
    "SloConfig", "DAY_COLUMNS", "summarize_days", "LifecycleRollup",
    "ReplaySpec", "run_chunk", "run_replay",
]
