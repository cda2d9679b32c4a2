"""Incremental deployment study (paper §5, "Incremental Deployment").

LinkGuardian only needs the two switches adjacent to a corrupting link
to be upgraded, so it can be rolled out gradually.  The paper leaves
"the exact partial deployment strategy" as future work; this experiment
quantifies the obvious baseline — a uniformly random fraction of
upgraded links — by sweeping the deployment fraction and measuring the
deployment-study penalty.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..fleet.topology import FleetSpec
from ..lifecycle.traces import TraceSpec, generate_trace
from ..runner import CellResult, ExperimentSpec, RunContext
from .deployment import replay_corropt

__all__ = ["run_incremental_deployment", "incremental_cell"]


def run_incremental_deployment(
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    capacity_constraint: float = 0.75,
    n_pods: int = 6,
    tors_per_pod: int = 12,
    fabrics_per_pod: int = 4,
    spine_uplinks: int = 12,
    duration_days: float = 120.0,
    mttf_hours: float = 1_500.0,
    seed: int = 31,
) -> List[Dict[str, float]]:
    """Mean/median total penalty versus LG deployment fraction."""
    # Every deployment fraction replays the identical failure trace (and
    # each link's upgrade coin is fixed), so rows differ only by policy.
    fleet = FleetSpec(n_pods, tors_per_pod, fabrics_per_pod, spine_uplinks,
                      mttf_hours=mttf_hours)
    trace = generate_trace(TraceSpec(fleet, duration_days, seed))
    rows: List[Dict[str, float]] = []
    for fraction in fractions:
        result = replay_corropt(trace, capacity_constraint, fraction)
        rows.append({
            "fraction": fraction,
            "mean_penalty": float(result.total_penalty.mean()),
            "p99_penalty": float(np.percentile(result.total_penalty, 99)),
            "blocked": result.constraint_blocked,
        })
    return rows


def incremental_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """The ``("incremental", "packet")`` row of :data:`repro.runner.cells.CELLS`
    (one deployment fraction, ``params.fraction``, per cell)."""
    fraction = spec.params.get("fraction", 0.5)
    params = {k: v for k, v in spec.params.items() if k != "fraction"}
    rows = run_incremental_deployment(
        fractions=(fraction,), seed=spec.seed, **params)
    return CellResult.for_spec(spec, rows[0])
