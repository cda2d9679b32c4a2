"""Fleet-scale fabric campaigns with fleet-wide corruptd orchestration.

``repro.fleet`` scales the per-link machinery to whole datacenters:

* :mod:`~repro.fleet.topology` — multi-pod Clos fleets and the
  stochastic knobs of their per-link corruption processes;
* :mod:`~repro.fleet.controller` — the fleet-wide arbitration loop
  (LinkGuardian activation vs CorrOpt disable) with pluggable policies;
* :mod:`~repro.fleet.monitor` — the one onset/clear loop that drives
  the controller from a live evidence stream, whatever the evidence;
* :mod:`~repro.fleet.cost` — what a corrupting link costs in each
  controller state (goodput, affected flows), the planner's one model;
* :mod:`~repro.fleet.campaign` — one-shot fleet SLOs as a view over the
  :mod:`repro.lifecycle` replay, bit-identical for any shard/worker
  count.

Quickstart::

    from repro.fleet import FleetCampaignSpec, FleetSpec, run_fleet_campaign

    campaign = FleetCampaignSpec(
        fleet=FleetSpec(n_pods=4, tors_per_pod=8), n_shards=4)
    result = run_fleet_campaign(campaign, workers=4)
    print(result.summary())
"""

from .campaign import (
    FleetCampaignResult, FleetCampaignSpec, run_fleet_campaign,
)
from .controller import ControllerConfig, FleetController
from .cost import unprotected_goodput_fraction
from .monitor import Estimator, EvidenceMonitor
from .policies import (
    POLICIES, FleetPolicy, GreedyWorstLinkPolicy, IncrementalDeploymentPolicy,
    PolicyCandidate, default_candidates, fleet_policy, optimize_policies,
    register_policy,
)
from .topology import (
    CorruptionEpisode, FleetSpec, FleetTopology, sample_affected_fraction,
)

__all__ = [
    "FleetCampaignResult", "FleetCampaignSpec", "run_fleet_campaign",
    "unprotected_goodput_fraction", "Estimator", "EvidenceMonitor",
    "POLICIES", "ControllerConfig", "FleetController", "FleetPolicy",
    "GreedyWorstLinkPolicy", "IncrementalDeploymentPolicy",
    "PolicyCandidate", "default_candidates", "fleet_policy",
    "optimize_policies", "register_policy",
    "CorruptionEpisode", "FleetSpec", "FleetTopology",
    "sample_affected_fraction",
]
