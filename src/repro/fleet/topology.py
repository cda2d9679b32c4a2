"""Fleet-scale topology generation (paper §6 at datacenter scale).

A *fleet* is a multi-pod Clos fabric (``FleetSpec`` parameterizes pods ×
fabric switches × ToRs, so hundreds to thousands of links) in which every
link carries its own independent corruption process.  The spec holds the
shape plus the stochastic knobs of that process — MTTF, the clamp on the
Table 1 loss-rate draws, the Gilbert–Elliott burst range — and
:mod:`repro.lifecycle.traces` turns them into failure events from
``(link_id, event_index)``-addressed :class:`~repro.core.rng.RngFactory`
streams, so a link's history is identical however a replay is chunked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rng import RngFactory
from ..core.spec import Spec, ranged
from ..fabric.topology import FabricTopology

__all__ = [
    "FleetSpec", "CorruptionEpisode", "FleetTopology",
    "sample_affected_fraction",
]


@dataclass(frozen=True)
class FleetSpec(Spec):
    """Shape and stochastic parameters of one simulated fleet."""

    n_pods: int = ranged(4, "[1, inf)")
    tors_per_pod: int = ranged(8, "[1, inf)")
    fabrics_per_pod: int = ranged(4, "[1, inf)")
    spine_uplinks: int = ranged(8, "[1, inf)")
    #: mean time between corruption onsets per link (Meza et al. use 10k
    #: hours; campaigns default lower so a 30-day window has activity)
    mttf_hours: float = ranged(1_500.0, "(0, inf)")
    #: clamp on the per-event Table 1 loss-rate draws
    loss_floor: float = ranged(1e-7, "(0, 1]")
    loss_cap: float = ranged(1e-2, "(0, 1]")
    #: per-event Gilbert-Elliott mean burst length, log-uniform in range
    mean_burst_min: float = ranged(1.0, "[1, inf)")
    mean_burst_max: float = ranged(2.0, "[1, inf)")

    def __post_init__(self) -> None:
        if not self.loss_floor < self.loss_cap:
            raise ValueError("need loss_floor < loss_cap")
        if not self.mean_burst_min <= self.mean_burst_max:
            raise ValueError("need mean_burst_min <= mean_burst_max")

    @property
    def n_links(self) -> int:
        per_pod = (self.tors_per_pod * self.fabrics_per_pod
                   + self.fabrics_per_pod * self.spine_uplinks)
        return self.n_pods * per_pod


@dataclass(frozen=True)
class CorruptionEpisode(Spec):
    """One corruption event on one link: onset until repair completion."""

    link_id: int
    onset_s: float
    clear_s: float
    loss_rate: float
    mean_burst: float
    #: empirical fraction of flows crossing the link during the episode
    #: that would see >= 1 corruption loss if left unprotected
    affected_fraction: float = 0.0


def sample_affected_fraction(
    rng: np.random.Generator,
    loss_rate: float,
    mean_burst: float,
    flow_packets: int,
    n_flows: int = 128,
) -> float:
    """Fraction of ``n_flows`` sampled flows hit by >= 1 corruption loss.

    Runs the Gilbert–Elliott chain vectorized across flows (one uniform
    matrix, ``flow_packets`` state steps) — the empirical counterpart of
    the i.i.d. closed form ``1-(1-p)^packets``, which overcounts when
    losses cluster into bursts.
    """
    if loss_rate <= 0.0:
        return 0.0
    p_bg = 1.0 / mean_burst
    p_gb = loss_rate * p_bg / (1.0 - loss_rate)
    if p_gb >= 1.0:
        return 1.0
    draws = rng.random((flow_packets, n_flows))
    bad = np.zeros(n_flows, dtype=bool)
    hit = np.zeros(n_flows, dtype=bool)
    for step in range(flow_packets):
        bad = np.where(bad, draws[step] >= p_bg, draws[step] < p_gb)
        hit |= bad
    return float(hit.mean())


class FleetTopology(FabricTopology):
    """A :class:`FabricTopology` sized by a fleet spec, with the seed's
    RNG factory for per-link controller draws."""

    def __init__(self, spec: FleetSpec, seed: int = 0) -> None:
        super().__init__(
            spec.n_pods, spec.tors_per_pod, spec.fabrics_per_pod,
            spec.spine_uplinks,
        )
        self.spec = spec
        self.seed = int(seed)
        self.factory = RngFactory(seed)
