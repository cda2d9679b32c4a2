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

import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict

import numpy as np

from ..core.rng import RngFactory
from ..fabric.topology import FabricTopology

__all__ = [
    "FleetSpec", "CorruptionEpisode", "FleetTopology",
    "sample_affected_fraction",
]

#: format tag carried by FleetSpec.to_json documents (2: repair and
#: loss-distribution knobs moved out — repair is a lifecycle policy)
FLEET_SPEC_VERSION = 2


@dataclass(frozen=True)
class FleetSpec:
    """Shape and stochastic parameters of one simulated fleet."""

    n_pods: int = 4
    tors_per_pod: int = 8
    fabrics_per_pod: int = 4
    spine_uplinks: int = 8
    #: mean time between corruption onsets per link (Meza et al. use 10k
    #: hours; campaigns default lower so a 30-day window has activity)
    mttf_hours: float = 1_500.0
    #: clamp on the per-event Table 1 loss-rate draws
    loss_floor: float = 1e-7
    loss_cap: float = 1e-2
    #: per-event Gilbert-Elliott mean burst length, log-uniform in range
    mean_burst_min: float = 1.0
    mean_burst_max: float = 2.0

    def __post_init__(self) -> None:
        if min(self.n_pods, self.tors_per_pod, self.fabrics_per_pod,
               self.spine_uplinks) < 1:
            raise ValueError("fleet dimensions must all be >= 1")
        if not 0 < self.loss_floor < self.loss_cap <= 1.0:
            raise ValueError("need 0 < loss_floor < loss_cap <= 1")
        if not 1.0 <= self.mean_burst_min <= self.mean_burst_max:
            raise ValueError("need 1 <= mean_burst_min <= mean_burst_max")

    @property
    def n_links(self) -> int:
        per_pod = (self.tors_per_pod * self.fabrics_per_pod
                   + self.fabrics_per_pod * self.spine_uplinks)
        return self.n_pods * per_pod

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FleetSpec fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        """Canonical one-document form for saving a topology to disk.

        Carries a format tag so a trace or replay started elsewhere can
        verify it is binding to a fleet spec (and not some other JSON) —
        :meth:`from_json` round-trips byte-identically.
        """
        return json.dumps({"fleet_spec": FLEET_SPEC_VERSION, **self.to_dict()},
                          sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        """Parse and validate a :meth:`to_json` document.

        Validation is the full constructor path: the version tag must
        match, field names must be known, and ``__post_init__`` range
        checks run — a corrupted or hand-edited file fails loudly here
        rather than as a mis-shaped fleet three layers down.
        """
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("fleet spec JSON must be an object")
        version = data.pop("fleet_spec", None)
        if version != FLEET_SPEC_VERSION:
            raise ValueError(
                f"not a fleet spec document (fleet_spec tag {version!r}, "
                f"expected {FLEET_SPEC_VERSION})")
        return cls.from_dict(data)

    def with_(self, **overrides: Any) -> "FleetSpec":
        return replace(self, **overrides)


@dataclass(frozen=True)
class CorruptionEpisode:
    """One corruption event on one link: onset until repair completion."""

    link_id: int
    onset_s: float
    clear_s: float
    loss_rate: float
    mean_burst: float
    #: empirical fraction of flows crossing the link during the episode
    #: that would see >= 1 corruption loss if left unprotected
    affected_fraction: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "link_id": self.link_id,
            "onset_s": self.onset_s,
            "clear_s": self.clear_s,
            "loss_rate": self.loss_rate,
            "mean_burst": self.mean_burst,
            "affected_fraction": self.affected_fraction,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CorruptionEpisode":
        return cls(**data)


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
