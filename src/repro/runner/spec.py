"""Layer 1 of the runner: declarative experiment and sweep specs.

An :class:`ExperimentSpec` names one cell of the paper's evaluation grid
— the (transport, scenario, loss rate, flow size, trial count,
LinkGuardian config) tuple that every ``run_*`` function used to take as
ad-hoc kwargs.  Specs are frozen, serializable, and carry a stable
:meth:`~ExperimentSpec.cell_id`, so a cell can be shipped to a worker
process, checkpointed to disk, and recognised again on resume.

A :class:`SweepSpec` is a cartesian product of axes over a base spec —
one paper figure is typically one sweep (Figure 10 = transports ×
scenarios).  When the sweep carries its own ``seed``, every cell gets a
deterministic per-cell seed derived via :class:`~repro.core.rng.RngFactory`
from the cell's grid coordinates, so results are independent of execution
order and identical between serial and parallel runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional

from ..core.rng import RngFactory
from ..core.spec import Spec, ranged

__all__ = ["ExperimentSpec", "SweepSpec"]


@dataclass(frozen=True)
class ExperimentSpec(Spec):
    """One cell of an evaluation grid.

    The first-class fields are the knobs shared by (nearly) every
    experiment; anything kind-specific rides in ``params`` and
    LinkGuardianConfig overrides in ``lg`` (keyword arguments to
    ``LinkGuardianConfig.for_link_speed``, e.g. the Table 2 ablation's
    ``ordered`` / ``tail_loss_detection`` toggles).
    """

    kind: str
    transport: str = "dctcp"
    scenario: str = "lg"
    loss_rate: float = ranged(1e-3, "[0, 1)")
    flow_size: int = ranged(143, "[1, inf)")
    n_trials: int = ranged(1_000, "[1, inf)")
    rate_gbps: float = ranged(100.0, "(0, inf)")
    seed: int = 1
    #: execution backend: "packet" (the event-driven engine), "fastpath"
    #: (the vectorized analytic models in ``repro.fastpath``) or "hybrid"
    #: (analytic between losses, packet windows around them —
    #: ``repro.fastpath.splice``)
    backend: str = "packet"
    lg: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    #: observability options for the run: ``{"spans": True, "timeline":
    #: {...}, "trace": False}``.  Diagnostics-only — omitted from the
    #: serialized form when empty so existing cell ids stay stable.
    obs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        if not self.obs:
            del data["obs"]  # keeps the cell ids of uninstrumented runs
        return data

    def canonical_json(self) -> str:
        """Deterministic serialization (sorted keys, no whitespace).

        ``obs`` is excluded: instrumentation is diagnostics-only, so an
        instrumented cell keeps the plain cell's identity (same
        ``cell_id``, same checkpoint row key).
        """
        data = self.to_dict()
        data.pop("obs", None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def grid_key(self) -> str:
        """The cell's coordinates excluding ``seed`` — what per-cell seeds
        are derived *from*, so the derivation cannot be circular.
        ``backend`` is excluded too: the same grid cell on the packet and
        fastpath backends derives the same seed, which is what makes
        cross-validation grids exactly comparable."""
        data = self.to_dict()
        del data["seed"]
        del data["backend"]
        data.pop("obs", None)  # diagnostics never perturb derived seeds
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def cell_id(self) -> str:
        """Stable human-readable id: grid coordinates plus a short digest
        covering every field (params and lg overrides included)."""
        digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()[:8]
        return (
            f"{self.kind}-{self.transport}-{self.scenario}"
            f"-f{self.flow_size}-p{self.loss_rate:g}-s{self.seed}-{digest}"
        )

    def with_(self, **overrides: Any) -> "ExperimentSpec":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def with_axis(self, axis: str, value: Any) -> "ExperimentSpec":
        """Set one axis: a field name, or a dotted ``params.x`` / ``lg.x``."""
        if axis.startswith("params."):
            return replace(self, params={**self.params, axis[len("params."):]: value})
        if axis.startswith("lg."):
            return replace(self, lg={**self.lg, axis[len("lg."):]: value})
        if axis not in {f.name for f in fields(self)}:
            raise ValueError(
                f"unknown axis {axis!r}; use a spec field or params.X / lg.X"
            )
        return replace(self, **{axis: value})


@dataclass
class SweepSpec(Spec):
    """A named cartesian product of axes over a base spec.

    ``axes`` maps an axis name (spec field, or dotted ``params.x`` /
    ``lg.x``) to the list of values it sweeps.  Cells are enumerated in
    row-major order of the axes dict, which fixes the canonical result
    order regardless of how execution is scheduled.

    ``seed``: when ``None`` every cell keeps ``base.seed`` (the paper's
    figures run all scenarios on one seed); when set, each cell's seed is
    derived from ``(seed, cell grid coordinates)``.
    """

    name: str
    base: ExperimentSpec
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    seed: Optional[int] = None

    def cells(self) -> List[ExperimentSpec]:
        names = list(self.axes)
        out: List[ExperimentSpec] = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            spec = self.base
            for axis, value in zip(names, combo):
                spec = spec.with_axis(axis, value)
            if self.seed is not None:
                spec = spec.with_(
                    seed=RngFactory(self.seed).child_seed(spec.grid_key())
                )
            out.append(spec)
        return out
