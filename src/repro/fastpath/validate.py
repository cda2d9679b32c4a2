"""Cross-validation: matched grids on the fastpath and packet backends.

The analytic backend is only trustworthy while it tracks the packet
engine, so validation is a first-class artifact: build a grid of cells,
run every cell on **both** backends (same spec, same derived seed —
``grid_key`` excludes the backend), compare metric by metric, and fail
loudly when any metric's relative error drifts beyond its documented
tolerance.

Tolerances (the "documented tolerance" of the acceptance criteria) live
in :data:`TOLERANCES` with the reasoning inline.  Two kinds of gating
keep the comparison statistically honest rather than permissive:

* count gates — a tail quantile or an event count is only compared when
  the packet run is expected to contain enough samples for the
  empirical value to have converged (e.g. ``loss_events`` needs >= 20
  expected events before a 35% band is meaningful);
* mixture-boundary gates — an FCT quantile whose target probability
  falls within a few standard errors of a penalty-level boundary can
  legitimately land on either level in the engine (a 30x ratio that
  means nothing), so those cells are skipped for that quantile.

Every gate decision is counted and reported — gated cells are visible
in the report, never silently dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import percentile as _percentile
from ..core.rng import RngFactory
from ..runner import CellResult, ExperimentSpec, backends, lg_config, run_cells
from ..units import GBPS
from . import fct as fctmod

__all__ = [
    "TOLERANCES", "MetricSummary", "ValidationReport",
    "default_grid", "fast_backends", "run_validation", "compare_validation",
]


#: metric -> (relative tolerance, rationale).  Relative error is
#: ``|fastpath - packet| / max(|packet|, floor)``.
TOLERANCES: Dict[str, Tuple[float, str]] = {
    # clean-path FCT arithmetic is exact to the nanosecond at one
    # window; multi-window flows carry a <=0.2% window-boundary
    # approximation, and loss scenarios add sampling noise at p50.
    "fct.p50_us": (0.06, "exact wire arithmetic +- mixture sampling noise"),
    # tail quantiles compare level-selection, not arithmetic: the model
    # must pick the same penalty level (clean / fast-retx / RTO) as the
    # engine; within a level the values agree to ~10%.
    "fct.p99_us": (0.50, "penalty-level agreement (gated near boundaries)"),
    "fct.p99.9_us": (0.50, "penalty-level agreement (gated near boundaries)"),
    # affected-flow counts are binomial(n_trials, P): the error is the
    # excess beyond 3 sigma of the larger count, relative to it — a
    # small-count downward draw scores 0 instead of exploding the ratio,
    # while a 2x miscalibration still fails at any scale.
    "fct.affected": (0.25, "binomial count: excess beyond 3 sigma"),
    # copies N is Eq. 2 on both sides — must match exactly.
    "stress.N": (0.0, "Eq. 2 on both backends, integer-exact"),
    # the engine's 'expected' effective loss is the same closed form.
    "stress.eff_loss(expect)": (0.02, "same Eq. 1 closed form"),
    # effective speed: the N*p copy overhead is exact; the pause-term
    # model carries the uniform-recovery approximation.
    "stress.eff_speed_%": (0.03, "N*p exact; pause duty cycle modeled"),
    # recovery latency: U(fixed, fixed+loop) vs the engine's empirical
    # distribution; consecutive-loss runs skew the engine's median at
    # high loss.  Gated to >= 8 observed recoveries.
    "stress.retx_p50_us": (0.35, "uniform-phase model, gated >= 8 samples"),
    # buffer peak: threshold-clipped burst model vs discrete packets.
    # The model predicts the converged max (recovery time near the top
    # of its uniform range); gated to >= 8 loss events so the engine's
    # empirical max has actually approached it.
    "stress.rx_buf_max_KB": (0.60, "burst-peak model, gated >= 8 events"),
    # Poisson event count; gated to >= 20 expected events (35% ~ 1.5
    # sigma at 20, tighter as counts grow).
    "stress.loss_events": (0.35, "Poisson count, gated >= 20 expected"),
    # goodput: protected schemes are copy-overhead arithmetic plus a
    # calibrated ramp; unprotected CUBIC is seed-sensitive (single-flow
    # window collapse) and gets the wide documented band.
    "goodput.goodput_gbps[lg]": (0.15, "copy overhead + calibrated ramp"),
    "goodput.goodput_gbps[lgnb]": (0.25, "reordering penalty calibrated"),
    "goodput.goodput_gbps[wharf]": (0.15, "FEC code-rate arithmetic"),
    "goodput.goodput_gbps[none]": (0.40, "unprotected CUBIC is seed-noisy"),
}

#: denominator floor per metric family so near-zero packet values don't
#: explode the relative error.  Counts floor at 1 event; the rx buffer
#: floors at roughly one MTU frame (LG_NB holds nothing, both sides
#: should report ~0 — the floor keeps a stray packet from dividing by 0).
_REL_FLOOR = {
    "stress.loss_events": 1.0,
    "stress.rx_buf_max_KB": 2.0,
}


@dataclass
class MetricSummary:
    """Relative-error distribution of one metric across the grid."""

    metric: str
    tolerance: float
    rationale: str
    n_compared: int = 0
    n_gated: int = 0
    errors: List[float] = field(default_factory=list)
    worst_cell: Optional[str] = None

    @property
    def max_err(self) -> float:
        return max(self.errors) if self.errors else 0.0

    @property
    def mean_err(self) -> float:
        return float(np.mean(self.errors)) if self.errors else 0.0

    @property
    def ok(self) -> bool:
        return self.max_err <= self.tolerance + 1e-12

    def row(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "n": self.n_compared,
            "gated": self.n_gated,
            "mean_rel_err": round(self.mean_err, 4),
            "max_rel_err": round(self.max_err, 4),
            "tol": self.tolerance,
            "ok": self.ok,
            "worst_cell": self.worst_cell or "",
        }


@dataclass
class ValidationReport:
    """The harness output: per-metric summaries plus run bookkeeping."""

    n_cells: int
    summaries: Dict[str, MetricSummary]
    packet_wall_s: float = 0.0
    fastpath_wall_s: float = 0.0
    #: the fast side of the comparison: "fastpath" or "hybrid"
    backend: str = "fastpath"

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.summaries.values())

    def failures(self) -> List[MetricSummary]:
        return [s for s in self.summaries.values() if not s.ok]

    def rows(self) -> List[Dict[str, Any]]:
        return [self.summaries[name].row() for name in sorted(self.summaries)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "n_cells": self.n_cells,
            "backend": self.backend,
            "packet_wall_s": self.packet_wall_s,
            "fastpath_wall_s": self.fastpath_wall_s,
            "metrics": self.rows(),
        }

    def raise_if_failed(self) -> None:
        """The loud-failure contract: CI and tests call this."""
        if self.ok:
            return
        lines = [
            f"  {s.metric}: max_rel_err {s.max_err:.3f} > tol "
            f"{s.tolerance} (worst cell {s.worst_cell})"
            for s in self.failures()
        ]
        raise AssertionError(
            f"{self.backend}/packet cross-validation failed:\n"
            + "\n".join(lines))


# -- grid construction ------------------------------------------------------

def default_grid(n_cells: int = 200, seed: int = 1) -> List[ExperimentSpec]:
    """A mixed validation grid of ~``n_cells`` fct/stress/goodput cells.

    The axes cover the regimes the models claim: loss rates from 1e-4 to
    3e-2, both paper link speeds, single- and multi-segment flows, all
    protection scenarios.  Cells are drawn deterministically from
    ``seed`` (an ``RngFactory`` stream), so the same arguments always
    produce the same grid — and per-cell engine seeds derive from the
    grid key exactly as in a seeded sweep.
    """
    rng = RngFactory(seed).stream("fastpath.validate.grid")

    # ~60% fct cells (the richest metric surface), ~25% stress, ~15%
    # goodput.  The stress and goodput axis spaces are small and
    # saturate; drawing continues until ``n_cells`` *unique* cells exist
    # (the overflow lands in the 240-combination fct space), capped by
    # the finite grid — asking for more unique cells than the axes can
    # produce returns the exhausted grid.
    fct_axes = {
        "transport": ["dctcp", "rdma"],
        "scenario": ["noloss", "loss", "lg", "lgnb"],
        "flow_size": [1, 143, 1460, 14600, 24387],
        "loss_rate": [1e-3, 5e-3, 2e-2],
        "rate_gbps": [25.0, 100.0],
    }
    out: Dict[str, ExperimentSpec] = {}

    def add(spec: ExperimentSpec) -> None:
        # derive the per-cell seed from grid coordinates, exactly as a
        # seeded sweep would; identical cells collapse to one entry
        spec = spec.with_(seed=RngFactory(seed).child_seed(spec.grid_key()))
        out.setdefault(spec.cell_id(), spec)

    attempts = 0
    while len(out) < n_cells and attempts < 60 * max(n_cells, 1):
        attempts += 1
        u = float(rng.random())
        if u < 0.60:
            add(ExperimentSpec(
                kind="fct",
                transport=str(rng.choice(fct_axes["transport"])),
                scenario=str(rng.choice(fct_axes["scenario"])),
                flow_size=int(rng.choice(fct_axes["flow_size"])),
                loss_rate=float(rng.choice(fct_axes["loss_rate"])),
                rate_gbps=float(rng.choice(fct_axes["rate_gbps"])),
                n_trials=150,
            ))
        elif u < 0.85:
            # stress: loss >= 1e-3 so event counts converge in 1 ms.
            add(ExperimentSpec(
                kind="stress",
                scenario=str(rng.choice(["lg", "lgnb"])),
                loss_rate=float(rng.choice([1e-3, 5e-3, 2e-2])),
                rate_gbps=float(rng.choice([25.0, 100.0])),
                params={"duration_ms": 1.0},
            ))
        else:
            # goodput cells at Table 3 scale.
            add(ExperimentSpec(
                kind="goodput",
                scenario=str(rng.choice(["none", "lg", "lgnb", "wharf"])),
                loss_rate=float(rng.choice([1e-4, 1e-3, 3e-3, 1e-2])),
                rate_gbps=10.0,
            ))
    return list(out.values())


# -- comparison -------------------------------------------------------------

def _compare_cell(spec: ExperimentSpec, fast: CellResult,
                  packet: CellResult) -> List[Tuple[str, Optional[float]]]:
    """(metric, relative error) pairs for one cell; ``None`` == gated."""
    out: List[Tuple[str, Optional[float]]] = []
    fm, pm = fast.metrics, packet.metrics

    def rel(metric: str, f: float, p: float) -> float:
        floor = _REL_FLOOR.get(metric, 1e-9)
        return abs(f - p) / max(abs(p), floor)

    if spec.kind == "fct":
        out.append(("fct.p50_us", rel("fct.p50_us", fm["p50_us"], pm["p50_us"])))
        for q, name in ((99.0, "fct.p99_us"), (99.9, "fct.p99.9_us")):
            key = name.split(".", 1)[1]
            margin = float(fctmod.quantile_margin(
                spec.flow_size, spec.transport, spec.scenario,
                spec.loss_rate if spec.scenario != "noloss" else 0.0,
                spec.rate_gbps * GBPS, lg_config(spec).recirc_loop_ns, q,
                spec.n_trials))
            expected_tail = spec.n_trials * (1.0 - q / 100.0)
            if margin < 3.0 or expected_tail < 1.0:
                out.append((name, None))
            else:
                out.append((name, rel(name, fm[key], pm[key])))
        expected = fm["affected"]
        count = float(pm.get("affected", 0.0))
        if max(expected, count) >= 8.0:
            denom = max(expected, count, 8.0)
            excess = max(0.0, abs(expected - count) - 3.0 * math.sqrt(denom))
            out.append(("fct.affected", excess / denom))
        else:
            out.append(("fct.affected", None))
        return out

    if spec.kind == "stress":
        out.append(("stress.N", rel("stress.N", fm["N"], pm["N"])))
        out.append(("stress.eff_loss(expect)", rel(
            "stress.eff_loss(expect)",
            fm["eff_loss(expect)"], pm["eff_loss(expect)"])))
        out.append(("stress.eff_speed_%", rel(
            "stress.eff_speed_%", fm["eff_speed_%"], pm["eff_speed_%"])))
        if fm["loss_events"] >= 8.0:
            out.append(("stress.rx_buf_max_KB", rel(
                "stress.rx_buf_max_KB",
                fm["rx_buf_max_KB"], pm["rx_buf_max_KB"])))
        else:
            out.append(("stress.rx_buf_max_KB", None))
        if fm["loss_events"] >= 20.0:
            out.append(("stress.loss_events", rel(
                "stress.loss_events", fm["loss_events"], pm["loss_events"])))
        else:
            out.append(("stress.loss_events", None))
        delays = packet.series.get("retx_delays_us", [])
        if len(delays) >= 8:
            out.append(("stress.retx_p50_us", rel(
                "stress.retx_p50_us", fm["retx_p50_us"],
                _percentile(delays, 50))))
        else:
            out.append(("stress.retx_p50_us", None))
        return out

    if spec.kind == "goodput":
        name = f"goodput.goodput_gbps[{spec.scenario}]"
        out.append((name, rel(name, fm["goodput_gbps"], pm["goodput_gbps"])))
        return out

    raise ValueError(f"no comparison defined for kind {spec.kind!r}")


def fast_backends() -> List[str]:
    """Backends that can be the fast side of a validation: every
    backend of the cell table except the packet reference."""
    return [name for name in backends() if name != "packet"]


def run_validation(
    specs: Optional[Sequence[ExperimentSpec]] = None,
    n_cells: int = 200,
    seed: int = 1,
    workers: int = 1,
    progress=None,
    backend: str = "fastpath",
) -> ValidationReport:
    """Run the matched grid on both backends and compare.

    ``specs`` (each with ``backend`` ignored — both are run) overrides
    the default grid.  ``backend`` picks the fast side — ``"fastpath"``
    (the vectorized analytic models) or ``"hybrid"`` (the splicing
    backend); both are held to the same :data:`TOLERANCES` against the
    same packet cells, since ``grid_key`` gives matched cells matched
    seeds regardless of backend.  Call
    :meth:`ValidationReport.raise_if_failed` or check ``report.ok`` for
    the verdict.
    """
    if backend not in fast_backends():
        raise ValueError(
            f"unknown validation backend {backend!r}; "
            f"known: {', '.join(fast_backends())}")
    if specs is None:
        specs = default_grid(n_cells=n_cells, seed=seed)
    specs = [s.with_(backend="packet") for s in specs]

    fast_results = run_cells(
        [s.with_(backend=backend) for s in specs], workers=workers)
    packet_results = run_cells(specs, workers=workers)
    return compare_validation(specs, fast_results, packet_results, backend,
                              progress)


def compare_validation(
    specs: Sequence[ExperimentSpec],
    fast_results: Sequence[CellResult],
    packet_results: Sequence[CellResult],
    backend: str = "fastpath",
    progress=None,
) -> ValidationReport:
    """The comparing half of :func:`run_validation`: the matched results
    of ``specs`` on the fast ``backend`` and on the packet reference,
    held to :data:`TOLERANCES` metric by metric."""
    summaries: Dict[str, MetricSummary] = {}
    for spec, fast, packet in zip(specs, fast_results, packet_results):
        for metric, error in _compare_cell(spec, fast, packet):
            tol, why = TOLERANCES[metric]
            summary = summaries.setdefault(
                metric, MetricSummary(metric=metric, tolerance=tol,
                                      rationale=why))
            if error is None:
                summary.n_gated += 1
                continue
            summary.n_compared += 1
            summary.errors.append(error)
            if error >= summary.max_err - 1e-15 and not math.isnan(error):
                summary.worst_cell = spec.cell_id()
        if progress is not None:
            progress(spec, fast, packet)

    return ValidationReport(
        n_cells=len(specs),
        summaries=summaries,
        packet_wall_s=sum(r.wall_s for r in packet_results),
        fastpath_wall_s=sum(r.wall_s for r in fast_results),
        backend=backend,
    )


def write_report(report: ValidationReport, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
