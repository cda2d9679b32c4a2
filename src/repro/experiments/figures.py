"""Static-model figure reproductions: Figures 1, 2, 20 and Table 1.

These experiments exercise the PHY and workload models directly (no
event simulation needed) and return the same series the paper plots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..core.rng import RngFactory
from ..phy.attenuation import STANDARD_TRANSCEIVERS, attenuation_sweep
from ..phy.loss import GilbertElliottLoss, burst_length_distribution
from ..runner import CellResult, ExperimentSpec, RunContext
from ..workloads.flowsizes import WORKLOADS
from ..corropt.trace import LOSS_BUCKETS, sample_loss_rates

__all__ = [
    "figure1_attenuation_series",
    "figure2_flow_size_cdfs",
    "table1_loss_buckets",
    "figure20_consecutive_losses",
    "fig01_cell", "fig02_cell", "tab01_cell", "fig20_cell",
]


def figure1_attenuation_series(
    attenuations_db: Sequence[float] = tuple(np.arange(9.0, 18.01, 0.25)),
    frame_bytes: int = 1518,
) -> Dict[str, List[float]]:
    """Loss-rate-vs-attenuation series for the four transceivers."""
    series = {"attenuation_db": list(attenuations_db)}
    for model in STANDARD_TRANSCEIVERS:
        series[model.name] = attenuation_sweep(model, attenuations_db, frame_bytes)
    return series


def figure2_flow_size_cdfs(
    sizes: Sequence[int] = (64, 143, 512, 1024, 1500, 10_000, 100_000,
                            1_000_000, 10_000_000),
) -> Dict[str, List[float]]:
    """CDF values of each workload at canonical sizes."""
    table = {"size_bytes": list(sizes)}
    for name, dist in WORKLOADS.items():
        table[name] = [dist.cdf(s) for s in sizes]
    return table


def table1_loss_buckets(n_samples: int = 100_000, seed: int = 5) -> List[dict]:
    """The Table 1 buckets with the empirical fraction our trace
    generator produces next to the published one."""
    rng = RngFactory(seed).stream("table1")
    rates = sample_loss_rates(rng, n_samples)
    rows = []
    for low, high, published in LOSS_BUCKETS:
        empirical = float(((rates >= low) & (rates < high)).mean())
        rows.append({
            "bucket": f"[{low:.0e}, {high:.0e})",
            "published_%": 100 * published,
            "sampled_%": 100 * empirical,
        })
    return rows


def figure20_consecutive_losses(
    loss_rates: Sequence[float] = (0.01, 0.05),
    mean_burst: float = 1.2,
    n_packets: int = 400_000,
    seed: int = 9,
) -> Dict[float, dict]:
    """Distribution of consecutive packets lost under bursty corruption.

    Returns per loss rate the burst-length histogram, the CDF at 1..7
    consecutive losses, and the coverage of provisioning 5 reTxReqs
    registers (the paper: >=99.9999% of loss events at 5% loss).
    """
    rng_factory = RngFactory(seed)
    results = {}
    for rate in loss_rates:
        process = GilbertElliottLoss(
            rate, mean_burst, rng_factory.stream(f"fig20-{rate}")
        )
        bursts = burst_length_distribution(process, n_packets)
        cdf = {}
        for k in range(1, 8):
            cdf[k] = float((bursts <= k).mean()) if len(bursts) else 1.0
        results[rate] = {
            "bursts": bursts,
            "cdf": cdf,
            "five_register_coverage": cdf.get(5, 1.0),
        }
    return results


# -- rows of repro.runner.cells.CELLS (all on the "packet" backend) ----------

def fig01_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    series = figure1_attenuation_series(**spec.params)
    return CellResult.for_spec(
        spec, {"n_points": len(series["attenuation_db"])},
        {k: list(v) for k, v in series.items()})


def fig02_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    table = figure2_flow_size_cdfs(**spec.params)
    return CellResult.for_spec(
        spec, {"n_sizes": len(table["size_bytes"])},
        {k: list(v) for k, v in table.items()})


def tab01_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    rows = table1_loss_buckets(seed=spec.seed, **spec.params)
    return CellResult.for_spec(spec, {"n_buckets": len(rows)}, {"rows": rows})


def fig20_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    results = figure20_consecutive_losses(seed=spec.seed, **spec.params)
    metrics = {}
    series = {}
    for rate, data in results.items():
        metrics[f"coverage@{rate:g}"] = data["five_register_coverage"]
        series[f"bursts@{rate:g}"] = data["bursts"].tolist()
        series[f"cdf@{rate:g}"] = [data["cdf"][k] for k in sorted(data["cdf"])]
    return CellResult.for_spec(spec, metrics, series)
