"""The paper's figures and tables: the static models, and the table.

Figures 1, 2, 20 and Table 1 exercise the PHY and workload models
directly (no event simulation needed); their ``figure*``/``table*``
functions and cells are the first half of this module.

The second half is :data:`FIGURES`, the one definition of every
evaluation figure and table, and of the §5 studies beyond them: which
cells it runs (one seed for all of them, as the paper's figures run),
how their results become the rows ``repro <id>`` prints (the rows
``benchmarks/results/<id>.json`` keeps), the pinned parameters the claim
gate runs it at, and the paper's claims about it.  Three readers, no
second definition: the CLI verb (``cli._figure``), the claim gate
(``benchmarks/test_paper_claims.py``) and the generated tables of
EXPERIMENTS.md (``benchmarks/_report.py``).
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..core.rng import RngFactory
from ..corropt.trace import LOSS_BUCKETS, sample_loss_rates
from ..linkguardian.config import LinkGuardianConfig
from ..phy.attenuation import STANDARD_TRANSCEIVERS, attenuation_sweep
from ..phy.loss import GilbertElliottLoss, burst_length_distribution
from ..runner import CellResult, ExperimentSpec, RunContext, run_cells
from ..units import KB
from ..workloads.flowsizes import WORKLOADS
from .deployment import capacity_decrease, penalty_gain
from .fct import SCENARIOS
from .goodput import GOODPUT_SCHEMES
from .mechanisms import MECHANISM_VARIANTS, mechanism_spec, mechanism_study
from .rdma_future import RDMA_CASES

__all__ = [
    "figure1_attenuation_series",
    "figure2_flow_size_cdfs",
    "table1_loss_buckets",
    "figure20_consecutive_losses",
    "fig01_cell", "fig02_cell", "tab01_cell", "fig20_cell",
    "Claim", "Figure", "FIGURES", "run_figure",
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


# -- the figure table ---------------------------------------------------------

class Claim(NamedTuple):
    """One thing the paper says about a figure, as a number to measure."""

    #: what must hold, in words (unique within its figure)
    name: str
    #: results of the figure's cells -> the measured number, read from
    #: the printed rows or from the cells' own metrics and series
    measure: Callable[[list], float]
    #: what the paper reports for it
    paper: str
    at_least: Optional[float] = None
    at_most: Optional[float] = None
    equals: Optional[float] = None
    #: EXPERIMENTS.md fidelity note ("F1".."F3") when known to deviate
    fidelity: Optional[str] = None

    def holds(self, measured: float) -> bool:
        return ((self.at_least is None or measured >= self.at_least)
                and (self.at_most is None or measured <= self.at_most)
                and (self.equals is None or measured == self.equals))


class Figure(NamedTuple):
    """One row of :data:`FIGURES`.  ``p`` below is a mapping of the
    verb's flag values (``vars(args)``) or the row's own ``gate``."""

    #: p -> the cells to run, in the order ``shape`` and the claims
    #: receive their results
    cells: Callable[[Mapping[str, Any]], List[ExperimentSpec]]
    #: results -> the dict-rows ``repro <id>`` prints, which the claim
    #: gate keeps in ``benchmarks/results/<id>.json`` beside ``gate``
    shape: Callable[[list], List[dict]]
    #: the parameters the claim gate runs the row at
    gate: Dict[str, Any]
    claims: Tuple[Claim, ...]


def run_figure(row: Figure, p: Mapping[str, Any], obs=None,
               workers: int = 1) -> list:
    """The results of ``row``'s cells at ``p``, in cell order."""
    return run_cells(row.cells(p), workers=workers, obs=obs)


def _ratio(a: float, b: float) -> float:
    return a / b if b else float("inf")


def _metrics(results):
    """The cells' own metrics, one dict per cell."""
    return [r.metrics for r in results]


def _metric(name, cell, results):
    """Metric ``name`` of the ``cell``-th cell."""
    return results[cell].metrics[name]


def _col(rows_of, column, results, pick=max, over=None, **where):
    """``pick`` of a column (or of its ratio to column ``over``) of the
    rows ``rows_of(results)`` (the printed rows, or the cells' metrics),
    among those whose cells equal ``where``."""
    return pick(_ratio(row[column], row[over]) if over else row[column]
                for row in rows_of(results)
                if all(row[k] == v for k, v in where.items()))


# Figures 1, 2, 20 and Table 1: one cell each, the static models above.

def _static_cell(kind: str, seed: int = 1, **defaults: Any):
    """A one-cell builder; ``p`` may override the model's sample size."""
    def cells(p):
        params = {k: p.get(k, v) for k, v in defaults.items()}
        return [ExperimentSpec(kind=kind, seed=seed, params=params)]
    return cells


def _series(results):
    return results[0].series


def _fig01_rows(results):
    series = _series(results)
    names = [k for k in series if k != "attenuation_db"]
    return [{"atten_dB": atten, **{n: series[n][i] for n in names}}
            for i, atten in enumerate(series["attenuation_db"]) if i % 4 == 0]


def _fig01_least_step(results):
    return min(b - a for name, values in _series(results).items()
               if name != "attenuation_db"
               for a, b in zip(values, values[1:]))


def _fig01_plr_ratio(top, bottom, results, atten_db=12.0):
    series = _series(results)
    at = series["attenuation_db"].index(atten_db)
    return _ratio(series[top][at], series[bottom][at])


def _fig02_rows(results):
    cdfs = _series(results)
    return [{"size_B": size, **{n: round(cdfs[n][i], 3) for n in WORKLOADS}}
            for i, size in enumerate(cdfs["size_bytes"])]


def _fig02_single_packet(workload, results):
    # a property of the encoded distribution, whatever sizes were sampled
    return WORKLOADS[workload].single_packet_fraction()


def _tab01_rows(results):
    return _series(results)["rows"]


def _tab01_worst_bucket(results):
    return max(abs(row["sampled_%"] - row["published_%"])
               for row in _tab01_rows(results))


def _fig20_cdfs(results):
    """{loss rate: {k: P(burst <= k)}}, k = 1..7."""
    return {float(key[len("cdf@"):]): dict(enumerate(cdf, start=1))
            for key, cdf in _series(results).items() if key.startswith("cdf@")}


def _fig20_rows(results):
    return [{"loss": rate, **{f"<={k}": round(v, 6) for k, v in cdf.items()}}
            for rate, cdf in _fig20_cdfs(results).items()]


def _fig20_least(results, of):
    return min(of(cdf) for cdf in _fig20_cdfs(results).values())


# Figures 8, 14, 19 and Table 4: the line-rate stress grid.

_STRESS_LOSSES = (1e-5, 1e-4, 1e-3)
_STRESS_ROW = ("link", "loss", "mode", "N", "eff_loss(meas)",
               "eff_loss(expect)", "eff_speed_%", "tx_buf_max_KB",
               "rx_buf_max_KB")


def _stress_cells(p, losses=_STRESS_LOSSES, modes=("lg", "lgnb")):
    """25G/100G x loss x ordering; ``duration_ms`` is one number or, at
    the gate, one per link speed (the slower link needs longer for the
    same number of loss events)."""
    duration = p["duration_ms"]
    if not isinstance(duration, dict):
        duration = {25: duration, 100: duration}
    return [ExperimentSpec(kind="stress", rate_gbps=rate, loss_rate=loss,
                           scenario=mode, seed=p["seed"],
                           params={"duration_ms": duration[rate]})
            for rate in (25, 100) for loss in losses
            for mode in p.get("modes", modes)]


def _fig08_cells(p):
    cells = _stress_cells(p)
    if "validate_loss" in p:
        # [F3]: all-copies-lost events only occur at an inflated rate
        cells.append(ExperimentSpec(
            kind="stress", rate_gbps=100, loss_rate=p["validate_loss"],
            seed=p["validate_seed"],
            params={"duration_ms": 6.0, "n_copies_override": 1}))
    return cells


def _fig08_grid(results):
    return [r for r in results if "n_copies_override" not in r.spec["params"]]


def _fig08_rows(results):
    return [{k: r.metrics[k] for k in _STRESS_ROW}
            for r in _fig08_grid(results)]


def _fig08_wrong_copies(results):
    return sum(row["N"] != {1e-5: 1, 1e-4: 1, 1e-3: 2}[row["loss"]]
               for row in _fig08_rows(results))


def _fig08_least_recovered(results):
    return min(_ratio(r.metrics["recovered"], r.metrics["loss_events"])
               for r in _fig08_grid(results) if r.metrics["loss_events"] >= 5)


def _fig08_nb_speed_lead(results):
    lg, nb = (_col(_fig08_rows, "eff_speed_%", results, link="100G",
                   loss=1e-3, mode=mode) for mode in ("LG", "LG_NB"))
    return nb - lg


def _fig08_validation(results):
    metrics = results[-1].metrics
    return _ratio(metrics["eff_loss(meas)"], metrics["eff_loss(expect)"])


def _tab04_rows(results):
    return [{"link": r.metrics["link"], "loss": r.metrics["loss"],
             "tx_%pipe": round(r.metrics["recirc_tx_pct"], 4),
             "rx_%pipe": round(r.metrics["recirc_rx_pct"], 4)}
            for r in results if r.spec["scenario"] == "lg"]


def _fig14_rows(results):
    return [{"link": m["link"], "loss": m["loss"], "mode": m["mode"],
             "tx_max_KB": round(m["tx_buf_max_KB"], 1),
             "rx_max_KB": round(m["rx_buf_max_KB"], 1)}
            for m in _metrics(results)]


def _fig14_tx_lead_100g(results):
    lg, nb = (_col(_fig14_rows, "tx_max_KB", results, link="100G",
                   mode=mode) for mode in ("LG", "LG_NB"))
    return lg - nb


def _fig19_delays(results):
    """{link speed: every retransmission delay seen on it, in us}."""
    delays: Dict[float, list] = {}
    for r in results:
        delays.setdefault(r.spec["rate_gbps"], []).extend(
            r.series["retx_delays_us"])
    return delays


def _fig19_rows(results):
    rows = []
    for rate_gbps, samples in _fig19_delays(results).items():
        # a link that recorded no retransmission has no statistics
        stats = ([round(float(f(samples)), 2)
                  for f in (np.min, np.median, np.max)]
                 if samples else ["", "", ""])
        rows.append({"link": f"{rate_gbps:g}G", "n": len(samples),
                     **dict(zip(("min_us", "p50_us", "max_us"), stats))})
    return rows


def _fig19_over_links(pick, of, results):
    return pick(of(rate, np.asarray(samples))
                for rate, samples in _fig19_delays(results).items())


def _fig19_timeout_use(rate_gbps, samples):
    config = LinkGuardianConfig.for_link_speed(rate_gbps)
    return samples.max() * 1e3 / config.ack_no_timeout_ns


# Figures 9 and 21: throughput timelines.

def _timeline_cells(flows, p, overrides=({},)):
    """One timeline cell per (transport, link speed) x LinkGuardian
    override.  The verb's ``duration_ms`` d runs the phases d / 2d / 2d;
    the gate names each phase and the sampling interval."""
    if "duration_ms" in p:
        d = p["duration_ms"]
        params = {"clean_ms": d, "loss_ms": 2 * d, "lg_ms": 2 * d}
    else:
        params = {k: p[k] for k in ("clean_ms", "loss_ms", "lg_ms",
                                    "sample_interval_ns")}
    return [ExperimentSpec(kind="timeline", transport=transport,
                           rate_gbps=rate, loss_rate=1e-3, seed=2,
                           params=params, lg=lg)
            for transport, rate in flows for lg in overrides]


def _fig09_cells(p):
    overrides = [{}]
    if p["resume_kb"] > 0:
        # The phases run ~1000x shorter than the paper's 14 s; scaling
        # the resume threshold down likewise keeps the pause/resume
        # dynamics of Figure 9a visible (--resume-kb 0 for paper scale).
        overrides = [{"backpressure": True, "resume_threshold_bytes":
                      int(p["resume_kb"] * KB)}]
    if "rx_buffer_without_bp" in p:
        # Figure 9b.  The simulator recovers faster than Tofino
        # recirculation, so the gate tightens the buffer restriction
        # (12 KB, ~4 us of 25G arrivals) to reach the overflow regime.
        overrides.append({"backpressure": False, "rx_buffer_capacity_bytes":
                          p["rx_buffer_without_bp"]})
    return _timeline_cells((("dctcp", 25),), p, overrides)


_TIMELINE_SERIES = ("times_ms", "send_rate_gbps", "qdepth_kb", "rx_buffer_kb",
                    "e2e_retx")


def _fig09_rows(results):
    series = results[0].series
    return [{"t_ms": round(t, 2), "send_Gbps": round(r, 2),
             "qdepth_KB": round(q, 1), "rxbuf_KB": round(b, 2),
             "e2e_retx": int(x)}
            for t, r, q, b, x in zip(*(series[k][::4]
                                       for k in _TIMELINE_SERIES))]


def _phase_ratio(top, bottom, results, cell=0):
    metrics = results[cell].metrics
    return _ratio(metrics[f"{top}_gbps"], metrics[f"{bottom}_gbps"])


def _fig09_extra_e2e_retx(results):
    with_bp, without_bp = (r.series["e2e_retx"][-1] for r in results)
    return without_bp - with_bp


def _fig21_rows(results):
    return [{"transport": r.spec["transport"],
             "link": f"{r.spec['rate_gbps']:g}G",
             **{f"{phase}_Gbps": round(r.metrics[f"{phase}_gbps"], 2)
                for phase in ("clean", "loss", "lg")}}
            for r in results]


def _fig21_cubic_dent(results):
    row = _fig21_rows(results)[0]
    return row["clean_Gbps"] - row["loss_Gbps"]


def _fig21_cubic_e2e_retx(results):
    return int(results[0].series["e2e_retx"][-1])


# Figures 10-13 and Table 2: flow completion times.

def _fct_cells(transports, flow_size, p, loss_rate=None):
    return [ExperimentSpec(kind="fct", transport=transport, scenario=scenario,
                           flow_size=flow_size, n_trials=p["trials"],
                           loss_rate=loss_rate or p["loss_rate"],
                           seed=p["seed"])
            for transport in transports for scenario in SCENARIOS]


#: FctResult.summary(), the printed columns of Figures 10-12
_FCT_ROW = ("transport", "scenario", "size", "trials", "p50_us", "p99_us",
            "p99.9_us", "p99.99_us", "incomplete")


def _fct_rows(results):
    return [{k: r.metrics[k] for k in _FCT_ROW} for r in results]


def _fct_ratio(metric, top, bottom, transport, results):
    """A percentile under scenario ``top`` over the same under ``bottom``."""
    top, bottom = (_col(_fct_rows, metric, results, transport=transport,
                        scenario=scenario) for scenario in (top, bottom))
    return _ratio(top, bottom)


def _fct_nb_gap(transport, results):
    return abs(_fct_ratio("p99.9_us", "lgnb", "lg", transport, results) - 1)


def _fig11_rdma_extra_nb_penalty(results):
    return (_fct_ratio("p99_us", "lgnb", "lg", "rdma", results)
            - _fct_ratio("p99_us", "lgnb", "lg", "dctcp", results))


def _fig13_cells(p):
    return [ExperimentSpec(kind="fct", transport="dctcp", scenario="lgnb",
                           flow_size=24_387, n_trials=p["trials"],
                           loss_rate=p["loss_rate"], seed=p["seed"])]


def _fig13_rows(results):
    """The decision tree, from the fct cell's classification counts."""
    m = results[0].metrics
    return [{"total": m["trials"], "affected": m["sack_flows"],
             "le_2mss": m["sack_le_2mss"],
             "gt_2mss": m["sack_flows"] - m["sack_le_2mss"],
             **{group.upper(): m[f"group_{group}"] for group in "abcd"}}]


def _fig13(results, of):
    return of(_fig13_rows(results)[0])


def _tab02_cells(p):
    return [mechanism_spec(variant, n_trials=p["trials"],
                           loss_rate=p["loss_rate"], seed=p["seed"])
            for variant in MECHANISM_VARIANTS]


def _tab02_rows(results):
    columns = ("p50", "p99", "p99.9", "p99.99", "trials")
    return [{"variant": variant, **{c: row[c] for c in columns}}
            for variant, row in mechanism_study(results).items()]


def _tab02(metric, variant, results, over=None):
    study = {row["variant"]: row for row in _tab02_rows(results)}
    if over is None:
        return study[variant][metric]
    return _ratio(study[variant][metric], study[over][metric])


# Table 3: goodput against Wharf.

_TAB03_LOSSES = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)


def _tab03_cells(p):
    """Loss x scheme (Wharf is n/a on a lossless link).  The gate's
    ``transfer_bytes`` is (light, heavy): longer transfers at heavy loss,
    so the goodput is the steady AIMD sawtooth, not a couple of loss
    events."""
    def params(loss):
        if "transfer_bytes" not in p:
            return {}
        light, heavy = p["transfer_bytes"]
        return {"transfer_bytes": heavy if loss >= 1e-2 else light,
                "deadline_ms": p["deadline_ms"]}
    return [ExperimentSpec(kind="goodput", scenario=scheme, loss_rate=loss,
                           rate_gbps=10, seed=p["seed"], params=params(loss))
            for loss in _TAB03_LOSSES for scheme in GOODPUT_SCHEMES
            if (scheme, loss) != ("wharf", 0.0)]


def _tab03_rows(results):
    rows = {loss: {"loss": loss, **dict.fromkeys(GOODPUT_SCHEMES, "n/a")}
            for loss in _TAB03_LOSSES}
    for r in results:
        rows[r.spec["loss_rate"]][r.spec["scenario"]] = round(
            r.metrics["goodput_gbps"], 2)
    return list(rows.values())


def _tab03(pick, of, results, losses=_TAB03_LOSSES):
    """``pick`` (min/max) of ``of(row)`` over the printed rows at
    ``losses``."""
    return pick(of(row) for row in _tab03_rows(results)
                if row["loss"] in losses)


def _tab03_ratio(top, bottom, results):
    """goodput[scheme @ loss] / goodput[scheme @ loss], as printed."""
    rows = {row["loss"]: row for row in _tab03_rows(results)}
    (scheme_a, loss_a), (scheme_b, loss_b) = top, bottom
    return _ratio(rows[loss_a][scheme_a], rows[loss_b][scheme_b])


def _tab03_least_lg_share(results):
    clean = _tab03_rows(results)[0]["lg"]
    return _tab03(min, lambda row: row["lg"] / clean, results)


# Figures 15 and 16: the deployment study.

def _deployment_cells(p):
    """Both capacity constraints on one failure trace; the fabric is
    ``run_deployment_comparison``'s default 8 x 16/4/16."""
    return [ExperimentSpec(kind="deployment", seed=p["seed"], params={
                "capacity_constraint": constraint,
                "duration_days": p["days"], "mttf_hours": p["mttf_hours"]})
            for constraint in (0.50, 0.75)]


#: DeploymentComparison.summary(), what ``repro fig15`` prints (named,
#: not read off the metrics: a worker pool hands them back key-sorted)
_FIG15_ROW = ("constraint", "median_gain", "p90_gain", "fraction_no_gain",
              "max_capacity_decrease_%", "vanilla_blocked",
              "combined_blocked", "max_lg_links", "max_lg_links_per_pod")


def _fig15_rows(results):
    return [{k: r.metrics[k] for k in _FIG15_ROW} for r in results]


def _fig15_paths_margin(policy, results):
    return min(min(r.series[f"{policy}_least_paths"]) - r.metrics["constraint"]
               for r in results)


def _fig15_penalty_left(results):
    means = [[np.mean(r.series[f"{policy}_penalty"])
              for policy in ("combined", "vanilla")] for r in results]
    return max(_ratio(combined, vanilla)
               for combined, vanilla in means if vanilla > 0)


def _fig15_capacity_cost(results):
    return max(abs(np.mean(r.series["vanilla_least_capacity"])
                   - np.mean(r.series["combined_least_capacity"]))
               for r in results)


def _fig16_rows(results):
    rows = []
    for r in results:
        gain = penalty_gain(r.series)
        rows.append({
            "constraint": f"{r.metrics['constraint']:.0%}",
            "gain=1(%)": round(100 * float((gain <= 1 + 1e-9).mean()), 1),
            "gain_p50": float(np.median(gain)),
            "gain_p90": float(np.percentile(gain, 90)),
            "cap_dec_p99_%": round(float(np.percentile(
                capacity_decrease(r.series), 99)), 3)})
    return rows


def _fig16_gaining(results, cell, above):
    return float((penalty_gain(results[cell].series) > above).mean())


def _fig16_more_often_at_75(results):
    return (_fig16_gaining(results, 1, 1 + 1e-9)
            - _fig16_gaining(results, 0, 1 + 1e-9))


def _fig16_capacity_p90(results):
    return max(float(np.percentile(np.abs(capacity_decrease(r.series)), 90))
               for r in results)


# §5 and the design ablations: studies beyond the evaluation section.  All
# but the incremental sweep are flag-less verbs: one scale, the gate's.

def _pinned(build, gate):
    """Cells that are always ``build(gate)``, whatever ``p`` holds."""
    return lambda p: build(gate)


_SR_GATE = {"trials": 350, "loss_rate": 1e-2, "seed": 26}
_SR_ROW = ("case", "trials", "p50_us", "p99_us", "p99.9_us", "naks",
           "timeouts", "e2e_retx")


def _sr_cells(p):
    return [ExperimentSpec(kind="rdma_reorder", flow_size=24_387,
                           n_trials=p["trials"], loss_rate=p["loss_rate"],
                           seed=p["seed"], params={"case": case})
            for case in RDMA_CASES]


def _sr_rows(results):
    return [{k: r.metrics[k] for k in _SR_ROW} for r in results]


def _sr_ratio(metric, top, bottom, results, floor=0):
    """``metric`` of case ``top`` over that of ``bottom`` (at least
    ``floor``)."""
    cases = {row["case"]: row for row in _sr_rows(results)}
    return _ratio(cases[top][metric], max(cases[bottom][metric], floor))


_TOFINO2_GATE = {"duration_ms": 4.0, "seed": 27}


def _tofino2_cells(p):
    """Ordered LG at 100G with Tofino1's recirculation loop, then with the
    Tofino2 profile bound through ``spec.lg`` field for field."""
    return [ExperimentSpec(kind="stress", rate_gbps=100, loss_rate=1e-3,
                           seed=p["seed"], lg=lg,
                           params={"duration_ms": p["duration_ms"]})
            for lg in ({}, asdict(LinkGuardianConfig.tofino2(100)))]


def _tofino2_rows(results):
    rows = []
    for impl, r in zip(("tofino1", "tofino2"), results):
        delays = r.series["retx_delays_us"]
        rows.append({"impl": impl,
                     "retx_p50_us": round(float(np.median(delays)), 2),
                     "retx_max_us": round(float(np.max(delays)), 2),
                     "eff_speed_%": round(r.metrics["eff_speed_%"], 2),
                     "rx_buf_max_KB": round(r.metrics["rx_buf_max_KB"], 1),
                     "pauses": r.metrics["pauses"]})
    return rows


def _tofino2(of, column, results):
    """``of(Tofino1's, Tofino2's)`` printed ``column``."""
    return of(*(row[column] for row in _tofino2_rows(results)))


_400G_GATE = {"duration_ms": 1.5, "seed": 28}
_400G_MODES = ("LG/100G-recirc", "LG/400G-recirc", "LG_NB")


def _400g_cells(p):
    """Ordered LG with a 100G and a 400G reordering-buffer drain, then
    LG_NB (400G drain)."""
    return [ExperimentSpec(kind="stress", rate_gbps=400, loss_rate=1e-3,
                           scenario=mode, seed=p["seed"],
                           params={"duration_ms": p["duration_ms"],
                                   "recirc_drain_gbps": drain})
            for mode, drain in (("lg", 100), ("lg", 400), ("lgnb", 400))]


def _400g_rows(results):
    """``mode`` names the drain as well."""
    return [{"mode": mode, "eff_speed_%": round(m["eff_speed_%"], 2),
             "recovered": m["recovered"], "loss_events": m["loss_events"],
             "timeouts": m["timeouts"],
             "rx_buf_max_KB": round(m["rx_buf_max_KB"], 1)}
            for mode, m in zip(_400G_MODES, _metrics(results))]


def _400g_unrecovered(mode, results):
    return (_col(_400g_rows, "loss_events", results, mode=mode)
            - _col(_400g_rows, "recovered", results, mode=mode))


def _400g_nb_speed_lead(results):
    lg, nb = (_col(_400g_rows, "eff_speed_%", results, mode=mode)
              for mode in _400G_MODES[1:])
    return nb - lg


_COPIES_GATE = {"loss_rate": 0.05, "duration_ms": 6.0, "seed": 33}


def _copies_cells(p):
    return [ExperimentSpec(kind="stress", rate_gbps=100,
                           loss_rate=p["loss_rate"], seed=p["seed"],
                           params={"duration_ms": p["duration_ms"],
                                   "n_copies_override": n})
            for n in (1, 2, 3)]


def _copies_rows(results):
    return [{"N": m["N"], "eff_loss_measured": m["eff_loss(meas)"],
             "eff_loss_expected": m["eff_loss(expect)"],
             "recovered_frac": m["loss_events"]
             and round(m["recovered"] / m["loss_events"], 3)}
            for m in (r.metrics for r in results)]


def _copies_measured(of, results):
    """``of(measured effective loss at N = 1, 2, 3)``."""
    return of(*(row["eff_loss_measured"] for row in _copies_rows(results)))


_INCREMENTAL_ROW = ("fraction", "mean_penalty", "p99_penalty", "blocked")


def _incremental_cells(p):
    """One cell per deployed fraction, all on one failure trace."""
    return [ExperimentSpec(kind="incremental", seed=p["seed"],
                           params={"fraction": fraction,
                                   "duration_days": p["days"]})
            for fraction in (0.0, 0.25, 0.5, 0.75, 1.0)]


def _incremental_rows(results):
    return [{k: r.metrics[k] for k in _INCREMENTAL_ROW} for r in results]


def _incremental_penalties(of, results):
    """``of(mean penalty per fraction, narrowest deployment first)``."""
    return of([row["mean_penalty"] for row in _incremental_rows(results)])


_STRESS_GATE = {"duration_ms": {25: 6.0, 100: 3.0}}
_TIMELINE_GATE = {"clean_ms": 6.0, "loss_ms": 14.0, "lg_ms": 14.0,
                  "sample_interval_ns": 500_000}

#: id (= the CLI verb) -> the figure.  Bounds are inclusive.
FIGURES: Dict[str, Figure] = {
    "fig01": Figure(
        cells=_static_cell("fig01"), shape=_fig01_rows, gate={},
        claims=(
            Claim("loss rate never falls as attenuation grows (least step)",
                  _fig01_least_step, "all four curves monotone",
                  at_least=0.0),
            Claim("50G (FEC) / 25G loss rate at 12 dB",
                  partial(_fig01_plr_ratio, "50GBASE-SR (FEC)", "25GBASE-SR"),
                  "50G fails first despite mandatory FEC", at_least=1.0),
            Claim("25G / 10G loss rate at 12 dB",
                  partial(_fig01_plr_ratio, "25GBASE-SR", "10GBASE-SR"),
                  "25G loses from ~11 dB, 10G healthy to ~15 dB",
                  at_least=1.0),
            Claim("25G (FEC) / 25G loss rate at 12 dB",
                  partial(_fig01_plr_ratio, "25GBASE-SR (FEC)", "25GBASE-SR"),
                  "FEC buys 25G ~1.5-2 dB", at_most=1.0),
        )),
    "fig02": Figure(
        cells=_static_cell("fig02"), shape=_fig02_rows, gate={},
        claims=(
            Claim("Google all-RPC flows that fit one packet",
                  partial(_fig02_single_packet, "Google all RPC"),
                  ">80%, 143 B most frequent", at_least=0.8),
            Claim("Meta key-value flows that fit one packet",
                  partial(_fig02_single_packet, "Meta key-value"),
                  ">90%", at_least=0.9),
            Claim("DCTCP web-search flows that fit one packet",
                  partial(_fig02_single_packet, "DCTCP web search"),
                  "the multi-packet end (median 24,387 B)", at_most=0.1),
        )),
    "tab01": Figure(
        cells=_static_cell("tab01", seed=5, n_samples=100_000),
        shape=_tab01_rows, gate={"n_samples": 200_000},
        claims=(
            Claim("worst bucket, sampled vs published share (points)",
                  _tab01_worst_bucket, "47.23 / 18.43 / 21.66 / 12.67 %",
                  at_most=0.5),
        )),
    "fig08": Figure(
        cells=_fig08_cells, shape=_fig08_rows,
        gate={**_STRESS_GATE, "seed": 8,
              "validate_loss": 0.05, "validate_seed": 9},
        claims=(
            Claim("cells whose N differs from Equation 2's 1, 1, 2",
                  _fig08_wrong_copies, "N = 1, 1, 2 at 1e-5, 1e-4, 1e-3",
                  equals=0),
            Claim("largest expected effective loss p^(N+1)",
                  partial(_col, _fig08_rows, "eff_loss(expect)"),
                  "every cell at or below the 1e-8 target",
                  at_most=1.01e-8, fidelity="F3"),
            Claim("least recovered / loss events (cells with >= 5 events)",
                  _fig08_least_recovered,
                  "ackNoTimeout fires for 0.0016% of loss events",
                  at_least=0.99),
            Claim("least effective link speed (%)",
                  partial(_col, _fig08_rows, "eff_speed_%", pick=min),
                  "92-99.9%, worst at 100G / 1e-3", at_least=90.0,
                  fidelity="F2"),
            Claim("LG_NB - LG effective speed at 100G / 1e-3 (points)",
                  _fig08_nb_speed_lead,
                  "LG_NB faster; gap grows with loss and speed",
                  at_least=0.0, fidelity="F2"),
            Claim("LG_NB receive buffer at 100G / 1e-3 (KB)",
                  partial(_col, _fig08_rows, "rx_buf_max_KB", link="100G",
                          loss=1e-3, mode="LG_NB"),
                  "LG_NB needs no reordering buffer", equals=0),
            Claim("measured / expected effective loss at 5% loss, N = 1",
                  _fig08_validation, "measured tracks p^(N+1)",
                  at_least=0.5, at_most=1.5, fidelity="F3"),
        )),
    "fig09": Figure(
        cells=_fig09_cells, shape=_fig09_rows,
        gate={**_TIMELINE_GATE, "resume_kb": 0.0,
              "rx_buffer_without_bp": 12_000},
        claims=(
            Claim("throughput under loss / clean",
                  partial(_phase_ratio, "loss", "clean"),
                  "corruption collapses DCTCP throughput", at_most=0.95,
                  fidelity="F1"),
            Claim("throughput with LG / under loss",
                  partial(_phase_ratio, "lg", "loss"),
                  "LinkGuardian restores it", at_least=1.0),
            Claim("throughput with LG / clean",
                  partial(_phase_ratio, "lg", "clean"),
                  "back to the effective link speed", at_least=0.9),
            Claim("Rx-buffer overflows with backpressure",
                  partial(_metric, "overflow_drops", 0),
                  "Rx buffer stays small", equals=0),
            Claim("Rx-buffer overflows without backpressure",
                  partial(_metric, "overflow_drops", 1),
                  "the reordering buffer overflows", at_least=1),
            Claim("extra end-to-end retransmissions without backpressure",
                  _fig09_extra_e2e_retx,
                  "overflow costs e2e retransmissions", at_least=1),
        )),
    "fig10": Figure(
        cells=partial(_fct_cells, ("dctcp", "rdma"), 143), shape=_fct_rows,
        gate={"trials": 3_000, "loss_rate": 5e-3, "seed": 10},
        claims=tuple(claim for transport, gain in (("dctcp", "51x"),
                                                   ("rdma", "66x"))
                     for claim in (
            Claim(f"{transport}: unprotected p99.9 (us)",
                  partial(_col, _fct_rows, "p99.9_us", transport=transport,
                          scenario="loss"),
                  "the lost packet is a tail packet: an RTO",
                  at_least=1_000),
            Claim(f"{transport}: p99.9 LG / no loss",
                  partial(_fct_ratio, "p99.9_us", "lg", "noloss", transport),
                  "LG = no loss", at_most=2.0),
            Claim(f"{transport}: p99.9 unprotected / LG",
                  partial(_fct_ratio, "p99.9_us", "loss", "lg", transport),
                  gain, at_least=10.0),
            Claim(f"{transport}: p99.9 LG_NB vs LG, relative gap",
                  partial(_fct_nb_gap, transport),
                  "LG_NB = LG for single-packet flows", at_most=0.2),
        ))),
    "fig11": Figure(
        cells=partial(_fct_cells, ("dctcp", "bbr", "rdma"), 24_387),
        shape=_fct_rows,
        gate={"trials": 900, "loss_rate": 5e-3, "seed": 12},
        claims=(*(claim for transport in ("dctcp", "bbr", "rdma")
                  for claim in (
            Claim(f"{transport}: p99 LG / no loss",
                  partial(_fct_ratio, "p99_us", "lg", "noloss", transport),
                  "LG tracks the no-loss curve", at_most=1.5),
            Claim(f"{transport}: p99.9 unprotected / LG",
                  partial(_fct_ratio, "p99.9_us", "loss", "lg", transport),
                  "the unprotected tail is far worse", at_least=3.0),
            Claim(f"{transport}: p99.9 LG_NB / unprotected",
                  partial(_fct_ratio, "p99.9_us", "lgnb", "loss", transport),
                  "LG_NB also removes the RTO tail", at_most=1.0),
        )), Claim("p99 LG_NB / LG penalty, RDMA minus DCTCP",
                  _fig11_rdma_extra_nb_penalty,
                  "go-back-N pays for reordering (Fig. 11c)",
                  at_least=-0.05))),
    "fig12": Figure(
        cells=partial(_fct_cells, ("dctcp",), 2_000_000, loss_rate=1e-3),
        shape=_fct_rows, gate={"trials": 120, "seed": 13},
        claims=(
            Claim("unprotected flows hit by at least one loss",
                  partial(_col, _metrics, "affected", over="trials",
                          scenario="loss"),
                  "~80%", at_least=0.5),
            Claim("p99 LG / no loss",
                  partial(_fct_ratio, "p99_us", "lg", "noloss", "dctcp"),
                  "LG tracks no loss (4x better p99.9 than unprotected)",
                  at_most=1.3),
            Claim("p99 unprotected / LG",
                  partial(_fct_ratio, "p99_us", "loss", "lg", "dctcp"),
                  "4x at p99.9", at_least=1.0),
            Claim("p99 unprotected / LG_NB",
                  partial(_fct_ratio, "p99_us", "loss", "lgnb", "dctcp"),
                  "2x at p99.9: cwnd cuts with bytes pending",
                  at_least=0.95),
        )),
    "fig13": Figure(
        cells=_fig13_cells, shape=_fig13_rows,
        gate={"trials": 1_500, "loss_rate": 1e-2, "seed": 14},
        claims=(
            Claim("affected flows (enough to classify)",
                  partial(_fig13, of=lambda tree: tree["affected"]),
                  "2,950 of 300K at 1e-3", at_least=51),
            Claim("affected flows outside groups A-D",
                  partial(_fig13, of=lambda tree: tree["affected"] - (
                      tree["A"] + tree["B"] + tree["C"] + tree["D"])),
                  "the tree partitions the affected flows", equals=0),
            Claim("group D / affected",
                  partial(_fig13, of=lambda tree: _ratio(tree["D"],
                                                         tree["affected"])),
                  "only the small group D pays", at_most=0.5),
            Claim("flows that hit an RTO",
                  partial(_col, _metrics, "rto_flows", over="trials"),
                  "out-of-order recovery leaves no RTO tail", at_most=0.01),
        )),
    "tab02": Figure(
        cells=_tab02_cells, shape=_tab02_rows,
        gate={"trials": 700, "loss_rate": 5e-3, "seed": 15},
        claims=(
            Claim("Loss p99.99 (us)", partial(_tab02, "p99.99", "Loss"),
                  "RTO-scale (p99.9 = 3399 us)", at_least=900),
            Claim("ReTx / Loss p99",
                  partial(_tab02, "p99", "ReTx", over="Loss"),
                  "plain ReTx fixes the body", at_most=1.05),
            Claim("ReTx p99.99 (us)", partial(_tab02, "p99.99", "ReTx"),
                  "a tail loss still costs an RTO", at_least=900),
            Claim("ReTx+Tail / ReTx p99.99",
                  partial(_tab02, "p99.99", "ReTx+Tail", over="ReTx"),
                  "tail-loss handling fixes p99.99", at_most=0.5),
            Claim("ReTx+Tail+Order / No Loss p99.99",
                  partial(_tab02, "p99.99", "ReTx+Tail+Order",
                          over="No Loss"),
                  "full LinkGuardian ~ no loss", at_most=3.0),
            Claim("ReTx+Tail+Order / ReTx+Tail p99.99",
                  partial(_tab02, "p99.99", "ReTx+Tail+Order",
                          over="ReTx+Tail"),
                  "ordering adds the last ~33%", at_most=1.0),
        )),
    "tab03": Figure(
        cells=_tab03_cells, shape=_tab03_rows,
        gate={"seed": 17, "transfer_bytes": (1_500_000, 4_000_000),
              "deadline_ms": 2_000},
        claims=(
            Claim("largest Wharf / LG goodput, 1e-5..1e-3",
                  partial(_tab03, max, lambda row: row["wharf"] / row["lg"],
                          losses=(1e-5, 1e-4, 1e-3)),
                  "Wharf 9.13 vs LG ~9.47: a constant FEC tax",
                  at_most=1.0),
            Claim("least Wharf goodput, 1e-5..1e-3 (Gb/s)",
                  partial(_tab03, min, lambda row: row["wharf"],
                          losses=(1e-5, 1e-4, 1e-3)),
                  "9.13, still functional", at_least=8.0),
            Claim("Wharf at 1e-2 / at 1e-3",
                  partial(_tab03_ratio, ("wharf", 1e-2), ("wharf", 1e-3)),
                  "7.91 / 9.13: a heavier code", at_most=1.0),
            Claim("least LG goodput / LG on a clean link",
                  _tab03_least_lg_share, "~9.47 everywhere, 9.2 at 1e-2",
                  at_least=0.9),
            Claim("unprotected / LG at 1e-2",
                  partial(_tab03_ratio, ("none", 1e-2), ("lg", 1e-2)),
                  "1.46 / 9.2: the unprotected link collapses",
                  at_most=0.95, fidelity="F1"),
            Claim("unprotected at 1e-2 / at 1e-3",
                  partial(_tab03_ratio, ("none", 1e-2), ("none", 1e-3)),
                  "1.46 / 3.48", at_most=1.02, fidelity="F1"),
        )),
    "tab04": Figure(
        cells=partial(_stress_cells, modes=("lg",)), shape=_tab04_rows,
        gate={"duration_ms": 3.0, "seed": 18, "modes": ("lg", "lgnb")},
        claims=(
            Claim("largest TX recirculation overhead (% of pipe)",
                  partial(_col, _tab04_rows, "tx_%pipe"),
                  "0.45% (25G) / 0.66% (100G): always < 1%", at_most=1.0),
            Claim("largest RX recirculation overhead (% of pipe)",
                  partial(_col, _tab04_rows, "rx_%pipe"),
                  "~0.66%: always < 1%", at_most=1.0),
            Claim("largest LG_NB RX recirculation overhead (% of pipe)",
                  partial(_col, _metrics, "recirc_rx_pct", mode="LG_NB"),
                  "LG_NB does no receiver recirculation", equals=0),
        )),
    "fig14": Figure(
        cells=_stress_cells, shape=_fig14_rows,
        gate={**_STRESS_GATE, "seed": 16},
        claims=(
            Claim("largest TX buffer (KB)",
                  partial(_col, _fig14_rows, "tx_max_KB"),
                  "<= 3.6 KB at 25G, <= 90 KB at 100G (switches: 16-42 MB)",
                  at_most=200.0),
            Claim("largest RX buffer (KB)",
                  partial(_col, _fig14_rows, "rx_max_KB"),
                  "<= 60 KB at 25G, <= 90 KB at 100G", at_most=200.0),
            Claim("largest LG_NB RX buffer (KB)",
                  partial(_col, _fig14_rows, "rx_max_KB", mode="LG_NB"),
                  "LG_NB never buffers", equals=0),
            Claim("100G largest TX buffer, LG minus LG_NB (KB)",
                  _fig14_tx_lead_100g, "90 KB vs 24.4 KB", at_least=0),
        )),
    "fig15": Figure(
        cells=_deployment_cells, shape=_fig15_rows,
        gate={"days": 120.0, "mttf_hours": 1_500.0, "seed": 23},
        claims=(
            Claim("CorrOpt: least paths per ToR minus the constraint",
                  partial(_fig15_paths_margin, "vanilla"),
                  "never violates the constraint", at_least=-1e-9),
            Claim("LG+CorrOpt: least paths per ToR minus the constraint",
                  partial(_fig15_paths_margin, "combined"),
                  "never violates the constraint", at_least=-1e-9),
            Claim("mean penalty, LG+CorrOpt / CorrOpt (worse constraint)",
                  _fig15_penalty_left,
                  "~6 / ~4 orders of magnitude lower at 50% / 75%",
                  at_most=0.01),
            Claim("mean least-capacity cost of LG (fraction of a pod)",
                  _fig15_capacity_cost, "~0.22% worst case", at_most=0.03),
        )),
    "fig16": Figure(
        cells=_deployment_cells, shape=_fig16_rows,
        gate={"days": 365.0, "mttf_hours": 2_000.0, "seed": 24},
        claims=(
            Claim("50%: share of time the gain exceeds 10x",
                  partial(_fig16_gaining, cell=0, above=10),
                  "no gain 35% of the time, orders of magnitude otherwise",
                  at_least=0.2),
            Claim("share of time with any gain, 75% minus 50%",
                  _fig16_more_often_at_75, "nearly always gains at 75%",
                  at_least=-0.05),
            Claim("p90 absolute change in least capacity (%, worse constraint)",
                  _fig16_capacity_p90, "within a fraction of a percent",
                  at_most=5.0),
        )),
    "fig19": Figure(
        cells=partial(_stress_cells, losses=(1e-3, 5e-3), modes=("lg",)),
        shape=_fig19_rows, gate={"duration_ms": 8.0, "seed": 19},
        claims=(
            Claim("fewest delay samples on a link",
                  partial(_fig19_over_links, min, lambda rate, d: len(d)),
                  "31M loss events", at_least=21),
            Claim("largest retransmission delay (us)",
                  partial(_fig19_over_links, max, lambda rate, d: d.max()),
                  "2-6 us at 25G, 2-5.5 us at 100G: sub-RTT", at_most=8.0),
            Claim("largest delay / provisioned ackNoTimeout",
                  partial(_fig19_over_links, max, _fig19_timeout_use),
                  "7.5 / 7 us sit above the maximum", at_most=1.0),
            Claim("smallest median delay (us)",
                  partial(_fig19_over_links, min,
                          lambda rate, d: float(np.median(d))),
                  "microseconds: the recirculation loop", at_least=1.0),
        )),
    "fig20": Figure(
        cells=_static_cell("fig20", seed=9, n_packets=400_000),
        shape=_fig20_rows, gate={"n_packets": 2_000_000},
        claims=(
            Claim("least share of loss events that are single packets",
                  partial(_fig20_least, of=lambda cdf: cdf[1]),
                  "single losses dominate", at_least=0.70),
            Claim("least P(burst <= 3) - P(burst <= 1)",
                  partial(_fig20_least, of=lambda cdf: cdf[3] - cdf[1]),
                  "bursts fall off geometrically", at_least=0.0),
            Claim("least coverage of 5 reTxReqs registers",
                  partial(_fig20_least, of=lambda cdf: cdf[5]),
                  ">= 99.9999% of loss events at 5% loss", at_least=0.999),
        )),
    "fig21": Figure(
        cells=partial(_timeline_cells, (("cubic", 25), ("bbr", 10))),
        shape=_fig21_rows, gate=_TIMELINE_GATE,
        claims=(
            Claim("CUBIC: clean minus loss throughput (Gb/s)",
                  _fig21_cubic_dent,
                  "loss-based CUBIC collapses under corruption",
                  at_least=0.5, fidelity="F1"),
            Claim("CUBIC: with LG / under loss",
                  partial(_col, _fig21_rows, "lg_Gbps", over="loss_Gbps",
                          transport="cubic"),
                  "recovers once LinkGuardian is enabled", at_least=1.0),
            Claim("CUBIC: with LG / clean",
                  partial(_col, _fig21_rows, "lg_Gbps", over="clean_Gbps",
                          transport="cubic"),
                  "back to the effective link speed", at_least=0.9),
            Claim("CUBIC: end-to-end retransmissions",
                  _fig21_cubic_e2e_retx,
                  "corruption reaches the transport", at_least=1),
            Claim("BBR: under loss / clean",
                  partial(_col, _fig21_rows, "loss_Gbps", over="clean_Gbps",
                          transport="bbr"),
                  "loss-agnostic: minimal degradation", at_least=0.7),
            Claim("BBR: with LG / under loss",
                  partial(_col, _fig21_rows, "lg_Gbps", over="loss_Gbps",
                          transport="bbr"),
                  "still improves slightly", at_least=0.95),
        )),
    "sec5-sr": Figure(
        cells=_pinned(_sr_cells, _SR_GATE), shape=_sr_rows, gate=_SR_GATE,
        claims=(
            Claim("LG_NB end-to-end retransmissions, go-back-N / "
                  "selective repeat",
                  partial(_sr_ratio, "e2e_retx", "lgnb+gbn", "lgnb+sr",
                          floor=1),
                  "go-back-N pays for every reordered recovery (Fig. 11c)",
                  at_least=5.0),
            Claim("LG_NB p99, go-back-N / selective repeat",
                  partial(_sr_ratio, "p99_us", "lgnb+gbn", "lgnb+sr"),
                  "selective repeat is the fix §5 points to", at_least=1.3),
            Claim("p99, LG_NB + selective repeat / LG + go-back-N",
                  partial(_sr_ratio, "p99_us", "lgnb+sr", "lg+gbn"),
                  "LG_NB then matches ordered LG, with no reordering buffer",
                  at_most=1.2),
            Claim("NAKs under ordered LG",
                  partial(_col, _sr_rows, "naks", case="lg+gbn"),
                  "ordered LG keeps the NIC unaware of the loss", equals=0),
        )),
    "sec5-tofino": Figure(
        cells=_pinned(_tofino2_cells, _TOFINO2_GATE), shape=_tofino2_rows,
        gate=_TOFINO2_GATE,
        claims=(
            Claim("median ReTx delay, Tofino2 / Tofino1",
                  partial(_tofino2, lambda t1, t2: _ratio(t2, t1),
                          "retx_p50_us"),
                  "no recirculation removes the dominant part of 2-6 us",
                  at_most=0.7),
            Claim("largest RX buffer, Tofino2 minus Tofino1 (KB)",
                  partial(_tofino2, lambda t1, t2: t2 - t1, "rx_buf_max_KB"),
                  "smaller buffers", at_most=0),
            Claim("effective speed, Tofino2 minus Tofino1 (points)",
                  partial(_tofino2, lambda t1, t2: t2 - t1, "eff_speed_%"),
                  "a smaller pause cost", at_least=-0.2),
            Claim("Tofino2 ackNoTimeout expiries",
                  partial(_metric, "timeouts", 1),
                  "the tighter ackNoTimeout still never fires", equals=0),
        )),
    "sec5-400g": Figure(
        cells=_pinned(_400g_cells, _400G_GATE), shape=_400g_rows,
        gate=_400G_GATE,
        claims=(
            Claim("LG, 100G drain: effective speed (%)",
                  partial(_col, _400g_rows, "eff_speed_%",
                          mode="LG/100G-recirc"),
                  "a proportionally lower effective link speed",
                  at_most=50.0),
            Claim("LG, 400G drain: loss events not recovered",
                  partial(_400g_unrecovered, "LG/400G-recirc"),
                  "a full-rate drain recovers every loss", equals=0),
            Claim("LG_NB: loss events not recovered",
                  partial(_400g_unrecovered, "LG_NB"),
                  "LG_NB recovers every loss", equals=0),
            Claim("LG, 400G drain: effective speed (%)",
                  partial(_col, _400g_rows, "eff_speed_%",
                          mode="LG/400G-recirc"),
                  "a visible pause cost (8% at 100G)", at_least=85.0),
            Claim("LG_NB minus LG (400G drain) effective speed (points)",
                  _400g_nb_speed_lead,
                  "LG_NB works well at 400G and above", at_least=-0.1),
            Claim("LG_NB largest RX buffer (KB)",
                  partial(_col, _400g_rows, "rx_buf_max_KB",
                          mode="LG_NB"),
                  "LG_NB needs no reordering buffer", equals=0),
        )),
    "retx-copies": Figure(
        cells=_pinned(_copies_cells, _COPIES_GATE), shape=_copies_rows,
        gate=_COPIES_GATE,
        claims=(
            Claim("measured effective loss, N = 2 / N = 1",
                  partial(_copies_measured,
                          lambda n1, n2, n3: _ratio(n2, n1)),
                  "Eq. 1: each extra copy multiplies it by p = 0.05",
                  at_most=0.5),
            Claim("measured effective loss, N = 2 minus N = 3",
                  partial(_copies_measured, lambda n1, n2, n3: n2 - n3),
                  "more copies, lower effective loss", at_least=0),
            Claim("measured / expected effective loss at N = 1",
                  partial(_col, _copies_rows, "eff_loss_measured",
                          over="eff_loss_expected", N=1),
                  "Eq. 1: p^(N+1) = p^2 at N = 1", at_least=0.3, at_most=3.0,
                  fidelity="F3"),
        )),
    "incremental": Figure(
        cells=_incremental_cells, shape=_incremental_rows,
        gate={"days": 120.0, "seed": 31},
        claims=(
            Claim("mean penalty, full / no deployment",
                  partial(_incremental_penalties,
                          lambda p: _ratio(p[-1], p[0])),
                  "needs only the two adjacent switches upgraded",
                  at_most=0.01),
            Claim("largest mean-penalty ratio, a wider deployment / the "
                  "one before",
                  partial(_incremental_penalties, lambda p: max(
                      _ratio(b, a) for a, b in zip(p, p[1:]))),
                  "penalty falls as the deployment widens", at_most=1.5),
        )),
}
