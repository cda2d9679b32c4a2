"""Dispatch an :class:`~repro.runner.spec.ExperimentSpec` to its experiment.

Each experiment registers under a ``kind``; :func:`run_cell` resolves the
kind, runs the cell, and normalises the outcome into a
:class:`~repro.runner.harness.CellResult`.  Experiment modules are
imported lazily inside each runner so importing ``repro.runner`` never
drags in (or cycles with) ``repro.experiments``.

Common field mapping: ``spec.scenario`` carries the per-kind protection
variant ("noloss"/"loss"/"lg"/"lgnb" for FCT and multihop, the Table 3
scheme for goodput, "lg"/"lgnb" ordering for the stress test);
``spec.lg`` carries ``LinkGuardianConfig.for_link_speed`` overrides;
everything else kind-specific rides in ``spec.params``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..obs.profile import PhaseTimer
from .harness import CellResult
from .spec import ExperimentSpec

__all__ = ["RunContext", "register", "run_cell", "experiment_kinds"]


@dataclass
class RunContext:
    """Per-cell execution context handed to every registered runner.

    ``obs`` is the cell's :class:`~repro.obs.Observability` (built from
    ``spec.obs``, or None for an uninstrumented cell); runners that can
    thread it into their experiment should.  ``phases`` accumulates
    wall-clock phase timings that end up in ``CellResult.timings``.
    """

    obs: Optional[Any] = None
    phases: PhaseTimer = field(default_factory=PhaseTimer)


_RUNNERS: Dict[str, Callable[[ExperimentSpec, RunContext], CellResult]] = {}


def register(kind: str):
    """Class-of-experiment decorator: ``@register("fct")``."""
    def decorate(fn):
        _RUNNERS[kind] = fn
        return fn
    return decorate


def experiment_kinds() -> List[str]:
    return sorted(_RUNNERS)


def _build_obs(options: Dict[str, Any]):
    """Materialise ``spec.obs`` into an Observability (None when empty).

    Recognised keys: ``trace`` (bool, default True), ``spans`` (bool),
    ``timeline`` (True or TimelineRecorder kwargs).
    """
    if not options:
        return None
    from ..obs import Observability

    return Observability(
        tracing=bool(options.get("trace", True)),
        spans=bool(options.get("spans", False)),
        timeline=options.get("timeline"),
    )


def run_cell(spec: Union[ExperimentSpec, dict],
             obs: Optional[Any] = None) -> CellResult:
    """Run one cell and return its unified result (wall clock attached).

    ``spec.backend`` selects the execution engine: ``"packet"`` runs the
    registered event-driven experiment, ``"fastpath"`` routes to the
    vectorized analytic backend (:mod:`repro.fastpath`), and
    ``"hybrid"`` to the splicing backend (:mod:`repro.fastpath.splice`)
    that advances analytically between corruption events and simulates
    packet-engine windows around them.  ``obs`` overrides the
    Observability built from ``spec.obs`` (CLI use).
    """
    if isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    if spec.backend == "fastpath":
        from ..fastpath.backend import run_fastpath_cell

        return run_fastpath_cell(spec)
    if spec.backend == "hybrid":
        from ..fastpath.splice import run_hybrid_cell

        return run_hybrid_cell(spec)
    if spec.backend != "packet":
        raise ValueError(
            f"unknown backend {spec.backend!r}; "
            f"known: packet, fastpath, hybrid")
    try:
        runner = _RUNNERS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown experiment kind {spec.kind!r}; "
            f"known: {experiment_kinds()}"
        ) from None
    ctx = RunContext(obs=obs if obs is not None else _build_obs(spec.obs))
    started = time.perf_counter()
    result = runner(spec, ctx)
    result.wall_s = time.perf_counter() - started
    _attach_diagnostics(result, ctx)
    return result


def _attach_diagnostics(result: CellResult, ctx: RunContext) -> None:
    """Phase timings and obs artifacts onto the result (never canonical)."""
    timings = ctx.phases.timings()
    timings["total_s"] = round(result.wall_s, 6)
    if ctx.obs is not None:
        engine = ctx.obs.registry.snapshot().get("engine")
        if isinstance(engine, dict):
            # Wall-clock the kernel spent inside run() — the one
            # per-event loop, whichever driver started it.
            timings["engine_run_s"] = round(engine.get("wall_seconds", 0.0), 6)
        if ctx.obs.timeline is not None:
            ctx.obs.timeline.stop()
            result.artifacts["timeline"] = ctx.obs.timeline.series()
        if ctx.obs.spans.enabled:
            result.artifacts["spans"] = {
                "started": ctx.obs.spans.started,
                "dropped": ctx.obs.spans.dropped,
                "episodes": len(ctx.obs.spans.trees()),
            }
    result.timings = timings


def _result(spec: ExperimentSpec, metrics: dict, series: dict = None) -> CellResult:
    return CellResult(
        cell_id=spec.cell_id(),
        spec=spec.to_dict(),
        metrics=metrics,
        series=series or {},
        backend=spec.backend,
    )


def _lg_config(spec: ExperimentSpec):
    """Materialise spec.lg overrides; None keeps the experiment default."""
    if not spec.lg:
        return None
    from ..linkguardian.config import LinkGuardianConfig

    return LinkGuardianConfig.for_link_speed(spec.rate_gbps, **spec.lg)


@register("fct")
def _run_fct(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.fct import run_fct_experiment

    result = run_fct_experiment(
        transport=spec.transport,
        flow_size=spec.flow_size,
        n_trials=spec.n_trials,
        scenario=spec.scenario,
        rate_gbps=spec.rate_gbps,
        loss_rate=spec.loss_rate,
        seed=spec.seed,
        lg_config=_lg_config(spec),
        obs=ctx.obs,
        phases=ctx.phases,
        **spec.params,
    )
    metrics = result.summary()
    metrics["affected"] = sum(
        1 for r in result.records if r.retransmissions or r.timeouts
    )
    return _result(spec, metrics, {"fcts_us": result.fcts_us.tolist()})


@register("goodput")
def _run_goodput(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.goodput import run_goodput

    row = run_goodput(
        scheme=spec.scenario,
        loss_rate=spec.loss_rate,
        rate_gbps=spec.rate_gbps,
        seed=spec.seed,
        **spec.params,
    )
    return _result(spec, row)


@register("multihop")
def _run_multihop(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.multihop import run_multihop_fct

    row = run_multihop_fct(
        transport=spec.transport,
        flow_size=spec.flow_size,
        n_trials=spec.n_trials,
        loss_rate=spec.loss_rate,
        lg_active=spec.scenario != "loss",
        ordered=spec.scenario != "lgnb",
        seed=spec.seed,
        **spec.params,
    )
    return _result(spec, row)


@register("stress")
def _run_stress(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.stress import run_stress_test

    config = None
    if spec.lg:
        from ..linkguardian.config import LinkGuardianConfig

        # params.target_loss_rate outranks the lg override, mirroring the
        # fastpath grid's precedence (params > lg > default).
        overrides = {"ordered": spec.scenario != "lgnb", **spec.lg}
        if "target_loss_rate" in spec.params:
            overrides["target_loss_rate"] = spec.params["target_loss_rate"]
        config = LinkGuardianConfig.for_link_speed(spec.rate_gbps, **overrides)
    result = run_stress_test(
        rate_gbps=spec.rate_gbps,
        loss_rate=spec.loss_rate,
        ordered=spec.scenario != "lgnb",
        seed=spec.seed,
        config=config,
        obs=ctx.obs,
        **spec.params,
    )
    metrics = dict(result.row())
    metrics.update(
        injected=result.injected,
        delivered=result.delivered,
        loss_events=result.loss_events,
        recovered=result.recovered,
        timeouts=result.timeouts,
        recirc_tx_pct=result.recirc_overhead_tx_percent,
        recirc_rx_pct=result.recirc_overhead_rx_percent,
    )
    return _result(spec, metrics, {"retx_delays_us": result.retx_delays_us})


@register("timeline")
def _run_timeline(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.timeline import run_timeline

    result = run_timeline(
        transport=spec.transport,
        rate_gbps=spec.rate_gbps,
        loss_rate=spec.loss_rate,
        seed=spec.seed,
        obs=ctx.obs,
        **spec.params,
    )
    metrics = {
        "clean_gbps": result.phase_mean_rate(2, result.corruption_start_ms),
        "loss_gbps": result.phase_mean_rate(
            result.corruption_start_ms + 2, result.lg_start_ms),
        "lg_gbps": result.phase_mean_rate(
            result.lg_start_ms + 4, float(result.times_ms[-1])),
        "overflow_drops": result.overflow_drops,
        "completed_bytes": result.completed_bytes,
    }
    series = {
        "times_ms": result.times_ms.tolist(),
        "send_rate_gbps": result.send_rate_gbps.tolist(),
        "qdepth_kb": result.qdepth_kb.tolist(),
        "rx_buffer_kb": result.rx_buffer_kb.tolist(),
        "e2e_retx": result.e2e_retx.tolist(),
    }
    return _result(spec, metrics, series)


@register("rdma_reorder")
def _run_rdma_reorder(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.rdma_future import run_rdma_case

    row = run_rdma_case(
        case=spec.params.get("case", "lgnb+sr"),
        flow_size=spec.flow_size,
        n_trials=spec.n_trials,
        loss_rate=spec.loss_rate,
        rate_gbps=spec.rate_gbps,
        seed=spec.seed,
    )
    return _result(spec, row)


@register("deployment")
def _run_deployment(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.deployment import run_deployment_comparison

    comparison = run_deployment_comparison(seed=spec.seed, **spec.params)
    return _result(spec, comparison.summary())


@register("incremental")
def _run_incremental(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.incremental import run_incremental_deployment

    fraction = spec.params.get("fraction", 0.5)
    params = {k: v for k, v in spec.params.items() if k != "fraction"}
    rows = run_incremental_deployment(
        fractions=(fraction,), seed=spec.seed, **params)
    return _result(spec, rows[0])


@register("lifecycle_chunk")
def _run_lifecycle_chunk(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """One time chunk of a lifecycle replay: its day range's SLO columns.

    ``spec.params`` carries the serialized replay plus the chunk index;
    the lifecycle rollup (``repro.lifecycle.replay.run_replay``) merges
    the chunks' disjoint day ranges back into one longitudinal series.
    The replay-global audit counters ride in ``series["counts"]`` —
    identical in every chunk, so the merge reads them from any one.
    """
    from ..lifecycle.replay import ReplaySpec, run_chunk

    replay = ReplaySpec.from_dict(spec.params["replay"])
    chunk = int(spec.params.get("chunk", 0))
    out = run_chunk(replay, chunk)
    metrics = out.pop("chunk")
    return _result(spec, metrics, out)


@register("checker")
def _run_checker(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """Conformance checking as a runner cell.

    With ``spec.params["scenario"]`` present, runs that one fault
    scenario under the invariant checker; otherwise fuzzes
    ``spec.n_trials`` random scenarios from ``spec.seed``.  Base config
    tweaks ride in ``spec.params["check"]``; ``spec.lg`` overrides the
    LinkGuardian config either way.
    """
    from ..checker.fuzz import run_fuzz
    from ..checker.scenarios import CheckConfig, FaultScenario, run_scenario

    check = dict(spec.params.get("check", {}))
    if spec.lg:
        check["lg"] = {**check.get("lg", {}), **spec.lg}
    check.setdefault("rate_gbps", spec.rate_gbps)
    base = CheckConfig.from_dict(check)

    if "scenario" in spec.params:
        scenario = FaultScenario.from_dict(spec.params["scenario"])
        base.seed = spec.seed
        outcome = run_scenario(scenario, base, obs=ctx.obs)
        metrics = {
            "ok": outcome.ok,
            "completed": outcome.completed,
            "violations": sum(outcome.counts.values()),
            "invariants_breached": len(outcome.counts),
            "n_copies": outcome.n_copies,
        }
        series = {"violations": [v.to_dict() for v in outcome.violations]}
        return _result(spec, metrics, series)

    fuzz = run_fuzz(
        seed=spec.seed,
        trials=spec.n_trials,
        base=base,
        shrink=bool(spec.params.get("shrink", True)),
    )
    metrics = {
        "ok": fuzz.ok,
        "trials": fuzz.trials,
        "failures": len(fuzz.failures),
        "runs": fuzz.runs,
    }
    series = {"failures": fuzz.failures}
    if fuzz.artifact is not None:
        series["artifact"] = [fuzz.artifact]
    return _result(spec, metrics, series)


@register("fig01")
def _run_fig01(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.figures import figure1_attenuation_series

    series = figure1_attenuation_series(**spec.params)
    return _result(spec, {"n_points": len(series["attenuation_db"])},
                   {k: list(v) for k, v in series.items()})


@register("fig02")
def _run_fig02(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.figures import figure2_flow_size_cdfs

    table = figure2_flow_size_cdfs(**spec.params)
    return _result(spec, {"n_sizes": len(table["size_bytes"])},
                   {k: list(v) for k, v in table.items()})


@register("tab01")
def _run_tab01(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.figures import table1_loss_buckets

    rows = table1_loss_buckets(seed=spec.seed, **spec.params)
    return _result(spec, {"n_buckets": len(rows)}, {"rows": rows})


@register("fig20")
def _run_fig20(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..experiments.figures import figure20_consecutive_losses

    results = figure20_consecutive_losses(seed=spec.seed, **spec.params)
    metrics = {}
    series = {}
    for rate, data in results.items():
        metrics[f"coverage@{rate:g}"] = data["five_register_coverage"]
        series[f"bursts@{rate:g}"] = data["bursts"].tolist()
        series[f"cdf@{rate:g}"] = [data["cdf"][k] for k in sorted(data["cdf"])]
    return _result(spec, metrics, series)
