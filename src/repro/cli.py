"""Command-line runner for the paper's experiments.

Usage::

    python -m repro list                       # show available experiments
    python -m repro fig08 --duration-ms 3      # one figure, custom params
    python -m repro fig10 --trials 2000
    python -m repro fig15 --days 120

Each command runs the corresponding experiment at (configurable)
simulator scale and prints the same rows/series the paper reports.  The
benchmark suite (``pytest benchmarks/ --benchmark-only``) runs the same
experiments with shape assertions attached.

Observability: ``--json`` switches every figure/table command to
machine-readable output (a JSON array of row objects, one parseable
document per table); ``--trace-out trace.json`` captures a Chrome
trace-event file any run can open in Perfetto (``.jsonl`` extension
selects the line-delimited raw event format instead); ``--metrics-out``
dumps the metrics registry (``.prom`` extension selects the Prometheus
text format).  ``python -m repro metrics`` runs a fig09-style timeline
and prints the loss->recovery latency histogram.

obs v2: ``--spans`` turns on causal recovery-episode spans (exported
with the trace), ``--timeline-out`` + ``--timeline-interval-us`` record
a metrics timeline on simulated-time cadence, and ``python -m repro obs
spans|timeline|top <artifact>`` renders episode trees, timeline
summaries, and per-cell wall-clock rankings from exported artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from .analysis.report import render_table

__all__ = ["main"]

#: set by main() from --json: _emit prints JSON rows instead of tables.
_JSON_MODE = False


def _print(text: str = "") -> None:
    sys.stdout.write(text + "\n")


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _emit(rows, columns=None) -> None:
    """Print dict-rows as an aligned table, or JSON under ``--json``."""
    rows = list(rows)
    if _JSON_MODE:
        if columns is not None:
            rows = [{col: row.get(col, "") for col in columns} for row in rows]
        _print(json.dumps(rows, default=_json_default))
    else:
        _print(render_table(rows, columns))


def cmd_fig01(args) -> None:
    from .experiments.figures import figure1_attenuation_series

    series = figure1_attenuation_series()
    names = [k for k in series if k != "attenuation_db"]
    rows = []
    for index, atten in enumerate(series["attenuation_db"]):
        if index % 4 == 0:
            rows.append({"atten_dB": atten, **{n: series[n][index] for n in names}})
    _emit(rows)


def cmd_fig02(args) -> None:
    from .experiments.figures import figure2_flow_size_cdfs
    from .workloads import WORKLOADS

    cdfs = figure2_flow_size_cdfs()
    rows = [
        {"size_B": size, **{n: round(cdfs[n][i], 3) for n in WORKLOADS}}
        for i, size in enumerate(cdfs["size_bytes"])
    ]
    _emit(rows)


def cmd_tab01(args) -> None:
    from .experiments.figures import table1_loss_buckets

    _emit(table1_loss_buckets())


def cmd_fig08(args) -> None:
    from .experiments.stress import run_stress_test

    rows = []
    for rate_gbps in (25, 100):
        for loss in (1e-5, 1e-4, 1e-3):
            for ordered in (True, False):
                result = run_stress_test(
                    rate_gbps=rate_gbps, loss_rate=loss, ordered=ordered,
                    duration_ms=args.duration_ms, seed=args.seed, obs=args.obs,
                )
                rows.append(result.row())
    _emit(rows)


def cmd_fig09(args) -> None:
    from .experiments.timeline import run_timeline
    from .linkguardian.config import LinkGuardianConfig
    from .units import KB

    # The phases run ~1000x shorter than the paper's 14 s; scaling the
    # resume threshold down likewise keeps the pause/resume dynamics of
    # Figure 9a visible at sim scale (--resume-kb 0 for paper scale).
    config = None
    if args.resume_kb > 0:
        config = LinkGuardianConfig.for_link_speed(
            25, ordered=True, backpressure=True,
            resume_threshold_bytes=int(args.resume_kb * KB),
        )
    result = run_timeline(
        "dctcp", rate_gbps=25, loss_rate=1e-3,
        clean_ms=args.duration_ms, loss_ms=2 * args.duration_ms,
        lg_ms=2 * args.duration_ms, obs=args.obs, config=config,
    )
    rows = [
        {"t_ms": round(t, 2), "send_Gbps": round(r, 2), "qdepth_KB": round(q, 1),
         "rxbuf_KB": round(b, 2), "e2e_retx": int(x)}
        for t, r, q, b, x in zip(
            result.times_ms[::4], result.send_rate_gbps[::4],
            result.qdepth_kb[::4], result.rx_buffer_kb[::4], result.e2e_retx[::4],
        )
    ]
    _emit(rows)


def _fct_command(transport_list, size, args, loss=None):
    from .experiments.fct import run_fct_experiment

    loss = loss if loss is not None else args.loss_rate
    rows = []
    for transport in transport_list:
        for scenario in ("noloss", "loss", "lg", "lgnb"):
            result = run_fct_experiment(
                transport=transport, flow_size=size, n_trials=args.trials,
                scenario=scenario, loss_rate=loss, seed=args.seed,
                obs=args.obs,
            )
            rows.append(result.summary())
    _emit(rows)


def cmd_fig10(args) -> None:
    _fct_command(("dctcp", "rdma"), 143, args)


def cmd_fig11(args) -> None:
    _fct_command(("dctcp", "bbr", "rdma"), 24_387, args)


def cmd_fig12(args) -> None:
    args.trials = min(args.trials, 200)
    _fct_command(("dctcp",), 2_000_000, args, loss=1e-3)


def cmd_fig13(args) -> None:
    from .experiments.fct import run_fct_experiment

    result = run_fct_experiment(
        transport="dctcp", flow_size=24_387, n_trials=args.trials,
        scenario="lgnb", loss_rate=args.loss_rate, seed=args.seed,
    )
    _emit([result.classification().as_dict()])


def cmd_tab02(args) -> None:
    from .experiments.mechanisms import run_mechanism_study

    study = run_mechanism_study(n_trials=args.trials, loss_rate=args.loss_rate,
                                seed=args.seed)
    rows = [dict(variant=name, **vals) for name, vals in study.items()]
    _emit(rows, ["variant", "p50", "p99", "p99.9", "p99.99", "trials"])


def cmd_tab03(args) -> None:
    from .experiments.goodput import run_goodput

    rows = []
    for loss in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        row = {"loss": loss}
        for scheme in ("none", "wharf", "lg", "lgnb"):
            if scheme == "wharf" and loss == 0.0:
                row[scheme] = "n/a"
                continue
            row[scheme] = round(run_goodput(scheme, loss_rate=loss,
                                            seed=args.seed)["goodput_gbps"], 2)
        rows.append(row)
    _emit(rows)


def cmd_tab04(args) -> None:
    from .experiments.stress import run_stress_test

    rows = []
    for rate_gbps in (25, 100):
        for loss in (1e-5, 1e-4, 1e-3):
            result = run_stress_test(rate_gbps=rate_gbps, loss_rate=loss,
                                     duration_ms=args.duration_ms, seed=args.seed,
                                     obs=args.obs)
            rows.append({
                "link": f"{rate_gbps:g}G", "loss": loss,
                "tx_%pipe": round(result.recirc_overhead_tx_percent, 4),
                "rx_%pipe": round(result.recirc_overhead_rx_percent, 4),
            })
    _emit(rows)


def cmd_fig14(args) -> None:
    from .experiments.stress import run_stress_test

    rows = []
    for rate_gbps in (25, 100):
        for loss in (1e-5, 1e-4, 1e-3):
            for ordered in (True, False):
                r = run_stress_test(rate_gbps=rate_gbps, loss_rate=loss,
                                    ordered=ordered,
                                    duration_ms=args.duration_ms, seed=args.seed,
                                    obs=args.obs)
                rows.append({
                    "link": f"{rate_gbps:g}G", "loss": loss,
                    "mode": "LG" if ordered else "LG_NB",
                    "tx_max_KB": round(r.tx_buffer["max"] / 1e3, 1),
                    "rx_max_KB": round(r.rx_buffer["max"] / 1e3, 1),
                })
    _emit(rows)


def cmd_fig15(args) -> None:
    from .experiments.deployment import run_deployment_comparison

    rows = []
    for constraint in (0.50, 0.75):
        comparison = run_deployment_comparison(
            capacity_constraint=constraint, duration_days=args.days,
            mttf_hours=args.mttf_hours, seed=args.seed,
        )
        rows.append({"constraint": f"{constraint:.0%}", **comparison.summary()})
    _emit(rows)


def cmd_fig16(args) -> None:
    from .experiments.deployment import run_deployment_comparison

    rows = []
    for constraint in (0.50, 0.75):
        comparison = run_deployment_comparison(
            capacity_constraint=constraint, duration_days=args.days,
            mttf_hours=args.mttf_hours, seed=args.seed,
        )
        gain = comparison.penalty_gain()
        rows.append({
            "constraint": f"{constraint:.0%}",
            "gain=1(%)": round(100 * float((gain <= 1 + 1e-9).mean()), 1),
            "gain_p50": float(np.median(gain)),
            "gain_p90": float(np.percentile(gain, 90)),
            "cap_dec_p99_%": round(float(np.percentile(
                comparison.capacity_decrease(), 99)), 3),
        })
    _emit(rows)


def cmd_fig19(args) -> None:
    from .experiments.stress import run_stress_test

    rows = []
    for rate_gbps in (25, 100):
        delays: List[float] = []
        for loss in (1e-3, 5e-3):
            result = run_stress_test(rate_gbps=rate_gbps, loss_rate=loss,
                                     duration_ms=args.duration_ms, seed=args.seed,
                                     obs=args.obs)
            delays.extend(result.retx_delays_us)
        data = np.asarray(delays)
        rows.append({
            "link": f"{rate_gbps:g}G", "n": len(data),
            "min_us": round(float(data.min()), 2),
            "p50_us": round(float(np.median(data)), 2),
            "max_us": round(float(data.max()), 2),
        })
    _emit(rows)


def cmd_fig20(args) -> None:
    from .experiments.figures import figure20_consecutive_losses

    results = figure20_consecutive_losses()
    rows = []
    for rate, data in results.items():
        rows.append({"loss": rate,
                     **{f"<={k}": round(v, 6) for k, v in data["cdf"].items()}})
    _emit(rows)


def cmd_fig21(args) -> None:
    from .experiments.timeline import run_timeline

    rows = []
    for transport, rate_gbps in (("cubic", 25), ("bbr", 10)):
        result = run_timeline(transport, rate_gbps=rate_gbps, loss_rate=1e-3,
                              clean_ms=args.duration_ms,
                              loss_ms=2 * args.duration_ms,
                              lg_ms=2 * args.duration_ms, obs=args.obs)
        rows.append({
            "transport": transport, "link": f"{rate_gbps}G",
            "clean_Gbps": round(result.phase_mean_rate(
                2, result.corruption_start_ms), 2),
            "loss_Gbps": round(result.phase_mean_rate(
                result.corruption_start_ms + 2, result.lg_start_ms), 2),
            "lg_Gbps": round(result.phase_mean_rate(
                result.lg_start_ms + 4, result.times_ms[-1]), 2),
        })
    _emit(rows)


def cmd_export(args) -> None:
    from .analysis.export import export_results

    written = export_results(args.results_dir, args.out_dir)
    for path in written:
        _print(path)
    _print(f"{len(written)} files written to {args.out_dir}")


def cmd_incremental(args) -> None:
    from .experiments.incremental import run_incremental_deployment

    _emit(run_incremental_deployment(
        duration_days=args.days, seed=args.seed))


def _coerce_axis_value(text: str):
    """Best-effort typing for --axis values: int, float, bool, else str."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _usage_error(message: str) -> None:
    """Invalid command-line arguments: complain on stderr, exit 2.

    Mirrors argparse's own convention so every subcommand — ``check``,
    ``sweep``, ``fleet`` — fails argument validation the same way.
    """
    sys.stderr.write(f"repro: error: {message}\n")
    raise SystemExit(2)


def parse_axis(text: str):
    """Parse one ``--axis field=v1,v2,...`` argument."""
    if "=" not in text:
        raise ValueError(f"--axis must look like field=v1,v2 (got {text!r})")
    name, _, values = text.partition("=")
    parsed = [_coerce_axis_value(v) for v in values.split(",") if v != ""]
    if not parsed:
        raise ValueError(f"--axis {name}: no values given")
    return name.strip(), parsed


def cmd_sweep(args) -> None:
    """Declarative sweep over experiment cells (the runner layer)."""
    from .analysis.report import cell_rows
    from .runner import ExperimentSpec, SweepRunner, SweepSpec, experiment_kinds

    if args.kind not in experiment_kinds():
        _usage_error(
            f"unknown --kind {args.kind!r}; known: {', '.join(experiment_kinds())}"
        )
    base = ExperimentSpec(
        kind=args.kind,
        n_trials=args.trials,
        loss_rate=args.loss_rate,
        seed=args.seed,
        backend=args.backend,
    )
    try:
        axes = dict(parse_axis(text) for text in (args.axis or []))
    except ValueError as exc:
        _usage_error(str(exc))
    sweep = SweepSpec(
        name=args.kind, base=base, axes=axes,
        seed=args.sweep_seed,
    )
    n_cells = len(sweep.cells())

    def progress(result) -> None:
        if not _JSON_MODE:
            _print(f"[{result.cell_id}] done in {result.wall_s:.2f}s")

    runner = SweepRunner(sweep, workers=args.workers, checkpoint=args.checkpoint)
    results = runner.run(progress=progress)
    if not _JSON_MODE and runner.resumed:
        _print(f"resumed {runner.resumed}/{n_cells} cells from {args.checkpoint}")
    _emit(cell_rows(results))


def _fleet_spec(args):
    """The ``--fleet-*`` / ``--mttf-hours`` flags as a FleetSpec."""
    from .fleet import FleetSpec

    return FleetSpec(
        n_pods=args.fleet_pods, tors_per_pod=args.fleet_tors,
        fabrics_per_pod=args.fleet_fabrics, spine_uplinks=args.fleet_spines,
        mttf_hours=args.mttf_hours)


def cmd_fleet(args) -> None:
    """Fleet-scale campaign: one-shot SLOs over a lifecycle replay."""
    from .fleet import ControllerConfig, FleetCampaignSpec, run_fleet_campaign
    from .obs import Observability

    try:
        campaign = FleetCampaignSpec(
            fleet=_fleet_spec(args),
            controller=ControllerConfig(
                activation_budget=args.activation_budget),
            policy=args.policy,
            duration_days=args.days,
            seed=args.seed,
            n_shards=args.shards,
            backend=args.backend,
            resim_fraction=args.resim_fraction,
        )
    except ValueError as exc:
        _usage_error(str(exc))

    def progress(result) -> None:
        if not _JSON_MODE:
            _print(f"[{result.cell_id}] days [{result.metrics['day_lo']}, "
                   f"{result.metrics['day_hi']}) in {result.wall_s:.2f}s")

    # The campaign publishes its summary through the metrics registry;
    # make sure one exists even without --trace-out/--metrics-out.
    obs = args.obs if args.obs is not None else Observability()
    args.obs = obs
    result = run_fleet_campaign(
        campaign, workers=args.workers, checkpoint=args.checkpoint,
        obs=obs, progress=progress,
    )
    if _JSON_MODE:
        # The canonical form: byte-identical across runs and shardings.
        _print(result.canonical_json())
    else:
        _print(f"fleet: {campaign.fleet.n_links} links, "
               f"{campaign.duration_days:g} days, policy={campaign.policy}, "
               f"{campaign.n_shards} shard(s)")
        summary = obs.registry.snapshot().get("fleet.campaign.summary", {})
        _print("campaign: " + ", ".join(
            f"{key}={value}" for key, value in summary.items()
            if key != "backend_mix"))
        _emit([result.summary()])


def cmd_metrics(args) -> None:
    """Instrumented fig09-style run + registry summary (the obs showcase)."""
    from .analysis.report import histogram_rows
    from .experiments.timeline import run_timeline
    from .obs import Observability

    if args.duration_ms <= 0:
        _usage_error("--duration-ms must be > 0")
    obs = args.obs if args.obs is not None else Observability()
    args.obs = obs  # so --trace-out/--metrics-out pick the run up too
    run_timeline(
        "dctcp", rate_gbps=25, loss_rate=1e-3,
        clean_ms=args.duration_ms, loss_ms=2 * args.duration_ms,
        lg_ms=2 * args.duration_ms, seed=args.seed, obs=obs,
    )
    snapshot = obs.registry.snapshot()

    if not _JSON_MODE:
        _print("loss -> recovery latency (retx delay):")
    hist_name = next(
        (n for n in snapshot if n.endswith(".retx_delay_ns")), None)
    hist = obs.registry.get(hist_name) if hist_name else None
    if hist is not None and hist.count:
        _emit(histogram_rows(hist.snapshot(), unit_divisor=1e3, unit="us"))
        if not _JSON_MODE:
            _print(f"samples={hist.count}  mean={hist.mean / 1e3:.2f}us  "
                   f"p50<={hist.percentile(50) / 1e3:g}us  "
                   f"p99<={hist.percentile(99) / 1e3:g}us")
    else:
        _emit([])

    if not _JSON_MODE:
        _print()
        _print("registry summary:")
    rows = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry.get("type") == "histogram":
            rows.append({"metric": name, "kind": "histogram",
                         "value": entry["count"]})
        elif entry.get("type") in ("counter", "gauge"):
            rows.append({"metric": name, "kind": entry["type"],
                         "value": entry["value"]})
        else:
            for key, value in sorted(entry.items()):
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    rows.append({"metric": f"{name}.{key}",
                                 "kind": "stat", "value": round(value, 6)})
    _emit(rows)


def cmd_fastpath(argv: List[str]) -> int:
    """``repro fastpath {scan,validate}`` — the analytic backend.

    ``scan`` sweeps a grid entirely on the vectorized models (the cheap
    wide pass of a two-tier campaign); ``validate`` runs a matched grid
    on both backends and compares metric by metric — tolerance failures
    exit 1, argument errors exit 2.
    """
    parser = argparse.ArgumentParser(
        prog="repro fastpath",
        description="Vectorized analytic backend: wide scans and "
                    "cross-validation against the packet engine.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    scan_p = sub.add_parser("scan", help="sweep a grid on the analytic models")
    scan_p.add_argument("--kind", default="fct",
                        help="experiment kind of the base spec "
                             "(fct | goodput | stress)")
    scan_p.add_argument("--axis", action="append", metavar="FIELD=V1,V2",
                        help="one axis of the grid (repeatable)")
    scan_p.add_argument("--trials", type=int, default=1_000)
    scan_p.add_argument("--loss-rate", type=float, default=5e-3)
    scan_p.add_argument("--seed", type=int, default=1)
    scan_p.add_argument("--sweep-seed", type=int, default=None,
                        help="derive deterministic per-cell seeds")
    scan_p.add_argument("--json", action="store_true")

    val_p = sub.add_parser("validate",
                           help="matched grid on both backends + comparison")
    val_p.add_argument("--cells", type=int, default=200,
                       help="approximate grid size")
    val_p.add_argument("--seed", type=int, default=1)
    val_p.add_argument("--workers", type=int, default=1,
                       help="worker processes for the packet cells")
    val_p.add_argument("--backend", default="fastpath",
                       choices=["fastpath", "hybrid"],
                       help="the fast side of the comparison (hybrid = "
                            "the splicing backend)")
    val_p.add_argument("--out", default=None, metavar="PATH",
                       help="write the full report JSON here")
    val_p.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    global _JSON_MODE
    _JSON_MODE = args.json

    if args.mode == "scan":
        from .analysis.report import cell_rows
        from .fastpath import FASTPATH_KINDS
        from .runner import ExperimentSpec, SweepRunner, SweepSpec

        if args.kind not in FASTPATH_KINDS:
            _usage_error(f"--kind {args.kind!r} has no fastpath model; "
                         f"known: {', '.join(FASTPATH_KINDS)}")
        base = ExperimentSpec(
            kind=args.kind, n_trials=args.trials, loss_rate=args.loss_rate,
            seed=args.seed, backend="fastpath",
        )
        try:
            axes = dict(parse_axis(text) for text in (args.axis or []))
        except ValueError as exc:
            _usage_error(str(exc))
        sweep = SweepSpec(name=f"fastpath-{args.kind}", base=base, axes=axes,
                          seed=args.sweep_seed)
        results = SweepRunner(sweep).run()
        _emit(cell_rows(results))
        return 0

    from .fastpath import run_validation
    from .fastpath.validate import write_report

    def progress(spec, fast, packet) -> None:
        if not _JSON_MODE:
            _print(f"[{spec.cell_id()}] packet {packet.wall_s:.2f}s")

    report = run_validation(n_cells=args.cells, seed=args.seed,
                            workers=args.workers, progress=progress,
                            backend=args.backend)
    if args.out:
        write_report(report, args.out)
    if _JSON_MODE:
        _print(json.dumps(report.to_dict(), default=_json_default))
    else:
        _emit(report.rows())
        _print(f"{'OK' if report.ok else 'FAIL'}: {report.n_cells} cells, "
               f"packet {report.packet_wall_s:.1f}s vs {report.backend} "
               f"{report.fastpath_wall_s:.4f}s")
        for failure in report.failures():
            _print(f"  {failure.metric}: max_rel_err {failure.max_err:.3f} "
                   f"> tol {failure.tolerance}")
    return 0 if report.ok else 1


def cmd_check(argv: List[str]) -> int:
    """``repro check {run,fuzz,replay}`` — the conformance checker.

    Has its own argument parser (the checker's knobs share nothing with
    the figure experiments); invalid arguments exit 2 via argparse,
    violations and replay mismatches exit 1.
    """
    from .checker import (
        CheckConfig, DEFECTS, FaultScenario, replay_artifact, run_fuzz,
        run_scenario,
    )
    from .checker.fuzz import canonical_json

    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Protocol conformance checking: invariant monitors, "
                    "fault scenarios, and a shrinking schedule fuzzer.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    fuzz_p = sub.add_parser("fuzz", help="random fault schedules + shrinking")
    fuzz_p.add_argument("--seed", type=int, default=1)
    fuzz_p.add_argument("--trials", type=int, default=50,
                        help="random scenarios to run")
    fuzz_p.add_argument("--defect", default=None, choices=sorted(DEFECTS),
                        help="deliberate protocol break to fuzz against")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="skip ddmin shrinking of the first failure")
    fuzz_p.add_argument("--shrink-out", default=None, metavar="PATH",
                        help="write the shrunk counterexample artifact here")
    fuzz_p.add_argument("--json", action="store_true")

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario", metavar="SCENARIO.json",
                       help="JSON file with 'scenario' and optional 'config'")
    run_p.add_argument("--json", action="store_true")

    replay_p = sub.add_parser("replay", help="replay a counterexample artifact")
    replay_p.add_argument("artifact", metavar="ARTIFACT.json")
    replay_p.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    global _JSON_MODE
    _JSON_MODE = args.json

    if args.mode == "fuzz":
        base = CheckConfig(defect=args.defect)
        result = run_fuzz(
            seed=args.seed, trials=args.trials, base=base,
            shrink=not args.no_shrink,
        )
        if args.shrink_out and result.artifact is not None:
            with open(args.shrink_out, "w") as handle:
                handle.write(canonical_json(result.artifact) + "\n")
            if not _JSON_MODE:
                _print(f"counterexample written to {args.shrink_out}")
        if _JSON_MODE:
            _print(json.dumps(result.to_dict(), default=_json_default))
        else:
            _print(f"fuzz: seed={result.seed} trials={result.trials} "
                   f"runs={result.runs} "
                   f"{'OK' if result.ok else f'{len(result.failures)} FAILING'}")
            for failure in result.failures:
                _print(f"  trial {failure['trial']}: {failure['counts']}")
            if result.artifact is not None:
                counts = result.artifact["counts"]
                _print(f"  shrunk {counts['original_drops']} -> "
                       f"{counts['shrunk_drops']} drop(s) in "
                       f"{counts['shrink_runs']} runs")
        return 0 if result.ok else 1

    if args.mode == "run":
        with open(args.scenario) as handle:
            data = json.load(handle)
        if "scenario" not in data:
            _usage_error(f"{args.scenario}: no 'scenario' key")
        scenario = FaultScenario.from_dict(data["scenario"])
        config = CheckConfig.from_dict(data.get("config", {}))
        outcome = run_scenario(scenario, config)
        rows = [v.to_dict() for v in outcome.violations]
        if _JSON_MODE:
            _print(json.dumps(
                {"ok": outcome.ok, "completed": outcome.completed,
                 "counts": outcome.counts, "violations": rows},
                default=_json_default))
        else:
            _print(f"scenario {scenario.name}: "
                   f"{'OK' if outcome.ok else 'VIOLATIONS'} "
                   f"(completed={outcome.completed})")
            for row in rows:
                _print(f"  {row['invariant']} @ {row['time_ns']}ns {row['detail']}")
        return 0 if outcome.ok else 1

    with open(args.artifact) as handle:
        artifact = json.load(handle)
    replay = replay_artifact(artifact)
    if _JSON_MODE:
        _print(json.dumps(replay.to_dict(), default=_json_default))
    else:
        _print(f"replay: byte_identical={replay.byte_identical} "
               f"violations={sum(replay.outcome.counts.values())}")
        if not replay.byte_identical:
            _print("  stored and replayed artifacts differ")
    return 0 if replay.byte_identical else 1


def cmd_obs(argv: List[str]) -> int:
    """``repro obs {spans,timeline,top}`` — inspect obs v2 artifacts.

    ``spans`` renders recovery-episode trees from a trace file written
    with ``--trace-out`` under ``--spans``; ``timeline`` summarizes a
    flight-recorder file from ``--timeline-out``; ``top`` ranks the
    cells of a sweep checkpoint by wall-clock cost.  Missing files and
    bad arguments exit 2; files that fail schema validation exit 1.
    """
    import os

    from .obs.schema import (
        validate_chrome_trace, validate_events_jsonl, validate_timeline,
    )

    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Inspect observability artifacts: recovery-episode "
                    "span trees, flight-recorder timelines, cell costs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    spans_p = sub.add_parser("spans",
                             help="render recovery-episode trees from a trace")
    spans_p.add_argument("trace", metavar="TRACE.json",
                         help="Chrome trace (--trace-out) or .jsonl events")
    spans_p.add_argument("--json", action="store_true")

    tl_p = sub.add_parser("timeline",
                          help="summarize a flight-recorder timeline")
    tl_p.add_argument("timeline", metavar="TIMELINE.json",
                      help="file written by --timeline-out")
    tl_p.add_argument("--json", action="store_true")

    top_p = sub.add_parser("top", help="rank sweep cells by wall-clock cost")
    top_p.add_argument("checkpoint", metavar="CHECKPOINT.jsonl",
                       help="sweep --checkpoint JSONL of cell results")
    top_p.add_argument("--limit", type=int, default=10)
    top_p.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    global _JSON_MODE
    _JSON_MODE = args.json

    if args.mode == "spans":
        if not os.path.isfile(args.trace):
            _usage_error(f"{args.trace}: no such file")
        with open(args.trace) as handle:
            text = handle.read()
        if args.trace.endswith(".jsonl"):
            problems = validate_events_jsonl(text)
            spans = [
                record for record in
                (json.loads(line) for line in text.splitlines() if line.strip())
                if record.get("kind") == "span"
            ]
        else:
            try:
                data = json.loads(text)
            except ValueError as exc:
                sys.stderr.write(f"repro obs: {args.trace}: {exc}\n")
                return 1
            problems = validate_chrome_trace(data)
            spans = []
            for event in data.get("traceEvents", []):
                meta = event.get("args") or {}
                if "span_id" not in meta:
                    continue
                start_ns = int(round(event.get("ts", 0) * 1000))
                spans.append({
                    "span_id": meta["span_id"],
                    "parent_id": meta.get("parent_id"),
                    "trace_id": meta.get("trace_id"),
                    "cat": event.get("cat"),
                    "name": event.get("name"),
                    "start_ns": start_ns,
                    "end_ns": (start_ns + int(round(event.get("dur", 0) * 1000))
                               if event.get("ph") == "X" else None),
                    "args": {k: v for k, v in meta.items()
                             if k not in ("span_id", "parent_id", "trace_id")},
                })
        if problems:
            for problem in problems:
                sys.stderr.write(f"repro obs: {args.trace}: {problem}\n")
            return 1
        if _JSON_MODE:
            _print(json.dumps(spans, default=_json_default))
            return 0
        if not spans:
            _print("no spans in trace (re-run with --spans --trace-out)")
            return 0
        by_id = {span["span_id"]: span for span in spans}
        trees: dict = {}
        for span in spans:
            trees.setdefault(span.get("trace_id"), []).append(span)
        for members in sorted(trees.values(),
                              key=lambda m: min(s["start_ns"] for s in m)):
            members.sort(key=lambda s: (s["start_ns"], s["span_id"]))
            origin = members[0]["start_ns"]
            for span in members:
                depth, parent = 0, span.get("parent_id")
                while parent is not None and parent in by_id:
                    depth += 1
                    parent = by_id[parent].get("parent_id")
                offset_us = (span["start_ns"] - origin) / 1e3
                if span["end_ns"] is not None and span["end_ns"] > span["start_ns"]:
                    extent = f"dur={(span['end_ns'] - span['start_ns']) / 1e3:g}us"
                elif span["end_ns"] is None and depth == 0:
                    extent = "open"
                else:
                    extent = "instant"
                detail = " ".join(
                    f"{key}={value}" for key, value in sorted(span["args"].items()))
                _print(f"{'  ' * depth}{span['name']} [{span['cat']}] "
                       f"+{offset_us:g}us {extent}"
                       + (f"  {detail}" if detail else ""))
            _print()
        _print(f"{len(trees)} episode(s), {len(spans)} span(s)")
        return 0

    if args.mode == "timeline":
        if not os.path.isfile(args.timeline):
            _usage_error(f"{args.timeline}: no such file")
        with open(args.timeline) as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:
                sys.stderr.write(f"repro obs: {args.timeline}: {exc}\n")
                return 1
        problems = validate_timeline(data)
        if problems:
            for problem in problems:
                sys.stderr.write(f"repro obs: {args.timeline}: {problem}\n")
            return 1
        ts_ns = data.get("ts_ns", [])
        rows = []
        for name in sorted(data.get("metrics", {})):
            values = [v for v in data["metrics"][name]
                      if isinstance(v, (int, float))]
            if not values:
                continue
            rows.append({
                "metric": name, "samples": len(values),
                "min": round(min(values), 6), "max": round(max(values), 6),
                "last": round(values[-1], 6),
            })
        if not _JSON_MODE:
            span_ms = (ts_ns[-1] - ts_ns[0]) / 1e6 if len(ts_ns) > 1 else 0.0
            _print(f"timeline: {data.get('sampled', len(ts_ns))} sample(s) "
                   f"({data.get('dropped', 0)} dropped), "
                   f"cadence {data.get('interval_ns', 0) / 1e3:g}us, "
                   f"span {span_ms:g}ms")
        _emit(rows, ["metric", "samples", "min", "max", "last"])
        return 0

    # -- top: rank checkpoint cells by cost --------------------------------
    if args.limit <= 0:
        _usage_error("--limit must be > 0")
    if not os.path.isfile(args.checkpoint):
        _usage_error(f"{args.checkpoint}: no such file")
    from .runner.harness import CellResult

    results = []
    with open(args.checkpoint) as handle:
        for line in handle:
            if line.strip():
                results.append(CellResult.from_json(line))
    results.sort(key=lambda r: r.timings.get("total_s", r.wall_s), reverse=True)
    rows = []
    for result in results[:args.limit]:
        rows.append({
            "cell": result.cell_id, "backend": result.backend,
            "wall_s": round(result.wall_s, 4),
            **{f"{phase}_s": result.timings[phase]
               for phase in ("setup", "run", "collect")
               if phase in result.timings},
            **({"engine_run_s": result.timings["engine_run_s"]}
               if "engine_run_s" in result.timings else {}),
        })
    if not _JSON_MODE:
        _print(f"top {min(args.limit, len(results))} of {len(results)} cell(s) "
               f"by wall clock:")
    _emit(rows)
    return 0


def cmd_lifecycle(argv: List[str]) -> int:
    """``repro lifecycle {generate,replay,report}`` — month-scale SLO replay.

    ``generate`` writes a deterministic fleet failure trace; ``replay``
    pushes it (or a spec built from flags) through repair + fleet
    arbitration into per-day SLO series, time-chunked through the sweep
    runner; ``report`` renders a saved rollup.  Bad arguments exit 2;
    ``replay``/``report`` exit 1 when ``--fail-under`` is given and the
    goodput SLO attainment lands below it.
    """
    import os

    parser = argparse.ArgumentParser(
        prog="repro lifecycle",
        description="Month-scale fleet lifecycle: failure traces, repair "
                    "loop, and longitudinal SLO replay.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_fleet_args(p) -> None:
        p.add_argument("--days", type=float, default=30.0,
                       help="simulated fleet time (days)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--fleet-pods", type=int, default=4)
        p.add_argument("--fleet-tors", type=int, default=8)
        p.add_argument("--fleet-fabrics", type=int, default=4)
        p.add_argument("--fleet-spines", type=int, default=8)
        p.add_argument("--mttf-hours", type=float, default=1_500.0,
                       help="per-link mean time between corruption onsets")

    gen_p = sub.add_parser("generate",
                           help="write a deterministic failure trace")
    add_fleet_args(gen_p)
    gen_p.add_argument("--out", default=None, metavar="TRACE.json",
                       help="write the trace document here (default stdout)")
    gen_p.add_argument("--json", action="store_true")

    rep_p = sub.add_parser("replay",
                           help="replay a trace into per-day SLO series")
    add_fleet_args(rep_p)
    rep_p.add_argument("--trace", default=None, metavar="TRACE.json",
                       help="replay this generated trace (verified against "
                            "its embedded spec); fleet flags are ignored")
    rep_p.add_argument("--policy", default="incremental",
                       help="fleet arbitration policy "
                            "(incremental | greedy-worst)")
    rep_p.add_argument("--repair", default="corropt",
                       help="repair policy (corropt | exponential | severity)")
    rep_p.add_argument("--repair-param", action="append", metavar="K=V",
                       help="one repair-policy parameter (repeatable)")
    rep_p.add_argument("--backend", default="hybrid",
                       choices=["packet", "fastpath", "hybrid"],
                       help="affected-flow evaluation tier")
    rep_p.add_argument("--chunks", type=int, default=1,
                       help="time chunks executed through the sweep runner "
                            "(bit-identical to --chunks 1)")
    rep_p.add_argument("--workers", type=int, default=1)
    rep_p.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="JSONL chunk checkpoint; completed chunks are "
                            "skipped on rerun")
    rep_p.add_argument("--resim-fraction", type=float, default=0.05)
    rep_p.add_argument("--goodput-target", type=float, default=0.97,
                       help="per-day fleet goodput SLO target")
    rep_p.add_argument("--affected-target", type=float, default=1e-3,
                       help="per-day affected-flow-fraction SLO target")
    rep_p.add_argument("--out", default=None, metavar="ROLLUP.json",
                       help="write the full rollup document here "
                            "(input to 'repro lifecycle report')")
    rep_p.add_argument("--fail-under", type=float, default=None,
                       metavar="FRACTION",
                       help="exit 1 if goodput SLO attainment < FRACTION")
    rep_p.add_argument("--json", action="store_true",
                       help="print the canonical rollup JSON "
                            "(byte-identical across chunkings/workers)")

    report_p = sub.add_parser("report", help="render a saved replay rollup")
    report_p.add_argument("rollup", metavar="ROLLUP.json",
                          help="rollup document from 'replay --out'")
    report_p.add_argument("--days-table", action="store_true",
                          help="include the full per-day series table")
    report_p.add_argument("--fail-under", type=float, default=None,
                          metavar="FRACTION",
                          help="exit 1 if goodput SLO attainment < FRACTION")
    report_p.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    global _JSON_MODE
    _JSON_MODE = args.json

    from .lifecycle import LifecycleRollup, TraceSpec, generate_trace

    def fleet_from_args() -> TraceSpec:
        return TraceSpec(fleet=_fleet_spec(args), duration_days=args.days,
                         seed=args.seed)

    def day_rows(rollup) -> List[dict]:
        days = rollup.days
        return [
            {
                "day": days["day"][i],
                "goodput": round(days["goodput_fraction"][i], 6),
                "affected": round(days["affected_flow_fraction"][i], 8),
                "onsets": days["episode_onsets"][i],
                "churn": days["lg_churn"][i],
                "queue_max": days["repair_queue_depth_max"][i],
                "floor_viol": days["capacity_floor_violations"][i],
            }
            for i in range(len(days["day"]))
        ]

    def slo_verdict(rollup, fail_under) -> int:
        attainment = rollup.slos.get("goodput_slo_attainment", 0.0)
        if fail_under is not None and attainment < fail_under:
            if not _JSON_MODE:
                _print(f"FAIL: goodput SLO attainment {attainment:.4f} "
                       f"< --fail-under {fail_under:g}")
            return 1
        return 0

    if args.mode == "generate":
        trace = generate_trace(fleet_from_args())
        document = trace.to_json()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(document + "\n")
            if not _JSON_MODE:
                _print(f"trace written to {args.out} "
                       f"({len(trace.events)} events, "
                       f"{trace.spec.fleet.n_links} links, "
                       f"{trace.spec.duration_days:g} days)")
        else:
            _print(document)
        return 0

    if args.mode == "replay":
        from .lifecycle import ReplaySpec, SloConfig, run_replay
        from .lifecycle.traces import LifecycleTrace
        from .obs import Observability

        if args.trace:
            if not os.path.exists(args.trace):
                _usage_error(f"{args.trace}: no such file")
            with open(args.trace) as handle:
                try:
                    trace_spec = LifecycleTrace.from_json(handle.read()).spec
                except ValueError as exc:
                    _usage_error(f"{args.trace}: {exc}")
        else:
            trace_spec = fleet_from_args()
        repair_params = {}
        for text in args.repair_param or []:
            if "=" not in text:
                _usage_error(
                    f"--repair-param must look like key=value (got {text!r})")
            key, _, value = text.partition("=")
            repair_params[key.strip()] = _coerce_axis_value(value)
        try:
            replay = ReplaySpec(
                trace=trace_spec,
                policy=args.policy,
                repair=args.repair,
                repair_params=repair_params,
                backend=args.backend,
                n_chunks=args.chunks,
                resim_fraction=args.resim_fraction,
                slo=SloConfig(goodput_target=args.goodput_target,
                              affected_target=args.affected_target),
            )
        except (TypeError, ValueError) as exc:
            _usage_error(str(exc))

        def progress(result) -> None:
            if not _JSON_MODE:
                _print(f"[{result.cell_id}] days "
                       f"[{result.metrics['day_lo']}, "
                       f"{result.metrics['day_hi']}) in {result.wall_s:.2f}s")

        obs = Observability()
        rollup = run_replay(replay, workers=args.workers,
                            checkpoint=args.checkpoint, obs=obs,
                            progress=progress)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rollup.to_json() + "\n")
            if not _JSON_MODE:
                _print(f"rollup written to {args.out}")
        if _JSON_MODE:
            # The canonical form: byte-identical across chunkings/workers.
            _print(rollup.canonical_json())
        else:
            _print(f"lifecycle: {trace_spec.fleet.n_links} links, "
                   f"{trace_spec.duration_days:g} days, "
                   f"policy={replay.policy}, repair={replay.repair}, "
                   f"backend={replay.backend}, {replay.n_chunks} chunk(s)")
            _emit([rollup.summary()])
        return slo_verdict(rollup, args.fail_under)

    # report
    if not os.path.exists(args.rollup):
        _usage_error(f"{args.rollup}: no such file")
    with open(args.rollup) as handle:
        try:
            rollup = LifecycleRollup.from_json(handle.read())
        except ValueError as exc:
            _usage_error(f"{args.rollup}: {exc}")
    if _JSON_MODE:
        _print(json.dumps(
            {"slos": rollup.slos, "counts": rollup.counts,
             **({"days": rollup.days} if args.days_table else {})},
            default=_json_default))
    else:
        trace = rollup.spec.get("trace", {})
        _print(f"lifecycle rollup: {trace.get('duration_days', '?')} days, "
               f"policy={rollup.spec.get('policy', '?')}, "
               f"repair={rollup.spec.get('repair', '?')}, "
               f"backend={rollup.spec.get('backend', '?')}")
        _emit([rollup.summary()])
        if args.days_table:
            _print()
            _emit(day_rows(rollup))
    return slo_verdict(rollup, args.fail_under)


def cmd_serve(argv: List[str]) -> int:
    """``repro serve`` — the always-on control-plane service.

    Binds the HTTP front end (``/metrics``, ``/state``, ``/decisions``,
    ``POST /whatif``), starts the configured telemetry source feeding
    the streaming arbiter, and runs until SIGTERM/SIGINT, then drains
    gracefully (in-flight queries finish, queued ones get 503) and
    exits 0.  ``--probe PATH`` instead sends one GET to an already
    running instance and prints the body (exit 1 on a non-200).
    """
    import asyncio

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-running control plane: streaming telemetry in, "
                    "controller decisions and cached what-if answers out.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8351,
                        help="HTTP port (0 = ephemeral; see --port-file)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound HTTP port here once listening "
                             "(scripts/CI pair this with --port 0)")
    parser.add_argument("--probe", default=None, metavar="/PATH",
                        help="client mode: GET this path on --host:--port, "
                             "print the body, exit")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="pending what-if queries before 429")
    parser.add_argument("--max-inflight", type=int, default=8,
                        help="queries dispatched to workers concurrently")
    parser.add_argument("--query-timeout", type=float, default=60.0,
                        metavar="S", help="per-query server-side deadline")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        metavar="S",
                        help="SIGTERM: in-flight queries get this long")
    parser.add_argument("--executor", default="process",
                        choices=["process", "thread", "inline"])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--backend", default="fastpath",
                        choices=["packet", "fastpath", "hybrid"],
                        help="default what-if execution backend")
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--loss-sigfigs", type=int, default=3,
                        help="cache-key loss-rate quantization (0 = off)")
    parser.add_argument("--telemetry", default="synthetic",
                        choices=["synthetic", "file", "tcp", "none"])
    parser.add_argument("--telemetry-file", default=None, metavar="PATH",
                        help="JSONL counter records (--telemetry file)")
    parser.add_argument("--follow", action="store_true",
                        help="tail --telemetry-file for appends")
    parser.add_argument("--ingest-port", type=int, default=0,
                        help="TCP ingest listener (--telemetry tcp)")
    parser.add_argument("--synthetic-days", type=float, default=30.0,
                        help="simulated days the synthetic trace covers")
    parser.add_argument("--synthetic-records", type=int, default=0,
                        help="stop the synthetic feed after N records "
                             "(0 = whole trace)")
    parser.add_argument("--interval", type=float, default=0.0, metavar="S",
                        help="real-time pacing between synthetic records")
    parser.add_argument("--evidence", default="port_counters", metavar="KIND",
                        help="corruption signal: RX counter snapshots "
                             "through LossWindows, or per-flow retx "
                             "reports through 007 voting")
    parser.add_argument("--blame-window", type=float, default=60.0,
                        metavar="S", help="voting: sliding evidence window")
    parser.add_argument("--coverage", type=float, default=1.0,
                        help="voting: fraction of synthetic flow reports "
                             "surviving telemetry loss")
    parser.add_argument("--flows-per-s", type=float, default=0.0,
                        help="voting: synthetic flow rate (0 = fleet-sized)")
    parser.add_argument("--window-frames", type=int, default=10_000_000,
                        help="loss-estimation window (frames)")
    parser.add_argument("--onset-threshold", type=float, default=1e-6)
    parser.add_argument("--clear-hysteresis", type=float, default=0.1)
    parser.add_argument("--policy", default="incremental",
                        help="fleet arbitration policy "
                             "(incremental | greedy-worst)")
    parser.add_argument("--activation-budget", type=int, default=64)
    parser.add_argument("--fleet-pods", type=int, default=4)
    parser.add_argument("--fleet-tors", type=int, default=8)
    parser.add_argument("--fleet-fabrics", type=int, default=4)
    parser.add_argument("--fleet-spines", type=int, default=8)
    parser.add_argument("--mttf-hours", type=float, default=1_500.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--snapshot-out", default=None, metavar="PATH",
                        help="write a final state snapshot at drain")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    global _JSON_MODE
    _JSON_MODE = args.json

    if args.probe:
        from .service.http import request as http_request

        async def probe() -> int:
            status, _, body = await http_request(
                args.host, args.port, "GET", args.probe)
            sys.stdout.write(body.decode(errors="replace"))
            return 0 if status == 200 else 1

        return asyncio.run(probe())

    from .fleet.controller import ControllerConfig
    from .service import ControlPlaneService, ServiceConfig

    try:
        config = ServiceConfig(
            host=args.host, port=args.port,
            queue_limit=args.queue_limit, max_inflight=args.max_inflight,
            query_timeout_s=args.query_timeout,
            drain_timeout_s=args.drain_timeout,
            executor=args.executor, workers=args.workers,
            backend=args.backend, cache_size=args.cache_size,
            loss_sigfigs=args.loss_sigfigs,
            telemetry=args.telemetry, telemetry_file=args.telemetry_file,
            follow=args.follow, ingest_port=args.ingest_port,
            synthetic_days=args.synthetic_days,
            synthetic_records=args.synthetic_records,
            interval_s=args.interval,
            evidence=args.evidence,
            blame_window_s=args.blame_window,
            coverage=args.coverage,
            flows_per_s=args.flows_per_s,
            window_frames=args.window_frames,
            onset_threshold=args.onset_threshold,
            clear_hysteresis=args.clear_hysteresis,
            policy=args.policy, seed=args.seed,
            fleet=_fleet_spec(args),
            controller=ControllerConfig(
                activation_budget=args.activation_budget),
            snapshot_path=args.snapshot_out,
        )
    except (TypeError, ValueError) as exc:
        _usage_error(str(exc))

    async def serve_forever() -> int:
        service = ControlPlaneService(config)
        await service.start()
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{service.port}\n")
        if not _JSON_MODE:
            _print(f"serving on http://{args.host}:{service.port} "
                   f"(telemetry={config.telemetry}, "
                   f"evidence={config.evidence}, "
                   f"backend={config.backend}, "
                   f"{config.fleet.n_links} links); SIGTERM drains")
            if service.ingest_port is not None:
                _print(f"TCP ingest on {args.host}:{service.ingest_port}")
        loop = asyncio.get_running_loop()
        import signal as _signal

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            loop.add_signal_handler(signum, service.request_shutdown)
        await service.wait_shutdown()
        await service.begin_drain()
        if not _JSON_MODE:
            _print("drained; exiting 0")
        return 0

    return asyncio.run(serve_forever())


def cmd_blame(argv: List[str]) -> int:
    """``repro blame {report,eval,optimize}`` — corruption localization.

    ``report`` harvests one window of flow evidence against a lifecycle
    trace and prints the ranked 007 vote; ``eval`` scores voting against
    ground truth (precision / recall / top-1) across telemetry-coverage
    levels, exiting 1 when ``--fail-under`` is given and single-bad-link
    top-1 accuracy lands below it; ``optimize`` replays a trace window
    through every registered activation policy x budget and ranks them
    by link-seconds of damage.
    """
    parser = argparse.ArgumentParser(
        prog="repro blame",
        description="Fleet-scale corruption localization from flow-level "
                    "evidence: 007-style voting, no oracle counters.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_fleet_args(p) -> None:
        p.add_argument("--fleet-pods", type=int, default=2)
        p.add_argument("--fleet-tors", type=int, default=4)
        p.add_argument("--fleet-fabrics", type=int, default=2)
        p.add_argument("--fleet-spines", type=int, default=4)
        p.add_argument("--mttf-hours", type=float, default=300.0,
                       help="per-link mean time between corruption onsets")
        p.add_argument("--seed", type=int, default=1)

    def add_evidence_args(p) -> None:
        p.add_argument("--window", type=float, default=60.0, metavar="S",
                       help="evidence window the vote runs over")
        p.add_argument("--coverage", type=float, default=1.0,
                       help="fraction of flow reports surviving "
                            "telemetry loss")
        p.add_argument("--flows-per-s", type=float, default=0.0,
                       help="aggregate flow rate (0 = sized to fleet)")
        p.add_argument("--flow-packets", type=int, default=100)
        p.add_argument("--min-votes", type=float, default=2.0,
                       help="votes below this never enter the blamed set")

    rpt_p = sub.add_parser("report",
                           help="rank one evidence window's blamed links")
    add_fleet_args(rpt_p)
    add_evidence_args(rpt_p)
    rpt_p.add_argument("--days", type=float, default=10.0,
                       help="lifecycle trace length the window comes from")
    rpt_p.add_argument("--repair", default="corropt",
                       help="repair policy applied to the trace")
    rpt_p.add_argument("--at", type=float, default=None, metavar="T",
                       help="window start in trace seconds (default: the "
                            "first window with a corrupting link)")
    rpt_p.add_argument("--top", type=int, default=10,
                       help="ranked links to print")
    rpt_p.add_argument("--json", action="store_true")

    eval_p = sub.add_parser("eval",
                            help="score voting against ground truth")
    add_fleet_args(eval_p)
    add_evidence_args(eval_p)
    eval_p.add_argument("--mode", dest="eval_mode", default="trials",
                        choices=["trials", "trace"],
                        help="trials = planted single-bad-link windows; "
                             "trace = lifecycle ground truth")
    eval_p.add_argument("--trials", type=int, default=20,
                        help="windows evaluated per coverage level")
    eval_p.add_argument("--coverages", default=None, metavar="C1,C2",
                        help="sweep these coverage levels instead of "
                             "--coverage (e.g. 1.0,0.5,0.2)")
    eval_p.add_argument("--loss-lo", type=float, default=5e-4)
    eval_p.add_argument("--loss-hi", type=float, default=5e-3)
    eval_p.add_argument("--trace-days", type=float, default=10.0)
    eval_p.add_argument("--detectable-loss", type=float, default=1e-4,
                        help="trace mode: truth is links at/above this")
    eval_p.add_argument("--repair", default="corropt")
    eval_p.add_argument("--fail-under", type=float, default=None,
                        metavar="FRACTION",
                        help="exit 1 if single-bad-link top-1 accuracy "
                             "< FRACTION at any coverage level")
    eval_p.add_argument("--json", action="store_true")

    opt_p = sub.add_parser("optimize",
                           help="rank activation policies over a trace")
    add_fleet_args(opt_p)
    opt_p.add_argument("--days", type=float, default=10.0,
                       help="lifecycle trace replayed through candidates")
    opt_p.add_argument("--repair", default="corropt")
    opt_p.add_argument("--budgets", default="8,64", metavar="B1,B2",
                       help="activation budgets swept per policy")
    opt_p.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    global _JSON_MODE
    _JSON_MODE = args.json

    fleet = _fleet_spec(args)

    if args.mode == "report":
        from .blame import (
            LossOracle, default_fleet_evidence, harvest_evidence, tally_votes,
        )
        from .fleet.topology import FleetTopology
        from .lifecycle.repair import apply_repair, repair_policy
        from .lifecycle.traces import TraceSpec, generate_trace

        trace = generate_trace(TraceSpec(
            fleet=fleet, duration_days=args.days, seed=args.seed))
        repaired, _ = apply_repair(trace, repair_policy(args.repair))
        episodes = [item.episode for item in repaired]
        oracle = LossOracle(episodes)
        t_lo = args.at
        if t_lo is None:
            duration_s = args.days * 24 * 3600.0
            t_lo = 0.0
            while t_lo + args.window <= duration_s:
                if oracle.corrupting_at(t_lo + args.window / 2):
                    break
                t_lo += args.window
        overrides = {"coverage": args.coverage}
        if args.flows_per_s > 0:
            overrides["flows_per_s"] = args.flows_per_s
        evidence = default_fleet_evidence(fleet, seed=args.seed, **overrides)
        topology = FleetTopology(fleet, seed=args.seed)
        reports = harvest_evidence(
            evidence, topology, episodes, t_lo, t_lo + args.window)
        verdict = tally_votes(reports, flow_packets=args.flow_packets,
                              min_votes=args.min_votes)
        truth = set(oracle.corrupting_at(t_lo + args.window / 2))
        if not _JSON_MODE:
            _print(f"window [{t_lo:.0f}s, {t_lo + args.window:.0f}s): "
                   f"{verdict.n_reports} reports, {verdict.n_flagged} "
                   f"flagged; blamed {verdict.blamed}; truth {sorted(truth)}")
        rows = []
        for score in verdict.ranked[:args.top]:
            link = topology.link(score.link_id)
            rows.append({
                "link": score.link_id,
                "pod": link.pod,
                "kind": link.kind,
                "votes": round(score.votes, 2),
                "flagged": score.flagged,
                "crossings": score.crossings,
                "loss_estimate": f"{score.loss_estimate:.2e}",
                "confidence": round(score.confidence, 3),
                "blamed": score.link_id in verdict.blamed,
                "truth": score.link_id in truth,
            })
        _emit(rows)
        return 0

    if args.mode == "eval":
        from .blame import BlameEvalSpec, evaluate_blame

        if args.coverages:
            try:
                coverages = [float(c) for c in args.coverages.split(",")]
            except ValueError:
                _usage_error("--coverages must be comma-separated floats")
        else:
            coverages = [args.coverage]
        rows = []
        for coverage in coverages:
            spec_kwargs = dict(
                fleet=fleet, mode=args.eval_mode, n_trials=args.trials,
                window_s=args.window, coverage=coverage,
                flow_packets=args.flow_packets, min_votes=args.min_votes,
                loss_lo=args.loss_lo, loss_hi=args.loss_hi,
                trace_days=args.trace_days,
                detectable_loss=args.detectable_loss,
                repair=args.repair, seed=args.seed)
            if args.flows_per_s > 0:
                spec_kwargs["flows_per_s"] = args.flows_per_s
            try:
                spec = BlameEvalSpec(**spec_kwargs)
            except ValueError as exc:
                _usage_error(str(exc))
            metrics = evaluate_blame(spec)
            rows.append({
                "coverage": coverage,
                "windows": metrics["windows"],
                "top1": round(metrics["top1_accuracy"], 4),
                "single_top1": round(metrics["single_top1_accuracy"], 4),
                "precision": round(metrics["precision"], 4),
                "recall": round(metrics["recall"], 4),
                "mean_blamed": round(metrics["mean_blamed"], 2),
            })
        _emit(rows)
        if args.fail_under is not None:
            worst = min(row["single_top1"] for row in rows)
            if worst < args.fail_under:
                if not _JSON_MODE:
                    _print(f"FAIL: single-bad-link top-1 {worst} < "
                           f"{args.fail_under}")
                return 1
        return 0

    # mode == "optimize"
    from .fleet.policies import default_candidates, optimize_policies
    from .lifecycle.repair import apply_repair, repair_policy
    from .lifecycle.traces import TraceSpec, generate_trace

    try:
        budgets = [int(b) for b in args.budgets.split(",")]
    except ValueError:
        _usage_error("--budgets must be comma-separated integers")
    trace = generate_trace(TraceSpec(
        fleet=fleet, duration_days=args.days, seed=args.seed))
    repaired, _ = apply_repair(trace, repair_policy(args.repair))
    episodes = [item.episode for item in repaired]
    results = optimize_policies(
        fleet, episodes, seed=args.seed,
        candidates=default_candidates(budgets))
    rows = [{
        "rank": rank,
        "candidate": row["label"],
        "cost_link_s": round(row["cost_link_seconds"], 1),
        "disables": row.get("disables", 0),
        "activations": row.get("activations", 0),
        "blocked": row.get("blocked", 0),
    } for rank, row in enumerate(results, start=1)]
    _emit(rows)
    if not _JSON_MODE and rows:
        _print(f"best: {rows[0]['candidate']} over {len(episodes)} episodes")
    return 0


COMMANDS = {
    "fig01": (cmd_fig01, "PLR vs optical attenuation per transceiver"),
    "fig02": (cmd_fig02, "flow-size CDFs of six datacenter workloads"),
    "tab01": (cmd_tab01, "corruption loss-rate buckets (trace model)"),
    "fig08": (cmd_fig08, "effective loss rate & link speed (stress test)"),
    "fig09": (cmd_fig09, "DCTCP timeline on 25G with 1e-3 loss"),
    "fig10": (cmd_fig10, "FCT of 143B single-packet flows"),
    "fig11": (cmd_fig11, "FCT of 24,387B flows (DCTCP/BBR/RDMA)"),
    "fig12": (cmd_fig12, "FCT of 2MB DCTCP flows"),
    "fig13": (cmd_fig13, "classification of affected flows under LG_NB"),
    "tab02": (cmd_tab02, "mechanism-contribution ablation"),
    "tab03": (cmd_tab03, "CUBIC goodput: LinkGuardian vs Wharf"),
    "tab04": (cmd_tab04, "recirculation overhead"),
    "fig14": (cmd_fig14, "TX/RX buffer usage"),
    "fig15": (cmd_fig15, "deployment-study snapshot (CorrOpt vs +LG)"),
    "fig16": (cmd_fig16, "deployment-study CDFs (gain & capacity cost)"),
    "fig19": (cmd_fig19, "retransmission-delay distribution"),
    "fig20": (cmd_fig20, "consecutive packets lost"),
    "fig21": (cmd_fig21, "CUBIC and BBR timelines"),
    "incremental": (cmd_incremental, "partial-deployment sweep (§5)"),
    "export": (cmd_export, "convert benchmarks/results JSON to .dat/.csv"),
    "metrics": (cmd_metrics, "instrumented run + metrics-registry summary"),
    "sweep": (cmd_sweep, "declarative cell sweep (parallel, resumable)"),
    "fleet": (cmd_fleet, "fleet campaign: one-shot SLOs + fleet-wide corruptd"),
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # The checker has its own subcommand grammar (run/fuzz/replay);
        # dispatch before the experiment parser sees the arguments.
        return cmd_check(argv[1:])
    if argv and argv[0] == "fastpath":
        # Same pattern: scan/validate have their own grammar.
        return cmd_fastpath(argv[1:])
    if argv and argv[0] == "obs":
        # And spans/timeline/top for obs artifact inspection.
        return cmd_obs(argv[1:])
    if argv and argv[0] == "lifecycle":
        # And generate/replay/report for month-scale SLO replay.
        return cmd_lifecycle(argv[1:])
    if argv and argv[0] == "serve":
        # The long-running control-plane service (own flag grammar).
        return cmd_serve(argv[1:])
    if argv and argv[0] == "blame":
        # And report/eval/optimize for voting-based localization.
        return cmd_blame(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run LinkGuardian reproduction experiments.",
    )
    parser.add_argument("experiment", choices=list(COMMANDS) + ["list"],
                        help="experiment id (paper figure/table) or 'list'")
    parser.add_argument("--trials", type=int, default=1_000,
                        help="FCT trials per scenario")
    parser.add_argument("--loss-rate", type=float, default=5e-3,
                        help="corruption loss rate for FCT experiments")
    parser.add_argument("--duration-ms", type=float, default=4.0,
                        help="stress/timeline phase duration (simulated ms)")
    parser.add_argument("--days", type=float, default=120.0,
                        help="deployment-study duration (simulated days)")
    parser.add_argument("--mttf-hours", type=float, default=1_500.0,
                        help="link mean-time-to-failure for deployment study")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--results-dir", default="benchmarks/results",
                        help="where the benchmark suite saved its JSON")
    parser.add_argument("--out-dir", default="figures",
                        help="where to write .dat/.csv files (export)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output: JSON rows, not tables")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome trace-event file (Perfetto); "
                             "a .jsonl extension selects raw JSONL events")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metrics registry (JSON, or "
                             "Prometheus text with a .prom extension)")
    parser.add_argument("--spans", action="store_true",
                        help="record causal recovery-episode spans "
                             "(exported with --trace-out, inspected with "
                             "'repro obs spans')")
    parser.add_argument("--timeline-out", default=None, metavar="PATH",
                        help="write the flight-recorder timeline JSON "
                             "(inspected with 'repro obs timeline')")
    parser.add_argument("--timeline-interval-us", type=float, default=100.0,
                        help="flight-recorder sampling cadence in "
                             "simulated microseconds")
    parser.add_argument("--kind", default="fct",
                        help="sweep: experiment kind of the base spec")
    parser.add_argument("--backend", default="packet",
                        choices=["packet", "fastpath", "hybrid"],
                        help="sweep: execution backend for every cell "
                             "(fastpath = vectorized analytic models; "
                             "hybrid = analytic between losses, packet "
                             "windows around them)")
    parser.add_argument("--axis", action="append", metavar="FIELD=V1,V2",
                        help="sweep: one axis of the grid (repeatable); "
                             "FIELD is a spec field or params.X / lg.X")
    parser.add_argument("--workers", type=int, default=1,
                        help="sweep: worker processes (results are "
                             "bit-identical to --workers 1)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="sweep: JSONL checkpoint; completed cells are "
                             "appended as they finish and skipped on rerun")
    parser.add_argument("--sweep-seed", type=int, default=None,
                        help="sweep: derive a deterministic per-cell seed "
                             "from this root (default: every cell keeps "
                             "--seed, as in the paper's figures)")
    parser.add_argument("--policy", default="incremental",
                        help="fleet: controller policy "
                             "(incremental | greedy-worst)")
    parser.add_argument("--shards", type=int, default=1,
                        help="fleet: time shards (day ranges, at most --days) "
                             "executed through the sweep runner "
                             "(bit-identical to --shards 1)")
    parser.add_argument("--fleet-pods", type=int, default=4,
                        help="fleet: pods in the generated Clos fabric")
    parser.add_argument("--fleet-tors", type=int, default=8,
                        help="fleet: ToR switches per pod")
    parser.add_argument("--fleet-fabrics", type=int, default=4,
                        help="fleet: fabric switches per pod")
    parser.add_argument("--fleet-spines", type=int, default=8,
                        help="fleet: spine uplinks per fabric switch")
    parser.add_argument("--activation-budget", type=int, default=64,
                        help="fleet: max concurrent LinkGuardian "
                             "activations fleet-wide")
    parser.add_argument("--resim-fraction", type=float, default=0.05,
                        help="fleet: with --backend fastpath, the worst "
                             "fraction of episodes re-simulated with the "
                             "packet sampler")
    parser.add_argument("--resume-kb", type=float, default=2.0,
                        help="fig09 backpressure resume threshold in KB, "
                             "scaled down like the phase durations so "
                             "pause/resume dynamics show at sim scale; "
                             "<= 0 restores the paper's 25G default")
    args = parser.parse_args(argv)

    global _JSON_MODE
    _JSON_MODE = args.json

    if args.timeline_interval_us <= 0:
        _usage_error("--timeline-interval-us must be > 0")
    args.obs = None
    if args.trace_out or args.metrics_out or args.spans or args.timeline_out:
        from .obs import Observability

        args.obs = Observability(
            spans=args.spans,
            timeline=({"interval_ns": int(args.timeline_interval_us * 1000)}
                      if args.timeline_out else None),
        )

    if args.experiment == "list":
        rows = [{"experiment": name, "description": desc}
                for name, (_, desc) in COMMANDS.items()]
        rows.append({"experiment": "check",
                     "description": "conformance checker: invariants, fault "
                                    "scenarios, fuzzing ('repro check -h')"})
        rows.append({"experiment": "fastpath",
                     "description": "analytic backend: wide scans + "
                                    "cross-validation ('repro fastpath -h')"})
        rows.append({"experiment": "obs",
                     "description": "inspect span trees, timelines, and "
                                    "cell costs ('repro obs -h')"})
        rows.append({"experiment": "lifecycle",
                     "description": "month-scale fleet traces, repair loop, "
                                    "SLO replay ('repro lifecycle -h')"})
        rows.append({"experiment": "serve",
                     "description": "always-on control plane: streaming "
                                    "telemetry, /metrics, cached what-if "
                                    "API ('repro serve -h')"})
        rows.append({"experiment": "blame",
                     "description": "corruption localization from flow "
                                    "evidence: 007 voting, accuracy eval, "
                                    "policy optimizer ('repro blame -h')"})
        _emit(rows)
        return 0
    command, _ = COMMANDS[args.experiment]
    command(args)

    if args.obs is not None:
        from .obs import (
            write_chrome_trace, write_jsonl,
            write_metrics_json, write_metrics_prometheus, write_timeline_json,
        )

        if args.trace_out:
            if args.trace_out.endswith(".jsonl"):
                write_jsonl(args.trace_out, args.obs.tracer,
                            spans=args.obs.spans)
            else:
                write_chrome_trace(args.trace_out, args.obs.tracer,
                                   args.obs.registry, spans=args.obs.spans)
            if not _JSON_MODE:
                _print(f"trace written to {args.trace_out}")
        if args.timeline_out and args.obs.timeline is not None:
            args.obs.timeline.stop()
            write_timeline_json(args.timeline_out, args.obs.timeline)
            if not _JSON_MODE:
                _print(f"timeline written to {args.timeline_out}")
        if args.metrics_out:
            if args.metrics_out.endswith(".prom"):
                write_metrics_prometheus(args.metrics_out, args.obs.registry)
            else:
                write_metrics_json(args.metrics_out, args.obs.registry)
            if not _JSON_MODE:
                _print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
