"""Command-line front end: one verb table over the library.

Usage::

    python -m repro list                       # every verb, one line each
    python -m repro fig10 --trials 2000        # a paper figure or table
    python -m repro lifecycle replay --days 30 # a grouped verb
    python -m repro <verb> [<sub-verb>] -h     # the flags that verb reads

Every table and figure of the paper (``fig01`` .. ``fig21``, ``tab01`` ..
``tab04``), every §5 study (``sec5-*``, ``retx-copies``, ``incremental``)
and every tier built on top (``sweep``, ``fleet``, ``lifecycle``,
``blame``, ``serve``, plus the ``check`` / ``fastpath`` / ``obs``
tooling) is one row of :data:`VERBS`: a name, a help line, the
flags it reads and a handler returning an exit code.  Grouped verbs are
rows that nest rows.  :func:`build_parser` turns the table into a single
``argparse`` tree and ``repro list`` prints it.  Flags shared between
verbs are declared once and a row carries only its own defaults and help
(``DAYS.but(default=30.0)``).  A verb rejects flags it does not read.

Exit codes: 0 success; 1 the run finished and the answer is "no" (a
violated invariant, a missed ``--fail-under`` gate, an artifact whose
content is invalid, an unreachable server); 2 the command line is wrong
(unknown flag or value, missing input file).

Observability: ``--json`` switches every verb to machine-readable output
(a JSON array of row objects, one parseable document per table).  On the
verbs that instrument a simulation, ``--trace-out trace.json`` captures a
Chrome trace-event file that opens in Perfetto (a ``.jsonl`` extension
selects the line-delimited raw event format instead); ``--metrics-out``
dumps the metrics registry (``.prom`` selects the Prometheus text
format); ``--spans`` turns on causal recovery-episode spans (exported
with the trace); ``--timeline-out`` + ``--timeline-interval-us`` record a
metrics timeline on simulated-time cadence.  ``python -m repro metrics``
runs a fig09-style timeline and prints the loss->recovery latency
histogram, and ``python -m repro obs spans|timeline|top <artifact>``
renders episode trees, timeline summaries and per-cell wall-clock
rankings from exported artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

__all__ = ["main", "build_parser", "VERBS", "Verb", "Flag", "parse_axis"]

#: set by main() from --json: _emit prints JSON rows instead of tables.
_JSON_MODE = False


def _print(text: str = "") -> None:
    sys.stdout.write(text + "\n")


def _json_default(value):
    import numpy as np

    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _say(text: str = "") -> None:
    """A status line for a human reader; dropped under ``--json``, whose
    stdout is nothing but JSON documents."""
    if not _JSON_MODE:
        _print(text)


def _print_json(document) -> None:
    _print(json.dumps(document, default=_json_default))


def _emit(rows, columns=None) -> None:
    """Print dict-rows as an aligned table, or JSON under ``--json``."""
    rows = list(rows)
    if _JSON_MODE:
        if columns is not None:
            rows = [{col: row.get(col, "") for col in columns} for row in rows]
        _print_json(rows)
    else:
        from .analysis.report import render_table

        _print(render_table(rows, columns))


def _usage_error(message: str) -> None:
    """Invalid command-line arguments: complain on stderr, exit 2.

    Mirrors argparse's own convention so every verb fails argument
    validation the same way.
    """
    sys.stderr.write(f"repro: error: {message}\n")
    raise SystemExit(2)


class _InvalidInput(Exception):
    """An input file's content is not what its verb reads: main() turns
    this into one line on stderr and exit 1."""


def _load(path: str, parse: Callable[[str], Any] = json.loads,
          usage: bool = False):
    """Read and parse an input file named on the command line.

    A file that cannot be opened is a usage error (exit 2).  Content that
    ``parse`` rejects — not JSON, or JSON of the wrong shape — exits 1:
    the command line was fine, the artifact is not.  The lifecycle verbs
    pass ``usage=True``, their documented contract for a file that is
    not a trace or rollup (exit 2).
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        _usage_error(f"{path}: {exc.strerror}")
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError) as exc:
        message = f"{path}: {type(exc).__name__}: {exc}"
        if usage:
            _usage_error(message)
        raise _InvalidInput(message) from None


def _require_valid(problems: List[str]) -> None:
    """Reject an artifact its schema validator found ``problems`` in."""
    if problems:
        raise ValueError("; ".join(problems))


def _progress(result) -> None:
    """One line per finished runner cell: a sweep cell, or the day range
    of a replay chunk."""
    metrics = result.metrics
    what = (f"days [{metrics['day_lo']}, {metrics['day_hi']})"
            if "day_lo" in metrics else "done")
    _say(f"[{result.cell_id}] {what} in {result.wall_s:.2f}s")


# -- paper figures and tables --------------------------------------------------

def _figure(args) -> None:
    """Every ``figNN``/``tabNN`` verb and §5 study: the verb names its
    row of ``experiments.figures.FIGURES``, its flags choose the row's
    cells, the shared ``obs`` instruments them and the row shapes what is
    printed."""
    from .experiments.figures import FIGURES, run_figure

    row = FIGURES[args.verb]
    _emit(row.shape(run_figure(row, vars(args), obs=args.obs)))


def _export(args) -> None:
    from .analysis.export import export_results

    written = export_results(args.results_dir, args.out_dir)
    for path in written:
        _print(path)
    _print(f"{len(written)} files written to {args.out_dir}")


def _list(args) -> None:
    _emit({"experiment": verb.name, "description": verb.help}
          for verb in VERBS if verb.run is not _list)


# -- sweeps, fleet campaigns, the instrumented run -----------------------------

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


def parse_axis(text: str):
    """Parse one ``--axis field=v1,v2,...`` argument."""
    if "=" not in text:
        raise ValueError(f"--axis must look like field=v1,v2 (got {text!r})")
    name, _, values = text.partition("=")
    parsed = [_coerce_axis_value(v) for v in values.split(",") if v != ""]
    if not parsed:
        raise ValueError(f"--axis {name}: no values given")
    return name.strip(), parsed


def _sweep_spec(args, name: str, backend: str):
    """The ``--kind/--axis/--trials/--loss-rate/--seed/--sweep-seed``
    flags as a SweepSpec on ``backend``; a cell the table has no row for
    (or an axis no spec has) is a usage error."""
    from .runner import ExperimentSpec, SweepSpec, lookup

    base = ExperimentSpec(
        kind=args.kind, n_trials=args.trials, loss_rate=args.loss_rate,
        seed=args.seed, backend=backend,
    )
    try:
        axes = dict(parse_axis(text) for text in (args.axis or []))
        sweep = SweepSpec(name=name, base=base, axes=axes,
                          seed=args.sweep_seed)
        for cell in sweep.cells():
            lookup(cell.kind, cell.backend)
    except ValueError as exc:
        _usage_error(str(exc))
    return sweep


def _sweep(args) -> None:
    """Declarative sweep over experiment cells (the runner layer)."""
    from .analysis.report import cell_rows
    from .runner import SweepRunner

    sweep = _sweep_spec(args, args.kind, args.backend)
    runner = SweepRunner(sweep, workers=args.workers, checkpoint=args.checkpoint)
    results = runner.run(progress=_progress)
    if runner.resumed:
        _say(f"resumed {runner.resumed}/{len(sweep.cells())} cells "
             f"from {args.checkpoint}")
    _emit(cell_rows(results))


def _fleet_spec(args):
    """The ``--fleet-*`` / ``--mttf-hours`` flags as a FleetSpec."""
    from .fleet import FleetSpec

    return FleetSpec(
        n_pods=args.fleet_pods, tors_per_pod=args.fleet_tors,
        fabrics_per_pod=args.fleet_fabrics, spine_uplinks=args.fleet_spines,
        mttf_hours=args.mttf_hours)


def _fleet(args) -> None:
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
    if args.workers < 1:
        _usage_error("--workers must be >= 1")

    # The campaign publishes its summary through the metrics registry;
    # make sure one exists even without --trace-out/--metrics-out.
    obs = args.obs if args.obs is not None else Observability()
    args.obs = obs
    result = run_fleet_campaign(
        campaign, workers=args.workers, checkpoint=args.checkpoint,
        obs=obs, progress=_progress,
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


def _metrics(args) -> None:
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

    _say("loss -> recovery latency (retx delay):")
    hist_name = next(
        (n for n in snapshot if n.endswith(".retx_delay_ns")), None)
    hist = obs.registry.get(hist_name) if hist_name else None
    if hist is not None and hist.count:
        _emit(histogram_rows(hist.snapshot(), unit_divisor=1e3, unit="us"))
        _say(f"samples={hist.count}  mean={hist.mean / 1e3:.2f}us  "
             f"p50<={hist.percentile(50) / 1e3:g}us  "
             f"p99<={hist.percentile(99) / 1e3:g}us")
    else:
        _emit([])

    _say()
    _say("registry summary:")
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


# -- repro fastpath: the analytic backend --------------------------------------

def _fastpath_scan(args) -> None:
    """Sweep a grid entirely on the vectorized models (the cheap wide
    pass of a two-tier campaign)."""
    from .analysis.report import cell_rows
    from .runner import SweepRunner

    sweep = _sweep_spec(args, f"fastpath-{args.kind}", "fastpath")
    _emit(cell_rows(SweepRunner(sweep).run()))


def _fastpath_validate(args) -> int:
    """Run a matched grid on both backends and compare metric by metric;
    a metric past its documented tolerance exits 1."""
    from .fastpath import run_validation
    from .fastpath.validate import write_report

    def progress(spec, fast, packet) -> None:
        _say(f"[{spec.cell_id()}] packet {packet.wall_s:.2f}s")

    report = run_validation(n_cells=args.cells, seed=args.seed,
                            workers=args.workers, progress=progress,
                            backend=args.backend)
    if args.out:
        write_report(report, args.out)
    if _JSON_MODE:
        _print_json(report.to_dict())
    else:
        _emit(report.rows())
        _print(f"{'OK' if report.ok else 'FAIL'}: {report.n_cells} cells, "
               f"packet {report.packet_wall_s:.1f}s vs {report.backend} "
               f"{report.fastpath_wall_s:.4f}s")
        for failure in report.failures():
            _print(f"  {failure.metric}: max_rel_err {failure.max_err:.3f} "
                   f"> tol {failure.tolerance}")
    return 0 if report.ok else 1


# -- repro check: the conformance checker --------------------------------------

def _check_fuzz(args) -> int:
    from .checker import CheckConfig, run_fuzz
    from .checker.fuzz import canonical_json

    result = run_fuzz(
        seed=args.seed, trials=args.trials,
        base=CheckConfig(defect=args.defect), shrink=not args.no_shrink,
    )
    if args.shrink_out and result.artifact is not None:
        with open(args.shrink_out, "w") as handle:
            handle.write(canonical_json(result.artifact) + "\n")
        _say(f"counterexample written to {args.shrink_out}")
    if _JSON_MODE:
        _print_json(result.to_dict())
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


def _check_run(args) -> int:
    from .checker import CheckConfig, FaultScenario, run_scenario

    def parse(text: str):
        data = json.loads(text)
        if "scenario" not in data:
            _usage_error(f"{args.scenario}: no 'scenario' key")
        return (FaultScenario.from_dict(data["scenario"]),
                CheckConfig.from_dict(data.get("config", {})))

    scenario, config = _load(args.scenario, parse)
    outcome = run_scenario(scenario, config)
    rows = [v.to_dict() for v in outcome.violations]
    if _JSON_MODE:
        _print_json({"ok": outcome.ok, "completed": outcome.completed,
                     "counts": outcome.counts, "violations": rows})
    else:
        _print(f"scenario {scenario.name}: "
               f"{'OK' if outcome.ok else 'VIOLATIONS'} "
               f"(completed={outcome.completed})")
        for row in rows:
            _print(f"  {row['invariant']} @ {row['time_ns']}ns {row['detail']}")
    return 0 if outcome.ok else 1


def _check_replay(args) -> int:
    from .checker.fuzz import artifact_inputs, replay_artifact

    def parse(text: str):
        artifact = json.loads(text)
        artifact_inputs(artifact)  # refuse a malformed file before running
        return artifact

    replay = replay_artifact(_load(args.artifact, parse))
    if _JSON_MODE:
        _print_json(replay.to_dict())
    else:
        _print(f"replay: byte_identical={replay.byte_identical} "
               f"violations={sum(replay.outcome.counts.values())}")
        if not replay.byte_identical:
            _print("  stored and replayed artifacts differ")
    return 0 if replay.byte_identical else 1


# -- repro obs: inspect obs v2 artifacts ---------------------------------------

def _obs_spans(args) -> None:
    """Render recovery-episode trees from a trace file written with
    ``--trace-out`` under ``--spans``."""
    from .obs.export import read_span_records
    from .obs.schema import validate_chrome_trace, validate_events_jsonl

    jsonl = args.trace.endswith(".jsonl")

    def parse(text: str) -> List[dict]:
        _require_valid(validate_events_jsonl(text) if jsonl
                       else validate_chrome_trace(json.loads(text)))
        return read_span_records(text, jsonl=jsonl)

    spans = _load(args.trace, parse)
    if _JSON_MODE:
        _print_json(spans)
        return
    if not spans:
        _print("no spans in trace (re-run with --spans --trace-out)")
        return
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
            elif span["end_ns"] is None:
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


def _obs_timeline(args) -> None:
    """Summarize a flight-recorder file from ``--timeline-out``."""
    from .obs.schema import validate_timeline

    def parse(text: str) -> dict:
        data = json.loads(text)
        _require_valid(validate_timeline(data))
        return data

    data = _load(args.timeline, parse)
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
    span_ms = (ts_ns[-1] - ts_ns[0]) / 1e6 if len(ts_ns) > 1 else 0.0
    _say(f"timeline: {data.get('sampled', len(ts_ns))} sample(s) "
         f"({data.get('dropped', 0)} dropped), "
         f"cadence {data.get('interval_ns', 0) / 1e3:g}us, "
         f"span {span_ms:g}ms")
    _emit(rows, ["metric", "samples", "min", "max", "last"])


def _obs_top(args) -> None:
    """Rank the cells of a sweep checkpoint by wall-clock cost."""
    from .runner.harness import CellResult

    if args.limit <= 0:
        _usage_error("--limit must be > 0")
    results = _load(args.checkpoint, lambda text: [
        CellResult.from_json(line) for line in text.splitlines()
        if line.strip()])
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
    _say(f"top {min(args.limit, len(results))} of {len(results)} cell(s) "
         f"by wall clock:")
    _emit(rows)


# -- repro lifecycle: month-scale SLO replay -----------------------------------

def _trace_spec(args):
    """The fleet-shape / ``--days`` / ``--seed`` flags as a TraceSpec."""
    from .lifecycle import TraceSpec

    try:
        return TraceSpec(fleet=_fleet_spec(args), duration_days=args.days,
                         seed=args.seed)
    except ValueError as exc:
        _usage_error(str(exc))


def _slo_verdict(rollup, fail_under) -> int:
    attainment = rollup.slos.get("goodput_slo_attainment", 0.0)
    if fail_under is not None and attainment < fail_under:
        _say(f"FAIL: goodput SLO attainment {attainment:.4f} "
             f"< --fail-under {fail_under:g}")
        return 1
    return 0


def _lifecycle_generate(args) -> None:
    """Write a deterministic fleet failure trace."""
    from .lifecycle import generate_trace

    trace = generate_trace(_trace_spec(args))
    document = trace.to_json()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(document + "\n")
        _say(f"trace written to {args.out} "
             f"({len(trace.events)} events, "
             f"{trace.spec.fleet.n_links} links, "
             f"{trace.spec.duration_days:g} days)")
    else:
        _print(document)


def _lifecycle_replay(args) -> int:
    """Push a trace (or a spec built from flags) through repair + fleet
    arbitration into per-day SLO series, in time chunks."""
    from .lifecycle import LifecycleTrace, ReplaySpec, SloConfig, run_replay
    from .obs import Observability

    if args.trace:
        trace_spec = _load(
            args.trace, lambda text: LifecycleTrace.from_json(text).spec,
            usage=True)
    else:
        trace_spec = _trace_spec(args)
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
    if args.workers < 1:
        _usage_error("--workers must be >= 1")

    rollup = run_replay(replay, workers=args.workers,
                        checkpoint=args.checkpoint, obs=Observability(),
                        progress=_progress)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rollup.to_json() + "\n")
        _say(f"rollup written to {args.out}")
    if _JSON_MODE:
        # The canonical form: byte-identical across chunkings/workers.
        _print(rollup.canonical_json())
    else:
        _print(f"lifecycle: {trace_spec.fleet.n_links} links, "
               f"{trace_spec.duration_days:g} days, "
               f"policy={replay.policy}, repair={replay.repair}, "
               f"backend={replay.backend}, {replay.n_chunks} chunk(s)")
        _emit([rollup.summary()])
    return _slo_verdict(rollup, args.fail_under)


def _lifecycle_report(args) -> int:
    """Render a saved replay rollup."""
    from .lifecycle import LifecycleRollup

    rollup = _load(args.rollup, LifecycleRollup.from_json, usage=True)
    if _JSON_MODE:
        _print_json({"slos": rollup.slos, "counts": rollup.counts,
                     **({"days": rollup.days} if args.days_table else {})})
    else:
        trace = rollup.spec.get("trace", {})
        _print(f"lifecycle rollup: {trace.get('duration_days', '?')} days, "
               f"policy={rollup.spec.get('policy', '?')}, "
               f"repair={rollup.spec.get('repair', '?')}, "
               f"backend={rollup.spec.get('backend', '?')}")
        _emit([rollup.summary()])
        if args.days_table:
            days = rollup.days
            _print()
            _emit({
                "day": days["day"][i],
                "goodput": round(days["goodput_fraction"][i], 6),
                "affected": round(days["affected_flow_fraction"][i], 8),
                "onsets": days["episode_onsets"][i],
                "churn": days["lg_churn"][i],
                "queue_max": days["repair_queue_depth_max"][i],
                "floor_viol": days["capacity_floor_violations"][i],
            } for i in range(len(days["day"])))
    return _slo_verdict(rollup, args.fail_under)


# -- repro serve: the always-on control plane ----------------------------------

def _serve(args) -> int:
    """Bind the HTTP front end (``/metrics``, ``/state``, ``/decisions``,
    ``POST /whatif``), start the configured telemetry source feeding the
    evidence monitor, and run until SIGTERM/SIGINT, then drain
    gracefully (in-flight queries finish, queued ones get 503) and
    exit 0.  ``--probe PATH`` instead sends one GET to an already
    running instance and prints the body (exit 1 on a non-200 or an
    unreachable server).
    """
    import asyncio

    if args.probe:
        from .service.http import request as http_request

        async def probe() -> int:
            try:
                status, _, body = await http_request(
                    args.host, args.port, "GET", args.probe)
            except OSError as exc:
                sys.stderr.write(
                    f"repro: error: {args.host}:{args.port}: {exc}\n")
                return 1
            sys.stdout.write(body.decode(errors="replace"))
            return 0 if status == 200 else 1

        return asyncio.run(probe())

    from dataclasses import fields

    from .fleet.controller import ControllerConfig
    from .service import ControlPlaneService, ServiceConfig

    try:
        # Every serve flag's dest is the ServiceConfig field it sets.
        config = ServiceConfig(
            **{f.name: getattr(args, f.name) for f in fields(ServiceConfig)
               if hasattr(args, f.name)},
            fleet=_fleet_spec(args),
            controller=ControllerConfig(
                activation_budget=args.activation_budget),
        )
    except (TypeError, ValueError) as exc:
        _usage_error(str(exc))

    async def serve_forever() -> int:
        service = ControlPlaneService(config)
        await service.start()
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{service.port}\n")
        _say(f"serving on http://{args.host}:{service.port} "
             f"(telemetry={config.telemetry}, "
             f"evidence={config.evidence}, "
             f"backend={config.backend}, "
             f"{config.fleet.n_links} links); SIGTERM drains")
        if service.ingest_port is not None:
            _say(f"TCP ingest on {args.host}:{service.ingest_port}")
        loop = asyncio.get_running_loop()
        import signal as _signal

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            loop.add_signal_handler(signum, service.request_shutdown)
        await service.wait_shutdown()
        await service.begin_drain()
        _say("drained; exiting 0")
        return 0

    return asyncio.run(serve_forever())


# -- repro blame: corruption localization --------------------------------------

def _trace_episodes(args):
    """The repaired corruption episodes of the lifecycle trace the fleet
    shape / ``--days`` / ``--seed`` / ``--repair`` flags describe."""
    from .lifecycle import corruption_episodes

    try:
        return corruption_episodes(_trace_spec(args), args.repair)
    except ValueError as exc:
        _usage_error(str(exc))


def _blame_report(args) -> None:
    """Harvest one window of flow evidence against a lifecycle trace and
    print the ranked 007 vote."""
    from .blame import (
        LossOracle, default_fleet_evidence, harvest_evidence, tally_votes,
    )
    from .fleet.topology import FleetTopology

    if args.window <= 0:
        _usage_error("--window must be > 0")
    fleet = _fleet_spec(args)
    episodes = _trace_episodes(args)
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
    _say(f"window [{t_lo:.0f}s, {t_lo + args.window:.0f}s): "
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


def _blame_eval(args) -> int:
    """Score voting against ground truth (precision / recall / top-1)
    across telemetry-coverage levels; exits 1 when ``--fail-under`` is
    given and single-bad-link top-1 accuracy lands below it."""
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
            fleet=_fleet_spec(args), mode=args.mode, n_trials=args.trials,
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
            _say(f"FAIL: single-bad-link top-1 {worst} < "
                 f"{args.fail_under}")
            return 1
    return 0


def _blame_optimize(args) -> None:
    """Replay a trace window through every registered activation policy
    x budget and rank them by link-seconds of damage."""
    from .fleet.policies import default_candidates, optimize_policies

    try:
        budgets = [int(b) for b in args.budgets.split(",")]
    except ValueError:
        _usage_error("--budgets must be comma-separated integers")
    episodes = _trace_episodes(args)
    try:
        results = optimize_policies(
            _fleet_spec(args), episodes, seed=args.seed,
            candidates=default_candidates(budgets))
    except ValueError as exc:
        _usage_error(str(exc))
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


# -- flags: each spelling declared once ----------------------------------------

class Flag:
    """One command-line flag: spelling, default, help.

    The default implies the type (``False`` makes a switch), so a row
    says each thing once; ``**kwargs`` carries whatever else
    ``add_argument`` needs — ``metavar``, ``choices``, ``dest``, the
    ``type`` of a flag whose default is None.  ``choices`` may be a
    zero-argument function, called when the flag joins a parser, so a
    list owned by a library table is read there and only by the verbs
    that take the flag.  A name without dashes is a positional.
    """

    def __init__(self, name: str, default: Any = None,
                 help: Optional[str] = None, **kwargs: Any) -> None:
        self.name = name
        self.kwargs = {"default": default, "help": help, **kwargs}

    @property
    def dest(self) -> str:
        return self.kwargs.get("dest") or self.name.lstrip("-").replace("-", "_")

    def but(self, **kwargs: Any) -> "Flag":
        """This flag with a verb's own default, help or choices."""
        return Flag(self.name, **{**self.kwargs, **kwargs})

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        kwargs = dict(self.kwargs)
        if callable(kwargs.get("choices")):
            kwargs["choices"] = kwargs["choices"]()
        if kwargs["default"] is False:
            kwargs["action"] = "store_true"
        elif kwargs["default"] is not None:
            kwargs.setdefault("type", type(kwargs["default"]))
        parser.add_argument(self.name, **kwargs)


def _defaults(group: Tuple[Flag, ...], **defaults: Any) -> Tuple[Flag, ...]:
    """``group`` with the defaults of the named dests replaced."""
    return tuple(flag.but(default=defaults[flag.dest])
                 if flag.dest in defaults else flag for flag in group)


JSON = Flag("--json", False, "machine-readable output: JSON rows, not tables")
SEED = Flag("--seed", 1)
TRIALS = Flag("--trials", 1_000, "FCT trials per scenario")
LOSS_RATE = Flag("--loss-rate", 5e-3,
                 "corruption loss rate for FCT experiments")
DURATION_MS = Flag("--duration-ms", 4.0,
                   "stress/timeline phase duration (simulated ms)")
DAYS = Flag("--days", 120.0, "deployment-study duration (simulated days)")
MTTF_HOURS = Flag("--mttf-hours", 1_500.0,
                  "link mean-time-to-failure for deployment study")
OUT = Flag("--out", metavar="PATH")
FAIL_UNDER = Flag("--fail-under", type=float, metavar="FRACTION",
                  help="exit 1 if goodput SLO attainment < FRACTION")

#: obs-output group: the verbs that instrument a simulation
OBS_OUT = (
    Flag("--trace-out", metavar="PATH",
         help="write a Chrome trace-event file (Perfetto); "
              "a .jsonl extension selects raw JSONL events"),
    Flag("--metrics-out", metavar="PATH",
         help="write the metrics registry (JSON, or "
              "Prometheus text with a .prom extension)"),
    Flag("--spans", False,
         "record causal recovery-episode spans (exported with "
         "--trace-out, inspected with 'repro obs spans')"),
    Flag("--timeline-out", metavar="PATH",
         help="write the flight-recorder timeline JSON "
              "(inspected with 'repro obs timeline')"),
    Flag("--timeline-interval-us", 100.0,
         "flight-recorder sampling cadence in simulated microseconds"),
)

#: sweep/runner group
KIND = Flag("--kind", "fct", "experiment kind of the base spec")
AXIS = Flag("--axis", action="append", metavar="FIELD=V1,V2",
            help="one axis of the grid (repeatable); "
                 "FIELD is a spec field or params.X / lg.X")
SWEEP_SEED = Flag("--sweep-seed", type=int,
                  help="derive a deterministic per-cell seed from this "
                       "root (default: every cell keeps --seed, as in "
                       "the paper's figures)")


def _cell_backends() -> List[str]:
    """``--backend`` choices: the backends of the cell table."""
    from .runner import backends

    return backends()


def _validation_backends() -> List[str]:
    from .fastpath.validate import fast_backends

    return fast_backends()


BACKEND = Flag("--backend", "packet",
               "execution backend for every cell (fastpath = vectorized "
               "analytic models; hybrid = analytic between losses, "
               "packet windows around them)",
               choices=_cell_backends)
WORKERS = Flag("--workers", 1, "worker processes (results are "
                               "bit-identical to --workers 1)")
#: a replay's chunks share one arbitration, so no pool can pay for itself
REPLAY_WORKERS = WORKERS.but(help="checked (>= 1) and kept for scripts; a "
                                  "replay starts no worker processes")
CHECKPOINT = Flag("--checkpoint", metavar="PATH",
                  help="JSONL checkpoint; completed cells (or replay "
                       "chunks) are appended as they finish and skipped "
                       "on rerun")

#: fleet-shape group: the generated Clos fabric and its failure rate
FLEET_SHAPE = (
    Flag("--fleet-pods", 4, "pods in the generated Clos fabric"),
    Flag("--fleet-tors", 8, "ToR switches per pod"),
    Flag("--fleet-fabrics", 4, "fabric switches per pod"),
    Flag("--fleet-spines", 8, "spine uplinks per fabric switch"),
    MTTF_HOURS.but(help="per-link mean time between corruption onsets"),
)
POLICY = Flag("--policy", "incremental",
              "fleet arbitration policy (incremental | greedy-worst)")
ACTIVATION_BUDGET = Flag(
    "--activation-budget", 64,
    "max concurrent LinkGuardian activations fleet-wide")
RESIM_FRACTION = Flag(
    "--resim-fraction", 0.05,
    "with --backend fastpath, the worst fraction of episodes "
    "re-simulated with the packet sampler")
REPAIR = Flag("--repair", "corropt", "repair policy applied to the trace "
                                     "(corropt | exponential | severity)")

#: blame-evidence group: the flow-report window a vote runs over
COVERAGE = Flag("--coverage", 1.0,
                "fraction of flow reports surviving telemetry loss")
FLOWS_PER_S = Flag("--flows-per-s", 0.0,
                   "aggregate flow rate (0 = sized to fleet)")
BLAME_EVIDENCE = (
    Flag("--window", 60.0, "evidence window the vote runs over",
         metavar="S"),
    COVERAGE, FLOWS_PER_S,
    Flag("--flow-packets", 100),
    Flag("--min-votes", 2.0, "votes below this never enter the blamed set"),
)
#: blame runs on a small, failure-dense fleet so a short window has signal
BLAME_FLEET = (*_defaults(FLEET_SHAPE, fleet_pods=2, fleet_tors=4,
                          fleet_fabrics=2, fleet_spines=4, mttf_hours=300.0),
               SEED)
LIFECYCLE_FLEET = (DAYS.but(default=30.0, help="simulated fleet time (days)"),
                   SEED, *FLEET_SHAPE)


def _fuzz_flags() -> Tuple[Flag, ...]:
    """``repro check fuzz``'s flags; the ``--defect`` choices are the
    checker's registry."""
    from .checker import DEFECTS

    return (
        SEED,
        TRIALS.but(default=50, help="random scenarios to run"),
        Flag("--defect", choices=sorted(DEFECTS),
             help="deliberate protocol break to fuzz against"),
        Flag("--no-shrink", False,
             "skip ddmin shrinking of the first failure"),
        Flag("--shrink-out", metavar="PATH",
             help="write the shrunk counterexample artifact here"))


#: ``repro serve``: flags whose dest names the ServiceConfig field they
#: set; _serve_flags() reads each one's default (hence type) and choices
#: off the dataclass.
SERVE = (
    Flag("--host"),
    Flag("--port", help="HTTP port (0 = ephemeral; see --port-file)"),
    Flag("--queue-limit", help="pending what-if queries before 429"),
    Flag("--max-inflight", help="queries dispatched to workers concurrently"),
    Flag("--query-timeout", dest="query_timeout_s", metavar="S",
         help="per-query server-side deadline"),
    Flag("--drain-timeout", dest="drain_timeout_s", metavar="S",
         help="SIGTERM: in-flight queries get this long"),
    Flag("--executor"),
    WORKERS.but(help="what-if worker pool size"),
    BACKEND.but(help="default what-if execution backend"),
    Flag("--cache-size"),
    Flag("--loss-sigfigs", help="cache-key loss-rate quantization (0 = off)"),
    Flag("--telemetry"),
    Flag("--telemetry-file", metavar="PATH",
         help="JSONL counter records (--telemetry file)"),
    Flag("--follow", help="tail --telemetry-file for appends"),
    Flag("--ingest-port", help="TCP ingest listener (--telemetry tcp)"),
    Flag("--synthetic-days",
         help="simulated days the synthetic trace covers"),
    Flag("--synthetic-records",
         help="stop the synthetic feed after N records (0 = whole trace)"),
    Flag("--interval", dest="interval_s", metavar="S",
         help="real-time pacing between synthetic records"),
    Flag("--evidence", metavar="KIND",
         help="corruption signal: RX counter snapshots through "
              "LossWindows, or per-flow retx reports through 007 voting"),
    Flag("--blame-window", dest="blame_window_s", metavar="S",
         help="voting: sliding evidence window"),
    COVERAGE.but(help="voting: fraction of synthetic flow reports "
                      "surviving telemetry loss"),
    FLOWS_PER_S.but(help="voting: synthetic flow rate (0 = fleet-sized)"),
    Flag("--window-frames", help="loss-estimation window (frames)"),
    Flag("--onset-threshold"),
    Flag("--clear-hysteresis"),
    POLICY, SEED,
    Flag("--snapshot-out", dest="snapshot_path", metavar="PATH",
         help="write a final state snapshot at drain"),
    # -- not ServiceConfig fields ---------------------------------------------
    Flag("--port-file", metavar="PATH",
         help="write the bound HTTP port here once listening "
              "(scripts/CI pair this with --port 0)"),
    Flag("--probe", metavar="/PATH",
         help="client mode: GET this path on --host:--port, "
              "print the body, exit"),
    ACTIVATION_BUDGET, *FLEET_SHAPE,
)


def _serve_flags() -> Tuple[Flag, ...]:
    """:data:`SERVE` with each ServiceConfig-backed flag's default and
    choices filled in from the dataclass, so a knob's default is typed
    once — there.  (A function because importing the service package is
    too heavy to do for every other verb.)"""
    from dataclasses import fields

    from .service.config import EXECUTOR_KINDS, TELEMETRY_KINDS, ServiceConfig

    config = {f.name: f.default for f in fields(ServiceConfig)}
    choices = {"executor": EXECUTOR_KINDS, "telemetry": TELEMETRY_KINDS}
    flags = []
    for flag in SERVE:
        if flag.dest in config:
            flag = flag.but(default=config[flag.dest])
        if flag.dest in choices:
            flag = flag.but(choices=choices[flag.dest])
        flags.append(flag)
    return tuple(flags)


# -- the verb table ------------------------------------------------------------

class Verb(NamedTuple):
    """One row of the command tree."""

    name: str
    #: one line: ``repro list``, the parent's ``-h``, the verb's own ``-h``
    help: str
    #: handler(args) -> exit code (None = 0)
    run: Optional[Callable] = None
    #: the flags this verb reads besides ``--json`` (anything else is
    #: rejected), or a zero-argument function returning them
    flags: Any = ()
    #: a grouped verb nests rows instead of running
    subs: Tuple["Verb", ...] = ()
    #: the group's ``-h`` description
    description: Optional[str] = None

    def flag_rows(self) -> Tuple["Flag", ...]:
        return self.flags() if callable(self.flags) else self.flags


_STRESS = (DURATION_MS, SEED, *OBS_OUT)
_FCT = (TRIALS, LOSS_RATE, SEED)
_DEPLOYMENT = (DAYS, MTTF_HOURS, SEED)

# Invalid arguments exit 2; violations and replay mismatches exit 1.
CHECK = (
    Verb("fuzz", "random fault schedules + shrinking", _check_fuzz,
         _fuzz_flags),
    Verb("run", "run one scenario file", _check_run, (
        Flag("scenario", metavar="SCENARIO.json",
             help="JSON file with 'scenario' and optional 'config'"),
    )),
    Verb("replay", "replay a counterexample artifact", _check_replay, (
        Flag("artifact", metavar="ARTIFACT.json"),
    )),
)

# Argument errors exit 2; validate exits 1 past a documented tolerance.
FASTPATH = (
    Verb("scan", "sweep a grid on the analytic models", _fastpath_scan, (
        KIND.but(help="experiment kind of the base spec "
                      "(fct | goodput | stress)"),
        AXIS, TRIALS, LOSS_RATE, SEED, SWEEP_SEED,
    )),
    Verb("validate", "matched grid on both backends + comparison",
         _fastpath_validate, (
        Flag("--cells", 200, "approximate grid size"),
        SEED,
        WORKERS.but(help="worker processes for the packet cells"),
        BACKEND.but(default="fastpath", choices=_validation_backends,
                    help="the fast side of the comparison (hybrid = "
                         "the splicing backend)"),
        OUT.but(help="write the full report JSON here"),
    )),
)

# Missing files and bad arguments exit 2; files that fail schema
# validation exit 1.
OBS = (
    Verb("spans", "render recovery-episode trees from a trace", _obs_spans, (
        Flag("trace", metavar="TRACE.json",
             help="Chrome trace (--trace-out) or .jsonl events"),
    )),
    Verb("timeline", "summarize a flight-recorder timeline", _obs_timeline, (
        Flag("timeline", metavar="TIMELINE.json",
             help="file written by --timeline-out"),
    )),
    Verb("top", "rank sweep cells by wall-clock cost", _obs_top, (
        Flag("checkpoint", metavar="CHECKPOINT.jsonl",
             help="sweep --checkpoint JSONL of cell results"),
        Flag("--limit", 10),
    )),
)

# Bad arguments exit 2; replay/report exit 1 when --fail-under is given
# and the goodput SLO attainment lands below it.
LIFECYCLE = (
    Verb("generate", "write a deterministic failure trace",
         _lifecycle_generate, (
        *LIFECYCLE_FLEET,
        OUT.but(metavar="TRACE.json",
                help="write the trace document here (default stdout)"),
    )),
    Verb("replay", "replay a trace into per-day SLO series",
         _lifecycle_replay, (
        *LIFECYCLE_FLEET,
        Flag("--trace", metavar="TRACE.json",
             help="replay this generated trace (verified against "
                  "its embedded spec); fleet flags are ignored"),
        POLICY, REPAIR,
        Flag("--repair-param", action="append", metavar="K=V",
             help="one repair-policy parameter (repeatable)"),
        BACKEND.but(default="hybrid", help="affected-flow evaluation tier"),
        Flag("--chunks", 1, "time chunks, evaluated in process from one "
                            "arbitration (bit-identical to --chunks 1)"),
        REPLAY_WORKERS, CHECKPOINT, RESIM_FRACTION,
        Flag("--goodput-target", 0.97, "per-day fleet goodput SLO target"),
        Flag("--affected-target", 1e-3,
             "per-day affected-flow-fraction SLO target"),
        OUT.but(metavar="ROLLUP.json",
                help="write the full rollup document here "
                     "(input to 'repro lifecycle report')"),
        FAIL_UNDER,
        JSON.but(help="print the canonical rollup JSON "
                      "(byte-identical across chunkings/workers)"),
    )),
    Verb("report", "render a saved replay rollup", _lifecycle_report, (
        Flag("rollup", metavar="ROLLUP.json",
             help="rollup document from 'replay --out'"),
        Flag("--days-table", False, "include the full per-day series table"),
        FAIL_UNDER,
    )),
)

BLAME = (
    Verb("report", "rank one evidence window's blamed links", _blame_report, (
        *BLAME_FLEET, *BLAME_EVIDENCE,
        DAYS.but(default=10.0,
                 help="lifecycle trace length the window comes from"),
        REPAIR,
        Flag("--at", type=float, metavar="T",
             help="window start in trace seconds (default: the "
                  "first window with a corrupting link)"),
        Flag("--top", 10, "ranked links to print"),
    )),
    Verb("eval", "score voting against ground truth", _blame_eval, (
        *BLAME_FLEET, *BLAME_EVIDENCE,
        Flag("--mode", "trials",
             "trials = planted single-bad-link windows; "
             "trace = lifecycle ground truth", choices=["trials", "trace"]),
        TRIALS.but(default=20, help="windows evaluated per coverage level"),
        Flag("--coverages", metavar="C1,C2",
             help="sweep these coverage levels instead of "
                  "--coverage (e.g. 1.0,0.5,0.2)"),
        Flag("--loss-lo", 5e-4),
        Flag("--loss-hi", 5e-3),
        Flag("--trace-days", 10.0),
        Flag("--detectable-loss", 1e-4,
             "trace mode: truth is links at/above this"),
        REPAIR,
        FAIL_UNDER.but(help="exit 1 if single-bad-link top-1 accuracy "
                            "< FRACTION at any coverage level"),
    )),
    Verb("optimize", "rank activation policies over a trace",
         _blame_optimize, (
        *BLAME_FLEET,
        DAYS.but(default=10.0,
                 help="lifecycle trace replayed through candidates"),
        REPAIR,
        Flag("--budgets", "8,64", "activation budgets swept per policy",
             metavar="B1,B2"),
    )),
)

VERBS: Tuple[Verb, ...] = (
    Verb("fig01", "PLR vs optical attenuation per transceiver", _figure),
    Verb("fig02", "flow-size CDFs of six datacenter workloads", _figure),
    Verb("tab01", "corruption loss-rate buckets (trace model)", _figure),
    Verb("fig08", "effective loss rate & link speed (stress test)",
         _figure, _STRESS),
    Verb("fig09", "DCTCP timeline on 25G with 1e-3 loss", _figure, (
        DURATION_MS,
        Flag("--resume-kb", 2.0,
             "fig09 backpressure resume threshold in KB, scaled down like "
             "the phase durations so pause/resume dynamics show at sim "
             "scale; <= 0 restores the paper's 25G default"),
        *OBS_OUT,
    )),
    Verb("fig10", "FCT of 143B single-packet flows",
         _figure, (*_FCT, *OBS_OUT)),
    Verb("fig11", "FCT of 24,387B flows (DCTCP/BBR/RDMA)",
         _figure, (*_FCT, *OBS_OUT)),
    Verb("fig12", "FCT of 2MB DCTCP flows",
         _figure, (TRIALS.but(default=200), SEED, *OBS_OUT)),
    Verb("fig13", "classification of affected flows under LG_NB",
         _figure, _FCT),
    Verb("tab02", "mechanism-contribution ablation", _figure, _FCT),
    Verb("tab03", "CUBIC goodput: LinkGuardian vs Wharf", _figure, (SEED,)),
    Verb("tab04", "recirculation overhead", _figure, _STRESS),
    Verb("fig14", "TX/RX buffer usage", _figure, _STRESS),
    Verb("fig15", "deployment-study snapshot (CorrOpt vs +LG)",
         _figure, _DEPLOYMENT),
    Verb("fig16", "deployment-study CDFs (gain & capacity cost)",
         _figure, _DEPLOYMENT),
    Verb("fig19", "retransmission-delay distribution", _figure, _STRESS),
    Verb("fig20", "consecutive packets lost", _figure),
    Verb("fig21", "CUBIC and BBR timelines", _figure,
         (DURATION_MS, *OBS_OUT)),
    Verb("sec5-sr", "RoCE selective repeat vs go-back-N under LG_NB (§5)",
         _figure),
    Verb("sec5-tofino", "Tofino2 no-recirculation profile vs Tofino1 (§5)",
         _figure),
    Verb("sec5-400g", "ordered LG vs LG_NB at 400G (§5)", _figure),
    Verb("retx-copies", "retransmit copies N vs effective loss (Eq. 2)",
         _figure),
    Verb("incremental", "partial-deployment sweep (§5)", _figure,
         (DAYS, SEED)),
    Verb("export", "convert benchmarks/results JSON to .dat/.csv", _export, (
        Flag("--results-dir", "benchmarks/results",
             "where the benchmark suite saved its JSON"),
        Flag("--out-dir", "figures",
             "where to write one .csv file per figure (export)"),
    )),
    Verb("metrics", "instrumented run + metrics-registry summary",
         _metrics, _STRESS),
    Verb("sweep", "declarative cell sweep (parallel, resumable)", _sweep,
         (KIND, AXIS, TRIALS, LOSS_RATE, SEED, SWEEP_SEED, BACKEND, WORKERS,
          CHECKPOINT)),
    Verb("fleet", "fleet campaign: one-shot SLOs + fleet-wide corruptd",
         _fleet, (
        *FLEET_SHAPE, DAYS, SEED, POLICY, ACTIVATION_BUDGET,
        Flag("--shards", 1,
             "time shards (day ranges, at most --days), evaluated in "
             "process from one arbitration (bit-identical to --shards 1)"),
        BACKEND, RESIM_FRACTION, REPLAY_WORKERS, CHECKPOINT, *OBS_OUT,
    )),
    Verb("check", "conformance checker: invariants, fault scenarios, "
                  "fuzzing ('repro check -h')", subs=CHECK,
         description="Protocol conformance checking: invariant monitors, "
                     "fault scenarios, and a shrinking schedule fuzzer."),
    Verb("fastpath", "analytic backend: wide scans + "
                     "cross-validation ('repro fastpath -h')", subs=FASTPATH,
         description="Vectorized analytic backend: wide scans and "
                     "cross-validation against the packet engine."),
    Verb("obs", "inspect span trees, timelines, and "
                "cell costs ('repro obs -h')", subs=OBS,
         description="Inspect observability artifacts: recovery-episode "
                     "span trees, flight-recorder timelines, cell costs."),
    Verb("lifecycle", "month-scale fleet traces, repair loop, "
                      "SLO replay ('repro lifecycle -h')", subs=LIFECYCLE,
         description="Month-scale fleet lifecycle: failure traces, repair "
                     "loop, and longitudinal SLO replay."),
    Verb("serve", "always-on control plane: streaming "
                  "telemetry, /metrics, cached what-if "
                  "API ('repro serve -h')", _serve, _serve_flags,
         description="Long-running control plane: streaming telemetry in, "
                     "controller decisions and cached what-if answers out."),
    Verb("blame", "corruption localization from flow "
                  "evidence: 007 voting, accuracy eval, "
                  "policy optimizer ('repro blame -h')", subs=BLAME,
         description="Fleet-scale corruption localization from flow-level "
                     "evidence: 007-style voting, no oracle counters."),
    Verb("list", "every verb with its one-line help", _list),
)


def _add_verbs(parser, verbs, argv) -> None:
    sub = parser.add_subparsers(metavar="VERB", required=True)
    for verb in verbs:
        child = sub.add_parser(verb.name, help=verb.help,
                               description=verb.description or verb.help)
        if verb.subs:
            _add_verbs(child, verb.subs, argv)
        elif argv is None or verb.name in argv:
            # Every verb takes --json (main() reads it); a row that lists
            # its own wording of a flag replaces the shared one.
            flags = {flag.name: flag for flag in (JSON, *verb.flag_rows())}
            for flag in flags.values():
                flag.add_to(child)
            child.set_defaults(run=verb.run, verb=verb.name)


def build_parser(argv: Optional[List[str]] = None) -> argparse.ArgumentParser:
    """The ``repro`` command tree, built from :data:`VERBS`.

    Every verb is always in the tree; its flags are declared when
    ``argv`` names it (for every verb when ``argv`` is None), so ``repro
    fig01`` does not import the service package to read ``repro serve``'s
    defaults and ``repro serve`` does not pay for 28 other flag tables.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run LinkGuardian reproduction experiments.",
    )
    _add_verbs(parser, VERBS, argv)
    return parser


def _observability(args):
    """The run's Observability, when the verb takes the obs-output flags
    and one of them asks for an artifact."""
    if not hasattr(args, "trace_out"):
        return None
    if args.timeline_interval_us <= 0:
        _usage_error("--timeline-interval-us must be > 0")
    if not (args.trace_out or args.metrics_out or args.spans
            or args.timeline_out):
        return None
    from .obs import Observability

    return Observability(
        spans=args.spans,
        timeline=({"interval_ns": int(args.timeline_interval_us * 1000)}
                  if args.timeline_out else None),
    )


def _write_artifacts(args) -> None:
    """Export what ``args.obs`` recorded to the obs-output paths."""
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
        _say(f"trace written to {args.trace_out}")
    if args.timeline_out and args.obs.timeline is not None:
        args.obs.timeline.stop()
        write_timeline_json(args.timeline_out, args.obs.timeline)
        _say(f"timeline written to {args.timeline_out}")
    if args.metrics_out:
        if args.metrics_out.endswith(".prom"):
            write_metrics_prometheus(args.metrics_out, args.obs.registry)
        else:
            write_metrics_json(args.metrics_out, args.obs.registry)
        _say(f"metrics written to {args.metrics_out}")


def main(argv: Optional[List[str]] = None) -> int:
    global _JSON_MODE
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    _JSON_MODE = args.json
    args.obs = _observability(args)
    try:
        code = args.run(args) or 0
    except _InvalidInput as exc:
        sys.stderr.write(f"repro: error: {exc}\n")
        return 1
    if args.obs is not None:
        _write_artifacts(args)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
