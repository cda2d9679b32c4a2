#!/usr/bin/env python3
"""The repo's benchmark: one harness, eight named workloads.

    python bench/run.py                       # every workload, timed + traced
    python bench/run.py --workload pkt_fct    # one workload (the driver's form)
    python bench/run.py --self-check          # the full set twice, compared
    python bench/run.py --smoke               # tiny sizes, seconds not minutes

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``
(a layer a workload does not exercise reads 0; so does a probe that
failed, and ``trace.failed_probes`` counts those).  Exit code 1 when a
correctness gate failed.  See bench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()   # child start: setup_s counts from here

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    # run as a script: import the benchmark as the package ``bench`` so
    # bench/trace.py cannot shadow the stdlib's ``trace``
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench import common
from bench.common import OUT_DIR

DEFAULT_SEED = 7


def workload_classes() -> Dict[str, Any]:
    from bench.inproc import (
        HybridFct, PktFct, PktStress, PlanReplaySerial, PlanReplaySharded,
    )
    from bench.serve import ServeCounters, ServeVoting, ServeWhatif

    return {cls.name: cls for cls in (
        PktStress, PktFct, HybridFct, PlanReplaySerial, PlanReplaySharded,
        ServeCounters, ServeWhatif, ServeVoting)}


# -- one workload, in this process ------------------------------------------------

def run_one(args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload here; returns the contract's result object."""
    from bench.workload import timed_run, traced_run

    manifest = common.manifest()
    workload = workload_classes()[args.workload](args.seed, args.smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        outcome = traced_run(
            workload, args.seconds,
            os.path.join(OUT_DIR, f"{args.workload}.trace.json"))
        declared = manifest["per_layer"]
    else:
        outcome = timed_run(workload, args.seconds, STARTED)
        declared = manifest["end_to_end"]
    rec = outcome.pop("recorder")
    measured = outcome["metrics"]
    unknown = set(measured) - {entry["name"] for entry in declared}
    if unknown:
        raise SystemExit(f"bench: metrics not in BENCHMARK.json: "
                         f"{sorted(unknown)}")
    if rec.attempted == 0:
        raise SystemExit("bench: the run attempted nothing")
    # The contract wants a number for every name, so a layer this workload
    # does not exercise reads 0 — and so must a probe that failed: those
    # are counted in ``trace.failed_probes``, named on stderr, and null in
    # the detail file's "metrics".
    metrics = {
        entry["name"]: {"value": measured.get(entry["name"]) or 0.0,
                        "unit": entry["unit"]}
        for entry in declared}
    detail = dict(outcome, **rec.detail(), workload=args.workload,
                  seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                  trace=args.trace, warnings=workload.warnings,
                  work=workload.work)
    kind = "traced" if args.trace else "timed"
    with open(os.path.join(OUT_DIR, f"{args.workload}.{kind}.json"),
              "w") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True,
                  default=common.jsonable)
    for message in rec.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    for message in workload.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }


def child_command(workload: str, seed: int, *extra: str) -> List[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), *extra]


# -- every workload, one child process each ---------------------------------------

def run_child(workload: str, args: argparse.Namespace,
              trace: int) -> Dict[str, Any]:
    extra = ["--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        extra.append("--smoke")
    done = subprocess.run(child_command(workload, args.seed, *extra),
                          capture_output=True, text=True, timeout=175)
    sys.stderr.write(done.stderr)
    kind = "traced" if trace else "timed"
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(os.path.join(OUT_DIR, f"{workload}.{kind}.json")) as handle:
            result["detail"] = json.load(handle)
    except (IndexError, ValueError, OSError):
        raise SystemExit(f"bench: {workload} ({kind}) printed no result "
                         f"(exit {done.returncode})\n{done.stdout[-2000:]}")
    result["exit"] = done.returncode
    return result


def run_all(args: argparse.Namespace) -> Dict[str, Any]:
    manifest = common.manifest()
    report: Dict[str, Any] = {
        "environment": common.environment(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    if report["environment"]["noisy"]:
        print("note: 1-min loadavg > 1.0 at start — run flagged noisy")
    for entry in manifest["workloads"]:
        name = entry["name"]
        timed = run_child(name, args, trace=0)
        traced = run_child(name, args, trace=1)
        report["workloads"][name] = {"timed": timed, "traced": traced}
        detail = timed["detail"]
        print(f"\n== {name}  ({detail['work']}; {detail['rounds']} rounds, "
              f"ops {timed['attempted']} attempted / "
              f"{timed['failed'] + traced['failed']} failed)")
        for metric, value in timed["metrics"].items():
            print(f"   {metric:<24}{value['value']:>16.4f} {value['unit']}")
        for kind, stats in detail["samples"].items():
            print(f"     {kind:<14} n={stats['n']:<4} fast {stats['fast']:.4f} s"
                  f"  median {stats['median']:.4f} s  "
                  f"[{stats['min']:.4f} .. q3 {stats['q3']:.4f}]")
    print_layers(manifest, report)
    report["ops_failed"] = sum(
        run["failed"] for pair in report["workloads"].values()
        for run in pair.values())
    path = os.path.join(OUT_DIR, "latest.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"\nops_failed {report['ops_failed']}; wrote {path}")
    return report


def print_layers(manifest: Dict[str, Any], report: Dict[str, Any]) -> None:
    names = list(report["workloads"])
    print("\n== per-layer (traced run; - = not exercised by the workload, "
          "null = its probe failed)")
    print(f"{'metric':<38}{'unit':<8}" + "".join(f"{n:>20}" for n in names))
    for entry in manifest["per_layer"]:
        # the detail file keeps a failed probe as null (None); the result
        # line has to print it as 0
        values = [report["workloads"][n]["traced"]["detail"]["metrics"]
                  .get(entry["name"], 0.0) for n in names]
        if any(v is None or v for v in values):
            print(f"{entry['name']:<38}{entry['unit']:<8}" + "".join(
                f"{'null':>20}" if v is None else
                f"{v:>20.4g}" if v else f"{'-':>20}" for v in values))


# -- self-check ---------------------------------------------------------------------

def self_check(args: argparse.Namespace) -> int:
    """Two full sets on the same tree must agree: every end-to-end metric
    within its bound, every digest and exact count identically."""
    manifest = common.manifest()
    first, second = run_all(args), run_all(args)
    problems = first["ops_failed"] + second["ops_failed"]
    print("\n== self-check: run 1 vs run 2")
    print(f"{'workload':<20}{'metric':<20}{'run 1':>14}{'run 2':>14}"
          f"{'change':>9}{'bound':>7}")
    for name in first["workloads"]:
        one, two = (r["workloads"][name]["timed"] for r in (first, second))
        for entry in manifest["end_to_end"]:
            a = one["metrics"][entry["name"]]["value"]
            b = two["metrics"][entry["name"]]["value"]
            change = abs(b - a) / a
            verdict = "" if change <= entry["bound"] else "  DISAGREE"
            problems += bool(verdict)
            print(f"{name:<20}{entry['name']:<20}{a:>14.4f}{b:>14.4f}"
                  f"{change:>9.1%}{entry['bound']:>7.0%}{verdict}")
        for report in (first, second):
            for warning in report["workloads"][name]["traced"]["detail"][
                    "warnings"]:
                # a failed probe reads 0, which must not pass for a number
                problems += 1
                print(f"{name:<20}probe failed, not comparable: {warning}")
        for kind in ("timed", "traced"):
            for key in ("sim_digest", "input_digest", "counts"):
                a, b = (r["workloads"][name][kind]["detail"][key]
                        for r in (first, second))
                if a != b:
                    problems += 1
                    print(f"{name:<20}{kind}.{key} differs: {a} != {b}")
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a 0.5 s window")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(
            common.manifest()["run_seconds"])
    if args.workload not in (None, *workload_classes()):
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workload_classes())}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    common.use_repo_sources()
    args = parse_args(argv)
    if args.workload is not None:
        result = run_one(args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_check:
        return self_check(args)
    return 1 if run_all(args)["ops_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
