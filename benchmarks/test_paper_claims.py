"""The claim gate: every figure and table of the paper's evaluation, and
the §5 studies beyond it.

Each row of ``repro.experiments.figures.FIGURES`` is run at its pinned
gate parameters (the simulator-scale substitutions EXPERIMENTS.md
lists), its printed rows are written beside those parameters to
``benchmarks/results/<id>.json`` and every claim of the row is measured
and checked against its bound.  What the
claims measured goes to ``benchmarks/results/paper_claims.json``, from
which EXPERIMENTS.md's tables are rendered.  Everything written here is
deterministic: a rerun leaves ``git diff benchmarks/results`` empty
(but for the wall clocks of ``fig10_obs_overhead.json``).
"""

import os

import pytest

from _report import (
    bound_text, emit, figure_document, header, record_claims, save_json, table,
)

from repro.experiments.figures import FIGURES, run_figure
from repro.runner import run_cell

#: cells of one figure are independent: as many at once as there are cores
WORKERS = min(4, len(os.sched_getaffinity(0)))


@pytest.mark.parametrize("name", FIGURES)
def test_paper_claims(name):
    row = FIGURES[name]
    results = run_figure(row, row.gate, workers=WORKERS)
    header(f"{name} at {row.gate or 'the model defaults'}")
    document = figure_document(row, results)
    table(document["rows"])
    save_json(name, document)

    measured = {claim.name: claim.measure(results) for claim in row.claims}
    record_claims(name, measured)
    emit()
    table([{"claim": claim.name, "paper": claim.paper,
            "measured": measured[claim.name], "bound": bound_text(claim),
            "holds": claim.holds(measured[claim.name])}
           for claim in row.claims])
    assert [claim.name for claim in row.claims
            if not claim.holds(measured[claim.name])] == []


OVERHEAD_TRIALS = 1_500
#: plain/instrumented pairs, run interleaved; each side counts its best
#: run, so one run slowed by another process cannot decide the number
OVERHEAD_PAIRS = 3


def _run_overhead():
    fig10 = FIGURES["fig10"]
    (cell,) = [spec for spec in fig10.cells({**fig10.gate,
                                             "trials": OVERHEAD_TRIALS})
               if (spec.transport, spec.scenario) == ("dctcp", "lg")]
    instrumented = cell.with_(
        obs={"spans": True, "timeline": {"interval_ns": 100_000}})
    return [(run_cell(cell), run_cell(instrumented))
            for _ in range(OVERHEAD_PAIRS)]


def test_fig10_obs_overhead():
    """Enabled-mode span+timeline overhead on the Figure 10 workload: an
    instrumentation check, not a paper claim.  It measures what turning
    the instrumentation *on* costs and records it beside the figures."""
    pairs = _run_overhead()
    plain_run, instr_run = (min(run.timings["run"] for run in side)
                            for side in zip(*pairs))
    overhead_pct = (instr_run - plain_run) / plain_run * 100.0
    artifacts = pairs[0][1].artifacts
    header(f"Figure 10 — obs overhead ({OVERHEAD_TRIALS} trials, "
           f"spans + 100us timeline, best of {OVERHEAD_PAIRS} pairs)")
    emit(f"run phase: plain {plain_run:.3f}s, instrumented {instr_run:.3f}s "
         f"-> overhead {overhead_pct:+.1f}%")
    save_json("fig10_obs_overhead", {
        "trials": OVERHEAD_TRIALS,
        "pairs": OVERHEAD_PAIRS,
        "plain_run_s": plain_run,
        "instrumented_run_s": instr_run,
        "overhead_pct": overhead_pct,
        "spans": artifacts["spans"],
        "timeline_samples": artifacts["timeline"]["sampled"],
    })
    # Instrumentation must observe without perturbing: identical results.
    for plain, instrumented in pairs:
        assert plain.canonical_json() == instrumented.canonical_json()
    # Spans and the flight recorder actually engaged on this workload.
    assert artifacts["spans"]["episodes"] > 0
    assert artifacts["timeline"]["sampled"] > 0
    # Loose pathology bound; the measured number is what the JSON reports.
    assert overhead_pct < 400.0
