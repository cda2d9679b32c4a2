"""The figure table is complete and honest.

``repro.experiments.figures.FIGURES`` is the one definition of every
paper figure and table and of the §5 studies: the CLI verbs, the claim gate
(``benchmarks/test_paper_claims.py``) and EXPERIMENTS.md's generated
tables all read it.  The gate itself is minutes of simulation and runs
in its own CI job; what tier-1 holds is that the table covers the verbs,
its cells are runnable, its claims are well-formed and agree with the
gate's tracked record, the documentation is the rendered table, and the
four static rows still regenerate their tracked result files.
"""

import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import VERBS, build_parser
from repro.experiments.figures import FIGURES, run_figure
from repro.linkguardian.config import LinkGuardianConfig
from repro.obs import Observability
from repro.runner import ExperimentSpec, lg_config, lookup, run_cells

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import _report  # noqa: E402  (the benchmark harness's reporter)

CLAIMS = [(name, claim) for name, row in FIGURES.items()
          for claim in row.claims]
CLAIM_IDS = [f"{name}: {claim.name}" for name, claim in CLAIMS]


def test_table_rows_are_the_figure_verbs():
    assert {v.name for v in VERBS if v.run is cli._figure} == set(FIGURES)


def test_tofino2_row_binds_the_profile_field_for_field():
    tofino1, tofino2 = FIGURES["sec5-tofino"].cells({})
    assert lg_config(tofino1) == LinkGuardianConfig.for_link_speed(100)
    assert lg_config(tofino2) == LinkGuardianConfig.tofino2(100)


@pytest.mark.parametrize("name", FIGURES)
def test_gate_cells_resolve_through_the_cell_table(name):
    cells = FIGURES[name].cells(FIGURES[name].gate)
    assert cells
    for spec in cells:
        lookup(spec.kind, spec.backend)
    assert len({spec.cell_id() for spec in cells}) == len(cells)


@pytest.mark.parametrize("name", FIGURES)
def test_verb_defaults_build_cells(name):
    args = build_parser([name]).parse_args([name])
    assert FIGURES[name].cells(vars(args))


@pytest.mark.parametrize("name, claim", CLAIMS, ids=CLAIM_IDS)
def test_claim_is_well_formed(name, claim):
    assert claim.paper.strip()
    assert (claim.at_least, claim.at_most, claim.equals) != (None,) * 3
    assert claim.fidelity in (None, "F1", "F2", "F3")
    assert "|" not in claim.name + claim.paper   # a markdown table cell
    assert [c.name for c in FIGURES[name].claims].count(claim.name) == 1


@pytest.mark.parametrize("name, claim", CLAIMS, ids=CLAIM_IDS)
def test_recorded_measurement_holds(name, claim):
    """The gate's tracked record has a number for the claim, inside its
    bound: a bound edited past what was measured fails here, without
    re-running the simulation."""
    assert claim.holds(_report.load_claims()[name][claim.name])


def test_record_has_no_stale_claims():
    assert {name: list(measured)
            for name, measured in _report.load_claims().items()} \
        == {name: [c.name for c in row.claims]
            for name, row in FIGURES.items()}


def test_experiments_md_is_the_rendered_table():
    _, block, _ = _report.split_experiments_md()
    assert block == _report.render_claims(FIGURES, _report.load_claims())


@pytest.mark.parametrize("name", ["fig01", "fig02", "tab01", "fig20"])
def test_static_rows_regenerate_their_tracked_results(name):
    row = FIGURES[name]
    document = _report.dump_json(row.record(run_figure(row, row.gate)))
    assert document == Path(_report.results_path(row.results)).read_text()


class TestFig12Trials:
    """``--trials`` used to be clamped to 200 under a default of 1,000."""

    def test_default_is_what_runs(self):
        args = build_parser(["fig12"]).parse_args(["fig12"])
        assert args.trials == 200

    def test_more_trials_are_honoured(self):
        args = build_parser(["fig12"]).parse_args(["fig12", "--trials", "500"])
        assert {spec.n_trials
                for spec in FIGURES["fig12"].cells(vars(args))} == {500}


class TestCallersObs:
    """``run_cells(obs=...)``: the verb's one Observability instruments
    every cell of its figure, in this process."""

    SPECS = [ExperimentSpec(kind="fct", n_trials=3, scenario=scenario, seed=1)
             for scenario in ("noloss", "lg")]

    def test_every_cell_records_into_it_and_it_stays_open(self):
        obs = Observability(timeline={"interval_ns": 10_000})
        results = run_cells(self.SPECS, obs=obs)
        assert obs.timeline.enabled and obs.timeline.runs == len(self.SPECS)
        assert all(not result.artifacts for result in results)
        plain = run_cells(self.SPECS)
        assert [r.canonical_json() for r in results] \
            == [r.canonical_json() for r in plain]

    def test_refused_with_worker_processes(self):
        with pytest.raises(ValueError, match="workers must be 1"):
            run_cells(self.SPECS, workers=2, obs=Observability())
