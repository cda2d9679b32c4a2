"""The cell seam: one table, one config binding, one executor.

``repro.runner.cells.CELLS`` is the only place a ``(kind, backend)``
pair is declared runnable; ``lg_config`` is the only spec →
``LinkGuardianConfig`` binding; ``run_cells`` is the only batch
executor.  These tests pin the seam from both sides:

* every digest in ``tests/data/cell_seam_digests.json`` was recorded at
  the commit *before* the table existed (``PYTHONPATH=src python
  tests/test_cell_seam.py`` re-records) — the refactor may not move a
  canonical byte of any of them.  They were re-recorded once since, when
  the fct, stress and deployment cells gained the metrics and series the
  figure rows read (Fig. 13's classification counts, ``pauses``, the
  deployment study's hourly series); every other byte stayed put;
* ``lg_config`` is compared against reference copies of the six
  bindings the parent carried, over hypothesis-drawn specs, minus the
  one documented drift (an ``fct`` cell with ``scenario="lgnb"`` and an
  ``lg`` override that omits ``ordered`` used to run *ordered*);
* the executor returns the same canonical JSON serially, through
  ``SweepRunner`` and through a 2-worker pool, on every backend;
* every consumer of kind × backend membership is a live view of the
  table: a row added in a test is seen by all of them.

Matrix holes, on purpose: ``params.target_loss_rate`` and
``params.mean_burst`` are stress/goodput parameters (the packet ``fct``
cell rejects both, the packet ``goodput`` cell rejects the former), so
those kinds carry an ``lg.target_loss_rate`` override instead.
"""

import hashlib
import importlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fastpath
from repro import cli
from repro.linkguardian.config import LinkGuardianConfig
from repro.runner import (
    CELLS, Cell, CellResult, ExperimentSpec, SweepRunner, SweepSpec, backends,
    cells, experiment_kinds, lg_config, load_checkpoint, lookup, run_cell,
    run_cells,
)
from repro.service import QueryError, WhatIfQuery

DIGESTS = Path(__file__).parent / "data" / "cell_seam_digests.json"

_FCT = ExperimentSpec(kind="fct", flow_size=1460, n_trials=30,
                      loss_rate=2e-2, seed=3)
_STRESS = ExperimentSpec(kind="stress", loss_rate=5e-3, seed=3,
                         params={"duration_ms": 0.3})
_GOODPUT = ExperimentSpec(kind="goodput", transport="cubic", loss_rate=1e-3,
                          rate_gbps=10.0, seed=3,
                          params={"transfer_bytes": 200_000})

#: kind -> variant -> spec; each runs on packet, fastpath and hybrid.
_MATRIX = {
    "fct": {
        "default": _FCT,
        "lgnb": _FCT.with_(scenario="lgnb"),
        "loss": _FCT.with_(scenario="loss"),          # hybrid: packet fallback
        "rdma-25g": _FCT.with_(transport="rdma", rate_gbps=25.0),
        "lg-override": _FCT.with_(
            lg={"recirc_loop_ns": 2_000, "tail_loss_detection": False}),
        "lgnb-explicit": _FCT.with_(                  # Table 2's spelling
            scenario="lgnb",
            lg={"ordered": False, "tail_loss_detection": False}),
        "lg-target": _FCT.with_(lg={"target_loss_rate": 1e-12}),
    },
    "stress": {
        "default": _STRESS,
        "lgnb": _STRESS.with_(scenario="lgnb"),
        "lg-override": _STRESS.with_(lg={"recirc_loop_ns": 2_000}),
        "lgnb-lg-override": _STRESS.with_(
            scenario="lgnb", lg={"recirc_loop_ns": 2_000}),
        "lg-target": _STRESS.with_(lg={"target_loss_rate": 1e-12}),
        "params-target": _STRESS.with_axis("params.target_loss_rate", 1e-12),
        "both-targets": _STRESS.with_(lg={"target_loss_rate": 1e-6})
                               .with_axis("params.target_loss_rate", 1e-12),
        "bursty": _STRESS.with_axis("params.mean_burst", 3.0),
        "fallback": _STRESS.with_axis("params.n_copies_override", 3),
    },
    "goodput": {
        "default": _GOODPUT,
        "lgnb": _GOODPUT.with_(scenario="lgnb"),
        "wharf": _GOODPUT.with_(scenario="wharf"),
        "none": _GOODPUT.with_(scenario="none"),
        "lg-override": _GOODPUT.with_(lg={"recirc_loop_ns": 2_000}),
        "lg-target": _GOODPUT.with_(lg={"target_loss_rate": 1e-12}),
        "bursty": _GOODPUT.with_axis("params.mean_burst", 3.0),
    },
}


def _lifecycle_chunk() -> ExperimentSpec:
    from repro.fleet import FleetCampaignSpec, FleetSpec

    campaign = FleetCampaignSpec(
        fleet=FleetSpec(n_pods=1, tors_per_pod=4, fabrics_per_pod=4,
                        spine_uplinks=4, mttf_hours=300.0),
        duration_days=10.0, seed=3)
    return ExperimentSpec(
        kind="lifecycle_chunk", scenario="incremental", n_trials=1, seed=3,
        params={"replay": campaign.replay_spec().to_dict(), "chunk": 0})


def _other_packet_kinds():
    small_fleet = {"n_pods": 2, "tors_per_pod": 4, "fabrics_per_pod": 2,
                   "spine_uplinks": 4, "duration_days": 20.0,
                   "mttf_hours": 300.0}
    return {
        "multihop": ExperimentSpec(kind="multihop", flow_size=1460,
                                   n_trials=8, loss_rate=1e-2, seed=3),
        "timeline": ExperimentSpec(
            kind="timeline", rate_gbps=25.0, seed=3,
            params={"clean_ms": 0.5, "loss_ms": 0.5, "lg_ms": 0.5}),
        "rdma_reorder": ExperimentSpec(kind="rdma_reorder", flow_size=4_096,
                                       n_trials=8, loss_rate=1e-2, seed=3),
        "deployment": ExperimentSpec(kind="deployment", seed=3,
                                     params=small_fleet),
        "incremental": ExperimentSpec(
            kind="incremental", seed=3,
            params={**small_fleet, "fraction": 0.5}),
        "lifecycle_chunk": _lifecycle_chunk(),
        "checker": ExperimentSpec(kind="checker", n_trials=2, seed=7),
        "fig01": ExperimentSpec(kind="fig01"),
        "fig02": ExperimentSpec(kind="fig02"),
        "tab01": ExperimentSpec(kind="tab01", seed=3,
                                params={"n_samples": 2_000}),
        "fig20": ExperimentSpec(kind="fig20", seed=3,
                                params={"n_packets": 20_000}),
    }


def seam_cases():
    """Every pinned cell, by name."""
    cases = {
        f"{kind}/{backend}/{variant}": spec.with_(backend=backend)
        for kind, variants in _MATRIX.items()
        for variant, spec in variants.items()
        for backend in ("packet", "fastpath", "hybrid")
    }
    cases.update({f"{kind}/packet/tiny": spec
                  for kind, spec in _other_packet_kinds().items()})
    return cases


CASES = seam_cases()


def _digest(result) -> str:
    return hashlib.sha256(result.canonical_json().encode()).hexdigest()


GOLDEN = json.loads(DIGESTS.read_text())


class TestPinnedDigests:
    def test_every_case_is_pinned(self):
        assert sorted(GOLDEN) == sorted(CASES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_canonical_json_unchanged_since_the_parent(self, name):
        assert _digest(run_cell(CASES[name])) == GOLDEN[name]


# -- lg_config vs. the six bindings the parent carried ----------------------
#
# Reference copies, kept verbatim (plus the ``config is None`` default of
# the experiment each one fed), so the one rule can be checked against
# every rule it replaced.

def _site_fct(spec):
    """``cells._lg_config`` and ``splice._lg_config`` →
    ``run_fct_experiment(lg_config=...)``."""
    if not spec.lg:
        return LinkGuardianConfig.for_link_speed(
            spec.rate_gbps, ordered=(spec.scenario != "lgnb"))
    return LinkGuardianConfig.for_link_speed(spec.rate_gbps, **spec.lg)


def _site_packet_stress(spec):
    """``cells._run_stress`` → ``run_stress_test(config=...)``."""
    ordered = spec.scenario != "lgnb"
    if spec.lg:
        overrides = {"ordered": ordered, **spec.lg}
        if "target_loss_rate" in spec.params:
            overrides["target_loss_rate"] = spec.params["target_loss_rate"]
        return LinkGuardianConfig.for_link_speed(spec.rate_gbps, **overrides)
    return LinkGuardianConfig.for_link_speed(
        spec.rate_gbps, ordered=ordered,
        target_loss_rate=spec.params.get("target_loss_rate", 1e-8))


def _site_hybrid_stress(spec):
    """``splice._splice_stress``."""
    overrides = {"ordered": spec.scenario != "lgnb", **spec.lg}
    if "target_loss_rate" in spec.params:
        overrides["target_loss_rate"] = spec.params["target_loss_rate"]
    return LinkGuardianConfig.for_link_speed(spec.rate_gbps, **overrides)


def _site_grid(spec):
    """``grid._configs`` (+ ``_eval_stress``'s inline target override):
    the six fields the vectorized models read."""
    config = LinkGuardianConfig.for_link_speed(spec.rate_gbps, **spec.lg)
    return {
        "recirc_loop_ns": config.recirc_loop_ns,
        "resume_threshold_bytes": config.resume_threshold_bytes,
        "pause_threshold_bytes": config.pause_threshold_bytes,
        "target_loss_rate": spec.params.get(
            "target_loss_rate", config.target_loss_rate),
        "max_consecutive_retx": config.max_consecutive_retx,
        "dummy_copies": config.dummy_copies,
    }


def _site_validate_recirc(spec):
    """``validate._recirc``."""
    return LinkGuardianConfig.for_link_speed(
        spec.rate_gbps, **spec.lg).recirc_loop_ns


_LG_OVERRIDES = st.fixed_dictionaries({}, optional={
    "ordered": st.booleans(),
    "tail_loss_detection": st.booleans(),
    "backpressure": st.booleans(),
    "recirc_loop_ns": st.sampled_from([400, 2_000, 3_500]),
    "resume_threshold_bytes": st.sampled_from([20_000, 37_000]),
    "target_loss_rate": st.sampled_from([1e-6, 1e-8, 1e-12]),
    "dummy_copies": st.integers(1, 3),
})
#: ``target_loss_rate`` is a parameter of the stress kind only.
_STRESS_PARAMS = st.fixed_dictionaries({}, optional={
    "target_loss_rate": st.sampled_from([1e-5, 1e-10]),
    "duration_ms": st.just(1.0),
})
_SCENARIOS = st.sampled_from(["noloss", "loss", "lg", "lgnb"])
_RATES = st.sampled_from([10.0, 25.0, 100.0])


class TestOneConfigBinding:
    def test_lgnb_scenario_with_lg_override_runs_unordered(self, monkeypatch):
        """The drift this PR fixes: an ``lg`` override that omits
        ``ordered`` used to silently turn an lgnb FCT cell ordered on
        packet and hybrid (fastpath and the stress kind honoured the
        scenario)."""
        import repro.experiments.fct as owner

        built = []
        real = owner.run_fct_experiment

        def spy(**kwargs):
            built.append(kwargs["lg_config"])
            return real(**kwargs)

        monkeypatch.setattr(owner, "run_fct_experiment", spy)
        spec = ExperimentSpec(kind="fct", scenario="lgnb", flow_size=1460,
                              n_trials=30, loss_rate=2e-2, seed=3,
                              lg={"tail_loss_detection": False})
        explicit = spec.with_(
            lg={"ordered": False, "tail_loss_detection": False})
        for backend in ("packet", "hybrid"):
            implicit = run_cell(spec.with_(backend=backend))
            spelled = run_cell(explicit.with_(backend=backend))
            assert implicit.metrics == spelled.metrics
        assert len(built) == 4
        assert all(config.ordered is False
                   and config.tail_loss_detection is False
                   for config in built)

    @settings(max_examples=200, deadline=None)
    @given(scenario=_SCENARIOS, rate=_RATES, lg=_LG_OVERRIDES)
    def test_matches_the_fct_sites(self, scenario, rate, lg):
        spec = ExperimentSpec(kind="fct", scenario=scenario, rate_gbps=rate,
                              lg=lg)
        was = _site_fct(spec)
        if scenario == "lgnb" and lg and "ordered" not in lg:
            # the documented drift: everything but the ordering agrees
            assert was.ordered is True
            was = replace(was, ordered=False)
        assert lg_config(spec) == was

    @settings(max_examples=200, deadline=None)
    @given(scenario=_SCENARIOS, rate=_RATES, lg=_LG_OVERRIDES,
           params=_STRESS_PARAMS)
    def test_matches_the_stress_sites(self, scenario, rate, lg, params):
        spec = ExperimentSpec(kind="stress", scenario=scenario,
                              rate_gbps=rate, lg=lg, params=params)
        assert lg_config(spec) == _site_packet_stress(spec)
        assert lg_config(spec) == _site_hybrid_stress(spec)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["fct", "goodput", "stress"]),
           scenario=_SCENARIOS, rate=_RATES, lg=_LG_OVERRIDES,
           params=_STRESS_PARAMS)
    def test_matches_the_fastpath_and_validate_sites(
            self, kind, scenario, rate, lg, params):
        if kind != "stress":
            params = {}
        spec = ExperimentSpec(kind=kind, scenario=scenario, rate_gbps=rate,
                              lg=lg, params=params)
        config = lg_config(spec)
        assert {name: getattr(config, name)
                for name in _site_grid(spec)} == _site_grid(spec)
        assert config.recirc_loop_ns == _site_validate_recirc(spec)


# -- one executor ------------------------------------------------------------

def _canonical(results):
    return [r.canonical_json() for r in results]


def _fct_sweep(backend):
    return SweepSpec(
        name=f"seam-{backend}",
        base=_FCT.with_(backend=backend),
        axes={"scenario": ["lg", "lgnb"], "loss_rate": [5e-3, 2e-2]},
        seed=5)


class TestOneExecutor:
    @pytest.mark.parametrize("backend", ["packet", "fastpath", "hybrid"])
    def test_pool_sweep_and_serial_loop_agree(self, backend):
        sweep = _fct_sweep(backend)
        serial = [run_cell(cell) for cell in sweep.cells()]
        pooled = run_cells(sweep.cells(), workers=2)
        swept = SweepRunner(sweep, workers=2).run()
        assert [r.cell_id for r in pooled] == [
            c.cell_id() for c in sweep.cells()]
        assert _canonical(pooled) == _canonical(swept) == _canonical(serial)
        for result in pooled + swept + serial:
            assert result.backend == backend
            assert result.wall_s > 0.0

    def test_mixed_kinds_and_backends_keep_input_order(self):
        names = ["stress/hybrid/default", "fct/fastpath/lgnb",
                 "fig01/packet/tiny", "goodput/fastpath/wharf",
                 "fct/packet/default", "fct/fastpath/default",
                 "goodput/hybrid/default", "stress/fastpath/bursty"]
        specs = [CASES[name] for name in names]
        results = run_cells(specs, workers=2)
        assert [_digest(r) for r in results] == [GOLDEN[n] for n in names]

    @pytest.mark.parametrize("backend", ["packet", "fastpath", "hybrid"])
    def test_resumes_from_a_torn_checkpoint(self, backend, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        specs = _fct_sweep(backend).cells()
        full = run_cells(specs)
        with open(path, "w") as handle:
            for result in full[:2]:
                handle.write(result.to_json() + "\n")
            handle.write('{"cell_id": "torn-')
        executed = []
        resumed = run_cells(specs, checkpoint=path,
                            progress=lambda r: executed.append(r.cell_id))
        assert executed == [r.cell_id for r in full[2:]]
        assert _canonical(resumed) == _canonical(full)
        assert set(load_checkpoint(path)) == {r.cell_id for r in full}

    def test_unrunnable_cell_fails_before_any_cell_runs(self):
        ran = []
        specs = [_FCT, ExperimentSpec(kind="multihop", backend="fastpath")]
        with pytest.raises(ValueError, match="no fastpath backend"):
            run_cells(specs, progress=ran.append)
        assert ran == []


# -- one table ---------------------------------------------------------------

def _toy_cell(spec, ctx):
    return CellResult.for_spec(spec, {"answer": 42})


class TestOneTable:
    def test_runnable_pairs_are_exactly_the_parents(self):
        assert len(CELLS) == 20
        assert len(experiment_kinds("packet")) == 14
        assert experiment_kinds() == experiment_kinds("packet")
        assert experiment_kinds("fastpath") == ["fct", "goodput", "stress"]
        assert experiment_kinds("hybrid") == ["fct", "goodput", "stress"]
        assert backends() == ["packet", "fastpath", "hybrid"]
        assert [c.batch for (_, b), c in CELLS.items() if b == "fastpath"] \
            == [True] * 3
        assert not any(c.batch for (_, b), c in CELLS.items()
                       if b != "fastpath")

    @pytest.mark.parametrize("pair", sorted(CELLS))
    def test_every_row_resolves_into_its_owner(self, pair):
        module, _, name = CELLS[pair].owner.partition(":")
        function = cells.resolve(*pair)
        assert callable(function)
        assert function is getattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("kind, backend, message", [
        ("nope", "packet", r"unknown experiment kind 'nope'; known: .*fct"),
        ("fct", "gpu", r"unknown backend 'gpu'; known: packet, fastpath, hybrid"),
        ("multihop", "hybrid",
         r"kind 'multihop' has no hybrid backend; it runs on: packet$"),
        ("fig01", "fastpath",
         r"kind 'fig01' has no fastpath backend; it runs on: packet$"),
    ])
    def test_missing_row_is_one_error_naming_the_choices(
            self, kind, backend, message):
        spec = ExperimentSpec(kind=kind, backend=backend)
        for ask in (lambda: lookup(kind, backend), lambda: run_cell(spec),
                    lambda: run_cells([spec])):
            with pytest.raises(ValueError, match=message):
                ask()
        with pytest.raises(QueryError, match=message):
            WhatIfQuery({"loss_rate": 1e-3, "kind": kind, "backend": backend})

    def test_a_new_row_is_seen_by_every_view(self, monkeypatch):
        owner = f"{__name__}:_toy_cell"
        monkeypatch.setitem(CELLS, ("toy", "abacus"), Cell(owner))
        monkeypatch.setitem(CELLS, ("toy", "fastpath"), Cell(owner))
        monkeypatch.setitem(CELLS, ("toy", "hybrid"), Cell(owner))

        assert "toy" in experiment_kinds()
        assert backends() == ["packet", "fastpath", "hybrid", "abacus"]
        assert backends("toy") == ["abacus", "fastpath", "hybrid"]
        assert "toy" in repro.fastpath.FASTPATH_KINDS
        assert "toy" in repro.fastpath.HYBRID_KINDS
        spec = ExperimentSpec(kind="toy", backend="abacus")
        assert run_cell(spec).metrics == {"answer": 42}
        assert run_cells([spec])[0].backend == "abacus"
        query = WhatIfQuery(
            {"loss_rate": 1e-3, "kind": "toy", "backend": "abacus"})
        assert query.spec.backend == "abacus"
        args = cli.build_parser(["sweep"]).parse_args(
            ["sweep", "--kind", "toy", "--backend", "abacus"])
        assert args.backend == "abacus"
        with pytest.raises(ValueError, match="it runs on: abacus, fastpath"):
            lookup("toy", "packet")

    def test_table_views_forget_a_removed_row(self, monkeypatch):
        monkeypatch.delitem(CELLS, ("stress", "hybrid"))
        assert repro.fastpath.HYBRID_KINDS == ("fct", "goodput")
        with pytest.raises(QueryError, match="it runs on: packet, fastpath"):
            WhatIfQuery({"loss_rate": 1e-3, "kind": "stress",
                         "backend": "hybrid"})


if __name__ == "__main__":  # pragma: no cover - the recorder
    DIGESTS.write_text(json.dumps(
        {name: _digest(run_cell(spec)) for name, spec in sorted(CASES.items())},
        indent=1, sort_keys=True) + "\n")
    raise SystemExit(0)
