"""Backend plumbing: run_cell dispatch, sweeps, checkpoints, fleet tiers."""

import pytest

from repro.fastpath import FASTPATH_KINDS
from repro.fleet.campaign import FleetCampaignSpec, run_fleet_campaign
from repro.fleet.topology import FleetSpec
from repro.obs import Observability
from repro.runner.cells import run_cell
from repro.runner.harness import CellResult
from repro.runner.spec import ExperimentSpec, SweepSpec
from repro.runner.sweep import SweepRunner, load_checkpoint, run_cells

FCT_SPEC = ExperimentSpec(kind="fct", transport="dctcp", scenario="lg",
                          flow_size=1460, loss_rate=1e-3, n_trials=50)


class TestRunCellDispatch:
    def test_fastpath_result_mirrors_packet_metric_names(self):
        fast = run_cell(FCT_SPEC.with_(backend="fastpath"))
        packet = run_cell(FCT_SPEC)
        assert fast.backend == "fastpath"
        assert packet.backend == "packet"
        for key in ("p50_us", "p99_us", "affected", "trials"):
            assert key in fast.metrics and key in packet.metrics

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_cell(FCT_SPEC.with_(backend="gpu"))

    def test_fastpath_rejects_unmodeled_kind(self):
        spec = ExperimentSpec(kind="timeline", backend="fastpath")
        with pytest.raises(ValueError, match="no fastpath backend"):
            run_cell(spec)
        with pytest.raises(ValueError, match="no fastpath backend"):
            run_cells([spec])
        assert "timeline" not in FASTPATH_KINDS

    def test_grid_key_excludes_backend_and_seed(self):
        spec = FCT_SPEC.with_(seed=123)
        assert spec.grid_key() == FCT_SPEC.with_(backend="fastpath").grid_key()
        # cell_id still distinguishes the backends (digest covers it)
        assert spec.cell_id() != spec.with_(backend="fastpath").cell_id()

    def test_result_row_carries_backend_and_wall_clock(self):
        result = run_cell(FCT_SPEC.with_(backend="fastpath"))
        row = result.row()
        assert row["backend"] == "fastpath"
        assert "wall_s" in row
        # wall clock is bookkeeping, not identity
        assert '"wall_s"' not in result.canonical_json()
        assert '"backend"' in result.canonical_json()


def _sweep(backend, checkpoint=None, workers=1):
    base = FCT_SPEC.with_(backend=backend)
    sweep = SweepSpec(name="bk", base=base,
                      axes={"loss_rate": [1e-3, 5e-3],
                            "flow_size": [143, 1460]},
                      seed=11)
    return SweepRunner(sweep, workers=workers, checkpoint=checkpoint)


class TestSweepBatching:
    def test_fastpath_sweep_matches_per_cell_results(self):
        results = _sweep("fastpath").run()
        assert [r.backend for r in results] == ["fastpath"] * 4
        for spec, batched in zip(_sweep("fastpath").sweep.cells(), results):
            single = run_cell(spec)
            assert single.canonical_json() == batched.canonical_json()

    def test_checkpoint_roundtrip_and_resume(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        first = _sweep("fastpath", checkpoint=path).run()
        done = load_checkpoint(path)
        assert sorted(done) == sorted(r.cell_id for r in first)
        for result in done.values():
            assert result.backend == "fastpath"

        resumed_runner = _sweep("fastpath", checkpoint=path)
        resumed = resumed_runner.run()
        assert resumed_runner.resumed == 4
        assert [r.canonical_json() for r in resumed] == [
            r.canonical_json() for r in first]

    def test_checkpoint_line_roundtrips_backend(self):
        result = run_cell(FCT_SPEC.with_(backend="fastpath"))
        again = CellResult.from_json(result.to_json())
        assert again.backend == "fastpath"
        assert again.canonical_json() == result.canonical_json()


def _campaign(**overrides) -> FleetCampaignSpec:
    defaults = dict(
        fleet=FleetSpec(n_pods=1, tors_per_pod=4, fabrics_per_pod=4,
                        spine_uplinks=4, mttf_hours=300.0),
        duration_days=20.0,
        seed=3,
    )
    defaults.update(overrides)
    return FleetCampaignSpec(**defaults)


class TestFleetTwoTier:
    def test_backend_and_resim_fraction_validated(self):
        with pytest.raises(ValueError, match="unknown backend"):
            _campaign(backend="gpu")
        with pytest.raises(ValueError, match="resim_fraction"):
            _campaign(resim_fraction=1.5)

    def test_full_resim_reproduces_packet_slos_exactly(self):
        packet = run_fleet_campaign(_campaign(backend="packet"))
        fast = run_fleet_campaign(
            _campaign(backend="fastpath", resim_fraction=1.0))
        assert fast.slos == packet.slos
        assert fast.counts == packet.counts

    def test_fastpath_sharding_invariance(self):
        serial = run_fleet_campaign(
            _campaign(backend="fastpath", n_shards=1), workers=1)
        sharded = run_fleet_campaign(
            _campaign(backend="fastpath", n_shards=4), workers=2)
        assert serial.canonical_json() == sharded.canonical_json()

    def test_campaign_summary_flows_through_metrics_registry(self):
        obs = Observability()
        campaign = _campaign(backend="fastpath", n_shards=2)
        run_fleet_campaign(campaign, obs=obs)
        snapshot = obs.registry.snapshot()
        summary = snapshot["fleet.campaign.summary"]
        assert summary["backend"] == "fastpath"
        assert summary["cells"] == 2
        assert summary["backend_mix"] == {"fastpath": 2}
        assert summary["flagged_resim"] >= 1
        assert snapshot["fleet.campaign.runs"]["value"] == 1
        assert snapshot["fleet.campaign.cells.fastpath"]["value"] == 2
