"""The hybrid splicing backend: conditioning, windows, fallbacks, fleet tier.

``backend="hybrid"`` advances cells analytically through their loss-free
bulk and instantiates snapshot-seeded packet-engine windows around the
corruption events (``repro.fastpath.splice``).  These tests pin down:

* the conditioned-placement draw (de-noised affected count, ``k >= 1``
  per trial, reproducibility from the named RNG stream);
* hybrid-vs-packet agreement on real cells within the documented
  validation tolerances, with the p50 engine-exact via the clean
  template;
* the packet-fallback contract — byte-identical metrics to
  ``backend="packet"`` for cells the splicer cannot condition;
* dispatch through ``run_cell`` / ``SweepRunner`` and the fleet
  campaign's hybrid middle tier;
* the cross-validation harness with ``backend="hybrid"``.
"""

import numpy as np
import pytest

from repro.analysis.stats import percentile
from repro.core.rng import RngFactory
from repro.fastpath import HYBRID_KINDS
from repro.fastpath.splice import (
    _binomial_at_least_one, conditioned_placements,
)
from repro.fastpath.validate import TOLERANCES, default_grid, run_validation
from repro.fleet.campaign import run_fleet_campaign
from repro.lifecycle.replay import (
    HYBRID_EMPIRICAL_THRESHOLD, _AffectedEvaluator, arbitrate,
)
from repro.runner.cells import run_cell
from repro.runner.spec import ExperimentSpec, SweepSpec
from repro.runner.sweep import SweepRunner


def _seeded(spec: ExperimentSpec, root: int = 1) -> ExperimentSpec:
    """Per-cell seed derived from grid coordinates, as in a sweep."""
    return spec.with_(seed=RngFactory(root).child_seed(spec.grid_key()))


FIG10 = _seeded(ExperimentSpec(
    kind="fct", transport="dctcp", scenario="lg", flow_size=143,
    loss_rate=1e-3, n_trials=150, rate_gbps=100.0))
DENSE = _seeded(ExperimentSpec(
    kind="fct", transport="dctcp", scenario="lgnb", flow_size=24387,
    loss_rate=2e-2, n_trials=150, rate_gbps=100.0))
STRESS = _seeded(ExperimentSpec(
    kind="stress", scenario="lg", loss_rate=5e-3, rate_gbps=100.0,
    params={"duration_ms": 1.0}))


class TestConditionedPlacements:
    def test_reproducible_from_stream(self):
        draws = []
        for _ in range(2):
            rng = RngFactory(7).stream("hybrid.fct")
            draws.append(conditioned_placements(17, 2e-2, 150, rng))
        assert len(draws[0]) == len(draws[1])
        for a, b in zip(*draws):
            assert np.array_equal(a, b)

    def test_count_is_denoised_expectation(self):
        """The affected count is round(n_trials * p_any), not a draw —
        so the validation comparison carries only the packet side's
        sampling noise."""
        n_frames, p, n_trials = 17, 2e-2, 150
        p_any = -np.expm1(n_frames * np.log1p(-p))
        rng = RngFactory(3).stream("hybrid.fct")
        placements = conditioned_placements(n_frames, p, n_trials, rng)
        assert len(placements) == int(round(n_trials * p_any))

    def test_each_trial_loses_at_least_once(self):
        rng = RngFactory(11).stream("hybrid.fct")
        for positions in conditioned_placements(17, 5e-2, 400, rng):
            assert len(positions) >= 1
            assert len(np.unique(positions)) == len(positions)
            assert positions.min() >= 0 and positions.max() < 17
            assert np.array_equal(positions, np.sort(positions))

    def test_zero_loss_yields_no_placements(self):
        rng = np.random.default_rng(0)
        assert conditioned_placements(17, 0.0, 150, rng) == []

    def test_binomial_at_least_one_bounds_and_mean(self):
        n, p = 17, 5e-2
        us = (np.arange(4000) + 0.5) / 4000.0
        ks = np.array([_binomial_at_least_one(n, p, u) for u in us])
        assert ks.min() == 1 and ks.max() <= n
        p_any = -np.expm1(n * np.log1p(-p))
        assert ks.mean() == pytest.approx(n * p / p_any, rel=1e-3)


class TestFctSplicer:
    def test_sparse_cell_matches_packet(self):
        hybrid = run_cell(FIG10.with_(backend="hybrid"))
        packet = run_cell(FIG10)
        # p50 is engine-exact: the clean template ran in the real engine.
        assert hybrid.metrics["p50_us"] == pytest.approx(
            packet.metrics["p50_us"], rel=1e-9)
        # One-packet flows at p=1e-3: expect ~0 affected trials and a
        # near-total reduction in simulated work.
        assert hybrid.metrics["simulated_trials"] <= 5
        assert hybrid.metrics["trials"] == FIG10.n_trials
        assert hybrid.backend == "hybrid"

    def test_dense_cell_within_tolerances(self):
        hybrid = run_cell(DENSE.with_(backend="hybrid"))
        packet = run_cell(DENSE)
        hm, pm = hybrid.metrics, packet.metrics
        assert hm["p50_us"] == pytest.approx(pm["p50_us"], rel=1e-9)
        tol = TOLERANCES["fct.p99_us"][0]
        assert hm["p99_us"] == pytest.approx(pm["p99_us"], rel=tol)
        # affected: de-noised expectation vs the packet draw — within
        # the documented 3-sigma band.
        lam = max(float(pm["affected"]), 1.0)
        assert abs(hm["affected"] - pm["affected"]) <= max(
            TOLERANCES["fct.affected"][0] * lam, 3.0 * np.sqrt(lam))
        assert hm["simulated_trials"] < DENSE.n_trials

    def test_loss_scenario_falls_back_byte_identical(self):
        spec = _seeded(ExperimentSpec(
            kind="fct", transport="dctcp", scenario="loss", flow_size=143,
            loss_rate=1e-3, n_trials=40, rate_gbps=100.0))
        hybrid = run_cell(spec.with_(backend="hybrid"))
        packet = run_cell(spec)
        assert hybrid.metrics == packet.metrics
        assert hybrid.series == packet.series
        assert hybrid.backend == "hybrid"
        assert hybrid.spec["backend"] == "hybrid"

    def test_fcts_series_has_full_trial_count(self):
        hybrid = run_cell(FIG10.with_(backend="hybrid"))
        assert len(hybrid.series["fcts_us"]) == FIG10.n_trials


class TestStressSplicer:
    def test_windows_harvest_engine_delays(self):
        hybrid = run_cell(STRESS.with_(backend="hybrid"))
        packet = run_cell(STRESS)
        hm = hybrid.metrics
        assert hm["windows"] >= 1
        delays = hybrid.series["retx_delays_us"]
        assert len(delays) >= hm["windows"] // 2
        # Window delays live in the same band as the engine's empirical
        # recoveries (uniform phase against the recirculation loop).
        p_delays = packet.series["retx_delays_us"]
        if p_delays:
            assert hm["retx_p50_us"] == pytest.approx(
                percentile(p_delays, 50),
                rel=TOLERANCES["stress.retx_p50_us"][0])
        # Macro counters ride the same closed forms as fastpath.
        assert hm["N"] == packet.metrics["N"]
        assert hm["eff_speed_%"] == pytest.approx(
            packet.metrics["eff_speed_%"],
            rel=TOLERANCES["stress.eff_speed_%"][0])

    def test_zero_loss_is_analytic_only(self):
        spec = _seeded(ExperimentSpec(
            kind="stress", scenario="lg", loss_rate=0.0, rate_gbps=100.0,
            params={"duration_ms": 1.0}))
        hybrid = run_cell(spec.with_(backend="hybrid"))
        assert hybrid.series["retx_delays_us"] == []
        assert "windows" not in hybrid.metrics

    def test_unmodeled_params_fall_back(self):
        spec = _seeded(ExperimentSpec(
            kind="stress", scenario="lg", loss_rate=5e-3, rate_gbps=100.0,
            params={"duration_ms": 1.0, "n_copies_override": 4}))
        hybrid = run_cell(spec.with_(backend="hybrid"))
        packet = run_cell(spec)
        assert hybrid.metrics == packet.metrics
        assert hybrid.backend == "hybrid"


class TestDispatch:
    def test_run_cell_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_cell(FIG10.with_(backend="warp"))

    def test_unknown_kind_rejected_with_supported_list(self):
        spec = _seeded(ExperimentSpec(kind="timeline", backend="hybrid"))
        with pytest.raises(ValueError, match="timeline"):
            run_cell(spec)
        assert set(HYBRID_KINDS) == {"fct", "goodput", "stress"}

    def test_goodput_delegates_to_fastpath(self):
        spec = _seeded(ExperimentSpec(
            kind="goodput", transport="cubic", scenario="lg",
            loss_rate=1e-3, rate_gbps=10.0))
        hybrid = run_cell(spec.with_(backend="hybrid"))
        fast = run_cell(spec.with_(backend="fastpath"))
        assert hybrid.metrics == fast.metrics
        assert hybrid.backend == "hybrid"

    def test_sweep_runs_hybrid_cells(self, tmp_path):
        sweep = SweepSpec(
            name="hybrid-smoke",
            base=ExperimentSpec(
                kind="fct", transport="dctcp", scenario="lg",
                flow_size=143, n_trials=20, rate_gbps=100.0,
                backend="hybrid"),
            axes={"loss_rate": [1e-3, 5e-3]},
            seed=5,
        )
        path = tmp_path / "ckpt.jsonl"
        results = SweepRunner(sweep, checkpoint=str(path)).run()
        assert [r.backend for r in results] == ["hybrid", "hybrid"]
        # resume: nothing re-runs, results come back from the checkpoint
        runner = SweepRunner(sweep, checkpoint=str(path))
        again = runner.run()
        assert runner.resumed == 2
        assert [r.to_json() for r in again] == [r.to_json() for r in results]

    def test_grid_key_excludes_backend(self):
        assert (FIG10.with_(backend="hybrid").grid_key()
                == FIG10.grid_key())


class TestFleetHybridTier:
    def _campaign(self, **overrides):
        from repro.fleet.campaign import FleetCampaignSpec
        from repro.fleet.topology import FleetSpec

        defaults = dict(
            fleet=FleetSpec(n_pods=1, tors_per_pod=4, fabrics_per_pod=4,
                            spine_uplinks=4, mttf_hours=300.0),
            duration_days=20.0,
            seed=3,
        )
        defaults.update(overrides)
        return FleetCampaignSpec(**defaults)

    def test_hybrid_backend_accepted(self):
        result = run_fleet_campaign(self._campaign(backend="hybrid"))
        assert result.spec["backend"] == "hybrid"

    def test_episode_split_straddles_threshold(self):
        """Light episodes stay analytic (identical to fastpath); heavy
        episodes go empirical (identical to packet).  Long flows and no
        flagged resim, so the threshold alone decides and both sides of
        it are populated."""
        def fractions(backend):
            replay = self._campaign(backend=backend, flow_packets=1000,
                                    resim_fraction=0.0).replay_spec()
            episodes = arbitrate(replay)[0]
            evaluator = _AffectedEvaluator(replay, episodes)
            return [evaluator(i) for i in range(len(episodes))]

        packet, fast, hybrid = map(fractions, ("packet", "fastpath", "hybrid"))
        heavy = [f >= HYBRID_EMPIRICAL_THRESHOLD for f in fast]
        assert any(heavy) and not all(heavy)
        for is_heavy, got, sampled, analytic in zip(heavy, hybrid, packet, fast):
            assert got == (sampled if is_heavy else analytic)

    def test_sharding_independent(self):
        serial = run_fleet_campaign(self._campaign(backend="hybrid"))
        sharded = run_fleet_campaign(
            self._campaign(backend="hybrid", n_shards=4))
        assert serial.canonical_json() == sharded.canonical_json()


class TestHybridValidation:
    def test_report_carries_backend_tag(self):
        specs = default_grid(8, seed=2)
        report = run_validation(specs=specs, backend="hybrid")
        assert report.backend == "hybrid"
        assert "hybrid" in report.to_dict()["backend"]
        report.raise_if_failed()

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_validation(specs=default_grid(4, seed=2), backend="packet")

    def test_small_grid_passes(self):
        specs = default_grid(24, seed=6)
        report = run_validation(specs=specs, backend="hybrid", workers=2)
        report.raise_if_failed()
        assert report.n_cells == len(specs)

    @pytest.mark.slow
    def test_acceptance_200_cell_hybrid_validation(
            self, acceptance_validation):
        report = acceptance_validation("hybrid")
        report.raise_if_failed()
        assert report.n_cells >= 200
