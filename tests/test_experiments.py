"""Integration smoke tests for the experiment harness (small parameters)."""

import pytest

from repro.experiments.deployment import (
    penalty_gain, run_deployment_comparison,
)
from repro.experiments.fct import run_fct_experiment
from repro.experiments.figures import (
    figure1_attenuation_series, figure2_flow_size_cdfs,
    figure20_consecutive_losses, table1_loss_buckets,
)
from repro.experiments.goodput import run_goodput
from repro.experiments.mechanisms import (
    MECHANISM_VARIANTS, mechanism_spec, mechanism_study,
)
from repro.experiments.stress import run_stress_test
from repro.experiments.timeline import run_timeline
from repro.runner import ExperimentSpec, run_cell


class TestStressHarness:
    def test_clean_link_full_speed(self):
        result = run_stress_test(rate_gbps=100, loss_rate=0.0, duration_ms=0.5)
        assert result.loss_events == 0
        assert result.effective_link_speed_fraction == pytest.approx(1.0, abs=0.01)

    def test_recovers_practically_everything(self):
        result = run_stress_test(rate_gbps=100, loss_rate=1e-3, duration_ms=2.0)
        assert result.loss_events > 0
        assert result.recovered == result.loss_events
        assert result.timeouts == 0
        assert result.effective_link_speed_fraction > 0.97

    def test_equation2_copies_applied(self):
        result = run_stress_test(rate_gbps=100, loss_rate=1e-3, duration_ms=1.0)
        assert result.n_copies == 2
        assert result.effective_loss_expected == pytest.approx(1e-9)

    def test_measured_effective_loss_matches_expectation_at_high_rate(self):
        """With N forced to 1 at 5% loss, all-copies-lost events are
        frequent enough to measure: p**2 = 0.25%."""
        result = run_stress_test(
            rate_gbps=100, loss_rate=0.05, duration_ms=6.0, n_copies_override=1,
        )
        assert result.effective_loss_measured == pytest.approx(0.0025, rel=0.5)

    def test_nb_mode_uses_no_rx_buffer(self):
        result = run_stress_test(rate_gbps=100, loss_rate=1e-3, ordered=False,
                                 duration_ms=1.0)
        assert result.rx_buffer["max"] == 0

    def test_recirc_overhead_below_one_percent(self):
        result = run_stress_test(rate_gbps=100, loss_rate=1e-3, duration_ms=1.0)
        assert result.recirc_overhead_tx_percent < 1.0
        assert result.recirc_overhead_rx_percent < 1.0


class TestFctHarness:
    def test_runs_all_transports(self):
        for transport in ("dctcp", "cubic", "bbr", "rdma"):
            result = run_fct_experiment(transport, 143, n_trials=30,
                                        scenario="noloss")
            assert len(result.fcts_us) == 30
            assert result.incomplete == 0

    def test_rejects_unknown_inputs(self):
        with pytest.raises(ValueError):
            run_fct_experiment(scenario="bogus")
        with pytest.raises(ValueError):
            run_fct_experiment(transport="quic")

    def test_lg_beats_loss_at_tail(self):
        loss = run_fct_experiment("dctcp", 143, 400, "loss", loss_rate=3e-2, seed=6)
        lg = run_fct_experiment("dctcp", 143, 400, "lg", loss_rate=3e-2, seed=6)
        assert loss.fcts_us.max() > 1_000   # RTO hit
        assert lg.fcts_us.max() < 200       # masked

    def test_classification_runs_on_lgnb(self):
        result = run_fct_experiment("dctcp", 24_387, 200, "lgnb",
                                    loss_rate=2e-2, seed=6)
        tree = result.classification()
        assert tree.total == 200
        groups = tree.group_a + tree.group_b + tree.group_c + tree.group_d
        assert groups == tree.affected


class TestTimelineHarness:
    def test_phases_have_expected_shape(self):
        result = run_timeline("dctcp", rate_gbps=10, loss_rate=5e-3,
                              clean_ms=4, loss_ms=8, lg_ms=8,
                              sample_interval_ns=250_000)
        clean = result.phase_mean_rate(1.5, 4)
        lossy = result.phase_mean_rate(6, 12)
        guarded = result.phase_mean_rate(15, 20)
        assert clean > 8.0
        assert lossy < clean
        assert guarded > lossy

    def test_sample_arrays_aligned(self):
        result = run_timeline("cubic", rate_gbps=10, loss_rate=1e-3,
                              clean_ms=2, loss_ms=2, lg_ms=2,
                              sample_interval_ns=500_000)
        n = len(result.times_ms)
        assert len(result.send_rate_gbps) == n
        assert len(result.qdepth_kb) == n
        assert len(result.rx_buffer_kb) == n
        assert len(result.e2e_retx) == n


class TestGoodputHarness:
    def test_wharf_na_on_clean_link(self):
        with pytest.raises(ValueError):
            run_goodput("wharf", loss_rate=0.0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_goodput("fec9000")

    def test_wharf_pays_code_rate_tax(self):
        clean = run_goodput("none", loss_rate=0.0, transfer_bytes=400_000)
        wharf = run_goodput("wharf", loss_rate=1e-4, transfer_bytes=400_000)
        assert wharf["goodput_gbps"] < clean["goodput_gbps"]
        assert wharf["goodput_gbps"] > 0.9 * clean["goodput_gbps"] * 25 / 26


class TestMechanismStudy:
    def test_all_variants_present(self):
        study = mechanism_study([
            run_cell(mechanism_spec(variant, n_trials=60, loss_rate=1e-2,
                                    seed=2))
            for variant in MECHANISM_VARIANTS])
        assert set(study) == set(MECHANISM_VARIANTS)
        for row in study.values():
            assert row["trials"] > 0


class TestDeploymentComparison:
    KWARGS = dict(capacity_constraint=0.75, n_pods=2, tors_per_pod=8,
                  fabrics_per_pod=4, spine_uplinks=8,
                  duration_days=40, mttf_hours=800, seed=3)

    def test_same_trace_for_both_policies(self, monkeypatch):
        from repro.experiments import deployment

        fed = []
        replay = deployment.replay_corropt

        def spy(trace, constraint, fraction, *args):
            fed.append((fraction, trace))
            return replay(trace, constraint, fraction, *args)

        monkeypatch.setattr(deployment, "replay_corropt", spy)
        comparison = run_deployment_comparison(**self.KWARGS)
        (f0, vanilla_trace), (f1, combined_trace) = fed
        assert (f0, f1) == (0.0, 1.0)
        # §4.8: literally the same failure trace, event for event
        assert vanilla_trace.events == combined_trace.events
        assert len(vanilla_trace.events) >= comparison.vanilla.corruption_events > 0
        gain = penalty_gain(comparison.series())
        assert (gain >= 1.0 - 1e-9).mean() > 0.9  # LG ~never makes penalty worse

    def test_same_seed_same_output(self):
        first = run_deployment_comparison(**self.KWARGS)
        second = run_deployment_comparison(**self.KWARGS)
        assert first.summary() == second.summary()
        assert (first.combined.total_penalty == second.combined.total_penalty).all()
        other = run_deployment_comparison(**{**self.KWARGS, "seed": 4})
        assert other.summary() != first.summary()


class TestCellsCarryWhatTheFiguresRead:
    """Figures 13, 15/16 and the Tofino2 study read their cells' metrics
    and series; each equals what the experiment's own result holds."""

    @pytest.mark.parametrize("scenario, loss_rate",
                             [("lgnb", 2e-2), ("loss", 5e-2)])
    def test_fct_cell_carries_the_classification(self, scenario, loss_rate):
        spec = ExperimentSpec(kind="fct", scenario=scenario, flow_size=24_387,
                              n_trials=100, loss_rate=loss_rate, seed=6)
        metrics = run_cell(spec).metrics
        result = run_fct_experiment("dctcp", 24_387, 100, scenario,
                                    loss_rate=loss_rate, seed=6)
        tree = result.classification()
        assert tree.affected > 0
        assert {k: metrics[k] for k in (
            "trials", "sack_flows", "sack_le_2mss", "group_a", "group_b",
            "group_c", "group_d")} == {
            "trials": tree.total, "sack_flows": tree.affected,
            "sack_le_2mss": tree.le_2mss, "group_a": tree.group_a,
            "group_b": tree.group_b, "group_c": tree.group_c,
            "group_d": tree.group_d}
        # LG_NB leaves no RTO tail; the unprotected link does
        assert metrics["rto_flows"] == sum(
            1 for r in result.records if r.timeouts)
        assert (metrics["rto_flows"] > 0) == (scenario == "loss")

    def test_stress_cell_carries_pauses(self):
        spec = ExperimentSpec(kind="stress", loss_rate=5e-3, seed=27,
                              params={"duration_ms": 1.0})
        result = run_stress_test(rate_gbps=100, loss_rate=5e-3, seed=27,
                                 duration_ms=1.0)
        assert result.pauses > 0
        assert run_cell(spec).metrics["pauses"] == result.pauses

    def test_deployment_cell_carries_the_hourly_series(self):
        kwargs = dict(TestDeploymentComparison.KWARGS)
        seed = kwargs.pop("seed")
        cell = run_cell(ExperimentSpec(kind="deployment", seed=seed,
                                       params=kwargs))
        comparison = run_deployment_comparison(seed=seed, **kwargs)
        expected = comparison.series()
        assert len(expected) == 6 and sorted(cell.series) == sorted(expected)
        for name, values in expected.items():
            assert cell.series[name] == values.tolist()
        assert cell.metrics == comparison.summary()


class TestFigureModels:
    def test_figure1_series_complete(self):
        series = figure1_attenuation_series(attenuations_db=[9, 12, 15, 18])
        assert len(series) == 5  # 4 transceivers + axis

    def test_figure2_table_complete(self):
        table = figure2_flow_size_cdfs(sizes=(143, 1460))
        assert len(table) == 7  # 6 workloads + axis

    def test_table1_rows(self):
        rows = table1_loss_buckets(n_samples=20_000)
        assert len(rows) == 4
        assert sum(r["published_%"] for r in rows) == pytest.approx(100, abs=0.2)

    def test_figure20_coverage(self):
        results = figure20_consecutive_losses(n_packets=100_000)
        for data in results.values():
            assert 0.9 < data["five_register_coverage"] <= 1.0
