"""Tests for repro.blame: evidence, paths, voting, and the adapter.

Bottom-up: ECMP path inference shapes and determinism, the flow-report
harvester's windowing invariance and telemetry-loss model, the 007 vote
(explain-away, noise bar, loss inversion), the accuracy evaluation at
three telemetry-coverage levels against ground truth, the BlameMonitor
driving FleetController to the same decisions as the counter oracle,
and the activation-policy registry + trace-replay optimizer that rode
along in ``repro.fleet.policies``.
"""

import math

import pytest

from repro.blame import (
    BlameEvalSpec, EvidenceSpec, FlowReport, LossOracle,
    decision_signature, default_fleet_evidence, ecmp_path, evaluate_blame,
    flow_endpoints, flow_flag_probability, harvest_evidence, invert_flow_loss,
    iter_reports, parse_flow_report, run_oracle, run_voting, tally_votes,
)
from repro.core.rng import RngFactory
from repro.fleet.controller import ControllerConfig, FleetController
from repro.fleet.cost import segment_cost
from repro.fleet.policies import (
    POLICIES, GreedyWorstLinkPolicy, IncrementalDeploymentPolicy,
    PolicyCandidate, default_candidates, fleet_policy, optimize_policies,
    register_policy,
)
from repro.fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology
from repro.monitor.corruptd import LossWindow

SMALL_FLEET = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                        spine_uplinks=4, mttf_hours=300.0)


def make_topology(seed: int = 1) -> FleetTopology:
    return FleetTopology(SMALL_FLEET, seed=seed)


def episode(link_id: int, onset: float, clear: float,
            loss: float = 1e-3) -> CorruptionEpisode:
    return CorruptionEpisode(link_id=link_id, onset_s=onset, clear_s=clear,
                             loss_rate=loss, mean_burst=1.0)


class TestEcmpPaths:
    def test_path_shapes(self):
        topology = make_topology()
        # Same ToR: no fabric links crossed.
        assert ecmp_path(topology, 0, 1, 0, 1, flow_label=9) == ()
        # Same pod, different ToRs: up to a fabric switch and back down.
        intra = ecmp_path(topology, 0, 0, 0, 3, flow_label=9)
        assert len(intra) == 2
        # Different pods: two tor-fabric hops + two fabric-spine hops.
        inter = ecmp_path(topology, 0, 0, 1, 3, flow_label=9)
        assert len(inter) == 4
        for path in (intra, inter):
            assert all(0 <= link < topology.n_links for link in path)

    def test_deterministic_and_label_sensitive(self):
        topology = make_topology()
        a = ecmp_path(topology, 0, 1, 1, 2, flow_label=7, seed=3)
        b = ecmp_path(topology, 0, 1, 1, 2, flow_label=7, seed=3)
        assert a == b
        paths = {ecmp_path(topology, 0, 1, 1, 2, flow_label=label)
                 for label in range(64)}
        assert len(paths) > 1          # hashing actually spreads load

    def test_intra_pod_path_kinds(self):
        topology = make_topology()
        path = ecmp_path(topology, 1, 0, 1, 2, flow_label=5)
        kinds = [topology.link(link).kind for link in path]
        assert kinds == ["tor-fabric", "tor-fabric"]
        pods = {topology.link(link).pod for link in path}
        assert pods == {1}

    def test_endpoints_always_distinct_tors(self):
        factory = RngFactory(11)
        for index in range(200):
            rng = factory.stream("endpoints", index=index)
            src_pod, src_tor, dst_pod, dst_tor = flow_endpoints(
                rng, SMALL_FLEET.n_pods, SMALL_FLEET.tors_per_pod)
            assert (src_pod, src_tor) != (dst_pod, dst_tor)


class TestEvidence:
    def test_windowing_never_perturbs_reports(self):
        topology = make_topology()
        spec = EvidenceSpec(flows_per_s=100.0, seed=5)
        episodes = [episode(3, 0.0, 30.0)]
        whole = harvest_evidence(spec, topology, episodes, 0.0, 30.0)
        split = (harvest_evidence(spec, topology, episodes, 0.0, 13.0)
                 + harvest_evidence(spec, topology, episodes, 13.0, 30.0))
        assert whole == split

    def test_coverage_drops_reports_deterministically(self):
        topology = make_topology()
        full = EvidenceSpec(flows_per_s=200.0, coverage=1.0, seed=2)
        partial = EvidenceSpec(flows_per_s=200.0, coverage=0.4, seed=2)
        all_reports = harvest_evidence(full, topology, [], 0.0, 30.0)
        kept = harvest_evidence(partial, topology, [], 0.0, 30.0)
        assert 0 < len(kept) < len(all_reports)
        assert 0.25 < len(kept) / len(all_reports) < 0.55
        # Surviving reports are a subset, byte-identical.
        by_id = {report.flow_id: report for report in all_reports}
        assert all(by_id[report.flow_id] == report for report in kept)

    def test_planted_loss_raises_flag_rate(self):
        topology = make_topology()
        spec = EvidenceSpec(flows_per_s=400.0, seed=3)
        clean = harvest_evidence(spec, topology, [], 0.0, 30.0)
        lossy = harvest_evidence(
            spec, topology, [episode(5, 0.0, 30.0, loss=2e-3)], 0.0, 30.0)
        clean_flagged = sum(report.retx for report in clean)
        lossy_flagged = sum(report.retx for report in lossy)
        assert lossy_flagged > clean_flagged
        # Flags concentrate on flows that actually cross the bad link.
        crossing_flagged = sum(report.retx for report in lossy
                               if 5 in report.path)
        assert crossing_flagged >= (lossy_flagged - clean_flagged) // 2

    def test_report_json_roundtrip_and_junk(self):
        report = FlowReport(1.5, 42, 0, 1, 1, 3, (2, 9, 17, 20), True)
        assert parse_flow_report(
            __import__("json").loads(report.to_json())) == report
        with pytest.raises(ValueError):
            parse_flow_report({"t": 1.0, "flow": 2})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EvidenceSpec(coverage=0.0)
        with pytest.raises(ValueError):
            EvidenceSpec(flows_per_s=-1.0)
        with pytest.raises(ValueError):
            EvidenceSpec.from_dict({"bogus": 1})
        spec = default_fleet_evidence(SMALL_FLEET, seed=9, coverage=0.5)
        assert spec.coverage == 0.5
        assert spec.flows_per_s == 50.0 * 8    # 2 pods x 4 ToRs
        assert EvidenceSpec.from_dict(spec.to_dict()) == spec

    def test_oracle_intervals(self):
        oracle = LossOracle([episode(4, 10.0, 20.0, loss=1e-3),
                             episode(4, 30.0, 40.0, loss=2e-3),
                             episode(7, 0.0, 5.0, loss=5e-4)])
        assert oracle.loss_at(4, 15.0) == 1e-3
        assert oracle.loss_at(4, 35.0) == 2e-3
        assert oracle.loss_at(4, 25.0) == 0.0
        assert oracle.corrupting_at(2.0) == [7]
        assert oracle.corrupting_at(2.0, min_loss=1e-3) == []


class TestVoting:
    def harvest(self, loss=1e-3, coverage=1.0, bad_link=5, seed=4):
        topology = make_topology()
        spec = EvidenceSpec(flows_per_s=400.0, coverage=coverage, seed=seed)
        reports = harvest_evidence(
            spec, topology, [episode(bad_link, 0.0, 60.0, loss=loss)],
            0.0, 60.0)
        return reports

    def test_planted_link_wins_the_vote(self):
        verdict = tally_votes(self.harvest())
        assert verdict.top1 == 5
        assert verdict.blamed == [5]          # noise bar kills innocents
        score = verdict.score_for(5)
        assert score.flagged > 0
        assert 2e-4 < score.loss_estimate < 5e-3

    def test_empty_and_clean_windows_blame_nothing(self):
        empty = tally_votes([])
        assert empty.blamed == [] and empty.top1 is None
        topology = make_topology()
        clean = tally_votes(harvest_evidence(
            EvidenceSpec(flows_per_s=400.0, seed=8), topology, [], 0.0, 60.0))
        assert clean.blamed == []

    def test_invert_flow_loss_inverts_flag_probability(self):
        for loss in (1e-4, 1e-3, 5e-3):
            p_flag = flow_flag_probability([loss], flow_packets=100)
            assert invert_flow_loss(p_flag, flow_packets=100) == \
                pytest.approx(loss, rel=1e-9)
        assert invert_flow_loss(0.0, 100) == 0.0
        # A fully-flagged window inverts finitely (clipped away from 1).
        assert 0.0 < invert_flow_loss(1.0, 100) < 1.0

    def test_two_bad_links_both_blamed(self):
        topology = make_topology()
        spec = EvidenceSpec(flows_per_s=800.0, seed=6)
        bad = [episode(3, 0.0, 60.0, loss=2e-3),
               episode(20, 0.0, 60.0, loss=2e-3)]
        verdict = tally_votes(
            harvest_evidence(spec, topology, bad, 0.0, 60.0))
        assert set(verdict.blamed) == {3, 20}

    def test_report_to_dict_shape(self):
        verdict = tally_votes(self.harvest())
        doc = verdict.to_dict()
        assert doc["blamed"] == [5]
        assert doc["n_reports"] == verdict.n_reports
        assert doc["ranked"][0]["link_id"] == 5


class TestBlameAccuracy:
    """Satellite (c): the precision/recall/top-1 sweep over coverage."""

    @pytest.mark.parametrize("coverage", [1.0, 0.5, 0.2])
    def test_trials_sweep(self, coverage):
        spec = BlameEvalSpec(
            fleet=SMALL_FLEET, mode="trials", n_trials=8, window_s=30.0,
            coverage=coverage, flows_per_s=400.0, loss_lo=1e-3, seed=1)
        metrics = evaluate_blame(spec)
        assert metrics["windows"] == 8
        assert metrics["single_bad_link_windows"] == 8
        if coverage == 1.0:
            # The acceptance bar: >= 0.9 top-1 at full coverage.
            assert metrics["single_top1_accuracy"] >= 0.9
        # Reduced coverage degrades recall, never precision: the noise
        # bar keeps innocent links out even on thin evidence.
        assert metrics["precision"] >= 0.9
        assert metrics["recall"] >= 0.5
        assert metrics["top1_accuracy"] >= 0.5

    def test_deterministic(self):
        spec = BlameEvalSpec(fleet=SMALL_FLEET, n_trials=4, window_s=30.0,
                             coverage=0.5, flows_per_s=300.0, seed=2)
        assert evaluate_blame(spec) == evaluate_blame(spec)

    def test_trace_mode_scores_against_lifecycle_truth(self):
        spec = BlameEvalSpec(
            fleet=SMALL_FLEET, mode="trace", n_trials=4, window_s=60.0,
            flows_per_s=300.0, trace_days=5.0, seed=1)
        metrics = evaluate_blame(spec)
        assert metrics["mode"] == "trace"
        assert metrics["windows"] >= 1
        assert metrics["windows_skipped"] > 0     # quiet fleet, mostly clean
        assert metrics["precision"] >= 0.9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BlameEvalSpec(mode="bogus")
        with pytest.raises(ValueError):
            BlameEvalSpec(loss_lo=0.5, loss_hi=1e-4)


class TestLossWindowReset:
    """Satellite (a): decreasing counters restart the window."""

    def test_counter_reset_restarts_window(self):
        window = LossWindow(window_frames=10_000_000)
        window.observe(1_000_000, 999_000)
        window.observe(2_000_000, 1_998_000)
        assert window.loss_rate() == pytest.approx(1e-3)
        # The switch reboots: counters fall back toward zero.
        window.observe(50_000, 50_000)
        assert len(window) == 1                   # restarted from baseline
        assert window.loss_rate() is None         # no deltas yet
        window.observe(150_000, 150_000)
        assert window.loss_rate() == pytest.approx(0.0)

    def test_reset_detected_on_either_counter(self):
        window = LossWindow()
        window.observe(100, 90)
        window.observe(200, 80)                   # rx_ok fell: reset
        assert len(window) == 1
        assert window.loss_rate() is None

    def test_monotonic_stream_unaffected(self):
        window = LossWindow(window_frames=10_000_000)
        for tick in range(1, 6):
            window.observe(tick * 1_000_000, tick * 999_000)
        assert window.loss_rate() == pytest.approx(1e-3)
        assert len(window) == 5

    def test_snapshots_sparser_than_window_still_estimate(self):
        """Polls more than ``window_frames`` apart (``repro serve
        --frames-per-tick`` above ``--window-frames``) used to return
        None forever; the estimate falls back to the newest pair."""
        window = LossWindow(window_frames=20_000)
        window.observe(0, 0)
        assert window.loss_rate() is None
        window.observe(81_000, 80_990)
        assert window.loss_rate() == pytest.approx(10 / 81_000)
        window.observe(162_000, 161_980)
        assert window.loss_rate() == pytest.approx(10 / 81_000)
        assert len(window) == 2


class GoldenCampaign:
    """One deterministic single-bad-link campaign both monitors see."""

    BAD_LINK = 5
    LOSS = 1.5e-3
    ONSET_S = 0.0
    CLEAR_S = 120.0

    @classmethod
    def truth(cls):
        return [episode(cls.BAD_LINK, cls.ONSET_S, cls.CLEAR_S,
                        loss=cls.LOSS)]

    @classmethod
    def reports(cls, coverage=1.0, horizon_s=240.0):
        topology = make_topology()
        spec = EvidenceSpec(flows_per_s=400.0, coverage=coverage, seed=4)
        return harvest_evidence(spec, topology, cls.truth(), 0.0, horizon_s)


class TestBlameMonitor:
    def test_onset_clear_and_evidence_label(self):
        monitor = run_voting(SMALL_FLEET, 1, ControllerConfig(),
                             "incremental", GoldenCampaign.reports())
        assert monitor.onsets == 1
        assert monitor.clears == 1                 # evidence ages out
        assert monitor.counts()["open_episodes"] == 0
        decisions = list(monitor.decisions)
        assert decisions, "controller never acted"
        assert all(record["evidence"] == "voting" for record in decisions)
        acted_on = {record["link_id"] for record in decisions}
        assert acted_on == {GoldenCampaign.BAD_LINK}

    def test_matches_oracle_counter_decisions(self):
        """Acceptance: voting decisions == oracle within hysteresis."""
        oracle_sig = run_oracle(SMALL_FLEET, 1, ControllerConfig(),
                                "incremental", GoldenCampaign.truth())
        monitor = run_voting(SMALL_FLEET, 1, ControllerConfig(),
                             "incremental", GoldenCampaign.reports())
        assert decision_signature(monitor.decisions) == oracle_sig

    def test_matches_oracle_at_half_coverage(self):
        oracle_sig = run_oracle(SMALL_FLEET, 1, ControllerConfig(),
                                "incremental", GoldenCampaign.truth())
        monitor = run_voting(SMALL_FLEET, 1, ControllerConfig(),
                             "incremental",
                             GoldenCampaign.reports(coverage=0.5))
        assert decision_signature(monitor.decisions) == oracle_sig

    def test_loss_estimate_tracks_truth(self):
        monitor = run_voting(SMALL_FLEET, 1, ControllerConfig(),
                             "incremental", GoldenCampaign.reports())
        onset = next(record for record in monitor.decisions
                     if record["action"] != "clear")
        assert onset["loss_rate"] == pytest.approx(
            GoldenCampaign.LOSS, rel=0.5)

    def test_state_dict_shape(self):
        monitor = run_voting(SMALL_FLEET, 1, ControllerConfig(),
                             "incremental",
                             GoldenCampaign.reports(horizon_s=60.0))
        state = monitor.state_dict()
        assert state["evidence"] == "voting"
        assert state["last_verdict"]["blamed"] == [GoldenCampaign.BAD_LINK]
        assert state["counts"]["records_seen"] == 24_000
        assert set(state["shard_sizes"]) <= {0, 1}


class TestPolicyRegistry:
    def test_registry_contents_and_controller_reexport(self):
        assert fleet_policy("incremental").__class__ \
            is IncrementalDeploymentPolicy
        assert fleet_policy("greedy-worst").__class__ is GreedyWorstLinkPolicy
        assert set(POLICIES) >= {"incremental", "greedy-worst"}
        with pytest.raises(ValueError, match="unknown fleet policy"):
            fleet_policy("bogus")

    def test_registry_roundtrips_behavior_bit_identically(self):
        """Extracted policies decide exactly as the in-controller ones."""
        episodes = [episode(3, 0.0, 50.0), episode(20, 10.0, 90.0),
                    episode(7, 20.0, 60.0, loss=5e-3)]
        for name in ("incremental", "greedy-worst"):
            outcomes = []
            for policy in (fleet_policy(name), POLICIES[name]()):
                controller = FleetController(
                    make_topology(), ControllerConfig(), policy)
                outcome = controller.run(list(episodes))
                outcomes.append([
                    (d.time_s, d.link_id, d.action, d.loss_rate)
                    for d in outcome.decisions])
            assert outcomes[0] == outcomes[1]

    def test_register_policy_decorator(self):
        @register_policy
        class NullPolicy:
            name = "null-test"

            def on_onset(self, controller, episode, link):
                pass

            def on_clear(self, controller, episode, link):
                pass

        try:
            assert fleet_policy("null-test").__class__ is NullPolicy
        finally:
            del POLICIES["null-test"]


class TestOptimizePolicies:
    EPISODES = [
        CorruptionEpisode(link_id=3, onset_s=0.0, clear_s=400.0,
                          loss_rate=2e-3, mean_burst=1.0),
        CorruptionEpisode(link_id=20, onset_s=100.0, clear_s=600.0,
                          loss_rate=5e-4, mean_burst=1.0),
        CorruptionEpisode(link_id=7, onset_s=200.0, clear_s=500.0,
                          loss_rate=8e-3, mean_burst=1.0),
    ]

    def test_results_ranked_by_damage(self):
        results = optimize_policies(SMALL_FLEET, self.EPISODES, seed=1)
        assert len(results) == len(default_candidates())
        costs = [row["cost_link_seconds"] for row in results]
        assert costs == sorted(costs)
        assert all(cost >= 0.0 for cost in costs)
        labels = {row["label"] for row in results}
        assert "incremental(activation_budget=8)" in labels

    def test_custom_candidates(self):
        candidates = [PolicyCandidate("incremental",
                                      (("activation_budget", 2),)),
                      PolicyCandidate("greedy-worst", ())]
        rows = optimize_policies(SMALL_FLEET, self.EPISODES, seed=1,
                                 candidates=candidates)
        assert {row["label"] for row in rows} == {
            "incremental(activation_budget=2)", "greedy-worst"}

    def test_cost_prices_the_replayed_segments(self):
        """A candidate's cost is its own FleetController.run outcome
        priced segment by segment with the shared cost model."""
        candidate = PolicyCandidate("incremental",
                                    (("activation_budget", 2),))
        [row] = optimize_policies(SMALL_FLEET, self.EPISODES, seed=1,
                                  candidates=[candidate])
        outcome = FleetController(
            make_topology(), candidate.config(ControllerConfig()),
            fleet_policy("incremental")).run(list(self.EPISODES))
        assert row["cost_link_seconds"] == sum(
            (seg.end_s - seg.start_s) * segment_cost(
                seg.state, self.EPISODES[index].loss_rate)[0]
            for index, segments in outcome.segments.items()
            for seg in segments)
        assert {key: row[key] for key in outcome.counts()} == \
            outcome.counts()

    def test_open_episode_is_refused(self):
        open_ended = [episode(3, 0.0, float("inf"))]
        with pytest.raises(ValueError, match="finite clear_s"):
            optimize_policies(SMALL_FLEET, open_ended, seed=1)

    def test_repeated_budget_is_one_candidate(self):
        assert default_candidates([4, 8, 4]) == default_candidates([4, 8])
        assert [c.label for c in default_candidates([8, 4])][:2] == [
            "greedy-worst(activation_budget=8)",
            "greedy-worst(activation_budget=4)"]

    def test_doing_nothing_costs_more(self):
        """Any active policy beats a zero-budget controller that can
        neither disable nor activate (everything stays exposed)."""
        candidates = [
            PolicyCandidate("incremental", ()),
            PolicyCandidate("incremental", (
                ("activation_budget", 0),
                ("capacity_constraint", 1.0),   # nothing can be disabled
            )),
        ]
        rows = optimize_policies(SMALL_FLEET, self.EPISODES, seed=1,
                                 candidates=candidates)
        by_label = {row["label"]: row["cost_link_seconds"] for row in rows}
        stock = by_label["incremental"]
        hamstrung = [cost for label, cost in by_label.items()
                     if label != "incremental"][0]
        assert stock < hamstrung


class TestOptimizerPins:
    """``optimize_policies`` rows recorded before the optimizer became a
    plain replay priced by ``segment_cost``: labels, order and counts
    exactly, costs to 1e-12 relative."""

    INCREMENTAL_2 = [PolicyCandidate("incremental",
                                     (("activation_budget", 2),)),
                     PolicyCandidate("greedy-worst", ())]
    HAMSTRUNG = [PolicyCandidate("incremental", ()),
                 PolicyCandidate("incremental", (
                     ("activation_budget", 0), ("capacity_constraint", 1.0)))]
    # (label, cost_link_seconds, activations, disables, blocked,
    #  preemptions, max_concurrent_lg)
    THREE_EPISODES = [
        ("greedy-worst(activation_budget=64)", 112.85767975718292,
         3, 0, 0, 0, 3),
        ("greedy-worst(activation_budget=8)", 112.85767975718292,
         3, 0, 0, 0, 3),
        ("incremental(activation_budget=64)", 112.85767975718292,
         3, 0, 0, 0, 3),
        ("incremental(activation_budget=8)", 112.85767975718292,
         3, 0, 0, 0, 3),
    ]
    THREE_EPISODES_INCREMENTAL_2 = [
        ("greedy-worst", 112.85767975718292, 3, 0, 0, 0, 3),
        ("incremental(activation_budget=2)", 262.9018970287508,
         3, 0, 1, 0, 2),
    ]
    THREE_EPISODES_HAMSTRUNG = [
        ("incremental", 112.85767975718292, 3, 0, 0, 0, 3),
        ("incremental(activation_budget=0,capacity_constraint=1.0)",
         869.6558948865543, 0, 0, 3, 0, 0),
    ]
    TRACE_30_DAYS = [
        ("greedy-worst(activation_budget=64)", 396796.22742418037,
         78, 0, 0, 0, 13),
        ("greedy-worst(activation_budget=8)", 624962.7600967732,
         83, 3, 1, 10, 8),
        ("incremental(activation_budget=64)", 6686281.71648351,
         46, 32, 0, 0, 10),
        ("incremental(activation_budget=8)", 6709248.574755399,
         46, 32, 2, 0, 8),
    ]

    @staticmethod
    def assert_rows(rows, pinned):
        assert [row["label"] for row in rows] == [pin[0] for pin in pinned]
        for row, (_, cost, *counts) in zip(rows, pinned):
            assert row["cost_link_seconds"] == pytest.approx(cost, rel=1e-12)
            assert [row[key] for key in (
                "activations", "disables", "blocked", "preemptions",
                "max_concurrent_lg")] == counts

    @pytest.mark.parametrize("candidates,pinned", [
        (None, THREE_EPISODES),
        (INCREMENTAL_2, THREE_EPISODES_INCREMENTAL_2),
        (HAMSTRUNG, THREE_EPISODES_HAMSTRUNG),
    ], ids=["default", "incremental-2", "hamstrung"])
    def test_three_episodes(self, candidates, pinned):
        rows = optimize_policies(SMALL_FLEET, TestOptimizePolicies.EPISODES,
                                 seed=1, candidates=candidates)
        self.assert_rows(rows, pinned)

    def test_lifecycle_trace(self):
        from repro.lifecycle import corruption_episodes
        from repro.lifecycle.traces import TraceSpec

        episodes = corruption_episodes(TraceSpec(SMALL_FLEET, 30.0, 7))
        assert len(episodes) == 78
        self.assert_rows(optimize_policies(SMALL_FLEET, episodes, seed=7),
                         self.TRACE_30_DAYS)
