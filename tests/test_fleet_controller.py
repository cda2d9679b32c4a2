"""Tests for the fleet-wide arbitration loop and its two policies."""

import pytest

from repro.obs import Observability
from repro.fleet.controller import (
    DISABLED, EXPOSED, PROTECTED, ControllerConfig, FleetController,
)
from repro.fleet.policies import (
    POLICIES, GreedyWorstLinkPolicy, IncrementalDeploymentPolicy,
)
from repro.fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology


def make_topology(seed: int = 1) -> FleetTopology:
    return FleetTopology(
        FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=4,
                  spine_uplinks=4),
        seed=seed,
    )


def episode(link_id: int, onset: float, clear: float,
            loss: float = 1e-4) -> CorruptionEpisode:
    return CorruptionEpisode(link_id=link_id, onset_s=onset, clear_s=clear,
                             loss_rate=loss, mean_burst=1.0,
                             affected_fraction=0.1)


def run_policy(policy, episodes, config=None, topology=None, obs=None):
    topology = topology or make_topology()
    controller = FleetController(
        topology, config or ControllerConfig(), policy, obs=obs)
    outcome = controller.run(sorted(episodes,
                                    key=lambda e: (e.onset_s, e.link_id)))
    return controller, outcome


def states(outcome, index):
    return [seg.state for seg in outcome.segments[index]]


class TestPolicyRegistry:
    def test_both_policies_registered(self):
        assert set(POLICIES) == {"incremental", "greedy-worst"}
        for name, cls in POLICIES.items():
            assert cls.name == name


class TestIncrementalDeploymentPolicy:
    def test_disables_first_when_capacity_allows(self):
        _, outcome = run_policy(
            IncrementalDeploymentPolicy(), [episode(0, 10.0, 50.0)])
        assert outcome.disables == 1
        assert outcome.activations == 0
        assert states(outcome, 0) == [DISABLED]

    def test_activates_when_capacity_constraint_bites(self):
        # constraint 1.0: any ToR-path loss vetoes disable -> LG instead.
        config = ControllerConfig(capacity_constraint=1.0)
        _, outcome = run_policy(
            IncrementalDeploymentPolicy(), [episode(0, 10.0, 50.0)], config)
        assert outcome.disables == 0
        assert outcome.activations == 1
        assert states(outcome, 0) == [PROTECTED]

    def test_blocked_when_neither_disable_nor_lg_possible(self):
        config = ControllerConfig(capacity_constraint=1.0,
                                  activation_budget=0)
        _, outcome = run_policy(
            IncrementalDeploymentPolicy(), [episode(0, 10.0, 50.0)], config)
        assert outcome.blocked == 1
        assert states(outcome, 0) == [EXPOSED]

    def test_lg_deployment_fraction_zero_means_no_activation(self):
        config = ControllerConfig(capacity_constraint=1.0,
                                  lg_deployment_fraction=0.0)
        _, outcome = run_policy(
            IncrementalDeploymentPolicy(), [episode(0, 10.0, 50.0)], config)
        assert outcome.activations == 0
        assert outcome.blocked == 1

    def test_optimizer_pass_rescues_exposed_link_on_repair(self):
        config = ControllerConfig(capacity_constraint=1.0,
                                  activation_budget=1)
        episodes = [
            episode(0, 0.0, 40.0, loss=1e-3),   # takes the only LG slot
            episode(8, 10.0, 90.0, loss=1e-4),  # blocked until link 0 clears
        ]
        _, outcome = run_policy(
            IncrementalDeploymentPolicy(), episodes, config)
        assert outcome.blocked == 1
        assert outcome.activations == 2
        assert states(outcome, 1) == [EXPOSED, PROTECTED]
        exposed, protected = outcome.segments[1]
        # Rescued exactly when the repaired link freed the budget.
        assert exposed.start_s == 10.0
        assert exposed.end_s == 40.0
        assert protected.start_s == 40.0
        assert protected.end_s == 90.0


class TestGreedyWorstLinkPolicy:
    def test_activates_first_even_when_disable_possible(self):
        _, outcome = run_policy(
            GreedyWorstLinkPolicy(), [episode(0, 10.0, 50.0)])
        assert outcome.activations == 1
        assert outcome.disables == 0

    def test_preempts_mildest_for_a_worse_link(self):
        config = ControllerConfig(capacity_constraint=1.0,
                                  activation_budget=1)
        episodes = [
            episode(0, 0.0, 100.0, loss=1e-4),
            episode(8, 10.0, 90.0, loss=1e-3),
        ]
        _, outcome = run_policy(GreedyWorstLinkPolicy(), episodes, config)
        assert outcome.preemptions == 1
        assert outcome.max_concurrent_lg == 1
        # The milder link loses its slot at t=10, regains it at t=90.
        assert states(outcome, 0) == [PROTECTED, EXPOSED, PROTECTED]
        lg1, exp, lg2 = outcome.segments[0]
        assert (lg1.start_s, lg1.end_s) == (0.0, 10.0)
        assert (exp.start_s, exp.end_s) == (10.0, 90.0)
        assert (lg2.start_s, lg2.end_s) == (90.0, 100.0)
        assert states(outcome, 1) == [PROTECTED]

    def test_does_not_preempt_for_a_milder_link(self):
        config = ControllerConfig(capacity_constraint=1.0,
                                  activation_budget=1)
        episodes = [
            episode(0, 0.0, 100.0, loss=1e-3),
            episode(8, 10.0, 90.0, loss=1e-5),
        ]
        _, outcome = run_policy(GreedyWorstLinkPolicy(), episodes, config)
        assert outcome.preemptions == 0
        assert states(outcome, 0) == [PROTECTED]
        assert states(outcome, 1) == [EXPOSED]


class TestControllerInvariants:
    def test_segments_tile_each_episode_exactly(self):
        config = ControllerConfig(capacity_constraint=1.0,
                                  activation_budget=2)
        episodes = [episode(link, float(link), 120.0 + link,
                            loss=10.0 ** -(3 + link % 3))
                    for link in range(6)]
        for policy_cls in POLICIES.values():
            _, outcome = run_policy(policy_cls(), episodes, config,
                                    topology=make_topology())
            assert set(outcome.segments) == set(range(len(episodes)))
            for index, segs in outcome.segments.items():
                ep = sorted(episodes, key=lambda e: (e.onset_s, e.link_id))[index]
                assert segs[0].start_s == ep.onset_s
                assert segs[-1].end_s == ep.clear_s
                for prev, nxt in zip(segs, segs[1:]):
                    assert prev.end_s == nxt.start_s

    def test_link_state_restored_after_clear(self):
        topology = make_topology()
        _, _ = run_policy(IncrementalDeploymentPolicy(),
                          [episode(0, 10.0, 50.0)], topology=topology)
        link = topology.link(0)
        assert link.up and not link.corrupting
        assert not link.lg_enabled
        assert link.loss_rate == 0.0
        assert link.speed_fraction == 1.0

    def test_pod_capacity_floor_rolls_back_activation(self):
        topology = make_topology()
        config = ControllerConfig(capacity_constraint=1.0,
                                  pod_capacity_floor=1.0)
        controller = FleetController(
            topology, config, IncrementalDeploymentPolicy())
        outcome = controller.run([episode(0, 10.0, 50.0, loss=1e-3)])
        assert outcome.activations == 0
        assert outcome.blocked == 1
        link = topology.link(0)
        assert not link.lg_enabled

    def test_budget_is_respected_under_load(self):
        config = ControllerConfig(capacity_constraint=1.0,
                                  activation_budget=3)
        episodes = [episode(link, 0.5 * link, 500.0) for link in range(10)]
        _, outcome = run_policy(GreedyWorstLinkPolicy(), episodes, config)
        assert outcome.max_concurrent_lg <= 3

    def test_effective_loss_uses_paper_equation(self):
        controller = FleetController(
            make_topology(), ControllerConfig(), IncrementalDeploymentPolicy())
        assert controller.effective_loss(1e-3) < 1e-8


class TestDisableProtectedLink:
    """An optimizer pass may pull a link LinkGuardian is masking (the
    §4.8 study policy does; masked is not repaired)."""

    def _protected(self, obs=None):
        topology = make_topology()
        controller = FleetController(
            topology, ControllerConfig(capacity_constraint=1.0),
            IncrementalDeploymentPolicy(), obs=obs)
        index = controller.stream_onset(episode(0, 10.0, float("inf")))
        assert controller.lg_active_links() == [0]
        return controller, topology.link(0), index

    def test_closes_segment_frees_budget_and_state(self):
        controller, link, index = self._protected()
        controller.config = ControllerConfig(capacity_constraint=0.5,
                                             activation_budget=1)
        assert controller.try_disable(
            link, controller.episodes[index], index, time_s=25.0)
        segments = controller.outcome.segments[index]
        assert [(s.state, s.start_s, s.end_s) for s in segments] == [
            (PROTECTED, 10.0, 25.0), (DISABLED, 25.0, float("inf"))]
        assert controller.lg_active_links() == []
        assert controller.protected_worst_first() == []
        assert (link.up, link.lg_enabled, link.speed_fraction) == (False, False, 1.0)
        # the single budget slot is free again
        other = controller.stream_onset(episode(20, 30.0, float("inf")))
        assert [d.action for d in controller.outcome.decisions] == [
            "activate", "disable", "disable"]
        controller.stream_clear(index, 60.0)
        assert segments[-1].end_s == 60.0
        assert states(controller.outcome, other) == [DISABLED]

    def test_refused_disable_leaves_protection_in_place(self):
        controller, link, index = self._protected()
        assert not controller.try_disable(
            link, controller.episodes[index], index, time_s=25.0)
        assert controller.lg_active_links() == [0]
        assert states(controller.outcome, index) == [PROTECTED]
        assert link.lg_enabled and link.up

    def test_gauge_follows(self):
        obs = Observability()
        controller, link, index = self._protected(obs)
        gauge = "fleet.controller.incremental.lg_active"
        assert obs.snapshot()[gauge]["value"] == 1
        controller.config = ControllerConfig(capacity_constraint=0.5)
        controller.try_disable(link, controller.episodes[index], index, 25.0)
        assert obs.snapshot()[gauge]["value"] == 0

    def test_protected_worst_first_orders_by_effective_loss(self):
        topology = make_topology()
        controller = FleetController(
            topology, ControllerConfig(capacity_constraint=1.0),
            IncrementalDeploymentPolicy())
        # Eq. 1 is a sawtooth: 1e-4 -> N=1 -> 1e-8, 2e-4 -> N=2 -> 8e-12
        controller.stream_onset(episode(0, 1.0, float("inf"), loss=2e-4))
        controller.stream_onset(episode(1, 2.0, float("inf"), loss=1e-4))
        assert [e.link_id for _, e in controller.protected_worst_first()] == [1, 0]


class TestDeadLink:
    def test_zero_capacity_activation_is_refused(self):
        config = ControllerConfig(capacity_constraint=1.0)
        controller, outcome = run_policy(
            IncrementalDeploymentPolicy(),
            [episode(0, 10.0, 50.0, loss=1.0)], config)
        assert (outcome.activations, outcome.blocked) == (0, 1)
        assert states(outcome, 0) == [EXPOSED]
        assert controller.effective_loss(1.0) == 1.0


class TestControllerObservability:
    def test_decisions_counted_and_traced(self):
        obs = Observability()
        config = ControllerConfig(capacity_constraint=1.0,
                                  activation_budget=1)
        episodes = [
            episode(0, 0.0, 40.0, loss=1e-3),
            episode(8, 10.0, 90.0, loss=1e-4),
        ]
        run_policy(IncrementalDeploymentPolicy(), episodes, config, obs=obs)
        snap = obs.snapshot()
        prefix = "fleet.controller.incremental"
        assert snap[f"{prefix}.activate"]["value"] == 2
        assert snap[f"{prefix}.blocked"]["value"] == 1
        assert snap[f"{prefix}.lg_active"]["value"] == 0  # all cleared
        kinds = {e.name for e in obs.tracer.events() if e.category == "fleet"}
        assert {"activate", "blocked", "clear"} <= kinds

    def test_null_obs_is_supported(self):
        _, outcome = run_policy(
            IncrementalDeploymentPolicy(), [episode(0, 1.0, 2.0)], obs=None)
        assert outcome.disables == 1


class TestConfig:
    def test_roundtrips_through_dict(self):
        config = ControllerConfig(activation_budget=8,
                                  lg_deployment_fraction=0.5)
        assert ControllerConfig.from_dict(config.to_dict()) == config

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ControllerConfig.from_dict({"budget": 3})
