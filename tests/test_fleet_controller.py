"""Tests for the fleet-wide arbitration loop and its two policies."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import deployment
from repro.lifecycle import FailureEvent, LifecycleTrace, TraceSpec
from repro.lifecycle.repair import CorrOptRepairPolicy
from repro.units import DAY_S

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


def stream_onset(controller, episode):
    """A live onset: schedule it and advance the loop to it."""
    index = controller.schedule_onset(episode)
    controller.advance(episode.onset_s)
    return index


def stream_clear(controller, link_id, clear_s):
    controller.schedule_clear(link_id, clear_s)
    controller.advance(clear_s)


def states(outcome, index):
    return [seg.state for seg in outcome.segments[index]]


class TestPolicyRegistry:
    def test_both_policies_registered(self):
        assert set(POLICIES) == {"incremental", "greedy-worst"}
        for name, cls in POLICIES.items():
            assert cls.name == name


class TestControllerConfigBounds:
    @pytest.mark.parametrize("field,value", [
        ("activation_budget", -1),
        ("capacity_constraint", -0.1), ("capacity_constraint", 1.5),
        ("pod_capacity_floor", -0.5), ("pod_capacity_floor", 2.0),
        ("lg_deployment_fraction", -0.01), ("lg_deployment_fraction", 7.0),
        ("lg_target_loss", 0.0), ("lg_target_loss", 1.0),
    ])
    def test_out_of_range_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControllerConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_closed_unit_interval_ends_are_accepted(self, value):
        ControllerConfig(activation_budget=0, capacity_constraint=value,
                         pod_capacity_floor=value,
                         lg_deployment_fraction=value)

    def test_service_config_document_is_refused(self):
        from repro.service import ServiceConfig

        with pytest.raises(ValueError):
            ServiceConfig.from_dict({"controller": {
                "activation_budget": -5, "lg_deployment_fraction": 7.0,
                "lg_target_loss": 0.0}})


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
        topology = make_topology()
        # no coin is tossed: a draw in [0, 1) is never below 0
        topology.factory.stream = None
        _, outcome = run_policy(
            IncrementalDeploymentPolicy(), [episode(0, 10.0, 50.0)], config,
            topology)
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
        index = stream_onset(controller, episode(0, 10.0, float("inf")))
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
        other = stream_onset(controller, episode(20, 30.0, float("inf")))
        assert [d.action for d in controller.outcome.decisions] == [
            "activate", "disable", "disable"]
        stream_clear(controller, 0, 60.0)
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
        stream_onset(controller, episode(0, 1.0, float("inf"), loss=2e-4))
        stream_onset(controller, episode(1, 2.0, float("inf"), loss=1e-4))
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


# -- one loop: the rules every driver of the controller shares ---------------
#
# The controller is driven three ways: a batch ``run`` over a timeline, a
# streamed feed (what the evidence monitor does: schedule what telemetry
# shows at each instant, then advance), and the §4.8 study
# (``replay_corropt``: onsets only, clears on CorrOpt's repair clock).

DRIVERS = ("batch", "stream", "study")


def arbitrate(driver, episodes, config=None, policy=None, until_s=math.inf,
              topology=None):
    """``episodes`` through the batch loop or a streamed feed."""
    controller = FleetController(
        topology or make_topology(), config or ControllerConfig(),
        policy or IncrementalDeploymentPolicy())
    if driver == "batch":
        controller.run(sorted(episodes, key=lambda e: (e.onset_s, e.link_id)),
                       until_s)
        return controller
    # the feed learns of an onset at its onset and of a clear at its clear
    feed = sorted([(e.onset_s, 1, i) for i, e in enumerate(episodes)]
                  + [(e.clear_s, 0, i) for i, e in enumerate(episodes)
                     if e.clear_s <= until_s])
    for time_s in sorted({t for t, _, _ in feed}):
        # onsets scheduled before clears: the heap, not the feed, orders them
        for _, _, i in sorted(item for item in feed
                              if item[0] == time_s and item[1] == 1):
            controller.schedule_onset(replace(episodes[i], clear_s=math.inf))
        for _, _, i in (item for item in feed
                        if item[0] == time_s and item[1] == 0):
            controller.schedule_clear(episodes[i].link_id, time_s)
        controller.advance(time_s)
    controller.advance(until_s)
    return controller


#: one pod, 2 ToRs x 2 fabrics x 2 uplinks: pulling a ToR-fabric link
#: (links 0..3) leaves its ToR half its paths
STUDY_FLEET = FleetSpec(n_pods=1, tors_per_pod=2, fabrics_per_pod=2,
                        spine_uplinks=2)


def study(*onsets, days=30.0, constraint=0.5):
    """``replay_corropt`` over onsets ``(time_s, link, loss)``."""
    events, seen = [], {}
    for time_s, link, loss in onsets:
        events.append(FailureEvent(time_s, link, loss, 1.0,
                                   seen.setdefault(link, 0)))
        seen[link] += 1
    trace = LifecycleTrace(TraceSpec(STUDY_FLEET, days, seed=5), events)
    return deployment.replay_corropt(trace, constraint, 0.0)


def study_repair_s(link, event_index, loss):
    """The repair delay the study draws for one of its events: one draw
    from the event's own repair stream."""
    rng = FleetTopology(STUDY_FLEET, seed=5).factory.stream(
        f"lifecycle.link.{link}.repair", index=event_index)
    return CorrOptRepairPolicy().delay_s(rng, loss)


class RepairClock(IncrementalDeploymentPolicy):
    """``incremental`` on a repair clock: a link disabled at onset is
    repaired ``delay_s`` later, whatever its episode's own clear."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def on_onset(self, controller, link, episode, index):
        super().on_onset(controller, link, episode, index)
        if not link.up:
            controller.schedule_clear(link.link_id,
                                      episode.onset_s + self.delay_s)


class TestOneLoopContract:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_onset_on_an_open_link_is_dropped(self, driver):
        if driver == "study":
            # the repeat lands while link 0 is exposed (75 % blocks it)
            alone = study((DAY_S, 0, 1e-3), constraint=0.75)
            repeat = study((DAY_S, 0, 1e-3), (1.2 * DAY_S, 0, 1e-4),
                           constraint=0.75)
            assert repeat.corruption_events == alone.corruption_events == 1
            for name, value in vars(alone).items():
                np.testing.assert_array_equal(getattr(repeat, name), value)
            return
        config = ControllerConfig(capacity_constraint=1.0)
        first = episode(0, 10.0, 50.0, loss=1e-3)
        alone = arbitrate(driver, [first], config)
        repeat = arbitrate(driver, [first, episode(0, 20.0, 50.0, loss=1e-2)],
                           config)
        assert repeat.outcome.counts() == alone.outcome.counts()
        assert repeat.outcome.decisions == alone.outcome.decisions
        assert repeat.open_episodes == alone.open_episodes == {}
        if driver == "batch":
            # the dropped episode has no segments
            assert list(repeat.outcome.segments) == [0]

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_same_instant_clear_fires_before_the_onset(self, driver):
        # the link clears and corrupts again at one instant: a new episode
        # only if the clear went first
        if driver == "study":
            repaired_s = DAY_S + study_repair_s(0, 0, 1e-3)
            result = study((DAY_S, 0, 1e-3), (repaired_s, 0, 1e-4))
            assert result.corruption_events == 2
            assert result.disabled_immediately == 2
            return
        controller = arbitrate(driver, [episode(0, 10.0, 40.0),
                                        episode(0, 40.0, 60.0)])
        assert controller.outcome.disables == 2
        assert [d.time_s for d in controller.outcome.decisions] == [10.0, 40.0]

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_repair_past_the_horizon_never_fires(self, driver):
        if driver == "study":
            days = 30.0
            onset_s = days * DAY_S - 1.0    # repairs take days
            result = study((onset_s, 0, 1e-3), days=days)
            assert result.disabled_immediately == 1
            assert result.least_paths_fraction[-1] == 0.5
            return
        for delay_s, up in ((50.0, False), (30.0, True)):
            topology = make_topology()
            controller = arbitrate(
                driver, [episode(0, 10.0, math.inf)],
                policy=RepairClock(delay_s), until_s=45.0, topology=topology)
            assert topology.link(0).up is up
            assert controller.open_episodes == ({} if up else {0: 0})
            if driver == "batch":
                assert states(controller.outcome, 0) == [DISABLED]

    @pytest.mark.parametrize("driver", DRIVERS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pod_views_are_the_fleet_view_filtered(self, driver, data):
        n_links = make_topology().n_links
        onsets = data.draw(st.lists(st.tuples(
            st.integers(0, 40), st.integers(0, n_links - 1),
            st.sampled_from([1e-5, 1e-4, 2e-4, 1e-3, 1e-2]),
            st.integers(1, 10)), min_size=1, max_size=30))
        checked = []

        def check(controller):
            topology = controller.topology
            for view in (controller.exposed_worst_first,
                         controller.protected_worst_first):
                fleet = view()
                for pod in range(topology.n_pods):
                    assert view(pod) == [
                        item for item in fleet
                        if topology.link(item[1].link_id).pod == pod]
            checked.append(len(controller.exposed_links())
                           + len(controller.lg_active_links()))

        def checking(cls, *args):
            class Checking(cls):
                def on_onset(self, controller, *rest):
                    super().on_onset(controller, *rest)
                    check(controller)

                def on_clear(self, controller, *rest):
                    super().on_clear(controller, *rest)
                    check(controller)
            return Checking(*args)

        if driver == "study":
            fleet = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=4,
                              spine_uplinks=4)
            events, seen = [], {}
            for day, link, loss, _ in sorted(onsets, key=lambda o: o[:2]):
                events.append(FailureEvent(day * DAY_S / 2, link, loss, 1.0,
                                           seen.setdefault(link, 0)))
                seen[link] += 1
            trace = LifecycleTrace(TraceSpec(fleet, 30.0, seed=1), events)
            study_cls = deployment._CorrOptStudyPolicy
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(deployment, "_CorrOptStudyPolicy",
                              lambda *args: checking(study_cls, *args))
                deployment.replay_corropt(
                    trace, 0.75, data.draw(st.sampled_from([0.0, 0.5, 1.0])))
        else:
            policy = data.draw(st.sampled_from(sorted(POLICIES)))
            constraint = data.draw(st.sampled_from([0.5, 0.75, 1.0]))
            config = ControllerConfig(
                capacity_constraint=constraint,
                activation_budget=data.draw(st.integers(0, 4)))
            arbitrate(driver, [
                episode(link, float(t), float(t + span), loss=loss)
                for t, link, loss, span in onsets],
                config, checking(POLICIES[policy]))
        assert checked
