"""repro.lifecycle traces + repair: determinism, addressing, policies."""

import math
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.rng import RngFactory
from repro.fleet.topology import FleetSpec, FleetTopology
from repro.lifecycle import (
    REPAIR_POLICIES, CorrOptRepairPolicy, ExponentialRepairPolicy,
    LifecycleTrace, SeverityTieredRepairPolicy, TraceSpec, apply_repair,
    failure_events, generate_trace, repair_policy, traces,
)
from repro.units import DAY_S

SMALL_FLEET = FleetSpec(n_pods=2, tors_per_pod=2, fabrics_per_pod=2,
                        spine_uplinks=2, mttf_hours=200.0)


def small_spec(**overrides):
    defaults = dict(fleet=SMALL_FLEET, duration_days=20.0, seed=7)
    defaults.update(overrides)
    return TraceSpec(**defaults)


class TestIndexedRngStreams:
    def test_indexed_streams_are_independent(self):
        factory = RngFactory(3)
        draws = [factory.stream("link.5.event", index=k).random()
                 for k in range(8)]
        assert len(set(draws)) == len(draws)

    def test_index_none_differs_from_index_zero(self):
        factory = RngFactory(3)
        assert (factory.stream("x").random()
                != factory.stream("x", index=0).random())

    def test_indexed_draw_is_reproducible(self):
        a = RngFactory(11).stream("link.2.repair", index=4).random()
        b = RngFactory(11).stream("link.2.repair", index=4).random()
        assert a == b

    def test_index_does_not_collide_with_name_suffix(self):
        # "name#1" as a literal name vs ("name", index=1) must agree by
        # construction (same derivation key) — documents the addressing.
        factory = RngFactory(5)
        assert (factory.child_seed("n", index=1)
                == factory.child_seed("n#1"))

    def test_consumption_independence(self):
        # Draw a varying number of values from event k; event k+1 must
        # be unaffected (addressed, not sequential).
        def kth_draw(burn: int) -> float:
            factory = RngFactory(9)
            rng0 = factory.stream("link.0.event", index=0)
            for _ in range(burn):
                rng0.random()
            return factory.stream("link.0.event", index=1).random()

        assert kth_draw(0) == kth_draw(13)


class TestTraceGeneration:
    def test_deterministic(self):
        spec = small_spec()
        assert generate_trace(spec).events == generate_trace(spec).events

    def test_sorted_by_time_then_link(self):
        events = generate_trace(small_spec()).events
        keys = [(e.time_s, e.link_id) for e in events]
        assert keys == sorted(keys)

    def test_events_within_duration_and_bounds(self):
        spec = small_spec()
        events = generate_trace(spec).events
        assert events, "200h MTTF over 20 days must produce events"
        for event in events:
            assert 0.0 <= event.time_s < spec.duration_s
            assert (spec.fleet.loss_floor <= event.loss_rate
                    <= spec.fleet.loss_cap)
            assert (spec.fleet.mean_burst_min <= event.mean_burst
                    <= spec.fleet.mean_burst_max)
            assert event.event_index >= 0

    def test_truncation_is_a_prefix(self):
        long = generate_trace(small_spec(duration_days=20.0))
        short = generate_trace(small_spec(duration_days=10.0))
        short_set = {(e.link_id, e.event_index) for e in short.events}
        by_key = {(e.link_id, e.event_index): e for e in long.events}
        for key in short_set:
            assert by_key[key] == next(
                e for e in short.events
                if (e.link_id, e.event_index) == key)
        # ... and nothing before 10 days exists only in the long trace.
        cutoff = 10.0 * DAY_S
        early_long = {(e.link_id, e.event_index)
                      for e in long.events if e.time_s < cutoff}
        assert early_long == short_set

    def test_extension_preserves_existing_events(self):
        base = generate_trace(small_spec(duration_days=10.0))
        extended = generate_trace(small_spec(duration_days=30.0))
        by_key = {(e.link_id, e.event_index): e for e in extended.events}
        for event in base.events:
            assert by_key[(event.link_id, event.event_index)] == event

    def test_per_link_event_indices_are_ordinals(self):
        spec = small_spec()
        for link_id in range(spec.fleet.n_links):
            events = failure_events(spec, RngFactory(spec.seed), [link_id])
            assert [e.event_index for e in events] == list(range(len(events)))

    @pytest.mark.parametrize("seed", [7, 8, 21])
    def test_fleet_trace_is_the_union_of_link_traces(self, seed):
        # generate() draws in rounds of event index over every link; one
        # link at a time must give the same events
        spec = small_spec(seed=seed)
        factory = RngFactory(seed)
        union = [event for link_id in range(spec.fleet.n_links)
                 for event in failure_events(spec, factory, [link_id])]
        union.sort(key=lambda e: (e.time_s, e.link_id))
        assert generate_trace(spec).events == union

    def test_event_backstop_stops_a_link(self, monkeypatch):
        monkeypatch.setattr(traces, "_MAX_EVENTS_PER_LINK", 3)
        spec = small_spec(fleet=replace(SMALL_FLEET, mttf_hours=1.0))
        events = generate_trace(spec).events
        per_link = Counter(e.link_id for e in events)
        assert per_link == {link: 3 for link in range(spec.fleet.n_links)}
        assert max(e.event_index for e in events) == 2
        assert len(failure_events(spec, RngFactory(spec.seed), [0])) == 3

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            TraceSpec(duration_days=0.0)


class TestTraceSerialization:
    def test_json_roundtrip_byte_identical(self):
        trace = generate_trace(small_spec())
        text = trace.to_json()
        loaded = LifecycleTrace.from_json(text)
        assert loaded.to_json() == text
        assert loaded.spec == trace.spec

    def test_verify_rejects_edited_events(self):
        trace = generate_trace(small_spec())
        text = trace.to_json()
        tampered = text.replace(
            f'"link_id":{trace.events[0].link_id}',
            f'"link_id":{trace.events[0].link_id + 1}', 1)
        with pytest.raises(ValueError, match="regeneration"):
            LifecycleTrace.from_json(tampered)

    def test_rejects_wrong_tag_and_bad_header(self):
        with pytest.raises(ValueError, match="lifecycle trace"):
            LifecycleTrace.from_json('{"fleet_spec": 1}')
        trace = generate_trace(small_spec())
        torn = trace.to_json().replace(
            f'"n_events":{len(trace.events)}',
            f'"n_events":{len(trace.events) + 5}')
        with pytest.raises(ValueError, match="claims"):
            LifecycleTrace.from_json(torn, verify=False)

    def test_rejects_unknown_spec_fields(self):
        with pytest.raises(ValueError, match="unknown TraceSpec"):
            TraceSpec.from_dict({"duration_days": 3.0, "bogus": 1})


class TestRepairPolicies:
    def test_registry_and_factory(self):
        assert set(REPAIR_POLICIES) == {"corropt", "exponential", "severity"}
        assert isinstance(repair_policy("corropt"), CorrOptRepairPolicy)
        assert isinstance(
            repair_policy("exponential", {"mean_hours": 10.0}),
            ExponentialRepairPolicy)
        with pytest.raises(ValueError, match="unknown repair policy"):
            repair_policy("bogus")

    def test_corropt_two_point_mixture(self):
        policy = CorrOptRepairPolicy()
        rng_pool = RngFactory(1)
        delays = {policy.delay_s(rng_pool.stream("r", index=k), 1e-4)
                  for k in range(200)}
        assert delays == {2 * 24 * 3600.0, 4 * 24 * 3600.0}

    def test_corropt_fast_fraction_matches(self):
        policy = CorrOptRepairPolicy()
        rng_pool = RngFactory(2)
        fast = sum(
            policy.delay_s(rng_pool.stream("r", index=k), 1e-4)
            == 2 * 24 * 3600.0
            for k in range(2000))
        assert 0.74 < fast / 2000 < 0.86

    def test_severity_tiers_by_loss_rate(self):
        policy = SeverityTieredRepairPolicy()
        rng = RngFactory(1).stream("r", index=0)
        urgent = policy.delay_s(rng, 1e-3)
        rng = RngFactory(1).stream("r", index=0)
        routine = policy.delay_s(rng, 1e-6)
        assert urgent < routine

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CorrOptRepairPolicy(fast_fraction=1.5)
        with pytest.raises(ValueError):
            ExponentialRepairPolicy(mean_hours=-1.0)
        with pytest.raises(ValueError):
            SeverityTieredRepairPolicy(urgent_days=5.0, routine_days=1.0)
        with pytest.raises(TypeError):
            repair_policy("corropt", {"bogus": 1})


class TestApplyRepair:
    def test_deterministic_and_clipped(self):
        trace = generate_trace(small_spec())
        policy = repair_policy("corropt")
        episodes1, coalesced1 = apply_repair(trace, policy)
        episodes2, coalesced2 = apply_repair(trace, policy)
        assert episodes1 == episodes2 and coalesced1 == coalesced2
        for repaired in episodes1:
            assert repaired.episode.clear_s <= trace.spec.duration_s
            assert repaired.repair_delay_s > 0

    def test_coalesces_onsets_during_open_episode(self):
        # A hot fleet (tiny MTTF) must coalesce same-link arrivals that
        # land before the previous repair completes.
        hot = TraceSpec(
            fleet=replace(SMALL_FLEET, mttf_hours=12.0),
            duration_days=10.0, seed=3)
        episodes, coalesced = apply_repair(
            generate_trace(hot), repair_policy("corropt"))
        assert coalesced > 0
        open_until = {}
        for repaired in sorted(episodes,
                               key=lambda r: (r.episode.onset_s,
                                              r.episode.link_id)):
            episode = repaired.episode
            assert episode.onset_s >= open_until.get(episode.link_id, 0.0)
            open_until[episode.link_id] = min(
                episode.onset_s + repaired.repair_delay_s, hot.duration_s)

    @pytest.mark.parametrize("name", sorted(REPAIR_POLICIES))
    def test_bulk_delays_equal_one_off_draws(self, name):
        # apply_repair seeds every repair stream in one batch; a one-off
        # draw from the event's own stream off topology.factory (the
        # deployment study's factory) is the same value.
        hot = TraceSpec(fleet=replace(SMALL_FLEET, mttf_hours=12.0),
                        duration_days=10.0, seed=3)
        policy = repair_policy(name)
        episodes, coalesced = apply_repair(generate_trace(hot), policy)
        assert episodes and coalesced > 0
        factory = FleetTopology(hot.fleet, hot.seed).factory
        for repaired in episodes:
            episode = repaired.episode
            rng = factory.stream(f"lifecycle.link.{episode.link_id}.repair",
                                 index=repaired.event_index)
            assert repaired.repair_delay_s == policy.delay_s(
                rng, episode.loss_rate)

    def test_policy_change_keeps_arrivals(self):
        trace = generate_trace(small_spec())
        corropt, _ = apply_repair(trace, repair_policy("corropt"))
        expo, _ = apply_repair(trace, repair_policy("exponential"))
        # The arrival process is policy-independent: every surviving
        # episode maps back to the same trace event with the same onset
        # (coalescing can differ, since it depends on repair delays).
        arrivals = {(e.link_id, e.event_index): e.time_s
                    for e in trace.events}
        for repaired in corropt + expo:
            key = (repaired.episode.link_id, repaired.event_index)
            assert arrivals[key] == repaired.episode.onset_s
        assert ([r.repair_delay_s for r in corropt]
                != [r.repair_delay_s for r in expo])

    def test_mean_repair_delay_matches_corropt_model(self):
        trace = generate_trace(small_spec(
            fleet=replace(SMALL_FLEET, mttf_hours=50.0), duration_days=60.0))
        episodes, _ = apply_repair(trace, repair_policy("corropt"))
        assert len(episodes) > 50
        mean_days = (sum(r.repair_delay_s for r in episodes)
                     / len(episodes) / DAY_S)
        # 0.8*2d + 0.2*4d = 2.4 days expected.
        assert math.isclose(mean_days, 2.4, rel_tol=0.15)
