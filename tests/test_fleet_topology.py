"""Tests for fleet topology generation and per-link corruption processes
(the processes themselves are drawn by :mod:`repro.lifecycle.traces`)."""

import numpy as np
import pytest

from repro.core.rng import RngFactory
from repro.fleet.topology import (
    CorruptionEpisode, FleetSpec, FleetTopology,
    sample_affected_fraction,
)
from repro.lifecycle import (
    LifecycleTrace, TraceSpec, apply_repair, failure_events, repair_policy,
)


def link_events(fleet, seed, link_id, days=30.0):
    """One link's failure events — its whole stochastic character."""
    spec = TraceSpec(fleet=fleet, duration_days=days, seed=seed)
    return failure_events(spec, RngFactory(seed), [link_id])


class TestFleetSpec:
    def test_link_count_matches_clos_arithmetic(self):
        spec = FleetSpec(n_pods=3, tors_per_pod=8, fabrics_per_pod=4,
                         spine_uplinks=8)
        # per pod: 8*4 tor-fabric + 4*8 fabric-spine = 64
        assert spec.n_links == 3 * 64

    def test_512_link_fleet_shape(self):
        spec = FleetSpec(n_pods=8, tors_per_pod=8, fabrics_per_pod=4,
                         spine_uplinks=8)
        assert spec.n_links == 512

    def test_roundtrips_through_dict(self):
        spec = FleetSpec(n_pods=2, loss_cap=5e-3, mean_burst_max=3.0)
        assert FleetSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("removed", [
        "loss_distribution", "pareto_alpha", "repair_fast_hours",
        "repair_slow_hours", "repair_fast_fraction",
    ])
    def test_removed_fields_are_rejected(self, removed):
        with pytest.raises(ValueError, match="unknown FleetSpec"):
            FleetSpec.from_dict({removed: 1})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            FleetSpec.from_dict({"n_pods": 2, "bogus": 1})

    @pytest.mark.parametrize("overrides", [
        {"n_pods": 0},
        {"spine_uplinks": 0},
        {"loss_floor": 0.0},
        {"loss_floor": 1e-2, "loss_cap": 1e-3},
        {"mean_burst_min": 0.5},
        {"mean_burst_min": 3.0, "mean_burst_max": 2.0},
    ])
    def test_rejects_invalid_parameters(self, overrides):
        with pytest.raises(ValueError):
            FleetSpec(**overrides)


class TestProfiles:
    FLEET = FleetSpec(mttf_hours=100.0)

    def test_profile_is_deterministic_per_link(self):
        events = link_events(self.FLEET, 9, 17)
        assert events and events == link_events(self.FLEET, 9, 17)

    def test_profiles_differ_across_links_and_seeds(self):
        base = link_events(self.FLEET, 9, 17)
        assert link_events(self.FLEET, 9, 18) != base
        assert link_events(self.FLEET, 10, 17) != base

    def test_loss_rates_heavy_tailed_within_bounds(self):
        spec = FleetSpec(mttf_hours=400.0)
        rates = np.array([
            event.loss_rate
            for link in range(1_000) for event in link_events(spec, 3, link)
        ])
        assert len(rates) > 1_000
        assert rates.min() >= spec.loss_floor
        assert rates.max() <= spec.loss_cap
        # Table 1: ~12.7% of corrupting links land in the 1e-3..1e-2 bucket.
        assert 0.08 < (rates >= 1e-3).mean() < 0.18
        # Heavy tail: the mean dwarfs the median.
        assert rates.mean() > 10 * np.median(rates)

    def test_mean_burst_within_configured_range(self):
        spec = FleetSpec(mttf_hours=100.0, mean_burst_min=1.2,
                         mean_burst_max=3.0)
        bursts = [event.mean_burst
                  for link in range(50) for event in link_events(spec, 4, link)]
        assert bursts and all(1.2 <= b <= 3.0 for b in bursts)


class TestEpisodes:
    def test_episodes_ordered_and_bounded(self):
        spec = TraceSpec(fleet=FleetSpec(n_pods=1, mttf_hours=200.0),
                         duration_days=30.0, seed=5)
        episodes, _ = apply_repair(LifecycleTrace.generate(spec),
                                   repair_policy("corropt"))
        assert episodes, "200h MTTF over 30 days should corrupt"
        by_link = {}
        for repaired in episodes:
            ep = repaired.episode
            assert 0 <= ep.onset_s < ep.clear_s <= spec.duration_s
            assert spec.fleet.loss_floor <= ep.loss_rate <= spec.fleet.loss_cap
            by_link.setdefault(ep.link_id, []).append(ep)
        onsets = [r.episode.onset_s for r in episodes]
        assert onsets == sorted(onsets)
        # Episodes of one link never overlap (later onsets coalesce).
        assert any(len(eps) > 1 for eps in by_link.values())
        for eps in by_link.values():
            for prev, nxt in zip(eps, eps[1:]):
                assert prev.clear_s <= nxt.onset_s

    def test_episodes_independent_of_other_links(self):
        """The chunk-invariance property: a link's events depend only on
        (seed, link_id), never on which other links were generated."""
        spec = TraceSpec(fleet=FleetSpec(mttf_hours=500.0),
                         duration_days=60.0, seed=7)
        alone = failure_events(spec, RngFactory(7), [11])
        factory = RngFactory(7)
        for other in range(11):
            failure_events(spec, factory, [other])
        assert alone and failure_events(spec, factory, [11]) == alone

    def test_episode_roundtrips_through_dict(self):
        ep = CorruptionEpisode(link_id=4, onset_s=10.5, clear_s=99.25,
                               loss_rate=3e-4, mean_burst=1.4,
                               affected_fraction=0.125)
        assert CorruptionEpisode.from_dict(ep.to_dict()) == ep


class TestAffectedFraction:
    def test_zero_loss_affects_nothing(self):
        rng = np.random.default_rng(1)
        assert sample_affected_fraction(rng, 0.0, 1.5, 100) == 0.0

    def test_high_loss_affects_everything(self):
        rng = np.random.default_rng(1)
        assert sample_affected_fraction(
            rng, 0.5, 1.0, 200, n_flows=64) == pytest.approx(1.0, abs=0.05)

    def test_matches_iid_closed_form_when_bursts_are_single(self):
        """mean_burst=1 makes Gilbert-Elliott i.i.d.; the empirical fraction
        must then track 1-(1-p)^n."""
        rng = np.random.default_rng(2)
        p, n = 5e-3, 100
        measured = sample_affected_fraction(rng, p, 1.0, n, n_flows=4_000)
        expected = 1.0 - (1.0 - p) ** n
        assert measured == pytest.approx(expected, rel=0.15)

    def test_bursts_reduce_affected_flows(self):
        """Clustering the same average loss into bursts must touch fewer
        flows — the reason the model is empirical, not closed-form."""
        p, n = 5e-3, 200
        iid = sample_affected_fraction(
            np.random.default_rng(3), p, 1.0, n, n_flows=4_000)
        bursty = sample_affected_fraction(
            np.random.default_rng(3), p, 4.0, n, n_flows=4_000)
        assert bursty < iid


class TestFleetTopology:
    def test_extends_fabric_topology(self):
        topo = FleetTopology(FleetSpec(n_pods=2, tors_per_pod=4,
                                       spine_uplinks=4), seed=1)
        assert topo.n_links == topo.spec.n_links
        assert topo.pod_capacity_fraction(0) == 1.0
        assert len(topo.links_for_tor(1, 2)) == 4
