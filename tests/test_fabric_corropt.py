"""Tests for the fabric topology, CorrOpt checker/optimizer and traces."""

import numpy as np
import pytest

from repro.corropt.simulation import (
    DeploymentConfig, DeploymentSimulation,
    lg_effective_loss_rate, lg_effective_speed_fraction,
)
from repro.corropt.trace import LOSS_BUCKETS, sample_loss_rates
from repro.fabric.topology import FabricTopology


def small_topology():
    return FabricTopology(n_pods=2, tors_per_pod=8, fabrics_per_pod=4, spine_uplinks=8)


class TestTopology:
    def test_link_count(self):
        topo = small_topology()
        # per pod: 8*4 tor-fabric + 4*8 fabric-spine = 64; 2 pods = 128
        assert topo.n_links == 128

    def test_paper_scale_pod_has_384_links(self):
        topo = FabricTopology(n_pods=1)
        assert topo.n_links == 48 * 4 + 4 * 48
        assert topo.max_paths_per_tor == 192

    def test_healthy_tor_has_all_paths(self):
        topo = small_topology()
        assert topo.tor_paths(0, 0) == 32
        assert topo.min_tor_paths_fraction()[0] == 1.0

    def test_tor_fabric_link_down_costs_one_fabric(self):
        topo = small_topology()
        link = topo._tor_fabric[(0, 3, 1)]
        link.up = False
        assert topo.tor_paths(0, 3) == 24   # lost fabric 1's 8 spine links
        assert topo.tor_paths(0, 2) == 32   # other ToRs unaffected

    def test_fabric_spine_link_down_costs_every_tor_one_path(self):
        topo = small_topology()
        topo._fabric_spine[(0, 1, 5)].up = False
        for tor in range(topo.tors_per_pod):
            assert topo.tor_paths(0, tor) == 31

    def test_capacity_fraction_tracks_disabled_links(self):
        topo = small_topology()
        assert topo.pod_capacity_fraction(0) == 1.0
        topo._fabric_spine[(0, 0, 0)].up = False
        assert topo.pod_capacity_fraction(0) == pytest.approx(31 / 32)

    def test_capacity_fraction_tracks_lg_speed(self):
        topo = small_topology()
        link = topo._fabric_spine[(0, 0, 0)]
        link.lg_enabled = True
        link.speed_fraction = 0.92
        assert topo.pod_capacity_fraction(0) == pytest.approx((31 + 0.92) / 32)


class TestAdjacencyHelpers:
    def test_links_for_tor_returns_all_uplinks(self):
        topo = small_topology()
        links = topo.links_for_tor(1, 3)
        assert len(links) == topo.fabrics_per_pod
        assert all(l.kind == "tor-fabric" and l.pod == 1 and l.tor == 3
                   for l in links)
        assert sorted(l.fabric for l in links) == list(range(topo.fabrics_per_pod))

    def test_links_between_tor_and_fabric(self):
        topo = small_topology()
        links = topo.links_between(0, 5, 2)
        assert len(links) == 1
        link = links[0]
        assert (link.pod, link.tor, link.fabric) == (0, 5, 2)
        assert link in topo.links_for_tor(0, 5)

    @pytest.mark.parametrize("pod,tor,fabric", [
        (-1, 0, 0), (2, 0, 0),     # pod out of range
        (0, -1, 0), (0, 8, 0),     # tor out of range
        (0, 0, -1), (0, 0, 4),     # fabric out of range
    ])
    def test_links_between_rejects_out_of_range(self, pod, tor, fabric):
        topo = small_topology()
        with pytest.raises(ValueError):
            topo.links_between(pod, tor, fabric)

    def test_links_for_tor_rejects_out_of_range(self):
        topo = small_topology()
        with pytest.raises(ValueError):
            topo.links_for_tor(0, topo.tors_per_pod)
        with pytest.raises(ValueError):
            topo.links_for_tor(topo.n_pods, 0)

    def test_queries_validate_indices(self):
        topo = small_topology()
        with pytest.raises(ValueError):
            topo.tor_paths(0, topo.tors_per_pod)
        with pytest.raises(ValueError):
            topo.pod_capacity_fraction(topo.n_pods)
        with pytest.raises(ValueError):
            topo.pod_min_tor_paths(-1)
        with pytest.raises(ValueError):
            topo.link(topo.n_links)
        with pytest.raises(ValueError):
            list(topo.pod_links(topo.n_pods))
        with pytest.raises(ValueError):
            topo.fabric_up_spine_links(0, topo.fabrics_per_pod)


class TestFastChecker:
    def test_can_disable_when_healthy(self):
        topo = small_topology()
        assert topo.can_disable(topo.links[0], capacity_constraint=0.75)

    def test_cannot_violate_constraint(self):
        """Figure 4's link-B scenario: disabling a second fabric's links
        would push a ToR below the constraint."""
        topo = small_topology()
        # Take down all of fabric 0's spine links: every ToR at 24/32 = 75%.
        for port in range(topo.spine_uplinks):
            topo._fabric_spine[(0, 0, port)].up = False
        # Disabling any link of another fabric in pod 0 now violates 75%.
        candidate = topo._fabric_spine[(0, 1, 0)]
        assert not topo.can_disable(candidate, capacity_constraint=0.75)
        # ...but is fine under a 50% constraint.
        assert topo.can_disable(candidate, capacity_constraint=0.50)

    def test_checker_does_not_mutate(self):
        topo = small_topology()
        link = topo.links[0]
        topo.can_disable(link, 0.75)
        assert link.up


class TestTrace:
    def test_loss_rates_follow_table1_buckets(self):
        rng = np.random.default_rng(5)
        rates = sample_loss_rates(rng, 50_000)
        for low, high, expected in LOSS_BUCKETS:
            fraction = ((rates >= low) & (rates < high)).mean()
            assert fraction == pytest.approx(expected, abs=0.01)

    def test_trace_sorted_and_bounded(self):
        """The one trace generator (lifecycle) on the Appendix D model."""
        from repro.fleet import FleetSpec
        from repro.lifecycle import TraceSpec, generate_trace

        spec = TraceSpec(fleet=FleetSpec(n_pods=80, mttf_hours=10_000.0),
                         duration_days=30.0, seed=6)
        events = generate_trace(spec).events
        times = [e.time_s for e in events]
        assert times == sorted(times)
        assert all(t < 86_400 * 30 for t in times)
        # MTTF 10k hours -> ~30 / (10000/24) = 7.2% of links corrupt in 30 days.
        assert len(events) == pytest.approx(
            spec.fleet.n_links * 30 * 24 / 10_000, rel=0.2)


class TestLgDeploymentModels:
    def test_effective_loss_matches_equation(self):
        assert lg_effective_loss_rate(1e-4) == pytest.approx(1e-8)
        assert lg_effective_loss_rate(1e-3) == pytest.approx(1e-9)
        assert lg_effective_loss_rate(1e-5) == pytest.approx(1e-10)

    def test_effective_speed_matches_figure8_points(self):
        assert lg_effective_speed_fraction(1e-3) == pytest.approx(0.92, abs=0.01)
        assert lg_effective_speed_fraction(1e-4) == pytest.approx(0.99, abs=0.01)
        assert lg_effective_speed_fraction(1e-7) == 1.0

    def test_effective_speed_monotone(self):
        rates = np.logspace(-7, -2, 40)
        speeds = [lg_effective_speed_fraction(r) for r in rates]
        assert all(b <= a + 1e-12 for a, b in zip(speeds, speeds[1:]))


class TestDeploymentSimulation:
    def _run(self, use_lg, constraint=0.75, days=60, seed=11):
        topo = small_topology()
        config = DeploymentConfig(
            capacity_constraint=constraint,
            use_linkguardian=use_lg,
            duration_s=days * 86_400.0,
            sample_interval_s=6 * 3_600.0,
            mttf_hours=500.0,  # accelerated aging for a fast test
        )
        rng = np.random.default_rng(seed)
        return DeploymentSimulation(topo, config, rng).run()

    def test_simulation_produces_samples(self):
        result = self._run(use_lg=False)
        assert len(result.times_s) > 200
        assert result.corruption_events > 20

    def test_lg_reduces_total_penalty_by_orders_of_magnitude(self):
        vanilla = self._run(use_lg=False)
        combined = self._run(use_lg=True)
        mask = vanilla.total_penalty > 0
        assert mask.sum() > 0
        # Where vanilla has residual penalty, the combined policy's
        # penalty is orders of magnitude lower (paper: 4-6 orders).
        mean_vanilla = vanilla.total_penalty[mask].mean()
        mean_combined = combined.total_penalty.mean()
        assert mean_combined < mean_vanilla / 1_000

    def test_paths_never_fall_below_constraint(self):
        for constraint in (0.5, 0.75):
            result = self._run(use_lg=False, constraint=constraint)
            assert result.least_paths_fraction.min() >= constraint - 1e-9

    def test_lg_costs_a_little_capacity(self):
        vanilla = self._run(use_lg=False)
        combined = self._run(use_lg=True)
        # LG-enabled links run at reduced speed: on average the combined
        # policy gives up only a small sliver of pod capacity.  (The two
        # runs' traces diverge after the first policy decision, so the
        # comparison is of time averages, not paired samples.)
        diff = vanilla.least_capacity_fraction.mean() - combined.least_capacity_fraction.mean()
        assert abs(diff) < 0.05

    def test_blocked_links_exist_under_tight_constraint(self):
        result = self._run(use_lg=False, constraint=0.75)
        assert result.constraint_blocked >= 0  # tight constraint may block
        vanilla_loose = self._run(use_lg=False, constraint=0.5)
        assert vanilla_loose.constraint_blocked <= result.constraint_blocked
