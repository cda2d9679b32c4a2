"""Tests for the fabric topology, CorrOpt checker/optimizer and traces."""

import numpy as np
import pytest

from repro.corropt.trace import LOSS_BUCKETS, sample_loss_rates
from repro.experiments.deployment import replay_corropt
from repro.fabric.topology import FabricTopology
from repro.fleet.cost import (
    FIG8_POINTS, lg_effective_loss_rate, lg_effective_speed_fraction,
)
from repro.fleet.topology import FleetSpec
from repro.lifecycle import (
    FailureEvent, LifecycleTrace, TraceSpec, generate_trace,
)
from repro.units import DAY_S, HOURS


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

    def test_figure8_points_pinned(self):
        assert dict(FIG8_POINTS) == {
            1e-6: 1.0, 1e-5: 0.998, 1e-4: 0.99, 1e-3: 0.92, 1e-2: 0.85}
        for rate, speed in FIG8_POINTS:
            assert lg_effective_speed_fraction(rate) == pytest.approx(speed, abs=1e-12)
        assert lg_effective_speed_fraction(0.0) == 1.0
        assert lg_effective_speed_fraction(1e-7) == 1.0
        assert lg_effective_speed_fraction(0.5) == 0.85

    def test_dead_link_has_no_capacity_and_no_protection(self):
        assert lg_effective_speed_fraction(1.0) == 0.0
        assert lg_effective_loss_rate(1.0) == 1.0


class TestDeploymentSimulation:
    """The §4.8 driver (``experiments.deployment.replay_corropt``)."""

    TRACE = generate_trace(TraceSpec(   # accelerated aging for a fast test
        FleetSpec(2, 8, 4, 8, mttf_hours=500.0), duration_days=60, seed=11))

    def _run(self, use_lg, constraint=0.75):
        return replay_corropt(self.TRACE, constraint, float(use_lg),
                              sample_interval_s=6 * HOURS)

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
        # LG-enabled links run at reduced speed: the combined policy
        # gives up only a small sliver of pod capacity.  Both runs replay
        # the same trace, so the samples are paired.
        diff = vanilla.least_capacity_fraction - combined.least_capacity_fraction
        assert abs(diff.mean()) < 0.05
        assert diff.max() > 0

    def test_blocked_links_exist_under_tight_constraint(self):
        tight = self._run(use_lg=False, constraint=0.75)
        assert tight.constraint_blocked > 0
        loose = self._run(use_lg=False, constraint=0.5)
        assert loose.constraint_blocked <= tight.constraint_blocked

    def test_lg_link_counters(self):
        vanilla = self._run(use_lg=False)
        combined = self._run(use_lg=True)
        assert combined.max_concurrent_lg_links >= combined.max_lg_links_per_pod > 0
        assert vanilla.max_concurrent_lg_links == vanilla.max_lg_links_per_pod == 0
        # Same onsets offered to both; which blocked link an optimizer
        # pass pulls first depends on the penalty order, so the repair
        # windows (and the onsets they absorb) may differ by a few.
        assert vanilla.corruption_events == pytest.approx(
            combined.corruption_events, rel=0.05)


class TestCorrOptRepairClock:
    """Repair starts at *disable*: a blocked link is not on any timer."""

    # one pod, 2 ToRs x 2 fabrics x 2 uplinks: a ToR has 4 paths, and
    # pulling a ToR-fabric link (links 0..3) leaves it 2
    FLEET = FleetSpec(n_pods=1, tors_per_pod=2, fabrics_per_pod=2,
                      spine_uplinks=2)

    def _trace(self, *onsets):
        events = [FailureEvent(day * DAY_S, link, loss, 1.0, 0)
                  for day, link, loss in onsets]
        return LifecycleTrace(TraceSpec(self.FLEET, duration_days=30.0, seed=5),
                              events)

    def test_blocked_link_corrupts_until_the_window_ends(self):
        # at 75% any ToR-fabric disable is refused, and with nothing out
        # for repair no optimizer pass ever runs
        result = replay_corropt(self._trace((1.0, 0, 1e-3)), 0.75, 0.0)
        assert result.constraint_blocked == 1
        assert result.disabled_by_optimizer == 0
        after = result.times_s >= 1.0 * DAY_S
        assert (result.total_penalty[after] == 1e-3).all()
        assert (result.total_penalty[~after] == 0.0).all()
        assert result.least_paths_fraction.min() == 1.0

    def test_optimizer_pass_disables_it_when_a_repair_completes(self):
        # at 50% ToR 0 can lose one uplink (day 1) but not both (day 1.5)
        trace = self._trace((1.0, 0, 1e-4), (1.5, 1, 1e-3))
        result = replay_corropt(trace, 0.5, 0.0)
        assert (result.disabled_immediately, result.constraint_blocked,
                result.disabled_by_optimizer) == (1, 1, 1)
        corrupting = result.times_s[result.total_penalty > 0]
        # exposed from its onset until the first link's repair (2 or 4
        # days after *its* disable) - then pulled, never before
        assert corrupting.min() == pytest.approx(1.5 * DAY_S, abs=HOURS)
        assert corrupting.max() / DAY_S == pytest.approx(
            1.0 + (corrupting.max() > 4 * DAY_S) * 2 + 2, abs=0.05)
        assert set(result.total_penalty) == {0.0, 1e-3}

    def test_linkguardian_masks_the_blocked_link_meanwhile(self):
        trace = self._trace((1.0, 0, 1e-4), (1.5, 1, 1e-3))
        result = replay_corropt(trace, 0.5, 1.0)
        # protected, not repaired: the optimizer still pulls it later
        assert result.disabled_by_optimizer == 1
        assert set(result.total_penalty) == {0.0, lg_effective_loss_rate(1e-3)}
        assert result.least_capacity_fraction.min() < 0.75

    def test_repeat_onset_on_an_open_link_is_the_same_fault(self):
        trace = self._trace((1.0, 0, 1e-3), (1.2, 0, 1e-4))
        assert replay_corropt(trace, 0.75, 0.0).corruption_events == 1
