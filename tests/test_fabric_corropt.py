"""Tests for the fabric topology, CorrOpt checker/optimizer and traces."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.corropt.trace import LOSS_BUCKETS, sample_loss_rates
from repro.experiments.deployment import (
    replay_corropt, run_deployment_comparison,
)
from repro.experiments.incremental import run_incremental_deployment
from repro.fabric.topology import FabricTopology
from repro.fleet.cost import (
    FIG8_POINTS, lg_effective_loss_rate, lg_effective_speed_fraction,
)
from repro.fleet.topology import FleetSpec
from repro.lifecycle import (
    FailureEvent, LifecycleTrace, ReplaySpec, TraceSpec, generate_trace,
    run_replay,
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


# -- the from-scratch recount, as the topology computed every query before
# it kept books: the oracle the books are checked against ------------------

def recount_fabric_up_spine_links(topo, pod, fabric, without=None):
    return sum(
        1
        for port in range(topo.spine_uplinks)
        if topo._fabric_spine[(pod, fabric, port)].up
        and topo._fabric_spine[(pod, fabric, port)] is not without
    )


def recount_tor_paths(topo, pod, tor, without=None):
    total = 0
    for fabric in range(topo.fabrics_per_pod):
        link = topo._tor_fabric[(pod, tor, fabric)]
        if link.up and link is not without:
            total += recount_fabric_up_spine_links(topo, pod, fabric, without)
    return total


def recount_pod_min_tor_paths(topo, pod):
    return min(recount_tor_paths(topo, pod, tor)
               for tor in range(topo.tors_per_pod))


def recount_pod_capacity_fraction(topo, pod):
    tor_stage = sum(
        topo._tor_fabric[(pod, tor, fabric)].effective_capacity
        for tor in range(topo.tors_per_pod)
        for fabric in range(topo.fabrics_per_pod)
    )
    spine_stage = sum(
        topo._fabric_spine[(pod, fabric, port)].effective_capacity
        for fabric in range(topo.fabrics_per_pod)
        for port in range(topo.spine_uplinks)
    )
    tor_max = topo.tors_per_pod * topo.fabrics_per_pod
    spine_max = topo.fabrics_per_pod * topo.spine_uplinks
    return min(tor_stage / tor_max, spine_stage / spine_max)


def recount_can_disable(topo, link, capacity_constraint):
    """The old checker took ``link`` down, recounted and put it back;
    ``without`` recounts as if it were down and writes nothing."""
    if not link.up:
        return True
    threshold = capacity_constraint * topo.max_paths_per_tor
    tors = ([link.tor] if link.kind == "tor-fabric"
            else range(topo.tors_per_pod))
    return not any(recount_tor_paths(topo, link.pod, tor, without=link)
                   < threshold for tor in tors)


_LINK_IDS = st.integers(0, small_topology().n_links - 1)
#: Figure 8's speeds plus arbitrary ones: the capacity sums must re-round
#: exactly as the in-order recount does
_SPEEDS = st.sampled_from([1.0, 0.998, 0.99, 0.92, 0.85]) | st.floats(0.0, 1.0)


class FabricBooks(RuleBasedStateMachine):
    """Random interleavings of ``up`` / ``speed_fraction`` writes (repeats
    of the same value included); after every step every book the
    topology keeps must equal the from-scratch recount."""

    def __init__(self):
        super().__init__()
        self.topo = small_topology()
        self.touched_pod = 0

    # down-biased, several links a step: the checker's thresholds only
    # bite once a pod has lost a quarter of some ToR's paths
    @rule(link_ids=st.lists(_LINK_IDS, min_size=1, max_size=10),
          up=st.sampled_from([False, False, True]))
    def write_up(self, link_ids, up):
        for link_id in link_ids:
            self.topo.links[link_id].up = up
        self.touched_pod = self.topo.links[link_ids[-1]].pod

    @rule(link_id=_LINK_IDS, speed=_SPEEDS)
    def write_speed_fraction(self, link_id, speed):
        link = self.topo.links[link_id]
        link.speed_fraction = speed
        assert link.speed_fraction == speed
        self.touched_pod = link.pod

    @rule(pod=st.integers(0, 1), fabric=st.integers(0, 3))
    def fail_a_fabric_switch_uplinks(self, pod, fabric):
        for port in range(self.topo.spine_uplinks):
            self.topo.fabric_spine_link(pod, fabric, port).up = False
        self.touched_pod = pod

    @invariant()
    def books_equal_the_recount(self):
        topo = self.topo
        for pod in range(topo.n_pods):
            for fabric in range(topo.fabrics_per_pod):
                assert (topo.fabric_up_spine_links(pod, fabric)
                        == recount_fabric_up_spine_links(topo, pod, fabric))
            for tor in range(topo.tors_per_pod):
                assert topo.tor_paths(pod, tor) == recount_tor_paths(
                    topo, pod, tor)
            assert (topo.pod_min_tor_paths(pod)
                    == recount_pod_min_tor_paths(topo, pod))
            # == on floats: the sum must round as the recount's does
            assert (topo.pod_capacity_fraction(pod)
                    == recount_pod_capacity_fraction(topo, pod))

    @invariant()
    def checker_agrees_and_writes_nothing(self):
        topo = self.topo
        before = [(link.up, link.speed_fraction) for link in topo.links]
        for link in topo.pod_links(self.touched_pod):
            for constraint in (0.5, 0.75):
                assert (topo.can_disable(link, constraint)
                        == recount_can_disable(topo, link, constraint))
        assert before == [(link.up, link.speed_fraction)
                          for link in topo.links]


FabricBooks.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestFabricBooks = FabricBooks.TestCase


class TestTrace:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_loss_rate_draws_are_stream_exact(self, seed):
        """``sample_loss_rates`` against the ``Generator.choice`` +
        ``Generator.uniform`` body it replaced: equal values *and* equal
        generator state, so every draw after it is unmoved too."""
        def choice_uniform_body(rng, n):
            probabilities = np.array([p for _, _, p in LOSS_BUCKETS])
            probabilities = probabilities / probabilities.sum()
            buckets = rng.choice(len(LOSS_BUCKETS), size=n, p=probabilities)
            lows = np.array([np.log10(LOSS_BUCKETS[b][0]) for b in buckets])
            highs = np.array([np.log10(LOSS_BUCKETS[b][1]) for b in buckets])
            return 10.0 ** rng.uniform(lows, highs)

        for n in (1, 7, 1000):
            ours, theirs = (np.random.default_rng(seed) for _ in range(2))
            got, want = sample_loss_rates(ours, n), choice_uniform_body(theirs, n)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tolist() == want.tolist()
            assert ours.bit_generator.state == theirs.bit_generator.state

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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _result_sha256(result):
    """sha256 over every series array and counter of a DeploymentResult."""
    return _sha256(json.dumps({
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in vars(result).items()}, sort_keys=True))


class TestPinnedDigests:
    """What "byte-identical" means for the planner tier: sha256 of the
    canonical documents, recorded at commit 8c7755d (before the topology
    kept books and before ``sample_loss_rates`` read tables).  A speed-up
    below this line may not move one of them."""

    FLEET = FleetSpec(n_pods=4)         # the bench replay: 256 links, 180 d
    TRACES = {
        7: "42df3907c1b87c42e5c0b4d5c210be8215957c1bb240e1b61a20453abcf29d75",
        8: "d7672d029602aa2aab294484ea0f6cae14a7139b60bf3014c777a24f637ff2bc",
        9: "c5e6b5bbe5f7b8b107bc609e52b4a98d3ba63b7ddfe0952caf06ad613db97dbf",
    }
    REPLAYS = {
        (7, "incremental"):
            "a5e8f5c3c9580018b1350ec6644015e8377ee81082dda44b07422bacbec720cd",
        (7, "greedy-worst"):
            "97333f6020f79b7b5de0dc8842796eec2782f3462dca652234b8dcc3b5d590cf",
        (8, "incremental"):
            "20189af114e1e35c07e5b47297985501c4d6c7023065311cb752c538a0b5e1e2",
        (8, "greedy-worst"):
            "15c4ddaa2e9fa4662e7199a29d72cc1907e1695ee2bcfc3368d68fc2cfeec0ab",
        (9, "incremental"):
            "c57143644186a21b80567b6d098ab1df4ec99ff654b7b1da8ec1c7b891ea9cb6",
        (9, "greedy-worst"):
            "3cacaa8a56861ab9e430895c7008e8665fd7ceb1bf27b7841138c743d23f2fdf",
    }
    DEPLOYMENTS = {
        "default": (
            {},
            "3615a34fde62f6f8ec84d7490a843dbb6412ab95c3628ec2728b164d90fe1aa3"),
        "paper-pods": (
            dict(n_pods=2, tors_per_pod=48, fabrics_per_pod=4,
                 spine_uplinks=48, duration_days=60.0),
            "928dcf8ed31f435f8120f0808b040aa84c7deb6d2d29cd4b1c390ca07af2cf9e"),
    }

    #: the full study, not only its summary: (vanilla, combined) digests
    #: of :func:`_result_sha256`, recorded before the study ran on the
    #: controller's own event loop
    DEPLOYMENT_SERIES = {
        "default": (
            "38430cdbc81fd937b7607720935082b40dcfc1dd32f822f31c3eb7adf7e246d4",
            "0104c522bd8c88b35a167be4d9a9dd9308f9dc75aab5ba5976b94e8a8a8eeb0f"),
        "paper-pods": (
            "1482d8338774e3ee63399cd85c5dbb4edda357dc16539e7a328cefc48738db10",
            "53b3b2fbbc6d8f99f00240543e33321358f45fe11b1ce0225b48e1937c3d9dfc"),
    }
    #: one ``incremental`` fraction (0.5) on its default trace
    INCREMENTAL_SERIES = (
        "aefbe99b3ae9d2115d5b4c804a695827f0e95bec5bcb545660effa43e0c6fd51")

    @pytest.mark.parametrize("seed", sorted(TRACES))
    def test_trace_and_replays(self, seed):
        spec = TraceSpec(fleet=self.FLEET, duration_days=180.0, seed=seed)
        assert _sha256(generate_trace(spec).to_json()) == self.TRACES[seed]
        for policy in ("incremental", "greedy-worst"):
            rollup = run_replay(ReplaySpec(
                trace=spec, backend="hybrid", policy=policy))
            assert (_sha256(rollup.canonical_json())
                    == self.REPLAYS[seed, policy])

    @pytest.mark.parametrize("shape", sorted(DEPLOYMENTS))
    def test_deployment_summary(self, shape):
        params, digest = self.DEPLOYMENTS[shape]
        comparison = run_deployment_comparison(**params)
        summary = comparison.summary()
        assert _sha256(json.dumps(summary, sort_keys=True)) == digest
        assert (_result_sha256(comparison.vanilla),
                _result_sha256(comparison.combined)
                ) == self.DEPLOYMENT_SERIES[shape]

    def test_incremental_fraction_series(self):
        defaults = run_incremental_deployment.__defaults__
        (_, constraint, n_pods, tors, fabrics, uplinks, days, mttf,
         seed) = defaults
        trace = generate_trace(TraceSpec(
            FleetSpec(n_pods, tors, fabrics, uplinks, mttf_hours=mttf),
            days, seed))
        result = replay_corropt(trace, constraint, 0.5)
        assert _result_sha256(result) == self.INCREMENTAL_SERIES
