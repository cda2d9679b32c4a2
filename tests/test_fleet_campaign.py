"""Tests for fleet campaigns — the one-shot view of a lifecycle replay:
determinism, rollup, resume, and consistency with the replay it views."""

import json

import pytest

from repro.fleet.campaign import FleetCampaignSpec, run_fleet_campaign
from repro.fleet.controller import ControllerConfig
from repro.fleet.cost import segment_cost, unprotected_goodput_fraction
from repro.fleet.topology import FleetSpec
from repro.lifecycle.replay import (
    arbitrate, evaluate_chunks, run_chunk, run_replay, shard_bounds,
)
from repro.obs import Observability
from repro.units import DAY_S


def small_campaign(**overrides) -> FleetCampaignSpec:
    """32-link fleet, short horizon: the CI smoke configuration."""
    defaults = dict(
        fleet=FleetSpec(n_pods=1, tors_per_pod=4, fabrics_per_pod=4,
                        spine_uplinks=4, mttf_hours=300.0),
        duration_days=20.0,
        seed=3,
    )
    defaults.update(overrides)
    return FleetCampaignSpec(**defaults)


class TestSpec:
    def test_roundtrips_through_dict(self):
        spec = small_campaign(policy="greedy-worst", n_shards=4,
                              controller=ControllerConfig(activation_budget=8))
        assert FleetCampaignSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            small_campaign(policy="oracle")

    def test_rejects_more_shards_than_days(self):
        # Shards are time chunks: 20 days hold at most 20 of them.
        assert small_campaign(n_shards=20).n_shards == 20
        with pytest.raises(ValueError, match="n_shards"):
            small_campaign(n_shards=21)

    def test_maps_onto_a_corropt_replay(self):
        replay = small_campaign(n_shards=4, backend="hybrid").replay_spec()
        assert (replay.repair, replay.n_chunks, replay.backend) == (
            "corropt", 4, "hybrid")
        assert replay.trace.seed == 3 and replay.trace.duration_days == 20.0


class TestShardBounds:
    def test_partition_is_exact_and_balanced(self):
        n_links, n_shards = 37, 5
        ranges = [shard_bounds(n_links, n_shards, s) for s in range(n_shards)]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_links
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(ValueError):
            shard_bounds(32, 4, 4)


class TestShardDeterminism:
    def test_shards_union_equals_serial(self):
        serial = run_chunk(small_campaign().replay_spec(), 0)
        sharded = small_campaign(n_shards=4).replay_spec()
        chunks = [run_chunk(sharded, s) for s in range(4)]
        for name, column in serial["days"].items():
            assert [v for c in chunks for v in c["days"][name]] == column
        assert all(c["counts"] == serial["counts"] for c in chunks)

    def test_one_chunk_result_per_shard(self):
        results = evaluate_chunks(small_campaign(n_shards=4).replay_spec())
        assert [r.metrics["chunk"] for r in results] == [0, 1, 2, 3]
        assert {r.spec["kind"] for r in results} == {"lifecycle_chunk"}
        assert len({r.cell_id for r in results}) == 4


class TestCampaignRollup:
    def test_slos_and_counts_present(self):
        result = run_fleet_campaign(small_campaign())
        for slo in ("affected_flow_fraction", "fleet_goodput_fraction",
                    "p99_fct_inflation", "exposed_link_s",
                    "protected_link_s", "disabled_link_s", "n_episodes"):
            assert slo in result.slos
        assert 0.0 <= result.slos["affected_flow_fraction"] <= 1.0
        assert 0.0 < result.slos["fleet_goodput_fraction"] <= 1.0
        assert result.counts["activations"] >= 0
        assert set(result.series) == {
            "activate_per_day", "blocked_per_day",
            "disable_per_day", "preempt_per_day",
        }
        assert all(len(v) == 20 for v in result.series.values())

    def test_policies_yield_different_outcomes(self):
        # Tight budget: greedy preempts for worse links, incremental blocks.
        tight = ControllerConfig(capacity_constraint=1.0, activation_budget=4)
        incremental = run_fleet_campaign(
            small_campaign(controller=tight, policy="incremental"))
        greedy = run_fleet_campaign(
            small_campaign(controller=tight, policy="greedy-worst"))
        assert incremental.counts != greedy.counts

    def test_protection_beats_exposure(self):
        """With the controller pinned off (budget 0, no disables allowed),
        every episode stays exposed; any working policy must do better on
        affected flows."""
        off = ControllerConfig(capacity_constraint=1.0, activation_budget=0)
        exposed = run_fleet_campaign(small_campaign(controller=off))
        protected = run_fleet_campaign(small_campaign(
            controller=ControllerConfig(capacity_constraint=1.0)))
        assert exposed.slos["exposed_link_s"] > 0
        assert protected.slos["affected_flow_fraction"] < \
            exposed.slos["affected_flow_fraction"]

    def test_obs_rollup_provider_registered(self):
        obs = Observability()
        run_fleet_campaign(small_campaign(), obs=obs)
        snap = obs.snapshot()
        assert "affected_flow_fraction" in snap["fleet.rollup.incremental"]
        assert "fleet.controller.incremental.disable" in snap


class TestBitIdentity:
    def test_same_seed_same_bytes(self):
        a = run_fleet_campaign(small_campaign())
        b = run_fleet_campaign(small_campaign())
        assert a.canonical_json() == b.canonical_json()

    def test_parallel_shards_match_serial_bytes(self):
        serial = run_fleet_campaign(small_campaign())
        parallel = run_fleet_campaign(small_campaign(n_shards=4), workers=4)
        assert parallel.canonical_json() == serial.canonical_json()

    def test_different_seed_different_result(self):
        a = run_fleet_campaign(small_campaign(seed=3))
        b = run_fleet_campaign(small_campaign(seed=4))
        assert a.canonical_json() != b.canonical_json()

    @pytest.mark.slow
    def test_512_link_fleet_is_byte_identical(self):
        campaign = FleetCampaignSpec(
            fleet=FleetSpec(n_pods=8, mttf_hours=1000.0),
            duration_days=10.0,
            seed=7,
        )
        assert campaign.fleet.n_links == 512
        a = run_fleet_campaign(campaign)
        b = run_fleet_campaign(
            FleetCampaignSpec.from_dict({**campaign.to_dict(),
                                         "n_shards": 4}),
            workers=4)
        assert a.canonical_json() == b.canonical_json()

    def test_canonical_json_is_valid_and_spec_complete(self):
        result = run_fleet_campaign(small_campaign(n_shards=2))
        data = json.loads(result.canonical_json())
        assert set(data) == {"spec", "slos", "counts", "series"}
        assert "n_shards" not in data["spec"]  # execution detail
        assert data["spec"]["seed"] == 3


class TestCheckpointResume:
    def test_resume_skips_completed_shards(self, tmp_path):
        campaign = small_campaign(n_shards=4)
        checkpoint = str(tmp_path / "fleet.jsonl")
        first = run_fleet_campaign(campaign, checkpoint=checkpoint)
        with open(checkpoint) as fh:
            assert len(fh.readlines()) == 4
        resumed = run_fleet_campaign(campaign, checkpoint=checkpoint)
        assert resumed.canonical_json() == first.canonical_json()


class TestGoodputModel:
    def test_clean_link_is_full_rate(self):
        assert unprotected_goodput_fraction(0.0) == 1.0
        assert unprotected_goodput_fraction(1e-9) == 1.0

    def test_collapses_with_loss(self):
        mild = unprotected_goodput_fraction(1e-5)
        severe = unprotected_goodput_fraction(1e-3)
        assert severe < mild <= 1.0
        assert severe < 0.5


class TestViewOfReplay:
    """The campaign is a view: its numbers are the replay's numbers."""

    @pytest.mark.parametrize("backend", ["packet", "fastpath", "hybrid"])
    def test_campaign_equals_corropt_replay_rollup(self, backend):
        # 19.25 days: the short last day must weigh a quarter.
        campaign = small_campaign(backend=backend, policy="greedy-worst",
                                  duration_days=19.25,
                                  controller=ControllerConfig(
                                      capacity_constraint=1.0,
                                      activation_budget=2))
        result = run_fleet_campaign(campaign)
        replay = campaign.replay_spec()
        assert replay.repair == "corropt"
        rollup = run_replay(replay)
        for name in ("exposed_link_s", "protected_link_s", "disabled_link_s"):
            assert result.slos[name] == rollup.slos[name]
        assert result.slos["exposed_link_s"] > 0
        assert result.slos["n_episodes"] == rollup.counts["n_episodes"]
        for name, count in result.counts.items():
            assert count == rollup.counts[name]
        assert result.series["activate_per_day"] == rollup.days["activations"]

        # One-shot fractions are the link-second-weighted day columns.
        duration_s = replay.trace.duration_s
        weights = [min(duration_s, (d + 1) * DAY_S) - d * DAY_S
                   for d in rollup.days["day"]]
        for slo, column in (
                ("fleet_goodput_fraction", "goodput_fraction"),
                ("affected_flow_fraction", "affected_flow_fraction")):
            mean = sum(v * w for v, w in zip(rollup.days[column], weights)
                       ) / sum(weights)
            assert result.slos[slo] == pytest.approx(mean, abs=1e-9)

        # ... and goodput agrees with pricing the raw segments directly.
        episodes, _, outcome = arbitrate(replay)
        lost = sum(
            (seg.end_s - seg.start_s) * segment_cost(
                seg.state, episodes[index].episode.loss_rate)[0]
            for index, segments in outcome.segments.items()
            for seg in segments)
        assert result.slos["fleet_goodput_fraction"] == pytest.approx(
            1.0 - lost / (campaign.fleet.n_links * duration_s), abs=1e-9)
