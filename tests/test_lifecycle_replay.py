"""repro.lifecycle replay: chunking invariance, one arbitration and one
evaluation, resume, SLO rollup."""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.fleet import FleetCampaignSpec, run_fleet_campaign
from repro.fleet.controller import ControllerConfig, FleetController
from repro.fleet.topology import FleetSpec
from repro.lifecycle import (
    DAY_COLUMNS, LifecycleRollup, ReplaySpec, SloConfig, TraceSpec,
    run_chunk, run_replay,
)
from repro.lifecycle import replay as replay_module
from repro.lifecycle.replay import evaluate_chunks
from repro.obs import Observability

#: ``small_replay(n_chunks=3)``'s three chunk lines, as the process-pool
#: runner wrote them before chunks shared one arbitration
PARENT_CHECKPOINT = (Path(__file__).parent / "data"
                     / "lifecycle_chunk_checkpoint.jsonl")

SMALL_FLEET = FleetSpec(n_pods=2, tors_per_pod=2, fabrics_per_pod=2,
                        spine_uplinks=2, mttf_hours=200.0)


def small_replay(**overrides):
    defaults = dict(
        trace=TraceSpec(fleet=SMALL_FLEET, duration_days=12.0, seed=5),
        backend="hybrid",
    )
    defaults.update(overrides)
    return ReplaySpec(**defaults)


class TestReplaySpec:
    def test_roundtrips_through_dict(self):
        replay = small_replay(n_chunks=3, repair="severity",
                              repair_params={"urgent_days": 0.5})
        assert ReplaySpec.from_dict(replay.to_dict()) == replay

    @pytest.mark.parametrize("overrides", [
        {"policy": "bogus"},
        {"repair": "bogus"},
        {"repair_params": {"bogus": 1}},
        {"backend": "bogus"},
        {"n_chunks": 0},
        {"n_chunks": 99},          # > n_days
        {"resim_fraction": 1.5},
        {"flow_packets": 0},
    ])
    def test_rejects_invalid_parameters(self, overrides):
        with pytest.raises((ValueError, TypeError)):
            small_replay(**overrides)

    def test_chunk_days_partition_the_trace(self):
        replay = small_replay(n_chunks=5)
        ranges = [replay.chunk_days(c) for c in range(5)]
        assert ranges[0][0] == 0 and ranges[-1][1] == replay.n_days
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo


class TestChunkInvariance:
    def test_serial_equals_chunked_equals_parallel(self):
        serial = run_replay(small_replay(n_chunks=1))
        for n_chunks, workers in ((3, 1), (4, 2), (12, 2)):
            chunked = run_replay(small_replay(n_chunks=n_chunks),
                                 workers=workers)
            assert (chunked.canonical_json() == serial.canonical_json()), \
                f"n_chunks={n_chunks} workers={workers} diverged"

    @pytest.mark.parametrize("backend", ["fastpath", "packet"])
    def test_invariance_holds_per_backend(self, backend):
        serial = run_replay(small_replay(backend=backend, n_chunks=1))
        chunked = run_replay(small_replay(backend=backend, n_chunks=4),
                             workers=2)
        assert chunked.canonical_json() == serial.canonical_json()

    def test_chunk_result_is_the_cell_it_was(self):
        """A chunk's canonical cell result is the one the process-pool
        runner's ``lifecycle_chunk`` cell produced (digest recorded then)."""
        campaign = FleetCampaignSpec(
            fleet=FleetSpec(n_pods=1, tors_per_pod=4, fabrics_per_pod=4,
                            spine_uplinks=4, mttf_hours=300.0),
            duration_days=10.0, seed=3)
        [chunk] = evaluate_chunks(campaign.replay_spec())
        assert chunk.cell_id.startswith("lifecycle_chunk-")
        assert hashlib.sha256(chunk.canonical_json().encode()).hexdigest() \
            == "cc2bad5e94510d841a3994e1e4e49f3e2e4d22e62afd04b8e1d02ab8d39f4a74"

    def test_chunk_counts_are_global(self):
        replay = small_replay(n_chunks=3)
        counts = [run_chunk(replay, c)["counts"] for c in range(3)]
        assert counts[0] == counts[1] == counts[2]

    def test_chunks_cover_disjoint_day_ranges(self):
        replay = small_replay(n_chunks=3)
        days = [day for c in range(3)
                for day in run_chunk(replay, c)["days"]["day"]]
        assert days == list(range(replay.n_days))


@pytest.fixture
def arbitrations(monkeypatch):
    """Every ``FleetController.run`` call made while the test runs."""
    calls = []
    real = FleetController.run

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FleetController, "run", counted)
    return calls


class TestOneArbitration:
    @pytest.mark.parametrize("n_chunks, workers",
                             [(1, 1), (3, 1), (4, 2), (12, 2)])
    def test_replay_arbitrates_once(self, arbitrations, n_chunks, workers):
        run_replay(small_replay(n_chunks=n_chunks), workers=workers)
        assert len(arbitrations) == 1

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_campaign_arbitrates_once(self, arbitrations, instrumented):
        campaign = FleetCampaignSpec(
            fleet=SMALL_FLEET, duration_days=12.0, seed=5, n_shards=4)
        obs = Observability() if instrumented else None
        run_fleet_campaign(campaign, workers=2, obs=obs)
        assert len(arbitrations) == 1
        if instrumented:    # the one arbitration is the instrumented one
            assert "fleet.controller.incremental.disable" in obs.snapshot()

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_campaign_resumed_in_full(self, tmp_path, arbitrations,
                                      instrumented):
        """Nothing pending needs no arbitration, except the instrumented
        one that puts the decision counters in the caller's registry."""
        campaign = FleetCampaignSpec(
            fleet=SMALL_FLEET, duration_days=12.0, seed=5, n_shards=4)
        checkpoint = str(tmp_path / "fleet.jsonl")
        first = run_fleet_campaign(campaign, checkpoint=checkpoint)
        del arbitrations[:]
        obs = Observability() if instrumented else None
        again = run_fleet_campaign(campaign, checkpoint=checkpoint, obs=obs)
        assert again.canonical_json() == first.canonical_json()
        assert len(arbitrations) == instrumented
        if instrumented:
            assert "fleet.controller.incremental.disable" in obs.snapshot()

    def test_workers_are_checked(self):
        with pytest.raises(ValueError, match="workers"):
            run_replay(small_replay(), workers=0)
        with pytest.raises(ValueError, match="workers"):
            run_fleet_campaign(FleetCampaignSpec(
                fleet=SMALL_FLEET, duration_days=12.0), workers=0)


@pytest.fixture
def evaluations(monkeypatch):
    """Every ``accumulate_days`` call a replay makes while the test runs."""
    calls = []
    real = replay_module.accumulate_days

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(replay_module, "accumulate_days", counted)
    return calls


class TestOneEvaluation:
    """A replay's days are evaluated once and each chunk is a slice of
    that evaluation, whatever the chunking."""

    @pytest.mark.parametrize("n_chunks", [1, 3, 12])
    def test_replay_evaluates_once(self, evaluations, n_chunks):
        run_replay(small_replay(n_chunks=n_chunks))
        assert len(evaluations) == 1

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_campaign_evaluates_once(self, evaluations, instrumented):
        campaign = FleetCampaignSpec(
            fleet=SMALL_FLEET, duration_days=12.0, seed=5, n_shards=4)
        run_fleet_campaign(
            campaign, obs=Observability() if instrumented else None)
        assert len(evaluations) == 1

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_complete_checkpoint_needs_no_evaluation(
            self, tmp_path, evaluations, arbitrations, instrumented):
        """Under ``obs`` the resumed campaign still arbitrates (for the
        decision counters), but evaluates nothing."""
        campaign = FleetCampaignSpec(
            fleet=SMALL_FLEET, duration_days=12.0, seed=5, n_shards=4)
        checkpoint = str(tmp_path / "fleet.jsonl")
        run_fleet_campaign(campaign, checkpoint=checkpoint)
        del evaluations[:], arbitrations[:]
        run_fleet_campaign(campaign, checkpoint=checkpoint,
                           obs=Observability() if instrumented else None)
        assert evaluations == []
        assert len(arbitrations) == instrumented

    def test_empirical_counter_counts_each_episode_once(self):
        """``lifecycle.replay.empirical`` is the replay's sampled
        episodes, not that count once per chunk."""
        def counter(n_chunks):
            obs = Observability()
            run_replay(small_replay(
                backend="packet", n_chunks=n_chunks,
                controller=ControllerConfig(activation_budget=1)), obs=obs)
            return obs.registry.snapshot()["lifecycle.replay.empirical"][
                "value"]

        sampled = run_chunk(small_replay(
            backend="packet", controller=ControllerConfig(activation_budget=1)),
            0)["chunk"]["empirical_evaluated"]
        assert sampled > 0
        assert counter(1) == counter(4) == sampled


class TestCheckpointResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        replay = small_replay(n_chunks=4)
        reference = run_replay(replay)

        checkpoint = tmp_path / "lifecycle.jsonl"
        full = run_replay(replay, checkpoint=str(checkpoint))
        assert full.canonical_json() == reference.canonical_json()
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == 4

        # Simulate a mid-replay kill: two finished chunks survive plus a
        # line torn mid-write; the resumed run must evaluate only the
        # other two and still roll up byte-identically.
        checkpoint.write_text("\n".join(lines[:2]) + "\n" + lines[2][:37])
        evaluated = []
        resumed = run_replay(replay, checkpoint=str(checkpoint),
                             progress=evaluated.append)
        assert [r.metrics["chunk"] for r in evaluated] == [2, 3]
        assert resumed.canonical_json() == reference.canonical_json()

    def test_complete_checkpoint_needs_no_arbitration(
            self, tmp_path, arbitrations):
        replay = small_replay(n_chunks=3)
        checkpoint = str(tmp_path / "lifecycle.jsonl")
        first = run_replay(replay, checkpoint=checkpoint)
        del arbitrations[:]
        again = run_replay(replay, checkpoint=checkpoint)
        assert arbitrations == []
        assert again.canonical_json() == first.canonical_json()

    def test_parent_checkpoint_lines_still_resume(
            self, tmp_path, arbitrations):
        replay = small_replay(n_chunks=3)
        reference = run_replay(small_replay()).canonical_json()
        checkpoint = tmp_path / "lifecycle.jsonl"
        shutil.copy(PARENT_CHECKPOINT, checkpoint)
        del arbitrations[:]
        assert run_replay(replay, checkpoint=str(checkpoint)
                          ).canonical_json() == reference
        assert arbitrations == []

        # one surviving line: the other two chunks are evaluated
        checkpoint.write_text(PARENT_CHECKPOINT.read_text().splitlines()[0])
        evaluated = []
        assert run_replay(replay, checkpoint=str(checkpoint),
                          progress=evaluated.append
                          ).canonical_json() == reference
        assert [r.metrics["chunk"] for r in evaluated] == [1, 2]
        assert len(arbitrations) == 1


class TestSloRollup:
    def test_day_columns_aligned_and_complete(self):
        rollup = run_replay(small_replay(n_chunks=2))
        assert set(rollup.days) == set(DAY_COLUMNS)
        n_days = rollup.days and len(rollup.days["day"])
        for name in DAY_COLUMNS:
            assert len(rollup.days[name]) == n_days
        assert rollup.days["day"] == list(range(n_days))

    def test_slo_values_are_sane(self):
        rollup = run_replay(small_replay())
        slos = rollup.slos
        assert 0.0 <= slos["goodput_slo_attainment"] <= 1.0
        assert 0.0 <= slos["affected_slo_attainment"] <= 1.0
        assert 0.0 < slos["mean_goodput_fraction"] <= 1.0
        assert slos["min_goodput_fraction"] <= slos["mean_goodput_fraction"]
        assert slos["repair_queue_depth_max"] >= 1
        total_link_s = (slos["exposed_link_s"] + slos["protected_link_s"]
                        + slos["disabled_link_s"])
        budget = (small_replay().trace.fleet.n_links
                  * small_replay().trace.duration_s)
        assert 0.0 < total_link_s < budget

    def test_slo_targets_move_attainment(self):
        lenient = run_replay(small_replay(
            slo=SloConfig(goodput_target=0.01)))
        strict = run_replay(small_replay(
            slo=SloConfig(goodput_target=0.999999)))
        assert lenient.slos["goodput_slo_attainment"] == 1.0
        assert (strict.slos["goodput_slo_attainment"]
                <= lenient.slos["goodput_slo_attainment"])

    def test_counts_match_controller_audit(self):
        rollup = run_replay(small_replay())
        counts = rollup.counts
        assert counts["n_episodes"] > 0
        # Every episode got an initial decision (later re-decisions on
        # clears/preempts only add to the left side).
        assert (counts["activations"] + counts["disables"]
                + counts["blocked"]) >= counts["n_episodes"]
        # decision day-buckets must sum to the audit counters
        assert sum(rollup.days["activations"]) == counts["activations"]
        assert sum(rollup.days["disables"]) == counts["disables"]
        assert sum(rollup.days["blocked"]) == counts["blocked"]
        assert sum(rollup.days["episode_onsets"]) == counts["n_episodes"]

    def test_rollup_json_roundtrip(self):
        rollup = run_replay(small_replay(n_chunks=2))
        loaded = LifecycleRollup.from_json(rollup.to_json())
        assert loaded.canonical_json() == rollup.canonical_json()
        with pytest.raises(ValueError, match="rollup"):
            LifecycleRollup.from_json('{"other": 1}')

    def test_obs_integration_records_timeline_and_counters(self):
        from repro.obs import Observability

        obs = Observability()
        rollup = run_replay(small_replay(n_chunks=2), obs=obs)
        snapshot = obs.registry.snapshot()
        assert snapshot["lifecycle.replay.runs"]["value"] == 1
        assert snapshot["lifecycle.replay.chunks"]["value"] == 2
        provider = snapshot["lifecycle.rollup.incremental"]
        assert provider["n_episodes"] == rollup.counts["n_episodes"]
        timeline = rollup.artifacts["timeline"]
        assert timeline["policy"] == "decimate"
        assert len(timeline["ts_ns"]) == len(rollup.days["day"])
        assert ("lifecycle.day.goodput_fraction.value"
                in timeline["metrics"])


class TestGoldenSummary:
    def test_default_30day_fleet_matches_golden(self):
        """The CI smoke contract: the default 4-pod, 30-day hybrid replay
        reproduces the checked-in SLO rollup exactly.  A diff here means
        lifecycle determinism drifted — regenerate the golden only for a
        deliberate model change (see tests/data/README note inside)."""
        replay = ReplaySpec(
            trace=TraceSpec(duration_days=30.0, seed=1), backend="hybrid")
        rollup = run_replay(replay)
        with open("tests/data/lifecycle_golden_summary.json") as handle:
            golden = json.load(handle)
        assert {"slos": rollup.slos, "counts": rollup.counts} == golden
