"""Runner/fleet/CLI integration of obs v2: timings, artifacts, obs verbs."""

import json

import pytest

from repro.obs.schema import validate_timeline
from repro.runner import CellResult, ExperimentSpec, run_cell

OBS_OPTIONS = {"spans": True, "timeline": {"interval_ns": 100_000}}


def small_fct_spec(**overrides):
    base = dict(kind="fct", n_trials=20, loss_rate=5e-3, seed=3,
                obs=OBS_OPTIONS)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecObsField:
    def test_empty_obs_leaves_serialization_unchanged(self):
        spec = ExperimentSpec(kind="fct")
        assert "obs" not in spec.to_dict()
        assert '"obs"' not in spec.canonical_json()

    def test_obs_round_trips(self):
        spec = small_fct_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_obs_never_perturbs_derived_seeds(self):
        plain = ExperimentSpec(kind="fct")
        instrumented = small_fct_spec(n_trials=plain.n_trials,
                                      loss_rate=plain.loss_rate,
                                      seed=plain.seed)
        assert plain.grid_key() == instrumented.grid_key()


class TestCellResultDiagnostics:
    @pytest.fixture(scope="class")
    def instrumented(self):
        return run_cell(small_fct_spec())

    def test_phase_timings_attached(self, instrumented):
        timings = instrumented.timings
        for phase in ("setup", "run", "collect", "total_s"):
            assert phase in timings, f"missing {phase}"
        assert timings["total_s"] >= timings["run"] > 0.0
        # TrialHarness ends Simulator.run() with stop(): the kernel's own
        # accumulator covers the hot loop, inside the "run" phase.
        assert 0.0 < timings["engine_run_s"] <= timings["run"]

    def test_timeline_artifact_attached_and_valid(self, instrumented):
        series = instrumented.artifacts["timeline"]
        assert validate_timeline(series) == []
        assert series["sampled"] > 0
        assert any(name.startswith("lg.sender.")
                   for name in series["metrics"])

    def test_span_summary_artifact(self, instrumented):
        summary = instrumented.artifacts["spans"]
        assert summary["started"] > 0
        assert summary["episodes"] > 0

    def test_canonical_json_excludes_diagnostics(self, instrumented):
        canonical = instrumented.canonical_json()
        assert '"timings"' not in canonical
        assert '"artifacts"' not in canonical

    def test_to_json_round_trips_diagnostics(self, instrumented):
        clone = CellResult.from_json(instrumented.to_json())
        assert clone.timings == instrumented.timings
        assert clone.artifacts["spans"] == instrumented.artifacts["spans"]

    def test_uninstrumented_result_keeps_old_json_shape(self):
        result = run_cell(ExperimentSpec(kind="fct", n_trials=5, seed=1))
        line = json.loads(result.to_json())
        assert "artifacts" not in line  # no obs requested: no artifact keys
        assert "timings" in line        # phase timers are always on
        old_line = ('{"backend": "packet", "cell_id": "x", "metrics": {}, '
                    '"series": {}, "spec": {}}')
        legacy = CellResult.from_json(old_line)
        assert legacy.timings == {} and legacy.artifacts == {}

    def test_instrumented_metrics_match_plain_run(self):
        plain = run_cell(small_fct_spec().with_(obs={}))
        traced = run_cell(small_fct_spec())
        assert plain.canonical_json() == traced.canonical_json()


class TestFastpathDiagnostics:
    def test_fastpath_cell_carries_timings_and_timeline(self):
        spec = small_fct_spec(backend="fastpath", n_trials=1000)
        result = run_cell(spec)
        assert result.backend == "fastpath"
        assert result.timings["batch_cells"] == 1
        assert result.timings["batch_s"] >= result.timings["run_s"] >= 0.0
        series = result.artifacts["timeline"]
        assert validate_timeline(series) == []
        assert series["sampled"] == 1
        assert "p99_us" in series["metrics"]

    def test_fastpath_without_obs_has_no_artifacts(self):
        result = run_cell(ExperimentSpec(kind="fct", backend="fastpath",
                                         n_trials=1000))
        assert result.artifacts == {}
        assert "batch_s" in result.timings


class TestFleetShardTimeline:
    """A campaign shard is a ``lifecycle_chunk`` cell result: its per-day
    timeline rides in the result's series, one row per day of the chunk."""

    @pytest.fixture(scope="class")
    def shard_result(self):
        from repro.fleet import FleetCampaignSpec, FleetSpec
        from repro.lifecycle.replay import evaluate_chunks

        campaign = FleetCampaignSpec(
            fleet=FleetSpec(n_pods=1, tors_per_pod=4, fabrics_per_pod=4,
                            spine_uplinks=4, mttf_hours=300.0),
            duration_days=20.0, seed=3,
        )
        [result] = evaluate_chunks(campaign.replay_spec())
        return campaign, result

    def test_artifact_shape(self, shard_result):
        from repro.lifecycle import DAY_COLUMNS

        _, result = shard_result
        days = result.series["days"]
        n_days = 20
        assert tuple(days) == DAY_COLUMNS
        assert days["day"] == list(range(n_days))
        assert (result.metrics["day_lo"], result.metrics["day_hi"]) == (0, 20)
        assert sum(days["episode_onsets"]) == \
            result.series["counts"]["n_episodes"]
        exposed = result.series["exposed_affected_flow_fraction"]
        assert len(exposed) == n_days
        for share, total in zip(exposed, days["affected_flow_fraction"]):
            assert 0.0 <= share <= total

    def test_series_and_canonical_form_untouched(self, shard_result):
        _, result = shard_result
        assert set(result.series) == {
            "days", "counts", "exposed_affected_flow_fraction"}
        assert '"artifacts"' not in result.canonical_json()

    def test_campaign_rollup_unchanged_by_artifact(self, shard_result):
        from repro.fleet import run_fleet_campaign
        from repro.fleet.campaign import FleetCampaignSpec

        campaign, _ = shard_result
        serial = run_fleet_campaign(campaign)
        sharded = run_fleet_campaign(FleetCampaignSpec.from_dict(
            {**campaign.to_dict(), "n_shards": 3}))
        assert serial.canonical_json() == sharded.canonical_json()


class TestCliObsVerbs:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        from repro.cli import main

        out = tmp_path_factory.mktemp("obs")
        trace = out / "trace.json"
        timeline = out / "timeline.json"
        assert main(["metrics", "--duration-ms", "1", "--spans",
                     "--trace-out", str(trace),
                     "--timeline-out", str(timeline),
                     "--timeline-interval-us", "200", "--json"]) == 0
        return trace, timeline

    def test_spans_verb_renders_episodes(self, artifacts, capsys):
        from repro.cli import main

        trace, _ = artifacts
        assert main(["obs", "spans", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "recovery_episode" in out
        assert "episode(s)" in out

    def test_spans_verb_json_mode(self, artifacts, capsys):
        from repro.cli import main

        trace, _ = artifacts
        assert main(["obs", "spans", str(trace), "--json"]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert any(s["name"] == "recovery_episode" for s in spans)

    def test_timeline_verb_summarizes(self, artifacts, capsys):
        from repro.cli import main

        _, timeline = artifacts
        assert main(["obs", "timeline", str(timeline)]) == 0
        out = capsys.readouterr().out
        assert "engine.sim_time_ns" in out

    def test_top_verb_ranks_checkpoint(self, tmp_path, capsys):
        from repro.cli import main

        checkpoint = tmp_path / "cp.jsonl"
        lines = []
        for index, wall in enumerate((0.5, 2.0, 1.0)):
            result = CellResult(cell_id=f"cell-{index}", spec={},
                                wall_s=wall,
                                timings={"total_s": wall, "run": wall})
            lines.append(result.to_json())
        checkpoint.write_text("\n".join(lines) + "\n")
        assert main(["obs", "top", str(checkpoint), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert out.index("cell-1") < out.index("cell-2")
        assert "cell-0" not in out


class TestCliUsageErrors:
    """Satellite: argument errors exit 2; invalid artifact content exits 1."""

    def _exit_code(self, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        return excinfo.value.code

    def test_metrics_rejects_non_positive_duration(self, capsys):
        assert self._exit_code(["metrics", "--duration-ms", "0"]) == 2
        assert "duration-ms" in capsys.readouterr().err

    def test_timeline_interval_must_be_positive(self, capsys):
        assert self._exit_code(
            ["fig09", "--timeline-interval-us", "-3"]) == 2
        assert "timeline-interval-us" in capsys.readouterr().err

    def test_obs_verbs_reject_missing_files(self, capsys):
        assert self._exit_code(["obs", "spans", "/nonexistent.json"]) == 2
        assert self._exit_code(["obs", "timeline", "/nonexistent.json"]) == 2
        assert self._exit_code(["obs", "top", "/nonexistent.jsonl"]) == 2
        capsys.readouterr()

    def test_obs_top_rejects_non_positive_limit(self, tmp_path):
        checkpoint = tmp_path / "cp.jsonl"
        checkpoint.write_text("")
        assert self._exit_code(
            ["obs", "top", str(checkpoint), "--limit", "0"]) == 2

    def test_invalid_artifact_content_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["obs", "timeline", str(bad)]) == 1
        assert "interval_ns" in capsys.readouterr().err
        bad_trace = tmp_path / "trace.json"
        bad_trace.write_text(json.dumps({"traceEvents": [
            {"name": "a", "cat": "c", "ph": "Z", "ts": 1.0}]}))
        assert main(["obs", "spans", str(bad_trace)]) == 1
        capsys.readouterr()
