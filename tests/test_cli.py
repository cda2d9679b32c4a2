"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import VERBS, main


class TestCli:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for verb in VERBS:
            assert verb.name in out or verb.name == "list"

    def test_fig20_runs(self, capsys):
        assert main(["fig20"]) == 0
        out = capsys.readouterr().out
        assert "loss" in out and "0.05" in out

    def test_fig01_runs(self, capsys):
        assert main(["fig01"]) == 0
        out = capsys.readouterr().out
        assert "50GBASE-SR (FEC)" in out

    def test_tab01_runs(self, capsys):
        assert main(["tab01"]) == 0
        assert "published_%" in capsys.readouterr().out

    def test_fig13_small(self, capsys):
        assert main(["fig13", "--trials", "60", "--loss-rate", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "affected" in out

    def test_fig19_link_without_a_retransmission(self, capsys):
        """A run too short to lose a frame has no delay to summarise: the
        link's row says so (it used to die in ``min()`` of nothing)."""
        import json

        assert main(["fig19", "--duration-ms", "0.01", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"link": link, "n": 0, "min_us": "", "p50_us": "", "max_us": ""}
            for link in ("25G", "100G")]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_sweep_runs_and_emits_rows(self, capsys, tmp_path):
        import json

        ckpt = str(tmp_path / "sweep.jsonl")
        argv = ["sweep", "--kind", "fct",
                "--axis", "scenario=noloss,loss",
                "--trials", "20", "--loss-rate", "0.01",
                "--checkpoint", ckpt, "--json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["scenario"] for r in rows] == ["noloss", "loss"]
        # Second invocation resumes every cell from the checkpoint.
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == rows

    def test_sweep_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--kind", "bogus"])

    def test_sweep_rejects_malformed_axis(self):
        from repro.cli import parse_axis

        with pytest.raises(ValueError):
            parse_axis("scenario")
        with pytest.raises(ValueError):
            parse_axis("scenario=")
        assert parse_axis("loss_rate=0.001,0.01") == (
            "loss_rate", [0.001, 0.01])
        assert parse_axis("lg.ordered=true,false") == (
            "lg.ordered", [True, False])

    def test_fleet_runs_and_sharding_is_invisible(self, capsys):
        import json

        argv = ["fleet", "--fleet-pods", "1", "--fleet-tors", "4",
                "--fleet-spines", "4", "--days", "10", "--seed", "3"]
        assert main(argv + ["--json"]) == 0
        serial = capsys.readouterr().out
        data = json.loads(serial)
        assert "affected_flow_fraction" in data["slos"]
        assert "activations" in data["counts"]
        # The acceptance bar: a sharded parallel run is byte-identical.
        assert main(argv + ["--shards", "4", "--workers", "2", "--json"]) == 0
        assert capsys.readouterr().out == serial

    def test_fleet_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--policy", "oracle"])

    def test_fleet_human_output_has_slos(self, capsys):
        assert main(["fleet", "--fleet-pods", "1", "--fleet-tors", "4",
                     "--fleet-spines", "4", "--days", "5"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 32 links" in out
        assert "affected_flow_fraction" in out

    def test_every_command_registered_with_description(self):
        for verb in VERBS:
            assert callable(verb.run) or verb.subs
            assert verb.help


class TestCliObservability:
    def test_tab01_json_output_parses(self, capsys):
        import json

        assert main(["tab01", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and rows
        assert "published_%" in rows[0]

    def test_fig20_json_output_parses(self, capsys):
        import json

        assert main(["fig20", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and "loss" in rows[0]

    def test_metrics_command_prints_retx_histogram(self, capsys):
        assert main(["metrics", "--duration-ms", "2"]) == 0
        out = capsys.readouterr().out
        assert "retx_delay_ns" in out
        assert "le_us" in out
        assert "p99" in out

    def test_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["fig09", "--duration-ms", "1",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        doc = json.loads(trace.read_text())
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert ts and ts == sorted(ts)
        snap = json.loads(metrics.read_text())
        assert "engine" in snap
        capsys.readouterr()

    def test_trace_out_jsonl_format(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["fig09", "--duration-ms", "1",
                     "--trace-out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert all("ts" in json.loads(line) for line in lines)
        capsys.readouterr()

    def test_metrics_out_prometheus_format(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        assert main(["fig09", "--duration-ms", "1",
                     "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "# TYPE" in text
        capsys.readouterr()


class TestCheckCommand:
    """``repro check {run,fuzz,replay}`` and its exit-code contract."""

    def test_fuzz_clean_exits_zero(self, capsys):
        import json

        assert main(["check", "fuzz", "--seed", "7", "--trials", "5",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["trials"] == 5

    def test_fuzz_with_defect_exits_one_and_shrinks(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "repro.json")
        assert main(["check", "fuzz", "--seed", "7", "--trials", "10",
                     "--defect", "era_bit", "--shrink-out", out_path,
                     "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["artifact"]["counts"]["shrunk_drops"] <= 5
        with open(out_path) as handle:
            stored = json.load(handle)
        assert stored == data["artifact"]

    def test_run_scenario_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "scenario": {"name": "t", "drops": [
                {"kind": "data", "index": 3}]},
            "config": {"n_packets": 80},
        }))
        assert main(["check", "run", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_run_scenario_with_violation_exits_one(self, capsys, tmp_path):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "scenario": {"name": "t", "drops": [
                {"kind": "data", "index": 3}]},
            "config": {"n_packets": 80, "defect": "wrong_copies"},
        }))
        assert main(["check", "run", str(path), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert "retx-copies" in data["counts"]

    def test_replay_stored_artifact(self, capsys):
        import json
        from pathlib import Path

        artifact = Path(__file__).parent / "data" / "checker_era_bit_repro.json"
        assert main(["check", "replay", str(artifact), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["byte_identical"] is True

    def test_run_rejects_file_without_scenario(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "run", str(path)])
        assert excinfo.value.code == 2


class TestUsageErrorExitCodes:
    """Invalid arguments exit 2 across every subcommand, like argparse."""

    def test_check_unknown_mode_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "bogus"])
        assert excinfo.value.code == 2

    def test_check_no_mode_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check"])
        assert excinfo.value.code == 2

    def test_check_unknown_defect_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "fuzz", "--defect", "nope"])
        assert excinfo.value.code == 2

    def test_sweep_unknown_kind_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--kind", "bogus"])
        assert excinfo.value.code == 2

    def test_sweep_malformed_axis_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--kind", "fct", "--axis", "badaxis"])
        assert excinfo.value.code == 2

    def test_fleet_unknown_policy_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--policy", "oracle"])
        assert excinfo.value.code == 2

    def test_check_listed_in_list_output(self, capsys):
        assert main(["list"]) == 0
        assert "check" in capsys.readouterr().out


class TestLifecycleCli:
    FLEET_ARGS = ["--fleet-pods", "1", "--fleet-tors", "2",
                  "--fleet-spines", "2", "--mttf-hours", "300",
                  "--days", "8", "--seed", "3"]

    def test_generate_replay_report_end_to_end(self, capsys, tmp_path):
        import json

        trace_path = str(tmp_path / "trace.json")
        rollup_path = str(tmp_path / "rollup.json")
        assert main(["lifecycle", "generate", *self.FLEET_ARGS,
                     "--out", trace_path]) == 0
        assert "trace written" in capsys.readouterr().out

        assert main(["lifecycle", "replay", "--trace", trace_path,
                     "--chunks", "2", "--out", rollup_path, "--json"]) == 0
        canonical = capsys.readouterr().out
        data = json.loads(canonical)
        assert "goodput_slo_attainment" in data["slos"]
        assert "n_episodes" in data["counts"]
        assert len(data["days"]["day"]) == 8

        assert main(["lifecycle", "report", rollup_path,
                     "--days-table"]) == 0
        out = capsys.readouterr().out
        assert "lifecycle rollup" in out
        assert "goodput" in out

    def test_chunking_is_invisible_in_canonical_output(self, capsys):
        argv = ["lifecycle", "replay", *self.FLEET_ARGS, "--json"]
        assert main(argv + ["--chunks", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--chunks", "4", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_replay_fail_under_gates_exit_code(self, capsys):
        argv = ["lifecycle", "replay", *self.FLEET_ARGS,
                "--goodput-target", "0.9999999"]
        assert main(argv + ["--fail-under", "1.01"]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(argv + ["--fail-under", "0.0"]) == 0

    def test_generate_to_stdout_parses_as_trace(self, capsys):
        from repro.lifecycle.traces import LifecycleTrace

        assert main(["lifecycle", "generate", *self.FLEET_ARGS,
                     "--json"]) == 0
        trace = LifecycleTrace.from_json(capsys.readouterr().out)
        assert trace.spec.duration_days == 8.0

    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lifecycle", "replay", "--trace", "/nonexistent.json"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["lifecycle", "replay", "--repair", "bogus"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["lifecycle", "replay", "--repair-param", "oops"])
        assert excinfo.value.code == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a trace"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["lifecycle", "replay", "--trace", str(bad)])
        assert excinfo.value.code == 2

    def test_lifecycle_listed_in_list_output(self, capsys):
        assert main(["list"]) == 0
        assert "lifecycle" in capsys.readouterr().out


def _leaves(verbs=None, path=()):
    """Every runnable (path, verb) of the table, sub-verbs included."""
    from repro.cli import VERBS

    for verb in VERBS if verbs is None else verbs:
        if verb.subs:
            yield from _leaves(verb.subs, (*path, verb.name))
        else:
            yield (*path, verb.name), verb


LEAVES = list(_leaves())
LEAF_IDS = [" ".join(path) for path, _ in LEAVES]


class TestVerbTable:
    """The one table ``build_parser`` and ``repro list`` are made from."""

    def _help(self, path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*path, "-h"])
        assert excinfo.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    def test_top_level_help_names_every_verb(self, capsys):
        out = self._help((), capsys)
        for verb in VERBS:
            assert verb.name in out

    @pytest.mark.parametrize("path,verb", LEAVES, ids=LEAF_IDS)
    def test_every_verb_answers_help(self, path, verb, capsys):
        out = self._help(path, capsys)
        assert "usage: repro " + " ".join(path) in out
        for flag in verb.flag_rows():
            assert flag.name in out or flag.kwargs.get("metavar") in out

    def test_list_is_the_table(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        # `list` is the one verb it leaves out: it is what you just ran.
        assert rows == [{"experiment": verb.name, "description": verb.help}
                        for verb in VERBS if verb.name != "list"]

    @pytest.mark.parametrize(
        "group", [verb for verb in VERBS if verb.subs], ids=lambda v: v.name)
    def test_group_help_lists_its_sub_verbs(self, group, capsys):
        out = self._help((group.name,), capsys)
        assert group.description in out
        for sub in group.subs:
            assert f"{sub.name} {sub.help}" in out

    @pytest.mark.parametrize("path,verb", LEAVES, ids=LEAF_IDS)
    def test_every_leaf_takes_json(self, path, verb):
        from repro.cli import build_parser

        positionals = ["x" for flag in verb.flag_rows()
                       if not flag.name.startswith("-")]
        args = build_parser().parse_args([*path, *positionals, "--json"])
        assert args.json is True and args.run is verb.run

    @pytest.mark.parametrize("spelling", [
        "--json", "--seed", "--fleet-pods", "--mttf-hours", "--days",
        "--workers", "--backend", "--repair"])
    def test_shared_flags_are_spelled_once(self, spelling):
        import inspect

        import repro.cli

        assert inspect.getsource(repro.cli).count(f'"{spelling}"') == 1

    def test_serve_defaults_come_from_service_config(self):
        from dataclasses import fields

        from repro.cli import build_parser
        from repro.core.spec import lookup
        from repro.service.config import (
            EXECUTOR_KINDS, TELEMETRY_KINDS, ServiceConfig,
        )

        args = build_parser().parse_args(["serve"])
        exposed = [f for f in fields(ServiceConfig) if hasattr(args, f.name)]
        assert len(exposed) >= 25
        for field in exposed:
            assert getattr(args, field.name) == field.default
        serve = next(verb for verb in VERBS if verb.name == "serve")
        choices = {flag.dest: flag.kwargs.get("choices")
                   for flag in serve.flag_rows()}
        assert lookup(choices["telemetry"]) is TELEMETRY_KINDS
        assert lookup(choices["executor"]) is EXECUTOR_KINDS


#: flags that belong to one family of verbs; everywhere else they used
#: to be accepted and ignored
FOREIGN = [
    ("--kind", "fct"), ("--axis", "scenario=loss"), ("--workers", "2"),
    ("--checkpoint", "x.jsonl"), ("--sweep-seed", "1"),
    ("--backend", "hybrid"),                                  # sweep
    ("--policy", "incremental"), ("--shards", "2"), ("--fleet-pods", "2"),
    ("--activation-budget", "2"), ("--resim-fraction", "0.1"),  # fleet
    ("--results-dir", "x"), ("--out-dir", "x"),               # export
    ("--resume-kb", "1"),                                     # fig09
]


class TestUnreadFlagsRejected:
    """A verb accepts the flags its row lists and nothing else."""

    @pytest.mark.parametrize("path,verb", LEAVES, ids=LEAF_IDS)
    def test_foreign_flags_exit_two(self, path, verb):
        names = [flag.name for flag in verb.flag_rows()]
        positionals = ["x" for name in names if not name.startswith("-")]
        rejected = [(flag, value) for flag, value in FOREIGN
                    if flag not in names]
        assert rejected
        for flag, value in rejected:
            with pytest.raises(SystemExit) as excinfo:
                main([*path, *positionals, flag, value])
            assert excinfo.value.code == 2, (path, flag)

    def test_the_flat_parser_example(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig01", "--shards", "3", "--policy", "nonsense",
                  "--fleet-pods", "-5"])
        assert excinfo.value.code == 2


class TestInputErrorsAreOneLine:
    """Bad input is a message and an exit code, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["blame", "report", "--window", "0"],
        ["blame", "report", "--window", "-5"],
        ["blame", "report", "--days", "0"],
        ["blame", "optimize", "--days", "-1"],
    ])
    def test_blame_rejects_non_positive_window_and_days(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("repro: error: ")

    @pytest.mark.parametrize("argv, name", [
        (["fleet", "--activation-budget", "-2", "--days", "1"],
         "--activation-budget"),
        (["blame", "optimize", "--budgets", "-1", "--days", "1"],
         "activation_budget"),
        (["serve", "--activation-budget", "-2", "--port", "0"],
         "--activation-budget"),
    ], ids=["fleet", "blame-optimize", "serve"])
    def test_negative_activation_budget_exits_two(self, argv, name, capsys):
        """Was accepted: ``fleet`` ran, and ``blame optimize`` ranked,
        a controller with a budget of -2 / -1."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {name} must be in [0, inf)\n"

    @pytest.mark.parametrize("argv", [
        ["lifecycle", "replay", "--workers", "0", "--days", "1"],
        ["fleet", "--workers", "0", "--days", "1"],
    ], ids=["lifecycle-replay", "fleet"])
    def test_zero_workers_exits_two(self, argv, capsys):
        """Was a ``ValueError`` traceback out of the replay, exit 1."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro: error: --workers must be in [1, inf)\n"

    @pytest.mark.parametrize("argv, message", [
        (["blame", "eval", "--coverage", "2", "--trials", "2"],
         "--coverage must be in (0, 1]"),
        (["blame", "eval", "--flows-per-s", "inf", "--trials", "2"],
         "--flows-per-s must be in [0, inf)"),
        (["blame", "report", "--flows-per-s", "inf"],
         "--flows-per-s must be in [0, inf)"),
        (["blame", "report", "--flows-per-s", "nan"],
         "--flows-per-s must be in [0, inf)"),
        (["blame", "report", "--window", "inf"],
         "--window must be in (0, inf)"),
        (["blame", "report", "--at", "nan"], "--at must be in (-inf, inf)"),
        (["blame", "eval", "--window", "inf", "--trials", "2"],
         "--window must be in (0, inf)"),
    ], ids=["eval-coverage-2", "eval-rate-inf", "report-rate-inf",
            "report-rate-nan", "report-window-inf", "report-at-nan",
            "eval-window-inf"])
    def test_blame_evidence_flags_exit_two(self, argv, message, capsys):
        """Were a ``ValueError`` traceback (``eval --coverage 2``, ``eval
        --flows-per-s inf``, ``report --at nan``), an ``OverflowError``
        traceback (``report --flows-per-s inf``, ``--window inf`` on
        both verbs), or a run at the fleet-sized rate, exit 0 (``report
        --flows-per-s nan``: ``nan > 0`` is false)."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--axis", "loss_rate=nan", "--trials", "2"],
         "loss_rate must be in [0, 1)"),
        (["fastpath", "scan", "--axis", "loss_rate=inf"],
         "loss_rate must be in [0, 1)"),
        (["fig10", "--trials", "0"], "--trials must be in [1, inf)"),
        (["lifecycle", "replay", "--days", "2", "--repair", "exponential",
          "--repair-param", "mean_hours=nan"],
         "mean_hours must be in (0, inf)"),
    ], ids=["sweep-axis-nan", "scan-axis-inf", "fig10-trials-0",
            "replay-repair-param-nan"])
    def test_garbage_numbers_exit_two(self, argv, message, capsys):
        """Ran and printed garbage: a ``pnan`` sweep cell, an FCT at an
        infinite loss rate, ``nan`` quantiles (exit 0), a replay with a
        numpy cast warning.  A spec field's declared range refuses each
        value however it arrives (flag, ``--axis``, ``--repair-param``)."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["lifecycle", "replay", "--days", "1"],
        ["lifecycle", "report", "rollup.json"],
        ["blame", "eval", "--trials", "1"],
    ], ids=["lifecycle-replay", "lifecycle-report", "blame-eval"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_fail_under_must_be_finite(self, argv, value, capsys):
        """``attainment < nan`` is always false: ``--fail-under nan``
        passed every gate with exit 0.  Any finite gate is taken — the
        goldens force exit 1 with ``--fail-under 1.01``."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, f"--fail-under={value}"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            "repro: error: --fail-under must be in (-inf, inf)\n")
        from repro.cli import build_parser

        args = build_parser().parse_args([*argv, "--fail-under", "1e9"])
        assert args.fail_under == 1e9

    def test_blame_eval_sizes_a_zero_flow_rate_to_the_fleet(
            self, monkeypatch, capsys):
        """``--flows-per-s 0`` ("sized to fleet") evaluated at a fixed
        400 flows/s on any fleet; on 2 x 8 ToRs it is 50 x 16 = 800, the
        rate ``blame report`` and the service use."""
        from repro.blame import voting

        harvested, harvest = [], voting.harvest_evidence

        def counted(*args):
            reports = harvest(*args)
            harvested.append(len(reports))
            return reports

        monkeypatch.setattr(voting, "harvest_evidence", counted)
        for tors, rate in (("8", 800), ("4", 400)):
            harvested.clear()
            assert main(["blame", "eval", "--fleet-tors", tors, "--trials",
                         "2", "--window", "10", "--flows-per-s", "0"]) == 0
            assert harvested == [10 * rate] * 2
        capsys.readouterr()

    def test_blame_optimize_ranks_a_repeated_budget_once(self, capsys):
        import json

        assert main(["blame", "optimize", "--budgets", "4,4", "--days", "2",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert sorted(row["candidate"] for row in rows) == [
            "greedy-worst(activation_budget=4)",
            "incremental(activation_budget=4)"]

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--kind", "multihop", "--backend", "fastpath",
          "--axis", "loss_rate=1e-3"],
         "kind 'multihop' has no fastpath backend; it runs on: packet"),
        (["sweep", "--kind", "fct", "--axis", "backend=packet,gpu"],
         "unknown backend 'gpu'; known: packet, fastpath, hybrid"),
        (["sweep", "--kind", "nope"], "unknown experiment kind 'nope'"),
        (["sweep", "--axis", "flavour=1"], "unknown axis 'flavour'"),
        (["fastpath", "scan", "--kind", "multihop"],
         "kind 'multihop' has no fastpath backend; it runs on: packet"),
    ])
    def test_cell_without_a_table_row_exits_two(self, argv, message, capsys):
        """Was a traceback out of SweepRunner (``sweep --kind multihop
        --backend fastpath``): the sweep's cells are looked up in the
        cell table before any of them runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro: error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["run", "replay"])
    def test_check_missing_file_exits_two(self, mode, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", mode, "/nonexistent.json"])
        assert excinfo.value.code == 2
        assert "/nonexistent.json" in capsys.readouterr().err

    def test_check_unparsable_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text("{not json")
        assert main(["check", "run", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro: error: {bad}: ")

    @pytest.mark.parametrize("document, message", [
        ({"scenario": {"drop": [{"kind": "data", "index": 3}]}},
         "ValueError: unknown FaultScenario fields: ['drop']"),
        ({"scenario": {}, "config": {"n_packet": 10}},
         "ValueError: unknown CheckConfig fields: ['n_packet']"),
        ({"scenario": [{"kind": "data", "index": 3}]},
         "ValueError: FaultScenario must be an object"),
        # ran "OK" on -5 packets, and ended in a traceback on a nan rate
        ({"scenario": {}, "config": {"n_packets": -5}},
         "ValueError: n_packets must be in [1, inf)"),
        ({"scenario": {}, "config": {"rate_gbps": float("nan")}},
         "ValueError: rate_gbps must be in (0, inf)"),
    ])
    def test_check_run_refuses_a_bad_spec(self, tmp_path, capsys, document,
                                          message):
        """A key the spec class does not declare is refused before the
        run: one stderr line, never a run of the defaults or a traceback."""
        import json

        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(document))
        assert main(["check", "run", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro: error: {bad}: {message}")
        assert captured.err.count("\n") == 1

    def test_check_replay_refuses_an_unknown_config_key(self, tmp_path,
                                                        capsys):
        import json
        from pathlib import Path

        stored = Path(__file__).parent / "data" / "checker_era_bit_repro.json"
        artifact = json.loads(stored.read_text())
        artifact["config"]["bogus"] = 1
        bad = tmp_path / "artifact.json"
        bad.write_text(json.dumps(artifact))
        assert main(["check", "replay", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"repro: error: {bad}: ValueError: "
                                "unknown CheckConfig fields: ['bogus']\n")

    def test_obs_top_malformed_checkpoint_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "checkpoint.jsonl"
        bad.write_text('{"cell_id": "a", "spec": {}}\n{torn line\n')
        assert main(["obs", "top", str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err
        bad.write_text('{"no_cell_id": 1}\n')
        assert main(["obs", "top", str(bad)]) == 1
        assert "KeyError" in capsys.readouterr().err

    def test_probe_of_a_closed_port_exits_one(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["serve", "--probe", "/healthz", "--port", str(port)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro: error: 127.0.0.1:{port}: ")
