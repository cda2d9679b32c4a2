"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench -q`` — not part of tier-1 (pyproject's
``testpaths`` is ``tests``).  Every workload runs once at ``--smoke``
size, timed and traced, in this process.
"""

import json
import re
import time
from collections import OrderedDict

import pytest

from bench import common, probes, run

common.use_repo_sources()
MANIFEST = common.manifest()
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def smoke():
    """Every workload at smoke size, timed and traced:
    ``{(workload, trace): result}`` plus the wall of the lot."""
    started = time.perf_counter()
    results = {
        (name, trace): run.run_one(run.parse_args(
            ["--workload", name, "--smoke", "--trace", str(trace)]))
        for name in WORKLOADS for trace in (0, 1)}
    results["wall_s"] = time.perf_counter() - started
    return results


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["bench"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in MANIFEST["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in MANIFEST["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in MANIFEST["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = [e for e in MANIFEST["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in MANIFEST["end_to_end"])
    assert set(WORKLOADS) == set(run.workload_classes())


def test_smoke_sizes_are_quick_and_correct(smoke):
    assert smoke["wall_s"] < 30.0
    for name in WORKLOADS:
        for trace in (0, 1):
            result = smoke[name, trace]
            assert result["correct"] and result["failed"] == 0, (name, trace)
            assert result["attempted"] >= 1


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_output_names_and_units_are_the_manifests(smoke, trace, declared):
    expected = {entry["name"]: entry["unit"] for entry in MANIFEST[declared]}
    for name in WORKLOADS:
        metrics = smoke[name, trace]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(isinstance(v["value"], (int, float))
                   for v in metrics.values())
        if trace == 0:
            assert all(v["value"] > 0 for v in metrics.values())


def test_sampler_shares_sum_to_one(smoke):
    for name in WORKLOADS:
        metrics = smoke[name, 1]["metrics"]
        total = sum(v["value"] for k, v in metrics.items()
                    if k.endswith(".self_frac"))
        assert total == pytest.approx(1.0, abs=0.01), name
        assert metrics["trace.samples"]["value"] > 0


def test_layer_attribution_is_sane(smoke):
    stress = smoke["pkt_stress", 1]["metrics"]
    assert (stress["transport.self_frac"]["value"]
            + stress["hosts.self_frac"]["value"]) < 0.02
    for name in ("plan_replay_serial", "plan_replay_sharded"):
        planner = smoke[name, 1]["metrics"]
        assert sum(planner[f"{layer}.self_frac"]["value"] for layer in (
            "core.engine", "switchsim", "linkguardian", "transport")) < 0.05
    # the 2 MB ``loss`` flow the traced pkt_fct run samples: transport's
    # cell (one flow at smoke size is too few samples for the 10x of the
    # full run, so only the order is asserted)
    large = smoke["pkt_fct", 1]["metrics"]
    assert (large["transport.dctcp_2mb_self_frac"]["value"]
            > large["linkguardian.dctcp_2mb_self_frac"]["value"])
    assert large["transport.dctcp_2mb_flow_s"]["value"] > 0


def test_probe_with_a_missing_import_yields_none():
    warnings = []

    def broken():
        from repro.no_such_layer import nothing   # noqa: F401
        return 1.0

    assert probes.attempt(warnings, "gone.metric", broken) is None
    assert probes.attempt_all(warnings, {"also.gone": broken}) == {
        "also.gone": None}
    assert len(warnings) == 2 and "gone.metric" in warnings[0]


def test_failed_probe_is_counted_and_null_in_the_detail(monkeypatch, capsys):
    monkeypatch.setattr(probes, "kernel_events_per_s", None)   # not callable
    code = run.main(["--workload", "pkt_stress", "--smoke", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]          # never fails the run
    assert result["metrics"]["trace.failed_probes"]["value"] == 4
    assert result["metrics"]["core.heap.stream_events_per_s"]["value"] == 0
    with open(f"{common.OUT_DIR}/pkt_stress.traced.json") as handle:
        detail = json.load(handle)
    assert detail["metrics"]["core.heap.stream_events_per_s"] is None
    assert len(detail["warnings"]) == 4


def test_whatif_cycles_repeat_their_hits_and_misses():
    """Every cycle after the warm-up starts from the same LRU state, so
    block j is the same hits and misses each time (what makes a block a
    repeatable sample)."""
    from bench.serve import ServeWhatif

    workload = ServeWhatif(seed=11, smoke=True)
    workload.CACHE = 4            # small enough that the smoke cycle evicts
    workload.sequence = [k % 9 for k in (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8,
                                         9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4)]
    workload.lru = OrderedDict()
    workload.hits = workload.misses = 0
    cycles = [[workload.expect_hit(cell) for cell in workload.sequence]
              for _ in range(4)]
    assert cycles[1] == cycles[2] == cycles[3] != cycles[0]


def test_broken_invariant_fails_the_run(capsys, monkeypatch):
    from bench.inproc import PktStress

    real_setup = PktStress.setup

    def setup_losing_a_frame(self):
        real_setup(self)
        run_stress_test = self.run_stress_test

        def lossy(**kwargs):
            result = run_stress_test(**kwargs)
            result.delivered -= 1
            return result

        self.run_stress_test = lossy

    monkeypatch.setattr(PktStress, "setup", setup_losing_a_frame)
    code = run.main(["--workload", "pkt_stress", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["failed"] > 0 and result["correct"] is False
