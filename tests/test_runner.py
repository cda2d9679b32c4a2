"""The runner layer: specs, harness, cells, and determinism guarantees."""

import json

import numpy as np
import pytest

from repro.core.rng import RngFactory
from repro.runner import (
    CellResult, ExperimentSpec, SweepSpec, experiment_kinds, run_cell,
)


class TestExperimentSpec:
    def test_round_trips_through_dict(self):
        spec = ExperimentSpec(kind="fct", transport="rdma", scenario="lgnb",
                              loss_rate=5e-3, flow_size=24_387, n_trials=42,
                              seed=9, lg={"ordered": False},
                              params={"inter_trial_gap_ns": 10_000})
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_dict(json.loads(spec.canonical_json())) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"kind": "fct", "bogus": 1})

    def test_cell_id_stable_and_distinguishes_params(self):
        a = ExperimentSpec(kind="fct")
        b = ExperimentSpec(kind="fct", lg={"ordered": False})
        assert a.cell_id() == ExperimentSpec(kind="fct").cell_id()
        assert a.cell_id() != b.cell_id()

    def test_with_axis_sets_nested_fields(self):
        spec = ExperimentSpec(kind="fct")
        assert spec.with_axis("transport", "bbr").transport == "bbr"
        assert spec.with_axis("params.duration_ms", 2.0).params == {
            "duration_ms": 2.0}
        assert spec.with_axis("lg.ordered", False).lg == {"ordered": False}
        with pytest.raises(ValueError):
            spec.with_axis("bogus", 1)


class TestSweepSpec:
    def test_cartesian_product_in_row_major_order(self):
        sweep = SweepSpec(
            name="t", base=ExperimentSpec(kind="fct"),
            axes={"transport": ["dctcp", "rdma"], "scenario": ["lg", "lgnb"]},
        )
        cells = sweep.cells()
        assert [(c.transport, c.scenario) for c in cells] == [
            ("dctcp", "lg"), ("dctcp", "lgnb"),
            ("rdma", "lg"), ("rdma", "lgnb"),
        ]

    def test_without_sweep_seed_cells_keep_base_seed(self):
        sweep = SweepSpec(name="t", base=ExperimentSpec(kind="fct", seed=10),
                          axes={"scenario": ["lg", "lgnb"]})
        assert [c.seed for c in sweep.cells()] == [10, 10]

    def test_sweep_seed_derives_stable_distinct_cell_seeds(self):
        sweep = SweepSpec(name="t", base=ExperimentSpec(kind="fct"),
                          axes={"scenario": ["lg", "lgnb"]}, seed=7)
        seeds = [c.seed for c in sweep.cells()]
        assert seeds == [c.seed for c in sweep.cells()]
        assert len(set(seeds)) == 2
        # The derivation is the documented RngFactory convention.
        expected = RngFactory(7).child_seed(sweep.cells()[0].grid_key())
        assert seeds[0] == expected

    def test_round_trips_through_dict(self):
        sweep = SweepSpec(name="t", base=ExperimentSpec(kind="goodput"),
                          axes={"scenario": ["lg", "wharf"]}, seed=3)
        assert SweepSpec.from_dict(sweep.to_dict()).cells() == sweep.cells()


class TestCellResult:
    def test_json_round_trip(self):
        result = CellResult(cell_id="x", spec={"kind": "fct"},
                            metrics={"p99_us": 1.5}, series={"fcts_us": [1, 2]},
                            wall_s=0.25)
        back = CellResult.from_json(result.to_json())
        assert back == result

    def test_canonical_json_excludes_wall_clock(self):
        a = CellResult(cell_id="x", spec={}, metrics={}, wall_s=0.1)
        b = CellResult(cell_id="x", spec={}, metrics={}, wall_s=99.0)
        assert a.canonical_json() == b.canonical_json()
        assert a.to_json() != b.to_json()


class TestRunCell:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_cell(ExperimentSpec(kind="nope"))

    def test_known_kinds_registered(self):
        assert {"fct", "goodput", "multihop", "stress", "timeline",
                "rdma_reorder", "deployment", "incremental", "checker"} \
            <= set(experiment_kinds())

    def test_checker_cell_fuzzes_and_runs_scenarios(self):
        fuzz = run_cell(ExperimentSpec(kind="checker", n_trials=4, seed=7))
        assert fuzz.metrics["ok"]
        assert fuzz.metrics["runs"] == 4
        scenario = run_cell(ExperimentSpec(kind="checker", seed=1, params={
            "scenario": {"drops": [{"kind": "data", "index": 3}]},
            "check": {"n_packets": 80},
        }))
        assert scenario.metrics["ok"]
        assert scenario.metrics["completed"]
        assert scenario.metrics["violations"] == 0

    def test_accepts_spec_dict(self):
        spec = ExperimentSpec(kind="fct", scenario="noloss", n_trials=5)
        result = run_cell(spec.to_dict())
        assert result.cell_id == spec.cell_id()
        assert result.metrics["trials"] == 5

    def test_lg_overrides_reach_the_experiment(self):
        # Disabling tail-loss detection leaves single-packet tail losses
        # to the transport RTO — visibly worse max FCT at high loss.
        base = dict(kind="fct", scenario="lgnb", loss_rate=3e-2,
                    flow_size=143, n_trials=150, seed=4)
        with_tail = run_cell(ExperimentSpec(**base))
        without = run_cell(ExperimentSpec(
            **base, lg={"ordered": False, "tail_loss_detection": False}))
        assert max(without.series["fcts_us"]) > max(with_tail.series["fcts_us"])


class TestDeterminism:
    """Same seed => byte-identical CellResult (the satellite requirement)."""

    def _assert_bit_identical(self, spec):
        a, b = run_cell(spec), run_cell(spec)
        assert a.canonical_json().encode() == b.canonical_json().encode()

    def test_fct_cell_bit_identical(self):
        self._assert_bit_identical(ExperimentSpec(
            kind="fct", scenario="lg", loss_rate=2e-2, flow_size=143,
            n_trials=80, seed=6))

    def test_goodput_cell_bit_identical(self):
        self._assert_bit_identical(ExperimentSpec(
            kind="goodput", scenario="lg", loss_rate=1e-3, seed=3,
            params={"transfer_bytes": 200_000}))

    def test_multihop_cell_bit_identical(self):
        self._assert_bit_identical(ExperimentSpec(
            kind="multihop", scenario="lg", loss_rate=5e-3,
            flow_size=24_387, n_trials=40, seed=1))

    def test_unseeded_loss_processes_are_reproducible(self):
        # The phy fallback streams are RngFactory-derived, so a forgotten
        # rng= argument yields the same draws every run.
        from repro.phy.loss import BernoulliLoss, GilbertElliottLoss

        a = [BernoulliLoss(0.3).corrupts() for _ in range(200)]
        b = [BernoulliLoss(0.3).corrupts() for _ in range(200)]
        assert a == b
        c = [GilbertElliottLoss(0.2, 1.5).corrupts() for _ in range(200)]
        d = [GilbertElliottLoss(0.2, 1.5).corrupts() for _ in range(200)]
        assert c == d

    def test_named_stream_experiments_reproducible(self):
        from repro.experiments.incremental import run_incremental_deployment

        kwargs = dict(fractions=(0.0, 0.5), n_pods=2, tors_per_pod=4,
                      fabrics_per_pod=2, spine_uplinks=4,
                      duration_days=10, mttf_hours=200, seed=31)
        assert run_incremental_deployment(**kwargs) \
            == run_incremental_deployment(**kwargs)


class TestTrialHarnessEquivalence:
    """The refactored experiments still produce sane end-to-end results."""

    def test_fct_mechanism_spec_matches_direct_call(self):
        from repro.experiments.fct import run_fct_experiment
        from repro.experiments.mechanisms import mechanism_spec

        spec = mechanism_spec("ReTx+Tail+Order", n_trials=50,
                              loss_rate=1e-2, seed=2)
        via_cell = run_cell(spec)
        from repro.linkguardian.config import LinkGuardianConfig

        direct = run_fct_experiment(
            transport="dctcp", flow_size=24_387, n_trials=50, scenario="lg",
            loss_rate=1e-2, seed=2,
            lg_config=LinkGuardianConfig.for_link_speed(
                100, ordered=True, tail_loss_detection=True),
        )
        assert np.allclose(via_cell.series["fcts_us"], direct.fcts_us)

    def test_rdma_case_rejects_unknown(self):
        from repro.experiments.rdma_future import run_rdma_case

        with pytest.raises(ValueError):
            run_rdma_case("lg+bogus")


class TestDriversRideTheKernelLoop:
    """``TrialHarness`` and ``run_until_complete`` no longer own a
    per-event loop: they call ``Simulator.run`` and end it with
    ``stop()``.  Their limits keep the rule the hand-rolled loops had —
    the first event past the limit ends the run, and the clock stays at
    that event — checked here against those loops, rebuilt from the
    public ``peek()`` and ``run(max_events=1)``."""

    @staticmethod
    def _world(n_trials, safety_ns, trial_ns=1_000, deadline_ns=None):
        from repro.core.engine import Simulator
        from repro.runner.harness import TrialHarness

        sim = Simulator()

        def tick():     # LinkGuardian-style self-replenishing background
            sim.schedule(70, tick)

        sim.schedule(0, tick)

        def launch_trial(trial, finished):
            done = sim.schedule(trial_ns, finished, ("rec", trial))
            return (lambda: None), done.cancel

        return sim, TrialHarness(
            sim, n_trials, launch_trial, inter_trial_gap_ns=100,
            trial_deadline_ns=deadline_ns, safety_ns=safety_ns)

    @staticmethod
    def _old_harness_run(harness):
        sim = harness.sim
        sim.schedule(0, harness._launch, 0)
        while not harness._done and sim.peek() is not None:
            if harness.safety_ns is not None and sim.now > harness.safety_ns:
                break
            sim.run(max_events=1)
        return harness.records

    @staticmethod
    def _old_run_until_complete(sim, is_done, deadline_ns):
        state = {"stop": False}

        def watchdog():
            state["stop"] = True

        guard = sim.schedule(int(deadline_ns), watchdog)
        while not is_done() and not state["stop"] and sim.peek() is not None:
            sim.run(max_events=1)
        guard.cancel()
        return is_done()

    @staticmethod
    def _outcome(sim, harness):
        return (list(harness.records), harness.incomplete, harness._done,
                sim.now, sim.events_processed, sim.events_cancelled,
                len(sim.queue))

    @pytest.mark.parametrize("safety_ns,deadline_ns", [
        (3_500, None),        # trips mid-campaign: 3 of 10 trials done
        (3_500, 400),         # ... with every trial given up on
        (1_000_000, None),    # never trips: the last launch stops the run
        (None, None),         # no guard at all
    ])
    def test_harness_matches_the_loop_it_replaced(self, safety_ns,
                                                  deadline_ns):
        sim, harness = self._world(10, safety_ns, deadline_ns=deadline_ns)
        harness.run()
        ref_sim, ref = self._world(10, safety_ns, deadline_ns=deadline_ns)
        self._old_harness_run(ref)
        assert self._outcome(sim, harness) == self._outcome(ref_sim, ref)
        if safety_ns == 3_500:
            assert not harness._done
            # the clock is at the first event past the limit, not at it
            assert safety_ns < sim.now <= safety_ns + 70
            assert len(harness.records) == (3 if deadline_ns is None else 0)
            assert harness.incomplete == (0 if deadline_ns is None else 7)
        else:
            assert harness._done and len(harness.records) == 10
        assert sim.wall_seconds > 0.0     # it really ran inside run()

    @pytest.mark.parametrize("settle_ns,left,deadline_ns", [
        (2_000, 25, 10_000),  # done at the first event past the settle time
        (0, 25, 10_000),      # done when the state gets there
        (50_000, 25, 10_000), # the deadline watchdog ends it
        (0, 40, 10_000),      # done before the first event
    ])
    def test_run_until_complete_matches_the_loop_it_replaced(
            self, settle_ns, left, deadline_ns):
        from repro.core.engine import Simulator
        from repro.runner.harness import run_until_complete

        def world():
            sim = Simulator()
            busy = {"left": 40}

            def work():
                busy["left"] -= 1
                sim.schedule(70, work)

            sim.schedule(0, work)
            # checker-style: a time floor plus state no one handler owns
            return sim, (
                lambda: sim.now >= settle_ns and busy["left"] <= left)

        sim, is_done = world()
        ref_sim, ref_done = world()
        got = run_until_complete(sim, is_done, deadline_ns)
        want = self._old_run_until_complete(ref_sim, ref_done, deadline_ns)
        assert got == want == (settle_ns < deadline_ns)
        assert (sim.now, sim.events_processed, sim.events_cancelled,
                len(sim.queue)) == (
            ref_sim.now, ref_sim.events_processed, ref_sim.events_cancelled,
            len(ref_sim.queue))
        if left == 40:
            assert sim.events_processed == 0
        if settle_ns > deadline_ns:
            assert sim.now == deadline_ns   # at the watchdog, not beyond
