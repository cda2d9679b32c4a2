"""SweepRunner: parallel == serial, checkpointing, and resume."""

import os

from repro.runner import (
    ExperimentSpec, SweepRunner, SweepSpec, load_checkpoint,
)

#: 8 small FCT cells — big enough to exercise the grid, small enough for CI.
SWEEP = SweepSpec(
    name="unit",
    base=ExperimentSpec(kind="fct", flow_size=143, n_trials=60,
                        loss_rate=1e-2, seed=10),
    axes={"transport": ["dctcp", "rdma"],
          "scenario": ["noloss", "loss", "lg", "lgnb"]},
)


def _canonical(results):
    return [r.canonical_json() for r in results]


class TestSweepRunner:
    def test_serial_results_in_sweep_order(self):
        results = SweepRunner(SWEEP, workers=1).run()
        expected = [c.cell_id() for c in SWEEP.cells()]
        assert [r.cell_id for r in results] == expected

    def test_parallel_bit_identical_to_serial(self):
        serial = SweepRunner(SWEEP, workers=1).run()
        parallel = SweepRunner(SWEEP, workers=4).run()
        assert _canonical(parallel) == _canonical(serial)

    def test_progress_called_per_executed_cell(self):
        seen = []
        SweepRunner(SWEEP, workers=1).run(progress=lambda r: seen.append(r.cell_id))
        assert sorted(seen) == sorted(c.cell_id() for c in SWEEP.cells())

    def test_rejects_zero_workers(self):
        import pytest

        with pytest.raises(ValueError):
            SweepRunner(SWEEP, workers=0)


class TestCheckpointResume:
    def test_checkpoint_written_per_cell(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        results = SweepRunner(SWEEP, workers=1, checkpoint=path).run()
        saved = load_checkpoint(path)
        assert set(saved) == {r.cell_id for r in results}

    def test_resume_skips_completed_cells(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        full = SweepRunner(SWEEP, workers=1).run()

        # Simulate a sweep killed after 3 cells: a partial checkpoint
        # ending in a torn line (the write the kill interrupted).
        with open(path, "w") as handle:
            for result in full[:3]:
                handle.write(result.to_json() + "\n")
            handle.write('{"cell_id": "torn-')

        executed = []
        runner = SweepRunner(SWEEP, workers=1, checkpoint=path)
        resumed = runner.run(progress=lambda r: executed.append(r.cell_id))

        assert runner.resumed == 3
        assert len(executed) == len(full) - 3
        assert {r.cell_id for r in full[:3]}.isdisjoint(executed)
        assert _canonical(resumed) == _canonical(full)
        # The checkpoint now covers every cell (torn line ignored).
        assert set(load_checkpoint(path)) == {r.cell_id for r in full}

    def test_resume_hashes_each_cell_id_once(self, tmp_path, monkeypatch):
        """cell_id() is a JSON dump + SHA-256; a full resume must compute
        it once per cell, not once per (cell, checkpoint entry)."""
        path = str(tmp_path / "ckpt.jsonl")
        full = SweepRunner(SWEEP, workers=1, checkpoint=path).run()
        calls = []
        real = ExperimentSpec.cell_id
        monkeypatch.setattr(
            ExperimentSpec, "cell_id",
            lambda spec: calls.append(1) or real(spec))
        runner = SweepRunner(SWEEP, workers=1, checkpoint=path)
        assert _canonical(runner.run()) == _canonical(full)
        assert runner.resumed == len(full) == len(calls)

    def test_stale_checkpoint_entries_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        other = ExperimentSpec(kind="fct", scenario="noloss", n_trials=5,
                               seed=99)
        from repro.runner import run_cell

        with open(path, "w") as handle:
            handle.write(run_cell(other).to_json() + "\n")
        runner = SweepRunner(SWEEP, workers=1, checkpoint=path)
        results = runner.run()
        assert runner.resumed == 0
        assert len(results) == len(SWEEP.cells())

    def test_missing_checkpoint_file_is_fine(self, tmp_path):
        path = str(tmp_path / "absent" )
        assert load_checkpoint(path) == {}
        assert not os.path.exists(path)
