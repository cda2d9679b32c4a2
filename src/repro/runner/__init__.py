"""Unified experiment-runner layer: specs → harness → sweeps.

Three layers (see DESIGN.md "Runner layer"):

1. :class:`ExperimentSpec` / :class:`SweepSpec` — declarative,
   serializable descriptions of one evaluation-grid cell / one grid;
2. :class:`TrialHarness` + :class:`CellResult` — the shared
   launch/watchdog/deadline/collect loop and the unified per-cell result
   schema every experiment emits;
3. :func:`run_cells` / :class:`SweepRunner` — serial or multi-process
   execution with deterministic per-cell seeding and JSONL
   checkpoint/resume.

Between 1 and 3 sits the cell table (:data:`CELLS`, ``runner/cells.py``):
one row per runnable ``(kind, backend)`` pair naming the function that
answers it, read by :func:`run_cell` and everything else that needs to
know which kind runs where.

Typical usage::

    sweep = SweepSpec(
        name="fig10",
        base=ExperimentSpec(kind="fct", flow_size=143, n_trials=3000, seed=10),
        axes={"transport": ["dctcp", "rdma"],
              "scenario": ["noloss", "loss", "lg", "lgnb"]},
    )
    results = SweepRunner(sweep, workers=4, checkpoint="fig10.jsonl").run()
"""

from .cells import (
    CELLS, Cell, RunContext, backends, experiment_kinds, lg_config, lookup,
    run_cell,
)
from .harness import CellResult, TrialHarness, run_until_complete
from .spec import ExperimentSpec, SweepSpec
from .sweep import SweepRunner, load_checkpoint, run_cells

__all__ = [
    "ExperimentSpec", "SweepSpec",
    "CellResult", "TrialHarness", "run_until_complete",
    "CELLS", "Cell", "RunContext", "lookup", "experiment_kinds", "backends",
    "lg_config", "run_cell",
    "run_cells", "SweepRunner", "load_checkpoint",
]
