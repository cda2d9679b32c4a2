"""Layer 3 of the runner: parallel sweep execution with checkpoint/resume.

:func:`run_cells` is the one executor every batch of cells goes through
(a :class:`SweepRunner` sweep, both sides of a cross-validation grid,
the chunks of a lifecycle replay, which bring their own ``execute``):
rows the cell table marks ``batch`` are evaluated in-process, one call
per row; the rest fan out over a
``concurrent.futures.ProcessPoolExecutor``.  Cells are fully independent
simulations with deterministic seeds baked into their specs, so the
parallel results are bit-identical to a serial run — the executor only
changes wall-clock time, never outcomes — and the result list is always
returned in input (for a sweep: cell-enumeration) order regardless of
completion order.

Checkpointing: every finished cell is appended to a JSONL file as soon
as it completes (one :meth:`~repro.runner.harness.CellResult.to_json`
line, flushed).  A killed sweep restarted with the same checkpoint path
skips the cells already on disk; a torn final line from the kill is
ignored.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .cells import Cell, lookup, run_batch, run_cell
from .harness import CellResult
from .spec import ExperimentSpec, SweepSpec

__all__ = ["run_cells", "SweepRunner", "load_checkpoint"]


def _run_cell_json(spec_dict: dict) -> str:
    """Worker-process entry point (module-level so it pickles)."""
    return run_cell(spec_dict).to_json()


def load_checkpoint(path: str) -> Dict[str, CellResult]:
    """Completed cells from a checkpoint file, keyed by cell id.

    Unparseable lines (a write torn by a mid-sweep kill) are skipped; a
    later entry for the same cell id wins.
    """
    done: Dict[str, CellResult] = {}
    if not path or not os.path.exists(path):
        return done
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                result = CellResult.from_json(line)
            except (json.JSONDecodeError, KeyError):
                continue
            done[result.cell_id] = result
    return done


def run_cells(
    specs: Sequence[ExperimentSpec],
    workers: int = 1,
    checkpoint: Optional[str] = None,
    progress: Optional[Callable[[CellResult], None]] = None,
    obs=None,
    execute: Optional[Callable[[List[ExperimentSpec]],
                               Iterable[CellResult]]] = None,
) -> List[CellResult]:
    """Run ``specs``; return their results in input order.

    Cells already in ``checkpoint`` are re-used, every other result is
    appended to it as it completes.  ``progress`` is called once per
    newly executed cell (not for cells resumed from the checkpoint).  A
    ``(kind, backend)`` pair without a table row raises before any cell
    runs.  ``obs`` is the caller's Observability, handed to every cell
    run here (:func:`~repro.runner.cells.run_cell`); a worker process
    cannot record into it, so it is refused with ``workers > 1``.
    ``execute``, when given, runs the pending specs in place of the
    table: it yields their results in order (a lifecycle replay's chunks
    share one arbitration, so they are not independent cells).
    """
    if obs is not None and workers > 1:
        raise ValueError("obs= records in this process: workers must be 1")
    # cell_id() is a JSON dump + SHA-256: compute each exactly once.
    ids = [spec.cell_id() for spec in specs]
    known = set(ids)
    done = {cid: r for cid, r in load_checkpoint(checkpoint).items()
            if cid in known}

    # ``batch`` rows are a single vectorized call, not pool work: one
    # NumPy call evaluates all of a row's cells, so shipping them to
    # worker processes would only add pickling overhead.  Everything
    # else (hybrid cells included: their packet-engine windows are real
    # per-cell work) benefits from the process pool.
    batches: Dict[Cell, List[ExperimentSpec]] = {}
    pending: List[ExperimentSpec] = []
    for spec, cid in zip(specs, ids):
        if cid not in done:
            cell = None if execute else lookup(spec.kind, spec.backend)
            if cell is not None and cell.batch:
                batches.setdefault(cell, []).append(spec)
            else:
                pending.append(spec)

    sink = None
    if checkpoint:
        sink = open(checkpoint, "a")
        # A kill can tear the final line mid-write; make sure appended
        # results start on a fresh line rather than gluing onto it.
        if sink.tell() > 0:
            with open(checkpoint, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    sink.write("\n")

    def finish(result: CellResult) -> None:
        done[result.cell_id] = result
        if sink is not None:
            sink.write(result.to_json() + "\n")
            sink.flush()
        if progress is not None:
            progress(result)

    try:
        for cell, members in batches.items():
            for result in run_batch(cell, members):
                finish(result)
        if execute is not None:
            for result in execute(pending):
                finish(result)
        elif workers <= 1 or len(pending) <= 1:
            for spec in pending:
                finish(run_cell(spec, obs))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_run_cell_json, spec.to_dict())
                    for spec in pending
                }
                while futures:
                    ready, futures = wait(futures, return_when=FIRST_COMPLETED)
                    for future in ready:
                        finish(CellResult.from_json(future.result()))
    finally:
        if sink is not None:
            sink.close()
    return [done[cid] for cid in ids]


class SweepRunner:
    """A :class:`SweepSpec` bound to how it runs: :func:`run_cells` over
    the sweep's cells, remembering how many the checkpoint supplied."""

    def __init__(
        self,
        sweep: SweepSpec,
        workers: int = 1,
        checkpoint: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sweep = sweep
        self.workers = workers
        self.checkpoint = checkpoint
        #: cells re-used from the checkpoint on the last run() (for tests
        #: and progress reporting)
        self.resumed = 0

    def run(
        self, progress: Optional[Callable[[CellResult], None]] = None
    ) -> List[CellResult]:
        """Run all pending cells; return results in sweep order.

        ``progress`` is called once per newly executed cell as it
        completes (not for cells resumed from the checkpoint).
        """
        cells = self.sweep.cells()
        executed = 0

        def note(result: CellResult) -> None:
            nonlocal executed
            executed += 1
            if progress is not None:
                progress(result)

        results = run_cells(cells, self.workers, self.checkpoint, note)
        self.resumed = len(cells) - executed
        return results
