"""Layer 3 of the runner: parallel sweep execution with checkpoint/resume.

A :class:`SweepRunner` fans the cells of a
:class:`~repro.runner.spec.SweepSpec` out over a
``concurrent.futures.ProcessPoolExecutor``.  Cells are fully independent
simulations with deterministic seeds baked into their specs, so the
parallel results are bit-identical to a serial run — the executor only
changes wall-clock time, never outcomes — and the result list is always
returned in canonical sweep (cell-enumeration) order regardless of
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
from typing import Callable, Dict, List, Optional

from .cells import run_cell
from .harness import CellResult
from .spec import SweepSpec

__all__ = ["SweepRunner", "load_checkpoint"]


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


class SweepRunner:
    """Executes a sweep's cells, serially or over a process pool."""

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
        # cell_id() is a JSON dump + SHA-256: compute each exactly once.
        ids = [cell.cell_id() for cell in cells]
        known = set(ids)
        done = {cid: r for cid, r in load_checkpoint(self.checkpoint).items()
                if cid in known}
        self.resumed = len(done)
        pending = [c for c, cid in zip(cells, ids) if cid not in done]

        # Fastpath cells are a single vectorized batch, not pool work:
        # one NumPy call evaluates all of them, so shipping them to
        # worker processes would only add pickling overhead.  Hybrid
        # cells stay in ``pending``: their packet-engine windows are
        # real per-cell work that benefits from the process pool.
        fastpath = [c for c in pending if c.backend == "fastpath"]
        pending = [c for c in pending if c.backend != "fastpath"]

        sink = None
        if self.checkpoint:
            sink = open(self.checkpoint, "a")
            # A kill can tear the final line mid-write; make sure appended
            # results start on a fresh line rather than gluing onto it.
            if sink.tell() > 0:
                with open(self.checkpoint, "rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    if tail.read(1) != b"\n":
                        sink.write("\n")
        try:
            if fastpath:
                from ..fastpath.backend import evaluate_specs

                for result in evaluate_specs(fastpath):
                    self._finish(result, done, sink, progress)
            if self.workers == 1 or len(pending) <= 1:
                for spec in pending:
                    self._finish(run_cell(spec), done, sink, progress)
            else:
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    futures = {
                        pool.submit(_run_cell_json, spec.to_dict())
                        for spec in pending
                    }
                    while futures:
                        ready, futures = wait(futures, return_when=FIRST_COMPLETED)
                        for future in ready:
                            result = CellResult.from_json(future.result())
                            self._finish(result, done, sink, progress)
        finally:
            if sink is not None:
                sink.close()
        return [done[cid] for cid in ids]

    def _finish(self, result, done, sink, progress) -> None:
        done[result.cell_id] = result
        if sink is not None:
            sink.write(result.to_json() + "\n")
            sink.flush()
        if progress is not None:
            progress(result)
