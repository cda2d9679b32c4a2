"""The cell table: every runnable ``(kind, backend)`` pair, and its readers.

The paper's evaluation is one grid of cells and the repo answers a cell
on up to three backends.  :data:`CELLS` is the only place that says
which kind runs on which backend and who owns it: one row per pair,
pointing at a function in the module that implements the experiment
(``experiments/*.py``, ``checker/fuzz.py``, ``fastpath/grid.py``,
``fastpath/splice.py``).  Owners are named by dotted path and imported
on first use, so importing ``repro.runner`` never drags in (or cycles
with) an owner.

Every cell has the one signature ``cell(spec, ctx) -> CellResult``
(:class:`~repro.runner.spec.ExperimentSpec`, :class:`RunContext`); a row
marked ``batch`` is that signature lifted over a list — ``cell(specs,
ctx) -> [CellResult]`` in input order — for backends whose cost is per
call, not per cell.  :func:`run_cell` is lookup → call → stamp wall
clock and diagnostics; :func:`~repro.runner.sweep.run_cells` is the one
executor that fans many cells out.  Everything else that needs kind ×
backend membership (``repro.fastpath.FASTPATH_KINDS``/``HYBRID_KINDS``,
the CLI's ``--backend`` choices, ``POST /whatif`` admission, every
"unknown kind" message) is a view of the table through
:func:`experiment_kinds`, :func:`backends` and :func:`lookup`.

Common field mapping: ``spec.scenario`` carries the per-kind protection
variant ("noloss"/"loss"/"lg"/"lgnb" for FCT and multihop, the Table 3
scheme for goodput, "lg"/"lgnb" ordering for the stress test);
``spec.lg`` carries ``LinkGuardianConfig.for_link_speed`` overrides,
bound by :func:`lg_config` for every kind on every backend; everything
else kind-specific rides in ``spec.params``.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from ..linkguardian.config import LinkGuardianConfig
from ..obs.profile import PhaseTimer
from .harness import CellResult
from .spec import ExperimentSpec

__all__ = [
    "Cell", "CELLS", "RunContext", "experiment_kinds", "backends", "lookup",
    "resolve", "lg_config", "run_cell", "run_batch",
]


@dataclass
class RunContext:
    """Per-call execution context handed to every cell function.

    ``obs`` is the cell's :class:`~repro.obs.Observability` (built from
    ``spec.obs``, or None for an uninstrumented cell); cells that can
    thread it into their experiment should.  ``phases`` accumulates
    wall-clock phase timings that end up in ``CellResult.timings``.
    """

    obs: Optional[Any] = None
    phases: PhaseTimer = field(default_factory=PhaseTimer)


class Cell(NamedTuple):
    """One row of :data:`CELLS`."""

    #: ``"package.module:function"``, imported on first use
    owner: str
    #: the function takes a list of specs and returns their results in
    #: order (one vectorized call); the executor groups on this
    batch: bool = False


#: (kind, backend) -> the function that answers that cell.  Backends:
#: packet (the event-driven engine), fastpath (vectorized closed forms),
#: hybrid (analytic between losses, packet windows around them); row
#: order is the order :func:`backends` reports and the CLI prints.
CELLS: Dict[Tuple[str, str], Cell] = {
    ("fct", "packet"): Cell("repro.experiments.fct:fct_cell"),
    ("goodput", "packet"): Cell("repro.experiments.goodput:goodput_cell"),
    ("multihop", "packet"): Cell("repro.experiments.multihop:multihop_cell"),
    ("stress", "packet"): Cell("repro.experiments.stress:stress_cell"),
    ("timeline", "packet"): Cell("repro.experiments.timeline:timeline_cell"),
    ("rdma_reorder", "packet"):
        Cell("repro.experiments.rdma_future:rdma_reorder_cell"),
    ("deployment", "packet"):
        Cell("repro.experiments.deployment:deployment_cell"),
    ("incremental", "packet"):
        Cell("repro.experiments.incremental:incremental_cell"),
    ("checker", "packet"): Cell("repro.checker.fuzz:checker_cell"),
    ("fig01", "packet"): Cell("repro.experiments.figures:fig01_cell"),
    ("fig02", "packet"): Cell("repro.experiments.figures:fig02_cell"),
    ("tab01", "packet"): Cell("repro.experiments.figures:tab01_cell"),
    ("fig20", "packet"): Cell("repro.experiments.figures:fig20_cell"),
    ("fct", "fastpath"): Cell("repro.fastpath.grid:fct_cells", batch=True),
    ("goodput", "fastpath"):
        Cell("repro.fastpath.grid:goodput_cells", batch=True),
    ("stress", "fastpath"):
        Cell("repro.fastpath.grid:stress_cells", batch=True),
    ("fct", "hybrid"): Cell("repro.fastpath.splice:fct_cell"),
    ("goodput", "hybrid"): Cell("repro.fastpath.splice:goodput_cell"),
    ("stress", "hybrid"): Cell("repro.fastpath.splice:stress_cell"),
}


def experiment_kinds(backend: Optional[str] = None) -> List[str]:
    """Kinds with a row in the table (on ``backend``, when given), sorted."""
    return sorted({k for k, b in CELLS if backend in (None, b)})


def backends(kind: Optional[str] = None) -> List[str]:
    """Backends with a row (for ``kind``, when given), in table order."""
    return list(dict.fromkeys(b for k, b in CELLS if kind in (None, k)))


def lookup(kind: str, backend: str) -> Cell:
    """The row for ``(kind, backend)``; a pair without one is a single
    ``ValueError`` naming the valid choices, whoever asks (``run_cell``,
    ``run_cells``, the CLI, ``POST /whatif`` admission)."""
    try:
        return CELLS[kind, backend]
    except KeyError:
        pass
    if backend not in backends():
        raise ValueError(f"unknown backend {backend!r}; "
                         f"known: {', '.join(backends())}")
    if not backends(kind):
        raise ValueError(f"unknown experiment kind {kind!r}; "
                         f"known: {', '.join(experiment_kinds())}")
    raise ValueError(f"kind {kind!r} has no {backend} backend; "
                     f"it runs on: {', '.join(backends(kind))}")


@functools.lru_cache(maxsize=None)
def _load(owner: str) -> Callable:
    module, _, name = owner.partition(":")
    return getattr(importlib.import_module(module), name)


def resolve(kind: str, backend: str) -> Callable:
    """The cell function for ``(kind, backend)`` (imported once, cached)."""
    return _load(lookup(kind, backend).owner)


def lg_config(spec: ExperimentSpec) -> LinkGuardianConfig:
    """The one spec → ``LinkGuardianConfig`` binding, every kind, every
    backend.

    ``spec.lg`` holds ``for_link_speed`` overrides.  Ordering: an
    explicit ``lg.ordered`` wins, else the scenario decides (``"lgnb"``
    is LinkGuardianNB).  Target: ``params.target_loss_rate`` outranks
    ``lg.target_loss_rate`` outranks the config default.
    """
    overrides = {"ordered": spec.scenario != "lgnb", **spec.lg}
    if "target_loss_rate" in spec.params:
        overrides["target_loss_rate"] = spec.params["target_loss_rate"]
    return LinkGuardianConfig.for_link_speed(spec.rate_gbps, **overrides)


def _build_obs(options: Dict[str, Any]):
    """Materialise ``spec.obs`` into an Observability (None when empty).

    Recognised keys: ``trace`` (bool, default True), ``spans`` (bool;
    spans are read off the tracer, so they trace whatever ``trace``
    says), ``timeline`` (True or TimelineRecorder kwargs).
    """
    if not options:
        return None
    from ..obs import Observability

    return Observability(
        tracing=bool(options.get("trace", True)),
        spans=bool(options.get("spans", False)),
        timeline=options.get("timeline"),
    )


def run_cell(spec: Union[ExperimentSpec, dict],
             obs: Optional[Any] = None) -> CellResult:
    """Run one cell and return its unified result (wall clock attached).

    ``(spec.kind, spec.backend)`` selects the row of :data:`CELLS`.
    ``obs`` is the caller's Observability, used in place of one built
    from ``spec.obs``: the cell records into it and the caller exports
    it, so its timeline keeps running (the next cell of a figure shares
    it) and no artifact is attached to the result.
    """
    if isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    cell = lookup(spec.kind, spec.backend)
    if cell.batch:
        return run_batch(cell, [spec])[0]
    ctx = RunContext(obs=obs if obs is not None else _build_obs(spec.obs))
    started = time.perf_counter()
    result = _load(cell.owner)(spec, ctx)
    result.wall_s = time.perf_counter() - started
    _attach_diagnostics(result, ctx, artifacts=obs is None)
    return result


def run_batch(cell: Cell, specs: Sequence[ExperimentSpec]) -> List[CellResult]:
    """One call of a ``batch`` row over ``specs``; results in input order.

    Per-cell wall clock is the batch wall clock amortized over its cells
    — the honest per-cell cost of a vectorized evaluation, and what
    makes the fastpath-vs-packet speedup measurable from checkpoints.
    """
    started = time.perf_counter()
    results = _load(cell.owner)(specs, RunContext())
    batch_s = time.perf_counter() - started
    per_cell = batch_s / max(len(results), 1)
    for result in results:
        result.wall_s = per_cell
        result.timings = {
            "run_s": round(per_cell, 6),
            "batch_s": round(batch_s, 6),
            "batch_cells": len(results),
        }
    return results


def _attach_diagnostics(result: CellResult, ctx: RunContext,
                        artifacts: bool) -> None:
    """Phase timings and, for an obs the cell built itself, its
    artifacts onto the result (never canonical)."""
    timings = ctx.phases.timings()
    timings["total_s"] = round(result.wall_s, 6)
    if ctx.obs is not None:
        engine = ctx.obs.registry.snapshot().get("engine")
        if isinstance(engine, dict):
            # Wall-clock the kernel spent inside run() — the one
            # per-event loop, whichever driver started it.
            timings["engine_run_s"] = round(engine.get("wall_seconds", 0.0), 6)
        if artifacts and ctx.obs.timeline is not None:
            ctx.obs.timeline.stop()
            result.artifacts["timeline"] = ctx.obs.timeline.series()
        if artifacts and ctx.obs.spans.enabled:
            result.artifacts["spans"] = {
                "started": ctx.obs.spans.started,
                "dropped": ctx.obs.spans.dropped,
                "episodes": len(ctx.obs.spans.trees()),
            }
    result.timings = timings
