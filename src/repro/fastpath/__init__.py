"""Vectorized analytic backend: whole evaluation grids in one NumPy call.

The packet-level engine reproduces LinkGuardian mechanism-by-mechanism
but pays per-packet event cost; ``repro.fastpath`` evaluates the same
evaluation-grid cells from the paper's closed forms instead — effective
loss under N-copy retransmission (Eqs. 1–2 with the era-bit /
consecutive-loss correction), the recovery-latency distribution, an
M/D/1-style reordering-buffer and pause/resume model (§3.3), goodput
overhead, and a DCTCP-style analytic FCT model — batched over arrays of
thousands of cells at once.

Entry points:

* ``ExperimentSpec(backend="fastpath")`` / ``backend="hybrid"`` — the
  backends are rows of the cell table (:data:`repro.runner.cells.CELLS`):
  :mod:`~repro.fastpath.grid` owns the three vectorized ``batch`` rows,
  :mod:`~repro.fastpath.splice` the three hybrid splicing rows (analytic
  between corruption events, snapshot-seeded packet-engine windows
  around them); ``run_cell`` / ``run_cells`` reach them like any cell;
* :func:`~repro.fastpath.validate.run_validation` — the cross-validation
  harness: matched grids on both backends, per-metric relative-error
  distributions, loud failure beyond the documented tolerances (the
  ``backend`` argument validates either fast tier);
* :mod:`~repro.fastpath.model` / :mod:`~repro.fastpath.fct` — the raw
  vectorized primitives, for direct use (the fleet layer's wide scans).

See DESIGN.md "Fastpath analytic backend" for the equations, the stated
assumptions, and the known divergence regimes.
"""

from ..runner.cells import experiment_kinds
from .validate import ValidationReport, default_grid, run_validation

__all__ = [
    "FASTPATH_KINDS", "HYBRID_KINDS",
    "ValidationReport", "default_grid", "run_validation",
]

_KIND_VIEWS = {"FASTPATH_KINDS": "fastpath", "HYBRID_KINDS": "hybrid"}


def __getattr__(name: str):
    """``FASTPATH_KINDS`` / ``HYBRID_KINDS``: the kinds each fast backend
    has a table row for, read off the table at access time."""
    if name in _KIND_VIEWS:
        return tuple(experiment_kinds(_KIND_VIEWS[name]))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
