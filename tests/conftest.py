"""Make the tests directory importable for shared fixtures."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def acceptance_validation():
    """``run_validation(n_cells=200, seed=1, backend=..., workers=4)``
    for the 200-cell acceptance tests, with the packet reference grid run
    once a session: both fast backends are held to the same packet cells
    (``grid_key`` gives matched cells matched seeds)."""
    from repro.fastpath.validate import compare_validation, default_grid
    from repro.runner import run_cells

    reference = []

    def validate(backend):
        if not reference:
            specs = [spec.with_(backend="packet")
                     for spec in default_grid(n_cells=200, seed=1)]
            reference.append((specs, run_cells(specs, workers=4)))
        specs, packet = reference[0]
        fast = run_cells([spec.with_(backend=backend) for spec in specs],
                         workers=4)
        return compare_validation(specs, fast, packet, backend)

    return validate
