"""Export the claim gate's figure documents to plot-ready CSV tables.

The claim gate keeps one document per figure under
``benchmarks/results``: ``{"gate": ..., "rows": [...]}``, the rows being
what ``repro <id>`` prints.  This module writes each document's rows as
one ``<id>.csv``, so the paper's figures can be re-plotted from the
reproduction's numbers.
"""

from __future__ import annotations

import csv
import glob
import json
import os
from typing import List

__all__ = ["export_results", "write_csv"]


def write_csv(path: str, rows: List[dict]) -> None:
    if not rows:
        return
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def export_results(results_dir: str, out_dir: str) -> List[str]:
    """Write one CSV per figure document in ``results_dir``.

    Returns the list of files written, in file-name order.  A file with
    no rows (the claim record, the obs-overhead record) is skipped, and
    a missing directory exports nothing, so the exporter works on
    partial gate runs.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    for source in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(source) as handle:
            document = json.load(handle)
        rows = document.get("rows") if isinstance(document, dict) else None
        if rows:
            stem = os.path.splitext(os.path.basename(source))[0]
            written.append(os.path.join(out_dir, f"{stem}.csv"))
            write_csv(written[-1], rows)
    return written
