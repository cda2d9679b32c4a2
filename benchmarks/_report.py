"""Shared reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures at
simulator scale, prints the same rows/series the paper reports, and
saves the raw numbers under ``benchmarks/results/``.  The claim gate
(``test_paper_claims.py``) also records what each claim of
``repro.experiments.figures.FIGURES`` measured; :func:`render_claims`
turns the table plus that record into the paper-vs-reproduction tables
of EXPERIMENTS.md (``python benchmarks/_report.py`` rewrites the block).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Sequence

from repro.analysis.report import format_value, render_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: claim gate record: {figure id: {claim name: measured}}
CLAIMS = "paper_claims"
EXPERIMENTS_MD = os.path.join(os.path.dirname(__file__), "..",
                              "EXPERIMENTS.md")
BEGIN = "<!-- claims:begin (generated: python benchmarks/_report.py) -->"
END = "<!-- claims:end -->"


def emit(text: str = "") -> None:
    """Print to the real terminal even under pytest capture."""
    sys.stderr.write(text + "\n")
    sys.stderr.flush()


def header(title: str) -> None:
    emit()
    emit("=" * 78)
    emit(title)
    emit("=" * 78)


def table(rows: Sequence[dict], columns: Sequence[str] = None) -> None:
    """Render dict-rows as an aligned text table."""
    emit(render_table(rows, columns))


def dump_json(payload) -> str:
    """The text of a results file."""
    return json.dumps(payload, indent=2, default=_jsonable)


def results_path(name: str) -> str:
    return os.path.join(RESULTS_DIR, f"{name}.json")


def save_json(name: str, payload) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(results_path(name), "w") as handle:
        handle.write(dump_json(payload))
    return results_path(name)


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return str(obj)


def load_claims() -> Dict[str, Dict[str, float]]:
    if not os.path.exists(results_path(CLAIMS)):
        return {}
    with open(results_path(CLAIMS)) as handle:
        return json.load(handle)


def record_claims(figure: str, measured: Dict[str, float]) -> None:
    """Replace ``figure``'s entry of the claim record (kept sorted by
    figure, so the file does not depend on which rows ran, or when)."""
    save_json(CLAIMS, dict(sorted({**load_claims(),
                                   figure: measured}.items())))


def bound_text(claim) -> str:
    if claim.equals is not None:
        return f"= {format_value(claim.equals)}"
    return " and ".join(
        f"{sign} {format_value(bound)}" for sign, bound in
        ((">=", claim.at_least), ("<=", claim.at_most)) if bound is not None)


def render_claims(figures, measured) -> str:
    """The generated block of EXPERIMENTS.md: per figure its gate scale
    and one line per claim — paper value, measured value, bound, fidelity
    note — from the figure table and the gate's record."""
    from repro.cli import VERBS

    titles = {verb.name: verb.help for verb in VERBS}
    lines = []
    for name, row in figures.items():
        scale = ", ".join(f"{k}={v}" for k, v in row.gate.items())
        lines += [f"### {name} — {titles[name]}", "",
                  f"Gate scale: {scale or 'the model defaults'}; series in "
                  f"`benchmarks/results/{row.results}.json`.", "",
                  "| claim | paper | measured | bound | note |",
                  "|---|---|---|---|---|"]
        for claim in row.claims:
            value = measured.get(name, {}).get(claim.name)
            lines.append(" | ".join((
                f"| {claim.name}", claim.paper,
                "not recorded" if value is None else format_value(value),
                bound_text(claim),
                f"[{claim.fidelity}] |" if claim.fidelity else "|")))
        lines.append("")
    return "\n".join(lines)


def split_experiments_md():
    """(text before the block, the block, text after it)."""
    with open(EXPERIMENTS_MD) as handle:
        text = handle.read()
    before, _, rest = text.partition(BEGIN + "\n")
    block, _, after = rest.partition(END)
    return before, block, after


if __name__ == "__main__":
    from repro.experiments.figures import FIGURES

    before, _, after = split_experiments_md()
    with open(EXPERIMENTS_MD, "w") as handle:
        handle.write(before + BEGIN + "\n"
                     + render_claims(FIGURES, load_claims()) + END + after)
