"""Mechanism-contribution ablation (paper Table 2, §4.5).

Runs the 24,387 B DCTCP FCT experiment under four LinkGuardian variants:

* **ReTx**            — link-local retransmission only (out-of-order,
                        no dummy-packet tail-loss detection);
* **ReTx + Order**    — adds the reordering buffer + backpressure;
* **ReTx + Tail**     — adds the dummy queue instead (this variant is
                        LinkGuardianNB);
* **ReTx + Tail + Order** — the full LinkGuardian.

plus the No-Loss and Loss baselines, and reports the top-percentile FCTs.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..analysis.stats import tail_percentiles
from ..runner import CellResult, ExperimentSpec

__all__ = ["MECHANISM_VARIANTS", "mechanism_spec", "mechanism_study"]

#: variant name -> (ordered, tail_loss_detection); None = baseline scenario
MECHANISM_VARIANTS = {
    "No Loss": None,
    "Loss": None,
    "ReTx": (False, False),
    "ReTx+Order": (True, False),
    "ReTx+Tail": (False, True),
    "ReTx+Tail+Order": (True, True),
}


def mechanism_spec(
    variant: str,
    transport: str = "dctcp",
    flow_size: int = 24_387,
    n_trials: int = 1_000,
    rate_gbps: float = 100,
    loss_rate: float = 1e-3,
    seed: int = 1,
) -> ExperimentSpec:
    """The FCT-experiment cell for one Table 2 variant."""
    toggles = MECHANISM_VARIANTS[variant]
    if toggles is None:
        scenario = "noloss" if variant == "No Loss" else "loss"
        lg = {}
    else:
        ordered, tail = toggles
        scenario = "lg" if ordered else "lgnb"
        lg = {"ordered": ordered, "tail_loss_detection": tail}
    return ExperimentSpec(
        kind="fct",
        transport=transport,
        scenario=scenario,
        loss_rate=loss_rate,
        flow_size=flow_size,
        n_trials=n_trials,
        rate_gbps=rate_gbps,
        seed=seed,
        lg=lg,
    )


def mechanism_study(results: Sequence[CellResult]) -> Dict[str, dict]:
    """{variant: {p50, p99, p99.9, ...}} as in Table 2, from the results
    of one :func:`mechanism_spec` cell per variant, in table order."""
    study: Dict[str, dict] = {}
    for variant, result in zip(MECHANISM_VARIANTS, results):
        fcts = np.asarray(result.series["fcts_us"])
        row = tail_percentiles(fcts)
        row["std"] = float(np.std(fcts)) if len(fcts) else 0.0
        row["trials"] = len(fcts)
        study[variant] = row
    return study
