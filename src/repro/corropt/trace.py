"""Link-corruption trace model (paper Appendix D, Table 1).

Following the paper, time-to-corruption per link is Weibull with shape
beta = 1 (exponential — corruption is caused by memoryless external
events) and scale eta = MTTF = 10,000 hours (Meza et al.); the loss rate
of each event is drawn from the bucket distribution observed across
Microsoft datacenters (Table 1), log-uniform within the bucket.  The
fleet-scale generator built on these draws is
:mod:`repro.lifecycle.traces`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["MTTF_HOURS", "LOSS_BUCKETS", "sample_loss_rates"]

MTTF_HOURS = 10_000.0

#: Table 1 — corruption loss rates observed across 350K optical links.
#: (low, high, probability); the open-ended top bucket is capped at 1e-2.
LOSS_BUCKETS: Tuple[Tuple[float, float, float], ...] = (
    (1e-8, 1e-5, 0.4723),
    (1e-5, 1e-4, 0.1843),
    (1e-4, 1e-3, 0.2166),
    (1e-3, 1e-2, 0.1267),
)


def sample_loss_rates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` loss rates from the Table 1 bucket distribution."""
    probabilities = np.array([p for _, _, p in LOSS_BUCKETS])
    probabilities = probabilities / probabilities.sum()
    buckets = rng.choice(len(LOSS_BUCKETS), size=n, p=probabilities)
    lows = np.array([np.log10(LOSS_BUCKETS[b][0]) for b in buckets])
    highs = np.array([np.log10(LOSS_BUCKETS[b][1]) for b in buckets])
    return 10.0 ** rng.uniform(lows, highs)
