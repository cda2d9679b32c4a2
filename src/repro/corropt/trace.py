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


#: The draw's tables, built the way ``Generator.choice(p=...)`` and
#: ``Generator.uniform(lows, highs)`` build theirs internally (a
#: normalized CDF searched from the right; ``low + (high - low) * u``),
#: so ``sample_loss_rates`` consumes the same uniforms and returns the
#: same values as those two calls would, without their per-call set-up.
#:
#: The second line spells out numpy's C ``random_uniform`` (``low +
#: range * next_double``) as a Python multiply and add, which are never
#: fused.  Verified equal to ``choice`` + ``uniform`` on value and
#: ``bit_generator.state`` on numpy 2.4.6, x86-64 Linux (CPython 3.11)
#: only.  A numpy build that contracts that C expression into an FMA
#: (possible on aarch64) would round ``uniform`` differently in the last
#: bit; ``tests/test_fabric_corropt.py::
#: test_loss_rate_draws_are_stream_exact`` fails there.  The fallback is
#: ``10.0 ** rng.uniform(_LOG_LOWS[buckets], _LOG_HIGHS[buckets])`` (the
#: parent's form; 10 us a call slower at n = 1), which follows whatever
#: numpy does.
_PROBABILITIES = np.array([p for _, _, p in LOSS_BUCKETS])
_CDF = (_PROBABILITIES / _PROBABILITIES.sum()).cumsum()
_CDF /= _CDF[-1]
_LOG_LOWS = np.array([np.log10(low) for low, _, _ in LOSS_BUCKETS])
_LOG_HIGHS = np.array([np.log10(high) for _, high, _ in LOSS_BUCKETS])
_LOG_WIDTHS = _LOG_HIGHS - _LOG_LOWS


def sample_loss_rates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` loss rates from the Table 1 bucket distribution."""
    buckets = _CDF.searchsorted(rng.random(n), side="right")
    return 10.0 ** (_LOG_LOWS[buckets] + _LOG_WIDTHS[buckets] * rng.random(n))
