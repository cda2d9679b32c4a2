"""Measurement helpers shared by the evaluation harness.

* :class:`OccupancyTracker` — time-weighted statistics of a quantity that
  changes at discrete instants (queue/buffer occupancy).  Figure 14's
  buffer-usage whiskers are time-weighted percentiles of exactly this.
* :func:`percentile` — plain empirical percentiles of FCTs.
* :func:`percentiles` — the vectorized form: one sort, one NumPy call,
  arrays in and arrays out.  The scalar helper and the report tables
  are built on it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "OccupancyTracker", "percentile", "percentiles", "tail_percentiles",
]


class OccupancyTracker:
    """Time-weighted distribution of a piecewise-constant signal."""

    #: what a snapshot captures (:mod:`repro.core.state`)
    STATE = ("_last_time", "_value", "_samples", "max_value")

    def __init__(self, start_time: int = 0, initial: int = 0) -> None:
        self._last_time = int(start_time)
        self._value = int(initial)
        self._samples: List[Tuple[int, int]] = []  # (value, held_ns)
        self.max_value = int(initial)

    @property
    def value(self) -> int:
        return self._value

    def update(self, now: int, value: int) -> None:
        """Record that the signal changed to ``value`` at time ``now``."""
        held = int(now) - self._last_time
        if held > 0:
            self._samples.append((self._value, held))
        self._last_time = int(now)
        self._value = int(value)
        if value > self.max_value:
            self.max_value = int(value)

    def add(self, now: int, delta: int) -> None:
        self.update(now, self._value + delta)

    def finish(self, now: int) -> None:
        """Close the last interval before reading statistics."""
        self.update(now, self._value)

    def _arrays(self):
        if not self._samples:
            return np.array([self._value]), np.array([1.0])
        values = np.array([v for v, _ in self._samples], dtype=np.float64)
        weights = np.array([w for _, w in self._samples], dtype=np.float64)
        return values, weights

    def time_weighted_mean(self) -> float:
        values, weights = self._arrays()
        return float(np.average(values, weights=weights))

    def time_weighted_percentiles(self, qs: Sequence[float]) -> np.ndarray:
        """Values below which the signal sat for each ``q`` percent of the
        time — one sort and one searchsorted for the whole batch."""
        values, weights = self._arrays()
        order = np.argsort(values)
        values, weights = values[order], weights[order]
        cum = np.cumsum(weights)
        cutoffs = np.asarray(qs, dtype=np.float64) / 100.0 * cum[-1]
        indices = np.minimum(np.searchsorted(cum, cutoffs), len(values) - 1)
        return values[indices]

    def time_weighted_percentile(self, q: float) -> float:
        """Value below which the signal sat for ``q`` percent of the time."""
        return float(self.time_weighted_percentiles([q])[0])

    def summary(self) -> dict:
        p25, p50, p75 = self.time_weighted_percentiles([25, 50, 75])
        return {
            "mean": self.time_weighted_mean(),
            "p25": float(p25),
            "p50": float(p50),
            "p75": float(p75),
            "max": float(self.max_value),
        }


def percentiles(values: Sequence[float], qs: Sequence[float]) -> np.ndarray:
    """Empirical percentiles for a batch of cuts: array in, array out.

    One ``np.percentile`` call over all requested quantiles (shared
    sort); empty input yields a NaN per cut.
    """
    cuts = np.asarray(qs, dtype=np.float64)
    if len(values) == 0:
        return np.full(cuts.shape, np.nan)
    return np.percentile(np.asarray(values, dtype=np.float64), cuts)


def percentile(values: Sequence[float], q: float) -> float:
    """Empirical percentile (linear interpolation), NaN-safe for empty input."""
    return float(percentiles(values, [q])[0])


TAIL_CUTS = (50.0, 99.0, 99.9, 99.99, 99.999)


def tail_percentiles(values: Sequence[float]) -> dict:
    """The tail cuts the paper tabulates (Table 2 and the FCT text)."""
    cut_values = percentiles(values, TAIL_CUTS)
    return {f"p{q:g}": float(v) for q, v in zip(TAIL_CUTS, cut_values)}

