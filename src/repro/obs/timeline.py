"""Flight recorder: longitudinal sampling of the metrics registry.

End-of-run snapshots flatten a whole experiment to one number per
metric; the paper's deployment and episode stories are longitudinal
(loss rate *over time*, pause duty cycle *during* an episode, LG
activation flapping).  :class:`TimelineRecorder` samples every numeric
leaf of a :class:`~repro.obs.metrics.MetricsRegistry` snapshot on a
simulated-time cadence into a bounded ring of samples, yielding aligned
per-metric series cheap enough to leave on.

The recorder is installed onto a simulator (:meth:`install`), schedules
its own ticks, and survives multi-simulator experiments (FCT builds one
testbed per transport/scenario): each install bumps a ``run`` counter
recorded with every sample, so series from consecutive simulators stay
distinguishable even though simulated time restarts at zero.

Month-scale runs outlive any fixed ring: at one sample per simulated
day a 90-day lifecycle replay fits easily, but per-episode cadences do
not, so overflow behaviour is a policy:

* ``policy="drop"`` (default, the original behaviour) evicts the oldest
  sample — the ring becomes a sliding window over the run's tail;
* ``policy="decimate"`` halves the retained resolution instead: every
  other sample is discarded and the effective interval doubles, so the
  ring always spans the *whole* run at progressively coarser cadence —
  the right trade for longitudinal SLO series.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["TimelineRecorder", "numeric_leaves"]


def numeric_leaves(snapshot: Dict[str, Any],
                   prefix: str = "") -> Dict[str, float]:
    """Flatten a registry snapshot to dotted-name numeric leaves.

    Bools become 0/1 (LG activation state is a bool), non-finite floats
    are skipped, histograms contribute ``count``/``sum`` but not their
    bucket arrays.
    """
    flat: Dict[str, float] = {}
    for key, value in snapshot.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            if value.get("type") == "histogram":
                flat[f"{name}.count"] = value.get("count", 0)
                total = value.get("sum", 0)
                if isinstance(total, (int, float)) and math.isfinite(total):
                    flat[f"{name}.sum"] = total
                continue
            flat.update(numeric_leaves(
                {k: v for k, v in value.items() if k != "type"},
                prefix=f"{name}."))
            continue
        if isinstance(value, bool):
            flat[name] = int(value)
        elif isinstance(value, (int, float)) and math.isfinite(value):
            flat[name] = value
    return flat


class TimelineRecorder:
    """Bounded ring-of-snapshots sampler over a metrics registry."""

    __slots__ = ("registry", "interval_ns", "capacity", "enabled",
                 "include", "policy", "runs", "sampled", "dropped",
                 "decimations", "_samples")

    def __init__(self, registry, interval_ns: int = 1_000_000,
                 capacity: int = 4096,
                 include: Optional[Sequence[str]] = None,
                 policy: str = "drop") -> None:
        if interval_ns <= 0:
            raise ValueError("timeline interval_ns must be positive")
        if capacity < 2:
            raise ValueError("timeline capacity must be >= 2")
        if policy not in ("drop", "decimate"):
            raise ValueError(
                f"unknown timeline policy {policy!r}; known: drop, decimate")
        self.registry = registry
        self.interval_ns = int(interval_ns)
        self.capacity = int(capacity)
        self.include = tuple(include) if include else None
        self.policy = policy
        self.enabled = True
        self.runs = 0
        self.sampled = 0
        self.dropped = 0
        #: times the ring halved its resolution (policy="decimate")
        self.decimations = 0
        #: ring of (run, ts_ns, {name: value}) tuples
        self._samples: deque = deque()

    # -- recording -------------------------------------------------------

    def install(self, sim) -> None:
        """Attach to a simulator: sample now, then on every interval.

        Each install starts a new ``run`` (simulated time restarts per
        simulator); ticks stop rescheduling once :meth:`stop` is called.
        The reschedule reads ``interval_ns`` each tick, so a decimation
        pass slows future sampling to the coarser cadence too.
        """
        if not self.enabled:
            return
        self.runs += 1
        run = self.runs

        def tick() -> None:
            if not self.enabled or run != self.runs:
                return  # stopped, or a newer simulator took over
            self.sample(sim.now, run=run)
            sim.schedule(self.interval_ns, tick)

        tick()

    def sample(self, ts_ns: int, run: Optional[int] = None) -> None:
        """Take one snapshot of the registry at simulated time ``ts_ns``."""
        flat = numeric_leaves(self.registry.snapshot())
        if self.include is not None:
            flat = {k: v for k, v in flat.items()
                    if any(k.startswith(p) for p in self.include)}
        self._samples.append((run if run is not None else self.runs,
                              int(ts_ns), flat))
        self.sampled += 1
        if self.policy == "decimate":
            if len(self._samples) > self.capacity:
                self._decimate()
        else:
            while len(self._samples) > self.capacity:
                self._samples.popleft()
                self.dropped += 1

    def _decimate(self) -> None:
        """Halve resolution: keep every other sample, double the interval.

        The first retained sample stays the oldest one, so the ring keeps
        covering the run from its start; the effective cadence doubles,
        which :meth:`install` picks up on its next reschedule.
        """
        kept = deque(sample for index, sample in enumerate(self._samples)
                     if index % 2 == 0)
        removed = len(self._samples) - len(kept)
        self._samples = kept
        self.dropped += removed
        self.interval_ns *= 2
        self.decimations += 1

    def stop(self) -> None:
        """Disable further sampling; pending ticks become no-ops."""
        self.enabled = False

    # -- reading ---------------------------------------------------------

    def samples(self) -> List[Tuple[int, int, Dict[str, float]]]:
        return list(self._samples)

    def series(self) -> Dict[str, Any]:
        """Column-oriented view: aligned arrays per metric name.

        Metrics absent at a given sample (a provider registered
        mid-run) are padded with None so every column has one entry per
        retained sample.
        """
        runs: List[int] = []
        ts: List[int] = []
        columns: Dict[str, List[Optional[float]]] = {}
        for index, (run, ts_ns, flat) in enumerate(self._samples):
            runs.append(run)
            ts.append(ts_ns)
            for name, value in flat.items():
                column = columns.setdefault(name, [None] * index)
                column.append(value)
            for name, column in columns.items():
                if len(column) <= index:
                    column.append(None)
        return {
            "interval_ns": self.interval_ns,
            "capacity": self.capacity,
            "policy": self.policy,
            "sampled": self.sampled,
            "dropped": self.dropped,
            "decimations": self.decimations,
            "run": runs,
            "ts_ns": ts,
            "metrics": columns,
        }
