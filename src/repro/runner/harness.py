"""Layer 2 of the runner: the shared trial loop and the per-cell result.

Every back-to-back-trials experiment (FCT, multihop, RDMA reordering)
used to hand-roll the same launch → watchdog → deadline → collect loop;
:class:`TrialHarness` owns it once.  Single-flow experiments (goodput)
share :func:`run_until_complete` for the watchdog-bounded run.  Neither
owns a per-event loop: both call ``Simulator.run`` and end it with
``Simulator.stop`` (DESIGN §5i).

:class:`CellResult` is the unified schema every experiment cell emits:
scalar ``metrics`` for tables, larger ``series`` for distributions, the
spec that produced it, and the wall-clock cost.  Its
:meth:`~CellResult.canonical_json` excludes the wall clock, so "same
seed ⇒ byte-identical result" is a testable property and parallel sweep
output can be diffed against serial output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["CellResult", "TrialHarness", "run_until_complete"]

#: A trial launcher: given the trial index and the completion callback, set
#: up the flow and return ``(start, abort)``.  ``start`` begins the trial
#: (called after the harness has armed the deadline watchdog, preserving
#: event order); ``abort`` (or None) tears the trial down if the deadline
#: fires — e.g. unregistering host packet handlers.
TrialLauncher = Callable[[int, Callable[[Any], None]],
                         Tuple[Callable[[], None], Optional[Callable[[], None]]]]


def _jsonable(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


@dataclass
class CellResult:
    """What one executed experiment cell produced.

    ``metrics`` holds scalar summary values (table cells), ``series``
    holds list-valued data (FCT samples, timeline arrays).  ``wall_s`` is
    the only non-deterministic field and is excluded from the canonical
    form.
    """

    cell_id: str
    spec: Dict[str, Any]
    metrics: Dict[str, Any] = field(default_factory=dict)
    series: Dict[str, list] = field(default_factory=dict)
    wall_s: float = 0.0
    #: which execution backend produced this cell ("packet"/"fastpath");
    #: deterministic, so part of the canonical form.
    backend: str = "packet"
    #: wall-clock phase breakdown (setup/run/collect/engine...); like
    #: ``wall_s``, non-deterministic, so excluded from the canonical form
    #: and from serialized output when empty.
    timings: Dict[str, float] = field(default_factory=dict)
    #: attached diagnostic artifacts (timeline series, span summaries);
    #: execution-dependent, so excluded from the canonical form and from
    #: serialized output when empty.
    artifacts: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def for_spec(cls, spec, metrics: Dict[str, Any],
                 series: Optional[Dict[str, list]] = None) -> "CellResult":
        """What a cell function returns: the result of running ``spec``
        (an :class:`~repro.runner.spec.ExperimentSpec`), tagged with the
        spec's own backend."""
        return cls(
            cell_id=spec.cell_id(),
            spec=spec.to_dict(),
            metrics=metrics,
            series=series or {},
            backend=spec.backend,
        )

    def canonical_json(self) -> str:
        """Deterministic serialization: same seed ⇒ byte-identical."""
        # Diagnostics never perturb the canonical form: ``spec.obs`` is
        # dropped (like grid_key) so an instrumented run stays
        # byte-identical to the plain run it observes.
        spec = self.spec
        if isinstance(spec, dict) and "obs" in spec:
            spec = {k: v for k, v in spec.items() if k != "obs"}
        data = {
            "cell_id": self.cell_id,
            "spec": spec,
            "metrics": self.metrics,
            "series": self.series,
            "backend": self.backend,
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"),
                          default=_jsonable)

    def to_json(self) -> str:
        """One checkpoint/JSONL line (wall clock included)."""
        data = {
            "cell_id": self.cell_id,
            "spec": self.spec,
            "metrics": self.metrics,
            "series": self.series,
            "wall_s": self.wall_s,
            "backend": self.backend,
        }
        if self.timings:
            data["timings"] = self.timings
        if self.artifacts:
            data["artifacts"] = self.artifacts
        return json.dumps(data, sort_keys=True, separators=(",", ":"),
                          default=_jsonable)

    @classmethod
    def from_json(cls, line: str) -> "CellResult":
        data = json.loads(line)
        return cls(
            cell_id=data["cell_id"],
            spec=data["spec"],
            metrics=data.get("metrics", {}),
            series=data.get("series", {}),
            wall_s=data.get("wall_s", 0.0),
            backend=data.get("backend", "packet"),
            timings=data.get("timings", {}),
            artifacts=data.get("artifacts", {}),
        )

    def row(self) -> Dict[str, Any]:
        """Scalar metrics prefixed by the cell id, for table rendering;
        backend and wall clock ride along so fastpath-vs-packet speedups
        read straight off a sweep table or checkpoint."""
        return {"cell": self.cell_id, **{
            k: v for k, v in self.metrics.items()
            if isinstance(v, (int, float, str, bool))
        }, "backend": self.backend, "wall_s": round(self.wall_s, 4)}


class TrialHarness:
    """Runs ``n_trials`` back-to-back flows on one simulator.

    The chain: launch trial *i*; when it completes (or its deadline
    watchdog fires), wait ``inter_trial_gap_ns`` and launch trial *i+1*;
    the launch after the last trial stops the simulator's run.
    ``safety_ns`` is a wedged-experiment guard — LinkGuardian's
    self-replenishing queues keep the event heap non-empty forever, so
    a plain run-to-empty would never return: the first event later than
    it is still dispatched and ends the run (the clock is left at that
    event, not moved to the limit).
    """

    def __init__(
        self,
        sim,
        n_trials: int,
        launch_trial: TrialLauncher,
        *,
        inter_trial_gap_ns: int = 20_000,
        trial_deadline_ns: Optional[int] = None,
        safety_ns: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.n_trials = n_trials
        self.launch_trial = launch_trial
        self.inter_trial_gap_ns = inter_trial_gap_ns
        self.trial_deadline_ns = trial_deadline_ns
        self.safety_ns = safety_ns
        self.records: List[Any] = []
        self.incomplete = 0
        self._watchdog = None
        self._done = False

    def _launch(self, trial: int) -> None:
        if trial >= self.n_trials:
            self._done = True
            self.sim.stop()
            return

        def finished(record) -> None:
            if self._watchdog is not None:
                self._watchdog.cancel()
                self._watchdog = None
            self.records.append(record)
            self.sim.schedule(self.inter_trial_gap_ns, self._launch, trial + 1)

        start, abort = self.launch_trial(trial, finished)

        if self.trial_deadline_ns is not None:
            def give_up() -> None:
                # A pathologically stuck trial (chained RTO backoff) is
                # recorded as incomplete rather than wedging the run.
                self._watchdog = None
                self.incomplete += 1
                if abort is not None:
                    abort()
                self.sim.schedule(self.inter_trial_gap_ns, self._launch, trial + 1)

            self._watchdog = self.sim.schedule(self.trial_deadline_ns, give_up)
        start()

    def run(self) -> List[Any]:
        """Drive the simulator until the last trial finishes; return the
        completion records in trial order."""
        sim = self.sim
        sim.schedule(0, self._launch, 0)
        sim.run(until=self.safety_ns)
        if not self._done and self.safety_ns is not None:
            sim.run(max_events=1)   # the first event past the limit
        return self.records


def run_until_complete(sim, is_done: Callable[[], bool], deadline_ns: int) -> bool:
    """Run ``sim`` until ``is_done()`` or the deadline; True if done.

    The single-flow counterpart of :class:`TrialHarness`: goodput-style
    experiments run one long transfer under a watchdog.  ``is_done`` is
    asked after every event; the watchdog event at ``deadline_ns`` from
    now stops the run itself.
    """
    guard = sim.schedule(int(deadline_ns), sim.stop)
    if not is_done():
        sim.run(stop_when=is_done)
    guard.cancel()
    return is_done()
