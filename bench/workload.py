"""The workload contract and the two ways a workload is run.

A workload is a fixed set of generated inputs (from ``--seed``) plus a
*round*: one timed call per input kind.  :func:`timed_run` repeats rounds
for ``--seconds`` with tracing off and yields the end-to-end metrics;
:func:`traced_run` repeats them once more under :mod:`bench.trace` and
yields the per-layer metrics.  Each runs in its own process (the driver,
or ``run.py`` without ``--workload``, starts one per workload).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

from bench.common import Recorder, own_peak_rss_mb
from bench.trace import Tracer

#: stack samples a traced unit must reach before it may stop
MIN_SAMPLES = 1000


class NoTrace:
    """Stand-in for :class:`~bench.trace.Tracer` on timed runs: calls straight
    through, records nothing."""

    @staticmethod
    def call(name: str, fn: Callable, *args: Any,
             label: Optional[str] = None, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    @staticmethod
    def span(name: str, label: Optional[str] = None) -> Any:
        return nullcontext()


class Workload:
    """One named workload.  Subclasses set the class attributes and
    implement :meth:`setup`, :meth:`round` and :meth:`layer_metrics`."""

    name = ""
    #: what ``throughput_per_s`` counts on this workload
    work = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        #: probes that could not run (reported, never fatal)
        self.warnings: List[str] = []

    def setup(self) -> None:
        """Generate the inputs from the seed, start what must run, and do
        one untimed warm-up (all of it is ``setup_s``)."""
        raise NotImplementedError

    def round(self, rec: Recorder, tracer: Any = NoTrace) -> None:
        """One timed sample per input kind, gates checked on each."""
        raise NotImplementedError

    def traced_round(self, rec: Recorder, tracer: Any) -> None:
        """The round the traced run repeats, first with :class:`NoTrace`
        then with a :class:`~bench.trace.Tracer`.  In-process workloads
        trace their own round; server workloads replay their inputs
        through the same public functions in-process instead."""
        self.round(rec, tracer)

    def finish(self, rec: Recorder) -> None:
        """End-of-window gates (server state, exit codes)."""

    def teardown(self) -> None:
        """Stop everything :meth:`setup` started.  Always called."""

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def layer_metrics(self, tracer: Tracer, rec: Recorder,
                      seconds: float) -> Dict[str, Optional[float]]:
        """Per-layer numbers of this workload beyond the sampler shares;
        ``rec`` holds the traced rounds' samples and counts."""
        return {}


def timed_run(workload: Workload, seconds: float,
              started: float) -> Dict[str, Any]:
    """Set up, then repeat rounds for ``seconds``; tracing off."""
    rec = Recorder()
    try:
        workload.setup()
        setup_s = time.perf_counter() - started
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            workload.round(rec)
            rounds += 1
        rss = workload.peak_rss_mb()   # the window's, not the gates'
        workload.finish(rec)
    finally:
        workload.teardown()
    return {
        "metrics": {
            "throughput_per_s": rec.throughput(),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        },
        "rounds": rounds,
        "recorder": rec,
    }


def traced_run(workload: Workload, seconds: float,
               trace_path: str) -> Dict[str, Any]:
    """Untraced reference rounds, then rounds under spans + sampler until
    the sampler holds :data:`MIN_SAMPLES`; returns per-layer metrics."""
    tracer = Tracer(trace_id=f"{workload.name}:seed{workload.seed}")
    plain, traced = Recorder(), Recorder()
    try:
        workload.setup()
        deadline = time.perf_counter() + 0.3 * seconds
        rounds = 0
        while rounds < 2 or time.perf_counter() < deadline:
            workload.traced_round(plain, NoTrace)
            rounds += 1
        with tracer.sampling():
            deadline = time.perf_counter() + 0.4 * seconds
            # (a workload that mostly waits on children never gets there:
            # the profiling timer counts this process's CPU time only)
            give_up = time.perf_counter() + 1.2 * seconds
            rounds = 0
            while rounds < 2 or time.perf_counter() < deadline or (
                    tracer.n_samples < MIN_SAMPLES
                    and time.perf_counter() < give_up
                    and not workload.smoke):
                workload.traced_round(traced, tracer)
                rounds += 1
        metrics: Dict[str, Optional[float]] = {
            f"{layer}.self_frac": share
            for layer, share in tracer.shares().items()}
        metrics["trace.overhead_frac"] = (
            plain.throughput() / traced.throughput() - 1.0)
        metrics["trace.samples"] = float(tracer.n_samples)
        metrics.update(workload.layer_metrics(tracer, traced, seconds))
        workload.finish(traced)
        metrics["trace.failed_probes"] = float(len(workload.warnings))
    finally:
        workload.teardown()
    tracer.write(trace_path)
    traced.absorb(plain)
    return {
        "metrics": metrics,
        "recorder": traced,
        "self_frac_by_kind": {
            label: {k: v for k, v in tracer.shares(label).items() if v}
            for label in tracer.samples},
        "span_self_s": tracer.self_times(),
        "trace_file": trace_path,
    }
