"""Per-layer probes: small measurements of one ``repro.*`` package taken
from outside, through its public functions.

A probe whose target cannot be imported or called yields ``None`` plus a
warning and never fails the run — only the end-to-end paths are hard
failures, so a later refactor of an internal name cannot break the
benchmark.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.common import fast


def attempt(warnings: List[str], name: str, fn: Callable[[], Any]) -> Any:
    """Run one probe; any failure becomes ``None`` and a warning."""
    try:
        return fn()
    except Exception as exc:  # boundary: a probe must never fail the run
        warnings.append(f"{name}: {type(exc).__name__}: {exc}")
        return None


def attempt_all(warnings: List[str],
                probes: Dict[str, Callable[[], Optional[float]]]
                ) -> Dict[str, Optional[float]]:
    return {name: attempt(warnings, name, fn) for name, fn in probes.items()}


def best_wall(fn: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """Fastest wall of ``repeats`` calls, and the last result."""
    walls, result = [], None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - started)
    return fast(walls), result


def per_second(n: int, fn: Callable[[], Any], repeats: int = 3) -> float:
    return n / best_wall(fn, repeats)[0]


# -- core: the two raw-kernel loops of benchmarks/test_engine_throughput.py ----

_SPACING_NS = 123
_TIMER_HORIZON_NS = 1_000_000


def _streaming(sim: Any, n_events: int) -> None:
    """Every event schedules its successor a fixed spacing ahead — the
    shape of line-rate serialization chains."""
    left = [n_events]

    def fire() -> None:
        left[0] -= 1
        if left[0] > 0:
            sim.schedule(_SPACING_NS, fire)

    sim.schedule(0, fire)
    sim.run()


def _timer_heavy(sim: Any, n_events: int) -> None:
    """Each tick also arms a far-future timer and cancels the previous
    one — the shape of per-packet retransmission timers."""
    left, timer = [n_events], [None]

    def timeout() -> None:
        raise AssertionError("cancelled timer fired")

    def fire() -> None:
        left[0] -= 1
        if timer[0] is not None:
            timer[0].cancel()
        timer[0] = sim.schedule(_TIMER_HORIZON_NS, timeout)
        if left[0] > 0:
            sim.schedule(_SPACING_NS, fire)
        else:
            timer[0].cancel()

    sim.schedule(0, fire)
    sim.run()


def kernel_events_per_s(queue: str, timers: bool, n_events: int) -> float:
    from repro.core.engine import Simulator

    loop = _timer_heavy if timers else _streaming
    return per_second(n_events, lambda: loop(Simulator(queue=queue), n_events))


def kernel_probes(n_events: int) -> Dict[str, Callable[[], float]]:
    return {
        f"core.{queue}.{shape}_events_per_s":
            (lambda q=queue, t=timers: kernel_events_per_s(q, t, n_events))
        for queue in ("heap", "calendar")
        for shape, timers in (("stream", False), ("timer", True))
    }


# -- exact counts from the public observability registry -----------------------

def engine_counts(snapshot: Dict[str, Any]) -> Dict[str, float]:
    engine = snapshot["engine"]
    return {"events": engine["events_processed"],
            "cancelled": engine["events_cancelled"]}


def lg_counts(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """LinkGuardian sender/receiver counters summed over endpoints."""
    out = {"retx_copies": 0, "dummies_sent": 0, "recirc_passes": 0}
    for key, stats in snapshot.items():
        # histograms share the prefix; they carry a "type", counters do not
        if (key.startswith(("lg.sender.", "lg.receiver."))
                and isinstance(stats, dict) and "type" not in stats):
            for name in out:
                out[name] += stats.get(name, 0)
    return out
