"""Shared plumbing: paths, statistics, digests, and the sample recorder."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
SRC = os.path.join(REPO, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MANIFEST = os.path.join(REPO, "BENCHMARK.json")


def use_repo_sources() -> None:
    """Put ``src/`` first on ``sys.path``; fail loudly when it is absent
    (a directory holding only the benchmark has nothing to measure)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench: no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def manifest() -> Dict[str, Any]:
    with open(MANIFEST) as handle:
        return json.load(handle)


# -- statistics ----------------------------------------------------------------

def fast(values: List[float]) -> float:
    """The fastest-decile wall: the ``ceil(n/10)``-th smallest value (the
    minimum up to ten samples).

    Interference on this box arrives in sub-second bursts that only ever
    *add* time: over 100 s of identical stress cells the per-10-s median
    wall spreads 7 % (range 23 %) while the fastest decile spreads 3 %.
    So every timed metric is built from fastest-decile walls; median and
    quartiles are recorded beside it in ``out/latest.json``.
    """
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 10]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def summary(values: List[float]) -> Dict[str, float]:
    """n / min / quartiles / fast of one sample list."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2,
            "q3": q3, "fast": fast(values)}


# -- digests -------------------------------------------------------------------

def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=jsonable)


def jsonable(value: Any) -> Any:
    for cast in (int, float):
        try:
            if cast(value) == value:
                return cast(value)
        except (TypeError, ValueError):
            pass
    return repr(value)


def digest(value: Any) -> str:
    """sha256 of the canonical JSON (or of the bytes as given)."""
    raw = value if isinstance(value, bytes) else canonical(value).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


# -- environment ---------------------------------------------------------------

def environment() -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    load1 = os.getloadavg()[0]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "usable_cores": len(os.sched_getaffinity(0)),
        "loadavg_1m": load1,
        # informational: a busy box makes every wall longer
        "noisy": load1 > 1.0,
    }


def own_peak_rss_mb() -> float:
    """This process's high-water RSS (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the recorder --------------------------------------------------------------

class Recorder:
    """Timed samples, op accounting and exact counts of one workload run.

    A *sample* is one timed call ``(kind, ops, wall_s)``; every sample of
    a kind repeats the same generated input, so its ``ops`` and simulated
    statistics must repeat exactly (:meth:`same` checks the latter).
    Throughput is all ops over all samples, each sample counted at its
    kind's fastest-decile wall (:func:`fast`).
    """

    def __init__(self) -> None:
        self.walls: Dict[str, List[float]] = {}
        self.ops: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: deterministic simulated statistics per kind -> ``sim_digest``
        self.sim: Dict[str, Any] = {}
        #: exact counts worth comparing across commits
        self.counts: Dict[str, Any] = {}
        self.input_digests: Dict[str, str] = {}

    def sample(self, kind: str, ops: int, wall_s: float) -> None:
        if self.ops.setdefault(kind, ops) != ops:
            self.fail(f"{kind}: ops changed between repeats "
                      f"({self.ops[kind]} -> {ops})")
        self.walls.setdefault(kind, []).append(wall_s)

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def absorb(self, other: "Recorder") -> None:
        """Take over another recorder's op accounting (not its samples)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)

    def same(self, kind: str, stats: Any) -> None:
        """Simulated statistics of ``kind`` must repeat exactly."""
        text = canonical(stats)
        first = self.sim.setdefault(kind, text)
        if first != text:
            self.fail(f"{kind}: simulated statistics moved between repeats")

    def throughput(self, prefix: str = "") -> float:
        """ops/s over the kinds whose name starts with ``prefix``: every
        sample of a kind counted at that kind's fastest-decile wall."""
        ops = wall = 0.0
        for kind, walls in self.walls.items():
            if kind.startswith(prefix):
                ops += len(walls) * self.ops[kind]
                wall += len(walls) * fast(walls)
        return ops / wall if wall else 0.0

    def sim_digest(self) -> str:
        return digest(self.sim)

    def detail(self) -> Dict[str, Any]:
        return {
            "samples": {kind: dict(summary(walls), ops=self.ops[kind])
                        for kind, walls in self.walls.items()},
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "failures": self.failures,
            "sim_digest": self.sim_digest(),
            "input_digest": self.input_digests,
            "counts": self.counts,
        }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
