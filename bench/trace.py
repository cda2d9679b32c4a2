"""The traced run's instruments: driver spans and a stack sampler.

Both live entirely in the benchmark — nothing under ``src/`` is touched:

* **spans** wrap every call the driver makes into a layer's public
  function (name, start, end, parent, ``trace_id`` = the unit).  They stay
  in memory and are written at exit as Chrome trace-event JSON, which
  Perfetto (https://ui.perfetto.dev) opens directly.  A span's self time
  is its duration minus the part its children cover.
* the **sampler** is a ``setitimer(ITIMER_PROF)`` handler that walks
  ``frame.f_back`` to the innermost ``repro.*`` frame and charges the
  sample to that package — so one ``run_cell`` call splits into
  ``core.engine`` / ``switchsim`` / ``linkguardian`` / ``transport``
  without instrumenting the program.  stdlib/numpy time is charged to the
  calling layer; a stack with no ``repro`` frame counts as ``other``.
  The kernel tick coarsens the 2 ms request to ~4 ms of CPU time per
  sample on this box, hence the reported sample count.
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: layers the sampler reports (``repro.<package>``; ``core`` split by
#: module because it is the largest everywhere)
LAYERS = (
    "core.engine", "core.rng", "core.state", "packets", "phy", "switchsim",
    "linkguardian", "transport", "hosts", "units", "experiments", "runner",
    "fastpath", "fabric", "fleet", "corropt", "lifecycle", "monitor",
    "blame", "service", "obs", "analysis", "other",
)

_MARKER = os.sep + os.path.join("src", "repro") + os.sep
SAMPLE_INTERVAL_S = 0.002


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None outside ``src/repro``."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return None
    parts = filename[at + len(_MARKER):].split(os.sep)
    name = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    if name == "core" and len(parts) > 1:
        name = "core." + parts[1][:-3]
    # packages the issue does not list (checker, wharf, workloads, cli)
    return name if name in LAYERS else "other"


class Tracer:
    """Spans plus the stack sampler of one traced unit."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.origin = time.perf_counter()
        #: (name, start_s, end_s, parent index or None)
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: label of the outermost open span -> layer -> samples
        self.samples: Dict[str, Dict[str, int]] = {}
        self._label = "-"
        self._layers: Dict[str, Optional[str]] = {}

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, label: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        if parent is None:
            self._label = label or name
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if parent is None:
                self._label = "-"

    def call(self, name: str, fn: Callable, *args: Any,
             label: Optional[str] = None, **kwargs: Any) -> Any:
        with self.span(name, label):
            return fn(*args, **kwargs)

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (duration minus children)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[index]
        return out

    # -- sampler ---------------------------------------------------------------

    def _on_tick(self, signum: int, frame: Any) -> None:
        layers = self._layers
        layer = None
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = layers[filename]
            except KeyError:
                layer = layers[filename] = layer_of(filename)
            if layer is not None:
                break
            frame = frame.f_back
        bucket = self.samples.setdefault(self._label, {})
        key = layer or "other"
        bucket[key] = bucket.get(key, 0) + 1

    @contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)

    @property
    def n_samples(self) -> int:
        return sum(sum(bucket.values()) for bucket in self.samples.values())

    def shares(self, label: Optional[str] = None) -> Dict[str, float]:
        """Share of samples per layer (all labels, or one)."""
        totals = dict.fromkeys(LAYERS, 0)
        for name, bucket in self.samples.items():
            if label is None or name == label:
                for layer, count in bucket.items():
                    totals[layer] += count
        n = sum(totals.values())
        return {layer: (count / n if n else 0.0)
                for layer, count in totals.items()}

    # -- export ----------------------------------------------------------------

    def write(self, path: str) -> str:
        """Chrome trace-event JSON (complete ``X`` events, µs)."""
        events = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"trace_id": self.trace_id, "span": index,
                         "parent": parent},
            })
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                "trace_id": self.trace_id,
                "sampler": {"interval_s": SAMPLE_INTERVAL_S,
                            "samples": self.n_samples,
                            "by_label": self.samples},
            },
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle)
        return path
