"""Dispatch order, end to end: a whole packet-tier cell dispatches a
strictly ascending ``(time, caused_at, seq)`` sequence of exactly the
pinned number of events, and its result equals the one the commit
*before* the kernel's fast path produced (digests computed there once
and pinned here) — the fast path changed how fast events are
dispatched, not which or in what order.
The three fct digests were re-pinned once since, when the fct cell
gained Fig. 13's classification counts and ``rto_flows``: their text
minus those seven metrics is the earlier text byte for byte."""

import dataclasses
import hashlib
import json

import pytest

import repro.experiments.testbed as testbed_module
from repro.core.engine import Simulator
from repro.experiments.stress import run_stress_test
from repro.runner import ExperimentSpec, run_cell

FCT_LG = ExperimentSpec(kind="fct", transport="dctcp", scenario="lg",
                        loss_rate=1e-2, flow_size=24_387, n_trials=12, seed=5)
#: a quiet-link cell: one-packet flows, so most of the run is the idle
#: dummy/explicit-ACK loops — which coast (DESIGN §5a) to the same bytes
FCT_LG_SMALL = ExperimentSpec(kind="fct", transport="dctcp", scenario="lg",
                              loss_rate=5e-3, flow_size=143, n_trials=120,
                              seed=8)
FCT_RDMA = ExperimentSpec(kind="fct", transport="rdma", scenario="loss",
                          loss_rate=2e-2, flow_size=24_387, n_trials=20,
                          seed=6)


def _stress():
    result = run_stress_test(loss_rate=1e-2, duration_ms=0.3, seed=4,
                             mean_burst=3.0)
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


#: name -> (zero-arg run returning the canonical text, sha256 of that
#: text at the parent commit)
CASES = {
    "fct-dctcp-lg": (
        lambda: run_cell(FCT_LG).canonical_json(),
        "22373dbc966e5f7a281b10cf27d7cf689b20fa406b72d8d89408cf1a3ea59d99"),
    "fct-dctcp-lg-small": (
        lambda: run_cell(FCT_LG_SMALL).canonical_json(),
        "445d4f7011f3747f3b5edcbacbcf66405db23f53adfab27657a7f68c4f4d2f83"),
    "fct-rdma-loss": (
        lambda: run_cell(FCT_RDMA).canonical_json(),
        "61f21bc0531e6ce5cd211c5355adf3b8f101f7e8f5375a4759ad304657384c60"),
    "stress-bursty": (
        _stress,
        "21fff71cb742b26a7ee6b2a1ad53c8ef894defeda45e7482791785cc9c5672f9"),
}

#: name -> events the trace holds: each case dispatches exactly this
#: many (with each hop and pipeline pass two events and each timer
#: re-arm a cancel plus a push, the parent commit dispatched the count
#: in the comment)
DISPATCHED = {
    "fct-dctcp-lg": 4_544,          # 6_217
    "fct-dctcp-lg-small": 6_142,    # 8_003
    "fct-rdma-loss": 5_935,         # 8_146
    "stress-bursty": 10_698,        # 13_526
}


def _run_traced(monkeypatch, run):
    """Run with every testbed simulator recording the key of each entry
    ``pop_due`` hands the loop."""
    trace = []

    class Traced(Simulator):
        def __init__(self, obs=None):
            super().__init__(obs=obs)
            pop_due = self.queue.pop_due

            def recording(until):
                entry = pop_due(until)
                if entry is not None:
                    trace.append(entry[:3])
                return entry

            self.queue.pop_due = recording

    monkeypatch.setattr(testbed_module, "Simulator", Traced)
    return run(), trace


@pytest.mark.parametrize("name", sorted(CASES))
def test_dispatch_trace_and_pinned_result(monkeypatch, name):
    run, pinned = CASES[name]
    text, trace = _run_traced(monkeypatch, run)
    assert len(trace) == DISPATCHED[name]
    # (time, caused_at, seq) strictly ascending: the order is the kernel
    # contract's
    assert all(a < b for a, b in zip(trace, trace[1:]))
    assert hashlib.sha256(text.encode()).hexdigest() == pinned
