"""Reordering tolerance in modern transports (paper §5, last item).

The paper flags two then-new features as future work for
LinkGuardianNB: RFC 8985's reordering-window adaptation for TCP (our
TCP model implements RACK with an adaptive window) and RoCE's
"selective repeat" NIC feature, which replaces go-back-N.

This experiment quantifies the RoCE side: the FCT of multi-packet RDMA
WRITEs over a corrupting link protected by LinkGuardianNB, with the
responder in go-back-N versus selective-repeat mode.  With go-back-N,
every out-of-order recovery still triggers a go-back (Figure 11c's
result); with selective repeat the out-of-order retransmission is
simply absorbed — LinkGuardianNB becomes as good as ordered
LinkGuardian for RDMA, at a fraction of the switch cost.
"""

from __future__ import annotations

import numpy as np

from ..runner import CellResult, ExperimentSpec, RunContext, TrialHarness
from ..transport.rdma import RdmaRequester, RdmaResponder
from ..units import MS
from .testbed import build_testbed

__all__ = ["RDMA_CASES", "run_rdma_case", "rdma_reorder_cell"]

#: case label -> (ordered LinkGuardian, selective-repeat responder)
RDMA_CASES = {
    "lgnb+gbn": (False, False),
    "lgnb+sr": (False, True),
    "lg+gbn": (True, False),
}


def run_rdma_case(
    case: str = "lgnb+sr",
    flow_size: int = 24_387,
    n_trials: int = 400,
    loss_rate: float = 5e-3,
    rate_gbps: float = 100,
    seed: int = 1,
) -> dict:
    """FCT percentiles for one responder/ordering combination."""
    if case not in RDMA_CASES:
        raise ValueError(f"unknown RDMA case {case!r}; known: {sorted(RDMA_CASES)}")
    ordered, selective_repeat = RDMA_CASES[case]
    testbed = build_testbed(
        rate_gbps=rate_gbps, loss_rate=loss_rate, ordered=ordered,
        lg_active=True, seed=seed,
    )
    src = testbed.add_host("h4", "tx", stack_delay_ns=1_000)
    dst = testbed.add_host("h8", "rx", stack_delay_ns=1_000)
    naks = {"count": 0}

    def launch_trial(trial, finished):
        flow_id = trial + 1
        requester = RdmaRequester(testbed.sim, src, "h8", flow_id,
                                  flow_size, on_complete=finished,
                                  selective_repeat=selective_repeat)
        responder = RdmaResponder(testbed.sim, dst, "h4", flow_id,
                                  selective_repeat=selective_repeat)

        original = requester._complete

        def complete_and_track():
            naks["count"] += responder.naks_sent
            original()

        requester._complete = complete_and_track
        return requester.start, None

    harness = TrialHarness(testbed.sim, n_trials, launch_trial,
                           inter_trial_gap_ns=20_000,
                           safety_ns=n_trials * 20 * MS)
    records = harness.run()
    fcts = np.array([r.fct_ns / 1e3 for r in records if r.completed])
    return {
        "case": case,
        "trials": len(records),
        "p50_us": float(np.percentile(fcts, 50)),
        "p99_us": float(np.percentile(fcts, 99)),
        "p99.9_us": float(np.percentile(fcts, 99.9)),
        "naks": naks["count"],
        "timeouts": sum(r.timeouts for r in records),
        "e2e_retx": sum(r.retransmissions for r in records),
    }


def rdma_reorder_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """The ``("rdma_reorder", "packet")`` row of :data:`repro.runner.cells.CELLS`."""
    row = run_rdma_case(
        case=spec.params.get("case", "lgnb+sr"),
        flow_size=spec.flow_size,
        n_trials=spec.n_trials,
        loss_rate=spec.loss_rate,
        rate_gbps=spec.rate_gbps,
        seed=spec.seed,
    )
    return CellResult.for_spec(spec, row)
