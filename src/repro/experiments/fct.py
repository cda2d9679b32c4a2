"""Flow-completion-time experiments (paper §4.3–§4.5).

Runs back-to-back trials of a fixed-size flow over the testbed and
collects the FCT distribution — the harness behind Figure 10 (143 B
single-packet flows), Figure 11 (24,387 B flows), Figure 12 (2 MB
flows), Table 2 (mechanism ablation) and Figure 13 (classification of
affected DCTCP flows under LinkGuardianNB).

Scenarios mirror the paper's four lines per plot:

* ``noloss`` — healthy link, LinkGuardian dormant;
* ``loss``   — corrupting link, no protection;
* ``lg``     — corrupting link, ordered LinkGuardian;
* ``lgnb``   — corrupting link, LinkGuardianNB (out-of-order recovery).

Trial counts are configurable; the paper runs 300K trials per line, a
Python simulator defaults to fewer while keeping enough loss events to
resolve the tail percentiles being compared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from ..analysis.classify import FlowClassification, classify_flows
from ..analysis.stats import percentile
from ..linkguardian.config import LinkGuardianConfig
from ..obs.profile import PhaseTimer
from ..runner import (
    CellResult, ExperimentSpec, RunContext, TrialHarness, lg_config,
)
from ..transport.congestion import BbrCC, CubicCC, DctcpCC
from ..transport.flow import FlowRecord
from ..transport.rdma import RdmaRequester, RdmaResponder
from ..transport.tcp import DEFAULT_MSS, TcpReceiver, TcpSender
from ..units import MS
from .testbed import build_testbed

__all__ = ["SCENARIOS", "FctResult", "run_fct_experiment", "fct_cell"]

SCENARIOS = ("noloss", "loss", "lg", "lgnb")

_CC_FACTORIES = {"dctcp": DctcpCC, "cubic": CubicCC, "bbr": BbrCC}


@dataclass
class FctResult:
    """FCTs plus the diagnostics the classification study needs."""

    transport: str
    scenario: str
    flow_size: int
    fcts_us: np.ndarray
    records: List[FlowRecord]
    tail_loss_flow_ids: Set[int]
    incomplete: int
    #: wall-clock phase breakdown (setup/run/collect), diagnostics only
    timings: Dict[str, float] = field(default_factory=dict)

    def pct(self, q: float) -> float:
        return percentile(self.fcts_us, q)

    def summary(self) -> dict:
        return {
            "transport": self.transport,
            "scenario": self.scenario,
            "size": self.flow_size,
            "trials": len(self.fcts_us),
            "p50_us": self.pct(50),
            "p99_us": self.pct(99),
            "p99.9_us": self.pct(99.9),
            "p99.99_us": self.pct(99.99),
            "incomplete": self.incomplete,
        }

    def classification(self, mss: int = DEFAULT_MSS) -> FlowClassification:
        """The Figure 13 decision tree over this run's affected flows."""
        return classify_flows(self.records, self.tail_loss_flow_ids, mss=mss)


def run_fct_experiment(
    transport: str = "dctcp",
    flow_size: int = 143,
    n_trials: int = 2_000,
    scenario: str = "lg",
    rate_gbps: float = 100,
    loss_rate: float = 1e-3,
    seed: int = 1,
    inter_trial_gap_ns: int = 20_000,
    trial_deadline_ns: int = 400 * MS,
    lg_config: Optional[LinkGuardianConfig] = None,
    loss=None,
    obs=None,
    phases: Optional[PhaseTimer] = None,
) -> FctResult:
    """Run one line of an FCT plot.

    Args:
        transport: "dctcp", "cubic", "bbr" or "rdma".
        scenario: one of :data:`SCENARIOS`.
        lg_config: override the LinkGuardian configuration (used by the
            Table 2 mechanism ablation to toggle ordering / tail
            detection individually).
        loss: explicit :class:`~repro.phy.loss.LossProcess` for the
            forward link, overriding ``loss_rate`` — the hybrid splicing
            backend injects conditioned loss placements this way.
        obs: optional :class:`~repro.obs.Observability` threaded through
            the testbed (engine, links, hosts, LG endpoints).
        phases: optional shared :class:`~repro.obs.profile.PhaseTimer`;
            setup/run/collect phases accumulate into it (and into the
            result's ``timings``).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if transport not in _CC_FACTORIES and transport != "rdma":
        raise ValueError(f"unknown transport {transport!r}")

    if phases is None:
        phases = PhaseTimer()
    setup_started = time.perf_counter()
    with_loss = scenario != "noloss"
    lg_active = scenario in ("lg", "lgnb")
    if lg_config is None:
        lg_config = LinkGuardianConfig.for_link_speed(
            rate_gbps, ordered=(scenario != "lgnb")
        )
    testbed = build_testbed(
        rate_gbps=rate_gbps,
        loss_rate=loss_rate if with_loss else 0.0,
        lg_active=lg_active,
        seed=seed,
        config=lg_config,
        loss=loss if with_loss else None,
        obs=obs,
    )
    stack_delay = 1_000 if transport == "rdma" else 6_000
    src = testbed.add_host("h4", "tx", stack_delay_ns=stack_delay)
    dst = testbed.add_host("h8", "rx", stack_delay_ns=stack_delay)

    # Observe corruption drops at the link to flag tail losses (Fig 13);
    # only the drops, so the quiet link between trials is free to coast.
    lost_seqs: Dict[int, List[int]] = {}

    def on_corrupt(packet):
        if packet.tcp is not None and not packet.tcp.is_ack:
            lost_seqs.setdefault(packet.flow_id, []).append(packet.tcp.seq)

    testbed.plink.forward_link.on_corrupt = on_corrupt

    def launch_trial(trial: int, finished) -> tuple:
        flow_id = trial + 1
        if transport == "rdma":
            sender = RdmaRequester(
                testbed.sim, src, "h8", flow_id, flow_size, on_complete=finished
            )
            RdmaResponder(testbed.sim, dst, "h4", flow_id)
        else:
            cc = _CC_FACTORIES[transport]()
            sender = TcpSender(
                testbed.sim, src, "h8", flow_id, flow_size, cc=cc,
                on_complete=finished,
            )
            TcpReceiver(testbed.sim, dst, "h4", flow_id)

        def abort() -> None:
            src.unregister_handler(flow_id)
            dst.unregister_handler(flow_id)

        return sender.start, abort

    harness = TrialHarness(
        testbed.sim, n_trials, launch_trial,
        inter_trial_gap_ns=inter_trial_gap_ns,
        trial_deadline_ns=trial_deadline_ns,
        safety_ns=n_trials * (trial_deadline_ns + inter_trial_gap_ns) + 500 * MS,
    )
    phases.add("setup", time.perf_counter() - setup_started)
    with phases.phase("run"):
        records = harness.run()
    with phases.phase("collect"):
        fcts_us = np.array([r.fct_ns / 1e3 for r in records if r.completed])
        mss = DEFAULT_MSS
        tail_ids = {
            flow_id
            for flow_id, seqs in lost_seqs.items()
            if any(seq >= max(0, flow_size - 3 * mss) for seq in seqs)
        }
    return FctResult(
        transport=transport,
        scenario=scenario,
        flow_size=flow_size,
        fcts_us=fcts_us,
        records=records,
        tail_loss_flow_ids=tail_ids,
        incomplete=harness.incomplete,
        timings=phases.timings(),
    )


def fct_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """The ``("fct", "packet")`` row of :data:`repro.runner.cells.CELLS`."""
    result = run_fct_experiment(
        transport=spec.transport,
        flow_size=spec.flow_size,
        n_trials=spec.n_trials,
        scenario=spec.scenario,
        rate_gbps=spec.rate_gbps,
        loss_rate=spec.loss_rate,
        seed=spec.seed,
        lg_config=lg_config(spec),
        obs=ctx.obs,
        phases=ctx.phases,
        **spec.params,
    )
    metrics = result.summary()
    metrics["affected"] = sum(
        1 for r in result.records if r.retransmissions or r.timeouts
    )
    return CellResult.for_spec(
        spec, metrics, {"fcts_us": result.fcts_us.tolist()})
