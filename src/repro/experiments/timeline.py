"""Throughput/buffer timelines (paper Figures 9 and 21).

One long-running flow crosses the protected link while the experiment
moves through three phases, as in §4.2:

1. healthy link;
2. corruption starts (LinkGuardian still dormant) — throughput collapses
   for loss-sensitive transports;
3. LinkGuardian is activated — losses are masked and throughput returns
   to the (slightly lower) effective link speed.

Sampled every ``sample_interval_ns``: the delivered throughput at the
receiving host (the sustainable "sendrate" the paper plots — the
sending NIC's instantaneous rate is bursty above the link rate), the
switch egress queue depth ("qdepth"), the LinkGuardian reordering-buffer
occupancy ("Rx buffer") and the cumulative end-to-end retransmission
count.  Disabling backpressure reproduces Figure 9b's overflow
behaviour.

The paper runs 14 s at 25G; at simulator scale the phases default to a
few tens of milliseconds, which spans hundreds of loss events at 1e-3 —
enough to show every phenomenon in the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.rng import RngFactory
from ..linkguardian.config import LinkGuardianConfig
from ..phy.loss import BernoulliLoss
from ..runner import CellResult, ExperimentSpec, RunContext, lg_config
from ..transport.congestion import BbrCC, CubicCC, DctcpCC
from ..transport.tcp import TcpReceiver, TcpSender
from ..units import MS, SEC
from .testbed import build_testbed

__all__ = ["TimelineResult", "run_timeline", "timeline_cell"]

_CC_FACTORIES = {"dctcp": DctcpCC, "cubic": CubicCC, "bbr": BbrCC}


@dataclass
class TimelineResult:
    transport: str
    rate_gbps: float
    loss_rate: float
    times_ms: np.ndarray
    send_rate_gbps: np.ndarray
    qdepth_kb: np.ndarray
    rx_buffer_kb: np.ndarray
    e2e_retx: np.ndarray              # cumulative transport retransmissions
    corruption_start_ms: float
    lg_start_ms: float
    overflow_drops: int
    completed_bytes: int

    def phase_mean_rate(self, start_ms: float, end_ms: float) -> float:
        mask = (self.times_ms >= start_ms) & (self.times_ms < end_ms)
        if not mask.any():
            return 0.0
        return float(self.send_rate_gbps[mask].mean())


def run_timeline(
    transport: str = "dctcp",
    rate_gbps: float = 25,
    loss_rate: float = 1e-3,
    clean_ms: float = 10.0,
    loss_ms: float = 25.0,
    lg_ms: float = 25.0,
    sample_interval_ns: int = 250_000,
    backpressure: bool = True,
    ordered: bool = True,
    seed: int = 2,
    rx_buffer_capacity: Optional[int] = None,
    queue_capacity: int = 2_000_000,
    obs=None,
    config: Optional[LinkGuardianConfig] = None,
) -> TimelineResult:
    """Run one Figure 9/21-style timeline."""
    if config is None:
        config = LinkGuardianConfig.for_link_speed(
            rate_gbps, ordered=ordered, backpressure=backpressure,
            **({"rx_buffer_capacity_bytes": rx_buffer_capacity} if rx_buffer_capacity else {}),
        )
    testbed = build_testbed(
        rate_gbps=rate_gbps, loss_rate=0.0, lg_active=False, seed=seed,
        config=config, normal_queue_capacity=queue_capacity, obs=obs,
    )
    sim = testbed.sim
    # The sender NIC runs at the link rate, as in the paper's testbed:
    # the egress queue at sw2 only builds when the protected link's
    # *effective* speed drops below the NIC rate (corruption retx +
    # pauses), which is exactly the qdepth/ECN behaviour Figure 9 shows.
    src = testbed.add_host("h4", "tx", rate_bps=testbed.plink.rate_bps)
    dst = testbed.add_host("h8", "rx")

    total_ms = clean_ms + loss_ms + lg_ms
    # A flow large enough to outlast the run at line rate.
    flow_size = int(rate_gbps * 1e9 / 8 * (total_ms / 1e3) * 1.5)
    cc = _CC_FACTORIES[transport]()
    # Socket buffer ~2.5x the base BDP: enough to fill the pipe, small
    # enough that cwnd cuts are visible as throughput (not just queue)
    # changes — the kernel-default ballpark for these RTTs.
    bdp = int(rate_gbps * 1e9 / 8 * 30e-6)
    sender = TcpSender(sim, src, "h8", 1, flow_size, cc=cc,
                       rwnd_bytes=int(2.5 * bdp))
    TcpReceiver(sim, dst, "h4", 1)
    sim.schedule(0, sender.start)

    rng = RngFactory(seed)
    corruption_at = int(clean_ms * MS)
    lg_at = int((clean_ms + loss_ms) * MS)

    tracer = obs.tracer if obs is not None else None

    def start_corruption():
        testbed.plink.set_loss(BernoulliLoss(loss_rate, rng.stream("timeline-loss")))
        if tracer is not None and tracer.enabled:
            tracer.instant(sim.now, "experiment", "corruption_start",
                           {"loss_rate": loss_rate})

    def start_lg():
        n_copies = testbed.plink.activate(loss_rate)
        if tracer is not None and tracer.enabled:
            tracer.instant(sim.now, "experiment", "lg_activate",
                           {"n_copies": n_copies})

    sim.schedule_at(corruption_at, start_corruption)
    sim.schedule_at(lg_at, start_lg)

    times: List[float] = []
    rates: List[float] = []
    qdepths: List[float] = []
    rx_buffers: List[float] = []
    retx: List[int] = []
    last = {"bytes": 0}
    normal_queue = testbed.plink.sender_port.egress.queues[1]

    def sample():
        now = sim.now
        rx_bytes = dst.received_bytes
        delta = rx_bytes - last["bytes"]
        last["bytes"] = rx_bytes
        times.append(now / MS)
        rates.append(delta * 8 / (sample_interval_ns / SEC) / 1e9)
        qdepths.append(normal_queue.depth_bytes / 1e3)
        rx_buffers.append(testbed.plink.receiver.buffer_bytes / 1e3)
        retx.append(sender.flow.retransmissions)
        if now < total_ms * MS:
            sim.schedule(sample_interval_ns, sample)

    sim.schedule(sample_interval_ns, sample)
    sim.run(until=int(total_ms * MS))

    return TimelineResult(
        transport=transport,
        rate_gbps=rate_gbps,
        loss_rate=loss_rate,
        times_ms=np.asarray(times),
        send_rate_gbps=np.asarray(rates),
        qdepth_kb=np.asarray(qdepths),
        rx_buffer_kb=np.asarray(rx_buffers),
        e2e_retx=np.asarray(retx),
        corruption_start_ms=clean_ms,
        lg_start_ms=clean_ms + loss_ms,
        overflow_drops=testbed.plink.receiver.stats.overflow_drops,
        completed_bytes=sender.snd_una,
    )


def timeline_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """The ``("timeline", "packet")`` row of :data:`repro.runner.cells.CELLS`.

    ``spec.lg``, when given, is the link's whole configuration (Figure
    9's scaled resume threshold, 9b's backpressure-off buffer); without
    it ``run_timeline`` builds its default from ``spec.params``.
    """
    result = run_timeline(
        transport=spec.transport,
        rate_gbps=spec.rate_gbps,
        loss_rate=spec.loss_rate,
        seed=spec.seed,
        obs=ctx.obs,
        config=lg_config(spec) if spec.lg else None,
        **spec.params,
    )
    metrics = {
        "clean_gbps": result.phase_mean_rate(2, result.corruption_start_ms),
        "loss_gbps": result.phase_mean_rate(
            result.corruption_start_ms + 2, result.lg_start_ms),
        "lg_gbps": result.phase_mean_rate(
            result.lg_start_ms + 4, float(result.times_ms[-1])),
        "overflow_drops": result.overflow_drops,
        "completed_bytes": result.completed_bytes,
    }
    series = {
        "times_ms": result.times_ms.tolist(),
        "send_rate_gbps": result.send_rate_gbps.tolist(),
        "qdepth_kb": result.qdepth_kb.tolist(),
        "rx_buffer_kb": result.rx_buffer_kb.tolist(),
        "e2e_retx": result.e2e_retx.tolist(),
    }
    return CellResult.for_spec(spec, metrics, series)
