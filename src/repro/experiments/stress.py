"""The §4.1 "stress test": line-rate MTU traffic over the corrupting link.

Drives Figure 8 (effective loss rate and effective link speed), Figure 14
(TX/RX packet-buffer usage), Figure 19 (retransmission-delay CDF) and
Table 4 (recirculation overhead).

The switch packet generator of the paper is modelled by injecting
MTU-sized frames into the sender switch at exactly line rate; the
protected link's delivered goodput, loss bookkeeping and buffer
occupancy are read off the LinkGuardian endpoints and port counters.

Measuring a 1e-10 *effective* loss rate head-on needs ~1e11 packets —
far beyond a Python simulator (the paper itself needed 31M loss events).
The harness therefore reports both the **measured** effective loss rate
(timeouts / delivered, exact but zero-inflated at low rates) and the
paper's **analytic expectation** ``p ** (N+1)``, which the measured rate
converges to (validated in tests at inflated loss rates where retx
losses actually occur).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..linkguardian.config import LinkGuardianConfig, expected_effective_loss
from ..packets.packet import Packet
from ..runner import CellResult, ExperimentSpec, RunContext, lg_config
from ..units import MTU_FRAME, MS, SEC, gbps, serialization_ns
from .testbed import build_testbed

__all__ = ["StressResult", "run_stress_test", "stress_cell"]


@dataclass
class StressResult:
    """Everything the §4.1/§4.6 reporting needs from one stress run."""

    rate_gbps: float
    loss_rate: float
    ordered: bool
    n_copies: int
    injected: int
    delivered: int
    duration_ns: int
    loss_events: int
    recovered: int
    timeouts: int
    effective_loss_measured: float
    effective_loss_expected: float
    effective_link_speed_fraction: float
    tx_buffer: dict
    rx_buffer: dict
    retx_delays_us: List[float]
    recirc_overhead_tx_percent: float
    recirc_overhead_rx_percent: float
    pauses: int
    notifications: int

    def row(self) -> dict:
        """Compact dict for table printing."""
        return {
            "link": f"{self.rate_gbps:g}G",
            "loss": self.loss_rate,
            "mode": "LG" if self.ordered else "LG_NB",
            "N": self.n_copies,
            "eff_loss(meas)": self.effective_loss_measured,
            "eff_loss(expect)": self.effective_loss_expected,
            "eff_speed_%": 100 * self.effective_link_speed_fraction,
            "tx_buf_max_KB": self.tx_buffer["max"] / 1e3,
            "rx_buf_max_KB": self.rx_buffer["max"] / 1e3,
        }


def run_stress_test(
    rate_gbps: float = 100,
    loss_rate: float = 1e-3,
    ordered: bool = True,
    duration_ms: float = 10.0,
    seed: int = 1,
    target_loss_rate: float = 1e-8,
    mean_burst: float = 1.0,
    config: Optional[LinkGuardianConfig] = None,
    n_copies_override: Optional[int] = None,
    recirc_drain_gbps: Optional[float] = None,
    obs=None,
) -> StressResult:
    """Run one stress-test cell (one bar of Figure 8)."""
    if config is None:
        config = LinkGuardianConfig.for_link_speed(
            rate_gbps, ordered=ordered, target_loss_rate=target_loss_rate
        )
    testbed = build_testbed(
        rate_gbps=rate_gbps, loss_rate=loss_rate, ordered=ordered,
        lg_active=False, seed=seed, config=config, mean_burst=mean_burst,
        ecn_threshold_bytes=None, recirc_drain_gbps=recirc_drain_gbps,
        obs=obs,
    )
    sim = testbed.sim
    plink = testbed.plink
    n_copies = plink.activate(loss_rate if loss_rate > 0 else 1e-4)
    if n_copies_override is not None:
        plink.sender.n_copies = n_copies_override
        n_copies = n_copies_override

    # Terminal sink directly on the receiver switch (the packet generator
    # methodology: no host stacks involved).
    delivered = {"count": 0}

    from ..switchsim.link import Link

    sink_link = Link(sim, 10, receiver=lambda p: delivered.__setitem__("count", delivered["count"] + 1))
    testbed.receiver_switch.add_port("sink", gbps(rate_gbps), sink_link)
    testbed.receiver_switch.set_route("stress-dst", "sink")
    testbed.sender_switch.set_route("stress-dst", plink.forward_port_name)

    duration_ns = int(duration_ms * MS)
    spacing = serialization_ns(MTU_FRAME, gbps(rate_gbps))
    injected = {"count": 0}

    def inject():
        if sim.now >= duration_ns:
            return
        packet = Packet(size=MTU_FRAME, dst="stress-dst", flow_id=injected["count"])
        injected["count"] += 1
        testbed.sender_switch.forward(packet)
        sim.schedule(spacing, inject)

    # Effective link speed is measured inside the steady injection window
    # (after a warmup, before the post-injection drain): deliveries during
    # [warmup, duration] versus the line-rate packet count of that window.
    warmup_ns = duration_ns // 20
    window = {}

    def snapshot(tag):
        window[tag] = plink.receiver.stats.delivered

    sim.schedule(0, inject)
    sim.schedule_at(warmup_ns, snapshot, "start")
    sim.schedule_at(duration_ns, snapshot, "end")
    # Drain time after injection stops, enough for timeouts to resolve.
    sim.run(until=duration_ns + 4 * config.ack_no_timeout_ns + 200_000)

    sender, receiver = plink.sender, plink.receiver
    sender.tx_occupancy.finish(sim.now)
    receiver.rx_occupancy.finish(sim.now)

    lost_effectively = receiver.stats.timeouts + receiver.stats.overflow_drops
    effective_loss = (
        lost_effectively / sender.stats.protected if sender.stats.protected else 0.0
    )
    # Effective link speed: deliveries inside the measurement window over
    # the number of line-rate slots in it — pauses (ordered mode) and
    # unrecovered losses both reduce it, exactly what Figure 8 plots.
    delivered_count = receiver.stats.delivered
    window_slots = (duration_ns - warmup_ns) // spacing
    window_delivered = window.get("end", 0) - window.get("start", 0)
    effective_speed = window_delivered / window_slots if window_slots else 0.0

    # Recirculation overhead: recirculation passes per second relative to
    # the switch pipeline packet capacity.  We follow the paper's framing
    # (percent of pipeline processing capacity) with a 1.25 Gpps pipe.
    pipe_capacity_pps = 1.25e9
    seconds = sim.now / SEC
    recirc_tx = sender.stats.recirc_passes / seconds / pipe_capacity_pps * 100
    recirc_rx = receiver.stats.recirc_passes / seconds / pipe_capacity_pps * 100

    return StressResult(
        rate_gbps=rate_gbps,
        loss_rate=loss_rate,
        ordered=ordered,
        n_copies=n_copies,
        injected=injected["count"],
        delivered=delivered_count,
        duration_ns=duration_ns,
        loss_events=receiver.stats.loss_events,
        recovered=receiver.stats.recovered,
        timeouts=receiver.stats.timeouts,
        effective_loss_measured=effective_loss,
        effective_loss_expected=expected_effective_loss(loss_rate, n_copies),
        effective_link_speed_fraction=effective_speed,
        tx_buffer=sender.tx_occupancy.summary(),
        rx_buffer=receiver.rx_occupancy.summary(),
        retx_delays_us=[d / 1e3 for d in receiver.stats.retx_delays_ns],
        recirc_overhead_tx_percent=recirc_tx,
        recirc_overhead_rx_percent=recirc_rx,
        pauses=receiver.stats.pauses_sent,
        notifications=receiver.stats.notifications,
    )


def stress_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """The ``("stress", "packet")`` row of :data:`repro.runner.cells.CELLS`."""
    result = run_stress_test(
        rate_gbps=spec.rate_gbps,
        loss_rate=spec.loss_rate,
        ordered=spec.scenario != "lgnb",
        seed=spec.seed,
        config=lg_config(spec),
        obs=ctx.obs,
        **spec.params,
    )
    metrics = dict(result.row())
    metrics.update(
        injected=result.injected,
        delivered=result.delivered,
        loss_events=result.loss_events,
        recovered=result.recovered,
        timeouts=result.timeouts,
        recirc_tx_pct=result.recirc_overhead_tx_percent,
        recirc_rx_pct=result.recirc_overhead_rx_percent,
        pauses=result.pauses,
    )
    return CellResult.for_spec(
        spec, metrics, {"retx_delays_us": result.retx_delays_us})
