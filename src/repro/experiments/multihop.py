"""Multiple corrupting links on a path (paper §5).

The paper argues LinkGuardian "naturally handles" paths crossing several
corrupting links since each link runs its own independent instance —
and that the unprotected baseline gets *worse* with every additional
corrupting hop (more flows hit, more flows hit twice).  They could not
evaluate this for lack of optical hardware; the simulator can.

:func:`build_chain` assembles an N-switch chain where any subset of the
hops corrupts, each hop independently protected, and
:func:`run_multihop_fct` measures the FCT distribution across it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.engine import Simulator
from ..core.rng import RngFactory
from ..hosts.host import Host
from ..linkguardian.config import LinkGuardianConfig
from ..linkguardian.protocol import ProtectedLink
from ..phy.loss import BernoulliLoss
from ..runner import CellResult, ExperimentSpec, RunContext, TrialHarness
from ..switchsim.switch import Switch
from ..transport.congestion import DctcpCC
from ..transport.rdma import RdmaRequester, RdmaResponder
from ..transport.tcp import TcpReceiver, TcpSender
from ..units import MS, gbps

__all__ = ["Chain", "build_chain", "run_multihop_fct", "multihop_cell"]


@dataclass
class Chain:
    sim: Simulator
    switches: List[Switch]
    links: List[ProtectedLink]
    src_host: Host
    dst_host: Host

    def activate_all(self, loss_rate: float) -> None:
        for plink in self.links:
            if plink.forward_link.loss.rate > 0:
                plink.activate(plink.forward_link.loss.rate)
            else:
                plink.activate(loss_rate)

    def total_effective_losses(self) -> int:
        return sum(p.effective_loss_events() for p in self.links)


def build_chain(
    n_switches: int = 3,
    corrupting_hops: Sequence[int] = (0, 1),
    loss_rate: float = 1e-3,
    rate_gbps: float = 100,
    ordered: bool = True,
    lg_active: bool = True,
    seed: int = 1,
) -> Chain:
    """A linear chain h_src - sw0 - sw1 - ... - h_dst.

    Hop ``i`` is the link between switch i and switch i+1;
    ``corrupting_hops`` lists which of them corrupt at ``loss_rate``.
    """
    if n_switches < 2:
        raise ValueError("a chain needs at least two switches")
    sim = Simulator()
    rng = RngFactory(seed)
    switches = [Switch(sim, f"sw{i}") for i in range(n_switches)]
    links: List[ProtectedLink] = []
    for hop in range(n_switches - 1):
        loss = (
            BernoulliLoss(loss_rate, rng.stream(f"hop{hop}"))
            if hop in corrupting_hops else None
        )
        config = LinkGuardianConfig.for_link_speed(rate_gbps, ordered=ordered)
        plink = ProtectedLink(
            sim, switches[hop], switches[hop + 1],
            rate_bps=gbps(rate_gbps), config=config, loss=loss,
            phase_rng=rng.stream(f"phase{hop}"),
        )
        links.append(plink)

    src = Host(sim, "hsrc", rate_bps=gbps(rate_gbps), stack_delay_ns=6_000)
    dst = Host(sim, "hdst", rate_bps=gbps(rate_gbps), stack_delay_ns=6_000)
    src.attach(switches[0])
    dst.attach(switches[-1])

    # Routes: forward along the chain, reverse back along it.
    for hop, plink in enumerate(links):
        switches[hop].set_route("hdst", plink.forward_port_name)
        switches[hop + 1].set_route("hsrc", plink.reverse_port_name)

    chain = Chain(sim, switches, links, src, dst)
    if lg_active:
        chain.activate_all(loss_rate)
    return chain


def run_multihop_fct(
    n_corrupting: int = 2,
    n_switches: int = 4,
    transport: str = "dctcp",
    flow_size: int = 24_387,
    n_trials: int = 400,
    loss_rate: float = 5e-3,
    lg_active: bool = True,
    ordered: bool = True,
    seed: int = 1,
) -> Dict[str, float]:
    """FCT percentiles for flows crossing ``n_corrupting`` corrupting hops."""
    chain = build_chain(
        n_switches=n_switches,
        corrupting_hops=tuple(range(n_corrupting)),
        loss_rate=loss_rate,
        lg_active=lg_active,
        ordered=ordered,
        seed=seed,
    )
    sim = chain.sim

    def launch_trial(trial: int, finished) -> tuple:
        flow_id = trial + 1
        if transport == "rdma":
            sender = RdmaRequester(sim, chain.src_host, "hdst", flow_id,
                                   flow_size, on_complete=finished)
            RdmaResponder(sim, chain.dst_host, "hsrc", flow_id)
        else:
            sender = TcpSender(sim, chain.src_host, "hdst", flow_id, flow_size,
                               cc=DctcpCC(), on_complete=finished)
            TcpReceiver(sim, chain.dst_host, "hsrc", flow_id)
        return sender.start, None

    harness = TrialHarness(sim, n_trials, launch_trial,
                           inter_trial_gap_ns=20_000,
                           safety_ns=n_trials * 50 * MS)
    records = harness.run()
    fcts = np.array([r.fct_ns / 1e3 for r in records if r.completed])
    affected = sum(1 for r in records if r.retransmissions or r.timeouts)
    return {
        "n_corrupting": n_corrupting,
        "trials": len(records),
        "p50_us": float(np.percentile(fcts, 50)) if len(fcts) else float("nan"),
        "p99_us": float(np.percentile(fcts, 99)) if len(fcts) else float("nan"),
        "p99.9_us": float(np.percentile(fcts, 99.9)) if len(fcts) else float("nan"),
        "affected_fraction": affected / max(1, len(records)),
        "lg_effective_losses": chain.total_effective_losses(),
    }


def multihop_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """The ``("multihop", "packet")`` row of :data:`repro.runner.cells.CELLS`."""
    row = run_multihop_fct(
        transport=spec.transport,
        flow_size=spec.flow_size,
        n_trials=spec.n_trials,
        loss_rate=spec.loss_rate,
        lg_active=spec.scenario != "loss",
        ordered=spec.scenario != "lgnb",
        seed=spec.seed,
        **spec.params,
    )
    return CellResult.for_spec(spec, row)
