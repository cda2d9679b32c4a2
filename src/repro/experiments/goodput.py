"""TCP CUBIC goodput under four protection schemes (paper Table 3, §4.7).

Reproduces the Wharf comparison on a 10G link: a long CUBIC transfer
runs over a corrupting link protected by

* **none**  — raw corrupting link;
* **wharf** — link-local FEC, modelled as a link whose capacity is
  scaled by the code rate and whose loss is the post-FEC residual (the
  paper also reproduced Wharf numerically, lacking the FPGA hardware);
* **lg** / **lgnb** — LinkGuardian in ordered / non-blocking mode.

Goodput is acked application bytes over transfer time.
"""

from __future__ import annotations

from typing import Dict

from ..runner import (
    CellResult, ExperimentSpec, RunContext, run_until_complete,
)
from ..transport.congestion import CubicCC
from ..transport.tcp import TcpReceiver, TcpSender
from ..units import MS, SEC
from ..wharf.model import best_parameters
from .testbed import build_testbed

__all__ = ["GOODPUT_SCHEMES", "run_goodput", "goodput_cell"]

GOODPUT_SCHEMES = ("none", "wharf", "lg", "lgnb")


def run_goodput(
    scheme: str = "lg",
    loss_rate: float = 1e-3,
    rate_gbps: float = 10,
    transfer_bytes: int = 2_500_000,
    seed: int = 3,
    deadline_ms: float = 2_000.0,
    mean_burst: float = 1.0,
) -> Dict[str, float]:
    """One Table 3 cell: returns goodput plus diagnostics."""
    if scheme not in GOODPUT_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    effective_rate = rate_gbps
    effective_loss = loss_rate
    lg_active = scheme in ("lg", "lgnb")
    if scheme == "wharf":
        if loss_rate <= 0:
            raise ValueError("Wharf is n/a on a lossless link (Table 3)")
        fec = best_parameters(loss_rate)
        effective_rate = rate_gbps * fec.code_rate
        effective_loss = fec.residual_loss(loss_rate)

    testbed = build_testbed(
        rate_gbps=effective_rate,
        loss_rate=effective_loss,
        ordered=(scheme != "lgnb"),
        lg_active=lg_active,
        seed=seed,
        mean_burst=mean_burst,
    )
    src = testbed.add_host("h4", "tx", rate_bps=int(testbed.plink.rate_bps * 2))
    dst = testbed.add_host("h8", "rx")
    done = []
    sender = TcpSender(
        testbed.sim, src, "h8", 1, transfer_bytes, cc=CubicCC(),
        on_complete=done.append,
    )
    TcpReceiver(testbed.sim, dst, "h4", 1)
    testbed.sim.schedule(0, sender.start)
    run_until_complete(testbed.sim, lambda: bool(done), int(deadline_ms * MS))

    acked = sender.snd_una
    elapsed = max(1, testbed.sim.now - (sender.flow.start_ns or 0))
    goodput_gbps = acked * 8 * SEC / elapsed / 1e9
    return {
        "scheme": scheme,
        "loss_rate": loss_rate,
        "goodput_gbps": goodput_gbps,
        "completed": bool(done),
        "retransmissions": sender.flow.retransmissions,
        "timeouts": sender.flow.timeouts,
    }


def goodput_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """The ``("goodput", "packet")`` row of :data:`repro.runner.cells.CELLS`
    (``spec.scenario`` is the Table 3 scheme)."""
    row = run_goodput(
        scheme=spec.scenario,
        loss_rate=spec.loss_rate,
        rate_gbps=spec.rate_gbps,
        seed=spec.seed,
        **spec.params,
    )
    return CellResult.for_spec(spec, row)
