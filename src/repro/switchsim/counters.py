"""Port counters, the raw material for corruptd and the evaluation harness.

The paper measures everything — actual loss rate, effective loss rate,
effective link speed — by polling port counters (Figure 7's points A-D).
We keep the same counters per simulated port/link endpoint.
"""

from __future__ import annotations

__all__ = ["PortCounters"]


class PortCounters:
    """TX/RX frame and byte counters for one port."""

    __slots__ = (
        "frames_tx", "bytes_tx", "frames_rx_ok", "frames_rx_all", "bytes_rx_ok",
    )
    #: what a snapshot captures (:mod:`repro.core.state`): every counter
    STATE = __slots__

    def __init__(self) -> None:
        self.frames_tx = 0
        self.bytes_tx = 0
        # framesRxAll counts every frame that arrived at the MAC including
        # ones dropped for FCS errors; framesRxOk only the good ones.
        # corruptd's loss estimate is 1 - framesRxOk / framesRxAll.
        self.frames_rx_ok = 0
        self.frames_rx_all = 0
        self.bytes_rx_ok = 0

    def record_tx(self, size: int) -> None:
        self.frames_tx += 1
        self.bytes_tx += size

    def record_rx(self, size: int, ok: bool) -> None:
        self.frames_rx_all += 1
        if ok:
            self.frames_rx_ok += 1
            self.bytes_rx_ok += size

    @property
    def rx_loss_rate(self) -> float:
        """Observed corruption loss rate at this port (0 when idle)."""
        if self.frames_rx_all == 0:
            return 0.0
        return 1.0 - self.frames_rx_ok / self.frames_rx_all

    def snapshot(self) -> dict:
        return {
            "frames_tx": self.frames_tx,
            "bytes_tx": self.bytes_tx,
            "frames_rx_ok": self.frames_rx_ok,
            "frames_rx_all": self.frames_rx_all,
            "bytes_rx_ok": self.bytes_rx_ok,
        }
