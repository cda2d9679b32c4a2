"""Flow bookkeeping shared by all transports.

A :class:`FlowRecord` captures what the paper's FCT experiments measure:
when a message/flow started, when its last byte was acknowledged, and
what the transport had to do to get it there (retransmissions, timeouts,
cwnd reductions).  The classification experiment (Figure 13) reads the
extra DCTCP-specific fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["FlowRecord"]


@dataclass
class FlowRecord:
    """Lifecycle and diagnostic record of one flow."""

    flow_id: int
    size_bytes: int
    start_ns: Optional[int] = None
    end_ns: Optional[int] = None
    # -- transport diagnostics -------------------------------------------------
    packets_sent: int = 0
    retransmissions: int = 0           # end-to-end (transport) retransmissions
    timeouts: int = 0                  # RTO expirations
    cwnd_reductions: int = 0
    # -- Figure 13 classification inputs (DCTCP + LG_NB study) ------------------
    sacked_bytes_total: int = 0        # SACK'ed bytes received over the flow
    max_sack_burst: int = 0            # max SACK'ed bytes while a hole was open
    pending_bytes_at_reduction: int = 0
    tail_loss_recovered: bool = False  # loss within the last 3 packets
    saw_sack: bool = False

    @property
    def completed(self) -> bool:
        return self.end_ns is not None

    @property
    def fct_ns(self) -> int:
        if self.start_ns is None or self.end_ns is None:
            raise ValueError(f"flow {self.flow_id} has not completed")
        return self.end_ns - self.start_ns
