"""LinkGuardian configuration and the retransmit-copies rule (paper §3.4).

The one analytical knob in LinkGuardian is how many copies ``N`` to
retransmit per lost packet so that the *effective* loss rate — the
probability the original and all N copies are lost — meets the
operator's target:

    (actual_loss_rate) ** (N + 1) <= target_loss_rate        (Eq. 1)
    N >= log(target) / log(actual) - 1                       (Eq. 2)

with ``ceil`` applied since N is an integer.  This module is the only
implementation of both equations: the packet tier, the vectorized
fastpath models and the planner's cost model (``fleet.cost``) all call
:func:`retx_copies` / :func:`expected_effective_loss`, scalar or array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..units import KB, MTU_FRAME, US

__all__ = ["retx_copies", "expected_effective_loss", "LinkGuardianConfig"]


def retx_copies(actual_loss_rate, target_loss_rate=1e-8):
    """Number of retransmitted copies N per Equation 2 (at least 1).

    Mirrors the testbed configuration: loss 1e-5 -> N=1, 1e-4 -> N=1,
    1e-3 -> N=2 for the default 1e-8 target.  Scalars give an ``int``;
    arrays broadcast and give a float array (N feeds ``p ** (N + 1)``).
    """
    p = np.asarray(actual_loss_rate, dtype=np.float64)
    target = np.asarray(target_loss_rate, dtype=np.float64)
    if np.any((target <= 0.0) | (target >= 1.0)):
        raise ValueError("target loss rate must be in (0,1)")
    if np.any(p >= 1.0):
        raise ValueError("actual loss rate must be < 1")
    needed = np.log(target) / np.log(np.maximum(p, 1e-300)) - 1.0
    n = np.where(p <= target, 1.0, np.maximum(np.ceil(needed - 1e-12), 1.0))
    return int(n) if n.ndim == 0 else n


def expected_effective_loss(actual_loss_rate, n_copies):
    """Theoretical effective loss rate ``p ** (N+1)`` under i.i.d. loss
    (Equation 1), scalar or array."""
    return actual_loss_rate ** (n_copies + 1)


@dataclass
class LinkGuardianConfig:
    """Tunables for one protected link.

    Defaults follow the paper's 100G testbed parameters (§4, Appendix B.1);
    :meth:`for_link_speed` switches to the 25G values.
    """

    #: operator-specified target effective loss rate (paper uses 1e-8)
    target_loss_rate: float = 1e-8
    #: preserve packet ordering (LinkGuardian) or not (LinkGuardianNB)
    ordered: bool = True
    #: enable the receiver->sender pause/resume backpressure (Figure 9b
    #: shows what happens when this is off)
    backpressure: bool = True
    #: enable the self-replenishing dummy-packet queue (tail-loss detection)
    tail_loss_detection: bool = True
    #: receiver gives up on a lost packet after this long (ns)
    ack_no_timeout_ns: int = 7 * US
    #: timer-packet period — timeout bookkeeping granularity (10 Mpps, §3.5)
    timer_period_ns: int = 100
    #: resume when the reordering buffer falls to this level (Appendix B.1)
    resume_threshold_bytes: int = 37 * KB
    #: pause threshold = resume + 2 MTU of hysteresis (DCQCN-style, §3.3)
    pause_threshold_bytes: Optional[int] = None
    #: recirculation-buffer restriction from the testbed setup (§4)
    rx_buffer_capacity_bytes: int = 200 * KB
    tx_buffer_capacity_bytes: int = 200 * KB
    #: one full recirculation loop of the Tx buffer (dominates ReTx delay)
    recirc_loop_ns: int = 3_500
    #: how many consecutive losses one notification can request — the
    #: number of 1-bit reTxReqs registers provisioned (5 covers 99.9999%
    #: of loss events even at 5% loss, §3.5 / Appendix B.2)
    max_consecutive_retx: int = 5
    #: dummy packets kept in the self-replenishing queue (§5 suggests >1
    #: to survive bursty loss of the tail packet *and* the dummy)
    dummy_copies: int = 1
    #: copies of each control message (loss notification / pause / resume);
    #: >1 protects against bidirectional corruption (§5)
    control_copies: int = 1
    #: delay before a transmitted self-replenishing packet is re-queued
    #: (egress-mirror path latency); bounds the idle dummy/ACK rate
    replenish_delay_ns: int = 1_000
    #: minimum-size frames used for dummy/ACK/control packets
    control_frame_bytes: int = 64

    def __post_init__(self) -> None:
        if self.pause_threshold_bytes is None:
            self.pause_threshold_bytes = self.resume_threshold_bytes + 2 * MTU_FRAME

    @classmethod
    def tofino2(cls, rate_gbps: float = 100, **overrides) -> "LinkGuardianConfig":
        """A Tofino2-style implementation profile (paper §5).

        Tofino2's advanced flow-control primitives allow buffering and
        retransmission *without recirculation*: the dominant component
        of the 2-6 us ReTx delay disappears, leaving roughly one
        pipeline pass (~400 ns) of loop latency.  The ackNoTimeout can
        then be tightened accordingly.  This profile is the paper's
        "remains to be validated" thesis as a simulation ablation.
        """
        defaults = dict(
            recirc_loop_ns=400,
            ack_no_timeout_ns=3_000,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def for_link_speed(cls, rate_gbps: float, **overrides) -> "LinkGuardianConfig":
        """Paper parameter sets: 25G and 100G (Appendix B.1)."""
        if rate_gbps <= 25:
            defaults = dict(
                ack_no_timeout_ns=7_500,
                resume_threshold_bytes=40 * KB,
                recirc_loop_ns=4_000,
            )
        else:
            defaults = dict(
                ack_no_timeout_ns=7_000,
                resume_threshold_bytes=37 * KB,
                recirc_loop_ns=3_500,
            )
        defaults.update(overrides)
        return cls(**defaults)

    def copies_for(self, actual_loss_rate: float) -> int:
        return retx_copies(actual_loss_rate, self.target_loss_rate)

    def quantize_timer(self, deadline_ns: int) -> int:
        """Round a deadline up to the next timer-packet tick."""
        period = self.timer_period_ns
        return -(-deadline_ns // period) * period
