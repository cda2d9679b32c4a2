"""What a corrupting link costs while it sits in one controller state.

The planner's single cost model: the lifecycle per-day rollup, the
one-shot fleet campaign, the policy optimizer, the controller's
activation check and the service's what-if preview all read their
numbers here, and so does the §4.8 deployment study.
:func:`segment_cost` is the only place the EXPOSED / PROTECTED / DISABLED
branch exists; :func:`lg_effective_loss_rate` and
:func:`lg_effective_speed_fraction` are the one ``loss rate -> (effective
loss, effective capacity)`` table every solution consults.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

from ..fastpath.model import interp_log_loss
from ..linkguardian.config import expected_effective_loss, retx_copies

__all__ = [
    "EXPOSED", "PROTECTED", "DISABLED", "BDP_PACKETS", "LG_FCT_INFLATION",
    "EXPOSED_FCT_INFLATION", "FIG8_POINTS", "lg_effective_loss_rate",
    "lg_effective_speed_fraction", "unprotected_goodput_fraction",
    "segment_cost",
]

#: states a corrupting link can sit in until its episode clears
EXPOSED = "exposed"     # corrupting, unprotected: flows eat the loss
PROTECTED = "lg"        # LinkGuardian active: loss masked, speed fraction paid
DISABLED = "down"       # taken out for repair: capacity lost, flows reroute

#: FCT inflation factor for a flow that loses >= 1 packet with LinkGuardian
#: active: recovery is sub-RTT (Figure 19: 2-6 us on a ~20 us RTT).
LG_FCT_INFLATION = 1.05
#: ... and without protection: timeout-dominated recovery for short flows
#: (paper Figure 10: p99 single-packet FCT goes from ~25 us to RTO-scale).
EXPOSED_FCT_INFLATION = 10.0
#: packets in flight per RTT on a healthy link, for the Mathis-style
#: unprotected goodput model below (100G, ~20 us RTT, 1460 B MSS ~ 171;
#: rounded down to stay conservative).
BDP_PACKETS = 128
#: Figure 8 (ordered LinkGuardian, 100G): measured effective link speed
#: at each loss rate — ~100% at 1e-5, ~99% at 1e-4, ~92% at 1e-3 —
#: floored at 85% for the (rare) top-bucket rates above 1e-3.
FIG8_POINTS = (
    (1e-6, 1.0), (1e-5, 0.998), (1e-4, 0.99), (1e-3, 0.92), (1e-2, 0.85),
)


@lru_cache(maxsize=4096)
def lg_effective_loss_rate(loss_rate: float, target: float = 1e-8) -> float:
    """Effective loss rate once LinkGuardian is active (Equations 1-2).

    A dead link (``loss_rate >= 1``) loses every copy too.  Memoized:
    optimizer passes re-price the same episodes at every repair completion.
    """
    if loss_rate <= 0.0:
        return 0.0
    if loss_rate >= 1.0:
        return 1.0
    return expected_effective_loss(loss_rate, retx_copies(loss_rate, target))


@lru_cache(maxsize=4096)
def lg_effective_speed_fraction(loss_rate: float) -> float:
    """Effective link speed under ordered LinkGuardian: log-linear
    interpolation of :data:`FIG8_POINTS`; a dead link carries nothing.
    Memoized like :func:`lg_effective_loss_rate`: the controller's
    activation check and the PROTECTED segment price ask for the same
    episode's rate."""
    if loss_rate >= 1.0:
        return 0.0
    return float(interp_log_loss(loss_rate, FIG8_POINTS))


def unprotected_goodput_fraction(loss_rate: float) -> float:
    """Goodput of a corrupting, unprotected link as a fraction of line rate.

    Mathis et al.: TCP throughput ~ (MSS/RTT) * 1.22/sqrt(p); normalized
    by the link's bandwidth-delay product in packets and clamped to 1.
    Matches the Table 3 shape: negligible damage at 1e-5, collapse at 1e-3.
    """
    if loss_rate <= 0.0:
        return 1.0
    return min(1.0, 1.22 / (math.sqrt(loss_rate) * BDP_PACKETS))


def _analytic_affected(loss_rate: float, flow_packets: int) -> float:
    """P(flow of n packets loses >= 1) under i.i.d. loss — used for the
    LinkGuardian-protected state, where retransmission breaks bursts and
    the residual effective loss really is independent."""
    if loss_rate <= 0.0:
        return 0.0
    return -math.expm1(flow_packets * math.log1p(-min(loss_rate, 1.0 - 1e-15)))


def segment_cost(
    state: str,
    loss_rate: float,
    flow_packets: int = 100,
    lg_target_loss: float = 1e-8,
    exposed_affected: float = 0.0,
) -> Tuple[float, float]:
    """``(goodput cost, affected-flow fraction)`` of one link in ``state``.

    The goodput cost is lost capacity as a fraction of one link; the
    affected fraction is the share of ``flow_packets``-packet flows that
    lose >= 1 packet.  Burst-aware exposure is not closed-form, so the
    caller supplies ``exposed_affected`` (the tier-evaluated
    Gilbert–Elliott fraction) for the EXPOSED state.
    """
    if state == DISABLED:
        return 1.0, 0.0
    if state == PROTECTED:
        residual = lg_effective_loss_rate(loss_rate, lg_target_loss)
        return (1.0 - lg_effective_speed_fraction(loss_rate),
                _analytic_affected(residual, flow_packets))
    return 1.0 - unprotected_goodput_fraction(loss_rate), exposed_affected
