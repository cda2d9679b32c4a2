"""Wharf: link-local frame-level FEC (Giesen et al., NetCompute'18).

The state-of-the-art link-local FEC comparator of the paper's §4.7.
Wharf groups Ethernet frames into blocks of ``k`` data + ``r`` parity
frames; any ``<= r`` losses in a block are recovered, at the cost of a
constant ``r/(k+r)`` bandwidth tax on *all* traffic — its key weakness
versus retransmission, whose overhead is proportional to the loss rate.

The paper reproduces Wharf "numerically" (no FPGA available) by picking,
for each loss rate, the FEC parameters that gave Wharf's best published
goodput; we model the same: an effective link whose capacity is scaled
by the code rate and whose residual loss is the probability mass of
blocks with more than ``r`` losses.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WharfFec", "best_parameters"]


@dataclass(frozen=True)
class WharfFec:
    """A (k data, r parity) frame-level FEC configuration."""

    k: int
    r: int

    @property
    def code_rate(self) -> float:
        """Fraction of link capacity left for data (the constant tax)."""
        return self.k / (self.k + self.r)

    def residual_loss(self, frame_loss_rate: float) -> float:
        """Post-FEC data-frame loss rate under i.i.d. frame loss.

        A block of n = k + r frames with j > r losses leaves (on
        average) j * k/n unrecoverable data frames, so the residual
        data-frame loss rate is sum_j>r pmf(j) * j / n.
        """
        if frame_loss_rate <= 0.0:
            return 0.0
        from scipy.stats import binom  # deferred: see phy/fec.py

        n = self.k + self.r
        js = range(self.r + 1, n + 1)
        pmf = binom.pmf(list(js), n, frame_loss_rate)
        return float(sum(p * j for p, j in zip(pmf, js)) / n)


def best_parameters(loss_rate: float) -> WharfFec:
    """Wharf's best-goodput parameters per loss rate (cf. Figure 8 in [20]).

    Matches the goodput ratios in the paper's Table 3: a (25, 1) code
    (96.2% code rate) suffices up to 1e-3; 1e-2 needs the much heavier
    (5, 1) code (83.3% code rate).
    """
    if loss_rate <= 1e-3:
        return WharfFec(k=25, r=1)
    return WharfFec(k=5, r=1)
