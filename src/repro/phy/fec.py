"""Reed-Solomon forward error correction math for Ethernet PHYs.

The Ethernet "Clause 91/108" FECs are Reed-Solomon codes over 10-bit
symbols: RS(528,514) ("KR4", optional at 25G/100G) and RS(544,514)
("KP4", mandatory at 50G/200G/400G).  An RS(n,k) code corrects up to
t = (n-k)/2 symbol errors per codeword; a codeword with more than t
errored symbols is uncorrectable and the MAC drops the frame.

These formulas turn a pre-FEC bit error rate into a post-FEC frame loss
rate — the machinery behind the paper's Figure 1 measurement, where the
effectiveness of the built-in FEC visibly diminishes as modulation gets
denser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RsCode", "RS_KR4", "RS_KP4",
    "symbol_error_rate", "codeword_failure_prob", "frame_loss_rate",
]


@dataclass(frozen=True)
class RsCode:
    """An RS(n, k) code over ``symbol_bits``-bit symbols."""

    n: int
    k: int
    symbol_bits: int = 10

    @property
    def t(self) -> int:
        """Correctable symbol errors per codeword."""
        return (self.n - self.k) // 2

    @property
    def payload_bits(self) -> int:
        """Information bits carried per codeword."""
        return self.k * self.symbol_bits


RS_KR4 = RsCode(528, 514)   # Clause 91, optional for 25G (802.3by)
RS_KP4 = RsCode(544, 514)   # Clause 91/134, mandatory for 50G PAM4


def symbol_error_rate(ber: float, symbol_bits: int = 10) -> float:
    """Probability a 10-bit RS symbol contains at least one bit error."""
    if ber <= 0.0:
        return 0.0
    if ber >= 1.0:
        return 1.0
    return -math.expm1(symbol_bits * math.log1p(-ber))


def codeword_failure_prob(ber: float, code: RsCode) -> float:
    """Probability a codeword has more than ``t`` symbol errors (uncorrectable).

    Uses the binomial survival function, which is numerically stable down
    to the ~1e-300 range needed for healthy-link loss rates.
    """
    ser = symbol_error_rate(ber, code.symbol_bits)
    if ser <= 0.0:
        return 0.0
    # Imported here, not at module top: scipy.stats costs ~1.3 s and
    # ~80 MiB, and `import repro` reaches this module.
    from scipy.stats import binom

    # P[X > t] with X ~ Binomial(n, ser)
    return float(binom.sf(code.t, code.n, ser))


def frame_loss_rate(ber: float, frame_bytes: int, code: RsCode = None) -> float:
    """Post-PHY frame loss rate for a frame of ``frame_bytes``.

    Without FEC a frame survives only if every bit does; with FEC it
    survives if every codeword it spans is correctable.
    """
    bits = frame_bytes * 8
    if code is None:
        if ber <= 0.0:
            return 0.0
        if ber >= 1.0:
            return 1.0
        return -math.expm1(bits * math.log1p(-ber))
    n_codewords = max(1, math.ceil(bits / code.payload_bits))
    p_cw = codeword_failure_prob(ber, code)
    if p_cw <= 0.0:
        return 0.0
    if p_cw >= 1.0:
        return 1.0
    return -math.expm1(n_codewords * math.log1p(-p_cw))
