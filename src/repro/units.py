"""Units and wire-format constants.

Packet-tier time is integer nanoseconds (the planner tiers count float
seconds), rates are bits per second, sizes are bytes.
The helpers here are the only place unit conversions happen, so every
module agrees on what "100G" or "an MTU frame on the wire" means.
"""

from __future__ import annotations

__all__ = [
    "NS", "US", "MS", "SEC", "HOURS", "DAY_S",
    "KB", "MB",
    "GBPS", "gbps",
    "ETH_OVERHEAD", "MIN_FRAME", "MTU_FRAME", "MTU_PAYLOAD", "MTU_WIRE",
    "wire_bytes", "serialization_ns", "bytes_in_time",
]

# -- time ------------------------------------------------------------------
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# The planner tiers (fleet, lifecycle, the deployment study) run year-scale
# traces where nanoseconds are overkill: their clock is float *seconds*.
HOURS = 3_600.0
DAY_S = 24 * HOURS

# -- sizes -----------------------------------------------------------------
KB = 1_000
MB = 1_000_000

# -- rates -----------------------------------------------------------------
GBPS = 1_000_000_000


def gbps(value: float) -> int:
    """Rate in bits/s for a value given in Gb/s."""
    return int(value * GBPS)


# -- Ethernet wire format ---------------------------------------------------
# Preamble (7) + SFD (1) + FCS is inside the frame + inter-packet gap (12):
# a frame of F bytes occupies F + 20 bytes of wire time.  The paper counts
# a standard MTU frame as 1538 octets on the wire (1518 B frame + 20 B).
ETH_OVERHEAD = 20
MIN_FRAME = 64
MTU_FRAME = 1518           # max standard Ethernet frame incl. FCS
MTU_PAYLOAD = 1500         # IP MTU
MTU_WIRE = MTU_FRAME + ETH_OVERHEAD  # 1538 B on wire, as in the paper


def wire_bytes(frame_bytes: int) -> int:
    """Bytes of wire time occupied by a frame (preamble + IPG included)."""
    return max(frame_bytes, MIN_FRAME) + ETH_OVERHEAD


def serialization_ns(frame_bytes: int, rate_bps: int) -> int:
    """Nanoseconds to serialize a frame (wire size) at ``rate_bps``.

    Rounds up so back-to-back packets never overlap on the link.
    """
    bits = wire_bytes(frame_bytes) * 8
    return -(-bits * SEC // rate_bps)  # ceil division


def bytes_in_time(duration_ns: int, rate_bps: int) -> int:
    """Wire bytes that drain in ``duration_ns`` at ``rate_bps``."""
    return (duration_ns * rate_bps) // (8 * SEC)
