"""Congestion-control algorithms for the TCP model.

Three controllers cover the paper's evaluation (§4.2): DCTCP (ECN),
CUBIC (loss) and BBR (delay/rate).  They plug into
:class:`~repro.transport.tcp.TcpSender` through a small hook interface:

* ``on_ack(acked_bytes, ece, rtt_ns, now_ns)`` — cumulative progress;
* ``on_loss_event(now_ns)``  — fast-recovery style reduction (once per
  round trip);
* ``on_rto(now_ns)``         — collapse after a retransmission timeout;
* ``pacing_rate_bps(now_ns)``— None for ack-clocked senders, a rate for
  paced senders (BBR).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["CongestionControl", "RenoCC", "DctcpCC", "CubicCC", "BbrCC"]


class CongestionControl:
    """Base: NewReno-style slow start + AIMD, the common scaffolding."""

    #: multiplicative-decrease factor applied on a loss event
    beta = 0.5

    def __init__(self, mss: int = 1460, init_cwnd_packets: int = 10) -> None:
        self.mss = mss
        self.cwnd = init_cwnd_packets * mss
        self.ssthresh = float("inf")
        self.min_cwnd = 2 * mss
        self._acked_since_growth = 0

    # -- hooks -------------------------------------------------------------------

    def on_ack(self, acked_bytes: int, ece: bool, rtt_ns: int, now_ns: int) -> None:
        self._grow(acked_bytes)

    def on_loss_event(self, now_ns: int) -> None:
        self.ssthresh = max(self.min_cwnd, int(self.cwnd * self.beta))
        self.cwnd = self.ssthresh

    def on_rto(self, now_ns: int) -> None:
        self.ssthresh = max(self.min_cwnd, self.cwnd // 2)
        self.cwnd = self.min_cwnd

    def pacing_rate_bps(self, now_ns: int) -> Optional[int]:
        return None

    # -- shared machinery -----------------------------------------------------------

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def _grow(self, acked_bytes: int) -> None:
        if self.in_slow_start:
            self.cwnd += acked_bytes
            return
        self._acked_since_growth += acked_bytes
        if self._acked_since_growth >= self.cwnd:
            self._acked_since_growth -= self.cwnd
            self.cwnd += self.mss


class RenoCC(CongestionControl):
    """Plain NewReno — the baseline the others specialize."""


class DctcpCC(CongestionControl):
    """DCTCP (Alizadeh et al., SIGCOMM 2010).

    alpha <- (1 - g) * alpha + g * F once per window, where F is the
    fraction of ECN-marked bytes; on a marked window the sender cuts
    cwnd by ``alpha / 2``.  Packet loss falls back to the Reno cut.
    """

    def __init__(self, mss: int = 1460, init_cwnd_packets: int = 10,
                 g: float = 1.0 / 16.0) -> None:
        super().__init__(mss, init_cwnd_packets)
        self.g = g
        self.alpha = 1.0
        self._window_acked = 0
        self._window_marked = 0
        self._window_end_bytes = 0  # bytes to ack before closing the window
        self._cut_this_window = False

    def on_ack(self, acked_bytes: int, ece: bool, rtt_ns: int, now_ns: int) -> None:
        self._window_acked += acked_bytes
        if ece:
            self._window_marked += acked_bytes
            if not self._cut_this_window:
                # React immediately (once per window) like the Linux
                # implementation: cut by the running alpha.
                self.cwnd = max(self.min_cwnd, int(self.cwnd * (1 - self.alpha / 2)))
                self.ssthresh = self.cwnd
                self._cut_this_window = True
        if self._window_acked >= self.cwnd:
            fraction = self._window_marked / max(1, self._window_acked)
            self.alpha = (1 - self.g) * self.alpha + self.g * fraction
            self._window_acked = 0
            self._window_marked = 0
            self._cut_this_window = False
        if not ece:
            self._grow(acked_bytes)


class CubicCC(CongestionControl):
    """CUBIC (RFC 8312): w(t) = C (t - K)^3 + w_max, beta = 0.7."""

    beta = 0.7
    C = 0.4  # units: MSS / s^3

    def __init__(self, mss: int = 1460, init_cwnd_packets: int = 10) -> None:
        super().__init__(mss, init_cwnd_packets)
        self._w_max = 0.0            # in MSS
        self._epoch_start_ns: Optional[int] = None
        self._k = 0.0

    def on_loss_event(self, now_ns: int) -> None:
        self._w_max = self.cwnd / self.mss
        self.ssthresh = max(self.min_cwnd, int(self.cwnd * self.beta))
        self.cwnd = self.ssthresh
        self._epoch_start_ns = None

    def on_rto(self, now_ns: int) -> None:
        super().on_rto(now_ns)
        self._epoch_start_ns = None

    def on_ack(self, acked_bytes: int, ece: bool, rtt_ns: int, now_ns: int) -> None:
        if self.in_slow_start:
            self.cwnd += acked_bytes
            return
        if self._epoch_start_ns is None:
            self._epoch_start_ns = now_ns
            w0 = self.cwnd / self.mss
            self._k = ((max(0.0, self._w_max - w0)) / self.C) ** (1.0 / 3.0)
        t = (now_ns - self._epoch_start_ns) / 1e9 + rtt_ns / 1e9
        w_cubic = self.C * (t - self._k) ** 3 + max(self._w_max, self.cwnd / self.mss)
        target = max(self.min_cwnd, int(w_cubic * self.mss))
        if target > self.cwnd:
            # Approach the cubic target over one RTT.
            self.cwnd += max(1, (target - self.cwnd) * acked_bytes // max(self.cwnd, 1))
        else:
            self._grow(acked_bytes)  # TCP-friendly region fallback


class BbrCC(CongestionControl):
    """A compact BBR: windowed-max bandwidth filter, pacing, 2xBDP cwnd.

    Loss is ignored (BBR is loss-agnostic, §4.2/§B.3); only the RTO path
    collapses the window.  Startup uses a 2.89 pacing gain until the
    bandwidth estimate stops growing, then the sender settles into the
    steady 8-phase probe cycle.
    """

    STARTUP_GAIN = 2.89
    DRAIN_GAIN = 1.0 / 2.89
    CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def __init__(self, mss: int = 1460, init_cwnd_packets: int = 10) -> None:
        super().__init__(mss, init_cwnd_packets)
        self._btlbw_bps = 0.0
        self._samples = []            # (time_ns, bw_bps), 10-RTT max filter
        self._min_rtt_ns = None
        self._state = "startup"
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._cycle_index = 0
        self._cycle_stamp = 0

    def deliver_sample(self, delivered_bytes: int, interval_ns: int, now_ns: int) -> None:
        """Feed a delivery-rate sample (called by the sender per ACK)."""
        if interval_ns <= 0:
            return
        bw = delivered_bytes * 8 * 1e9 / interval_ns
        window = 10 * (self._min_rtt_ns or 1_000_000)
        self._samples = [(t, b) for t, b in self._samples if now_ns - t < window]
        self._samples.append((now_ns, bw))
        self._btlbw_bps = max(b for _, b in self._samples)
        self._advance_state(now_ns)

    def on_ack(self, acked_bytes: int, ece: bool, rtt_ns: int, now_ns: int) -> None:
        if self._min_rtt_ns is None or rtt_ns < self._min_rtt_ns:
            self._min_rtt_ns = rtt_ns
        bdp = self._bdp_bytes()
        if bdp:
            self.cwnd = max(self.min_cwnd, int(2 * bdp))
        else:
            self.cwnd += acked_bytes  # startup before first bw estimate

    def on_loss_event(self, now_ns: int) -> None:
        pass  # loss-agnostic

    def pacing_rate_bps(self, now_ns: int) -> Optional[int]:
        if not self._btlbw_bps:
            return None  # unpaced until the first bandwidth sample
        return max(int(self._gain(now_ns) * self._btlbw_bps), 8 * self.mss)

    def _bdp_bytes(self) -> int:
        if not self._btlbw_bps or self._min_rtt_ns is None:
            return 0
        return int(self._btlbw_bps / 8 * self._min_rtt_ns / 1e9)

    def _gain(self, now_ns: int) -> float:
        if self._state == "startup":
            return self.STARTUP_GAIN
        if self._state == "drain":
            return self.DRAIN_GAIN
        rtt = self._min_rtt_ns or 1_000_000
        if now_ns - self._cycle_stamp > rtt:
            self._cycle_stamp = now_ns
            self._cycle_index = (self._cycle_index + 1) % len(self.CYCLE)
        return self.CYCLE[self._cycle_index]

    def _advance_state(self, now_ns: int) -> None:
        if self._state == "startup":
            if self._btlbw_bps > self._full_bw * 1.25:
                self._full_bw = self._btlbw_bps
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self._state = "drain"
                    self._cycle_stamp = now_ns
        elif self._state == "drain":
            self._state = "probe_bw"
            self._cycle_stamp = now_ns
