"""Vectorized link-level models of LinkGuardian (paper §3, Figure 8/19).

Every function here is array-in/array-out over NumPy broadcasting: one
call evaluates thousands of (loss rate, link speed, config) cells.  The
constants are calibrated against the packet engine (the calibration runs
live in ``tests/test_fastpath_model.py`` as regression anchors); the
cross-validation harness in :mod:`~repro.fastpath.validate` keeps the
two backends honest against each other.

Model summary (assumptions in DESIGN.md "Fastpath analytic backend"):

* effective loss — Eq. 1 ``p**(N+1)`` plus the era-bit/consecutive-loss
  correction ``p**(K+1+D) * (1 - p**N)``: a run of more than ``K``
  (``max_consecutive_retx``) losses overflows the notification registers
  and survives only through the ``D`` dummy-protected tail-loss path;
* recovery latency — notification + one recirculation wait, uniform
  over the loop phase: ``U(fixed, fixed + recirc_loop_ns)`` with
  ``fixed = RETX_PATH_FIXED_NS + 2 * ser(MTU)``;
* reordering buffer / pause-resume — arrivals at line rate for the
  recovery time, drained at ``recirc_drain - rate``; when that net drain
  is <= 0 (100G: drain == line rate) the buffer only empties through
  pause/resume, which costs ``E[max(0, T_rec - resume/R)]`` of paused
  line time per loss event (M/D/1-style: deterministic service, the
  recovery time is the stochastic arrival burst);
* effective link speed — ``1 - N*p`` retransmit-copy overhead minus the
  pause duty cycle above (only in the standing-queue regime).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..linkguardian.config import expected_effective_loss, retx_copies
from ..units import ETH_OVERHEAD, GBPS, MIN_FRAME, MTU_FRAME, SEC

__all__ = [
    "ser_ns", "retx_copies", "effective_loss", "recovery_latency_ns",
    "reorder_buffer_model", "effective_speed_fraction",
    "ge_affected_fraction", "interp_log_loss",
    "RETX_PATH_FIXED_NS", "PAUSE_REACT_NS",
]

#: recovery-path latency outside the recirculation wait: loss detection,
#: the notification frame crossing back, and the pipeline transits on
#: both sides.  Calibrated: the engine's minimum ReTx delay is
#: 988 + 2*ser(MTU) ns at 25G and 992 + 2*ser(MTU) ns at 100G.
RETX_PATH_FIXED_NS = 990.0

#: pause reaction time: the PFC-style pause frame's propagation plus the
#: packets already serialized when it lands (calibrated from the
#: engine's rx-buffer peaks sitting ~0.7 us of line rate above the
#: pause threshold).
PAUSE_REACT_NS = 700.0


def ser_ns(frame_bytes, rate_bps):
    """Wire serialization time in ns (vectorized ``units.serialization_ns``)."""
    frames = np.maximum(np.asarray(frame_bytes, dtype=np.float64), MIN_FRAME)
    bits = (frames + ETH_OVERHEAD) * 8.0
    return np.ceil(bits * SEC / np.asarray(rate_bps, dtype=np.float64))


def effective_loss(loss_rate, n_copies, max_consecutive_retx=5, dummy_copies=1):
    """Eq. 1 with the era-bit/consecutive-loss correction.

    ``p**(N+1)`` covers the original and all N copies lost.  A run of
    more than ``max_consecutive_retx`` consecutive losses exhausts the
    notification registers (§3.5); the overflowed packet is recovered
    only if the dummy-protected tail-loss path survives, adding
    ``p**(K+1+D)`` for the runs that Eq. 1 alone would count recovered.
    Negligible below ~1e-2 loss, visible at fuzz-level rates.
    """
    p = np.asarray(loss_rate, dtype=np.float64)
    n = np.asarray(n_copies, dtype=np.float64)
    base = expected_effective_loss(p, n)
    correction = p ** (max_consecutive_retx + 1.0 + dummy_copies) * (1.0 - p ** n)
    return base + correction


def recovery_latency_ns(rate_bps, recirc_loop_ns):
    """Recovery (ReTx) delay distribution: ``U(fixed, fixed + loop)``.

    The buffered copy sits at a uniformly random phase of its
    recirculation loop when the notification lands, so the wait is
    uniform over one loop; everything else is fixed path latency plus
    two MTU serializations (the lost packet ahead of the copy, the copy
    itself).  Returns min/p50/mean/max arrays in ns (Figure 19's shape).
    """
    loop = np.asarray(recirc_loop_ns, dtype=np.float64)
    fixed = RETX_PATH_FIXED_NS + 2.0 * ser_ns(MTU_FRAME, rate_bps)
    return {
        "min": fixed,
        "p50": fixed + 0.5 * loop,
        "mean": fixed + 0.5 * loop,
        "max": fixed + loop,
    }


def reorder_buffer_model(
    rate_bps,
    loss_rate,
    recirc_loop_ns,
    resume_threshold_bytes,
    pause_threshold_bytes,
    recirc_drain_bps=None,
):
    """Reordering-buffer occupancy and pause/resume duty cycle (§3.3).

    During one recovery the receiver holds up to ``R * T_rec`` bytes
    (line rate times recovery time).  The hold queue drains into
    delivery at ``recirc_drain - rate``:

    * net drain > 0 (25G link, 100G recirculation): the buffer empties
      between loss events — occupancy is event-local, pauses are rare
      and short;
    * net drain <= 0 (100G link: drain == line rate): the buffer only
      falls via pause/resume, so each recovery longer than
      ``resume_threshold / R`` pauses the sender for the excess —
      that's the M/D/1-style busy-period cost charged to goodput.

    Returns dict of arrays: ``peak_bytes``, ``pause_probability`` (per
    loss event), ``pause_ns_per_event`` (expected paused time per loss
    event), ``standing_regime`` (bool).
    """
    rate = np.asarray(rate_bps, dtype=np.float64)
    p = np.asarray(loss_rate, dtype=np.float64)
    drain = np.asarray(
        np.maximum(rate, 100 * GBPS) if recirc_drain_bps is None
        else recirc_drain_bps, dtype=np.float64)
    resume = np.asarray(resume_threshold_bytes, dtype=np.float64)
    pause = np.asarray(pause_threshold_bytes, dtype=np.float64)

    bytes_per_ns = rate / (8.0 * SEC)
    rec = recovery_latency_ns(rate, recirc_loop_ns)
    rec_min, rec_max = rec["min"], rec["max"]
    span = np.maximum(rec_max - rec_min, 1.0)

    # Peak: the recovery burst, clipped by the pause kicking in.
    burst_peak = bytes_per_ns * rec_max
    paused_peak = pause + bytes_per_ns * PAUSE_REACT_NS
    peak = np.where(burst_peak > paused_peak, paused_peak, burst_peak)

    # P(T_rec crosses the pause threshold), T_rec uniform.
    t_pause = pause / bytes_per_ns
    pause_probability = np.clip((rec_max - t_pause) / span, 0.0, 1.0)

    # E[max(0, T_rec - resume/R)] for uniform T_rec: quadratic tail.
    t_resume = np.clip(resume / bytes_per_ns, rec_min, rec_max)
    pause_ns = (rec_max - t_resume) ** 2 / (2.0 * span)

    standing = drain <= rate
    return {
        "peak_bytes": peak,
        "pause_probability": np.where(standing, pause_probability, 0.0),
        "pause_ns_per_event": np.where(standing, pause_ns, 0.0),
        "standing_regime": standing,
    }


def effective_speed_fraction(
    loss_rate,
    n_copies,
    rate_bps,
    recirc_loop_ns,
    resume_threshold_bytes,
    pause_threshold_bytes,
    ordered=True,
    backpressure=True,
    recirc_drain_bps=None,
):
    """Effective link speed under LinkGuardian (Figure 8, bottom).

    Deficit = N extra copies per lost packet (``N * p`` of the slots)
    plus, in the standing-queue regime with ordered delivery and
    backpressure on, the pause duty cycle: each loss event (probability
    ``p`` per slot) costs ``pause_ns / ser(MTU)`` slots of paused line.
    """
    p = np.asarray(loss_rate, dtype=np.float64)
    n = np.asarray(n_copies, dtype=np.float64)
    buffer = reorder_buffer_model(
        rate_bps, p, recirc_loop_ns, resume_threshold_bytes,
        pause_threshold_bytes, recirc_drain_bps)
    slot_ns = ser_ns(MTU_FRAME, rate_bps)
    # A loss landing while a previous recovery is still draining shares
    # its pause episode; only losses opening a fresh episode pay the full
    # duty cycle.  P(fresh) = (1-p)^(slots per mean recovery).
    rec_mean = recovery_latency_ns(rate_bps, recirc_loop_ns)["mean"]
    fresh = (1.0 - np.clip(p, 0.0, 1.0 - 1e-12)) ** (rec_mean / slot_ns)
    pause_deficit = p * buffer["pause_ns_per_event"] / slot_ns * fresh
    gated = np.asarray(ordered, dtype=bool) & np.asarray(backpressure, dtype=bool)
    deficit = n * p + np.where(gated, pause_deficit, 0.0)
    return np.clip(1.0 - deficit, 0.0, 1.0)


def ge_affected_fraction(loss_rate, mean_burst, flow_packets):
    """P(a flow of n packets meets >= 1 loss) under Gilbert–Elliott loss.

    Bursts of mean length ``b`` start at rate ``p / b`` per packet slot;
    a flow is touched if a burst starts in its window or is already in
    progress — ``n + b - 1`` slots of exposure.  Reduces to the i.i.d.
    ``1 - (1-p)**n`` at ``b == 1``.
    """
    p = np.asarray(loss_rate, dtype=np.float64)
    b = np.maximum(np.asarray(mean_burst, dtype=np.float64), 1.0)
    n = np.asarray(flow_packets, dtype=np.float64)
    start_rate = np.clip(p / b, 0.0, 1.0 - 1e-15)
    return -np.expm1((n + b - 1.0) * np.log1p(-start_rate))


@lru_cache(maxsize=32)
def _log_loss_table(points):
    """``(log10 xs, ys, clip low, clip high)`` of one ``points`` tuple."""
    xs = np.log10([x for x, _ in points])
    ys = np.asarray([y for _, y in points], dtype=np.float64)
    return xs, ys, 10.0 ** xs[0], 10.0 ** xs[-1]


def interp_log_loss(loss_rate, points):
    """Piecewise-linear interpolation in log10(loss rate).

    ``points`` is a sequence of ``(loss_rate, value)`` pairs sorted by
    loss rate; values clamp at both ends and ``loss_rate <= 0`` maps to
    the first value.  The planner's Figure 8 capacity table
    (``fleet.cost.FIG8_POINTS``) is read through this function too, so
    the log table is built once per distinct table.
    """
    p = np.asarray(loss_rate, dtype=np.float64)
    xs, ys, low, high = _log_loss_table(tuple(map(tuple, points)))
    out = np.interp(np.log10(np.clip(p, low, high)), xs, ys)
    return np.where(p <= 0.0, ys[0], out)
