"""corruptd: control-plane link-corruption monitoring (paper Appendix C).

Each switch runs a ``corruptd`` daemon that polls its ports' RX counters
(``framesRxOk`` / ``framesRxAll``) every second, estimates the loss rate
over a moving window of frames, and — when the loss rate crosses the
activation threshold (1e-8, a healthy link's BER floor) — notifies the
*upstream* switch so that LinkGuardian is activated on the corrupting
link, sized by Equation 2 for the measured loss rate.  The notification
is one scheduled call :data:`NOTIFY_DELAY_NS` after detection.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from ..core.engine import Event, Simulator
from ..linkguardian.protocol import ProtectedLink
from ..obs.trace import NULL_TRACER
from ..units import MS, SEC

__all__ = ["Corruptd", "LinkPoller", "LossWindow", "NOTIFY_DELAY_NS"]

#: detection to activation: the notice's hop to the upstream switch
#: (Appendix C runs it over Redis PubSub)
NOTIFY_DELAY_NS = 1 * MS


class LossWindow:
    """Moving-window loss-rate estimate over RX frame counters.

    The corruptd windowing logic, factored out so anything that sees a
    stream of ``(framesRxAll, framesRxOk)`` counter snapshots — the
    in-sim daemon below, or the control-plane service ingesting
    telemetry records — estimates loss the same way: over (up to) the
    last ``window_frames`` frames between retained snapshots.
    """

    def __init__(self, window_frames: int = 100_000_000) -> None:
        self.window_frames = int(window_frames)
        self._snapshots: deque = deque()  # (rx_all, rx_ok)

    def __len__(self) -> int:
        return len(self._snapshots)

    def observe(self, rx_all: int, rx_ok: int) -> None:
        """Record one counter snapshot; old ones slide out of the window.

        A snapshot with a *decreasing* counter means the source reset
        (switch reboot, ASIC counter wrap, daemon restart) — deltas
        against pre-reset snapshots would be negative or nonsensical, so
        the window restarts from the new baseline instead.
        """
        snapshots = self._snapshots
        if snapshots:
            last_all, last_ok = snapshots[-1]
            if rx_all < last_all or rx_ok < last_ok:
                snapshots.clear()
        snapshots.append((rx_all, rx_ok))
        while len(snapshots) > 2 and (
            rx_all - snapshots[1][0] >= self.window_frames
        ):
            snapshots.popleft()

    def loss_rate(self) -> Optional[float]:
        """Loss rate over (up to) the last ``window_frames`` frames.

        :meth:`observe` retains at most one snapshot older than the
        window, so the base is the first or the second; when polls are
        sparser than the window the estimate is over the newest pair.
        """
        snapshots = self._snapshots
        if len(snapshots) < 2:
            return None
        newest_all, newest_ok = snapshots[-1]
        base_all, base_ok = snapshots[0]
        if newest_all - base_all > self.window_frames and len(snapshots) > 2:
            base_all, base_ok = snapshots[1]
        frames = newest_all - base_all
        if frames == 0:
            return None
        return 1.0 - (newest_ok - base_ok) / frames


class LinkPoller:
    """The poll loop corruptd and :class:`~repro.monitor.fallback.AutoFallback`
    share: every ``poll_interval_ns`` read one protected link's RX
    counters into a :class:`LossWindow` and hand each estimate to
    :meth:`_on_estimate`.

    ``stop()`` cancels the pending poll and ``start()`` on a running
    loop does nothing, so a restart never leaves two poll chains alive.
    """

    def __init__(self, sim: Simulator, plink: ProtectedLink,
                 poll_interval_ns: int, window_frames: int) -> None:
        self.sim = sim
        self.plink = plink
        self.poll_interval_ns = int(poll_interval_ns)
        self.polls = 0
        self._window = LossWindow(window_frames)
        self._next_poll: Optional[Event] = None

    @property
    def running(self) -> bool:
        return self._next_poll is not None

    def start(self) -> None:
        if self._next_poll is None:
            self._next_poll = self.sim.schedule(self.poll_interval_ns,
                                                self._poll)

    def stop(self) -> None:
        if self._next_poll is not None:
            self._next_poll.cancel()
            self._next_poll = None

    def window_loss_rate(self) -> Optional[float]:
        """Loss rate over (up to) the last ``window_frames`` frames."""
        return self._window.loss_rate()

    def _poll(self) -> None:
        self.polls += 1
        counters = self.plink.forward_link.rx_counters
        self._window.observe(counters.frames_rx_all, counters.frames_rx_ok)
        loss = self._window.loss_rate()
        if loss is not None:
            self._on_estimate(loss)
        self._next_poll = self.sim.schedule(self.poll_interval_ns, self._poll)

    def _on_estimate(self, loss: float) -> None:
        raise NotImplementedError


class Corruptd(LinkPoller):
    """One switch's monitoring daemon, watching one protected link's RX side.

    The daemon runs at the *receiver* switch (where corrupted frames are
    dropped by the MAC and visible in the counters).  The first estimate
    at or above ``activation_threshold`` is latched in ``detected`` as
    ``(time_ns, loss_rate)`` and, :data:`NOTIFY_DELAY_NS` later, the
    upstream switch activates LinkGuardian sized for that loss rate.
    """

    def __init__(
        self,
        sim: Simulator,
        plink: ProtectedLink,
        poll_interval_ns: int = 1 * SEC,
        window_frames: int = 100_000_000,
        activation_threshold: float = 1e-8,
        obs=None,
    ) -> None:
        super().__init__(sim, plink, poll_interval_ns, window_frames)
        self.activation_threshold = float(activation_threshold)
        self.detected: Optional[Tuple[int, float]] = None
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        if obs is not None:
            obs.registry.register_provider(
                f"corruptd.{plink.forward_link.name}", self.obs_snapshot
            )

    def obs_snapshot(self) -> dict:
        loss = self.window_loss_rate()
        return {
            "polls": self.polls,
            "notices": int(self.detected is not None),
            "notified": self.detected is not None,
            "running": self.running,
            "window_loss_rate": loss if loss is not None else 0.0,
        }

    def _on_estimate(self, loss: float) -> None:
        if self.detected is not None or loss < self.activation_threshold:
            return
        self.detected = (self.sim.now, loss)
        if self._tracer.enabled:
            self._tracer.instant(self.sim.now, "corruptd", "corruption_notice", {
                "link": self.plink.forward_link.name, "loss_rate": loss,
            })
        self.sim.schedule(NOTIFY_DELAY_NS, self._activate, loss)

    def _activate(self, loss: float) -> None:
        """The upstream switch pushes the dataplane entries."""
        n_copies = self.plink.activate(loss)
        if self._tracer.enabled:
            self._tracer.instant(self.sim.now, "corruptd", "lg_activate", {
                "link": self.plink.forward_link.name, "n_copies": n_copies,
                "loss_rate": loss,
            })
