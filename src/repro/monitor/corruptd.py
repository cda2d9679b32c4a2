"""corruptd: control-plane link-corruption monitoring (paper Appendix C).

Each switch runs a ``corruptd`` daemon that polls its ports' RX counters
(``framesRxOk`` / ``framesRxAll``) every second, estimates the loss rate
over a moving window of frames, and — when the loss rate crosses the
activation threshold (1e-8, a healthy link's BER floor) — notifies the
*upstream* switch through a publish-subscribe bus so that LinkGuardian
is activated on the corrupting link, sized by Equation 2 for the
measured loss rate.

The bus is an in-process stand-in for the Redis PubSub deployment the
paper describes; the daemon logic (polling, windowing, thresholding,
activation) is the same.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.engine import Simulator
from ..linkguardian.protocol import ProtectedLink
from ..obs.trace import NULL_TRACER
from ..units import SEC

__all__ = ["PubSubBus", "Corruptd", "CorruptionNotice", "LossWindow"]


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


class PubSubBus:
    """Minimal in-process publish-subscribe bus (the Redis stand-in).

    Deliveries ride the simulator's event queue after ``delivery_delay_ns``;
    at most ``max_pending`` may be in flight at once — beyond that the bus
    drops, like a Redis client whose output buffer limit is hit.  Drops and
    deliveries are counted and surfaced through the metrics registry when
    an ``obs`` is supplied.
    """

    def __init__(
        self,
        sim: Simulator,
        delivery_delay_ns: int = 1_000_000,
        max_pending: int = 1024,
        obs=None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.sim = sim
        self.delivery_delay_ns = delivery_delay_ns
        self.max_pending = int(max_pending)
        self._subscribers: Dict[str, List[Callable]] = {}
        self._pending = 0
        self.published = 0
        self.delivered = 0
        self.dropped = 0
        if obs is not None:
            obs.registry.register_provider("corruptd.bus", self.obs_snapshot)

    def obs_snapshot(self) -> dict:
        return {
            "published": self.published,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "pending": self._pending,
            "channels": len(self._subscribers),
        }

    @property
    def pending(self) -> int:
        """Messages scheduled but not yet handed to their callbacks."""
        return self._pending

    def subscribe(self, channel: str, callback: Callable) -> None:
        self._subscribers.setdefault(channel, []).append(callback)

    def unsubscribe(self, channel: str, callback: Callable) -> bool:
        """Detach one subscription; True if it existed.

        Messages already in flight to ``callback`` still deliver — like
        the real bus, unsubscribing stops future fan-out, it does not
        recall the wire.
        """
        callbacks = self._subscribers.get(channel)
        if callbacks is None or callback not in callbacks:
            return False
        callbacks.remove(callback)
        if not callbacks:
            del self._subscribers[channel]
        return True

    def publish(self, channel: str, message) -> int:
        """Fan out to the channel; returns how many deliveries were queued."""
        self.published += 1
        queued = 0
        for callback in self._subscribers.get(channel, []):
            if self._pending >= self.max_pending:
                self.dropped += 1
                continue
            self._pending += 1
            self.sim.schedule(self.delivery_delay_ns, self._deliver,
                              callback, message)
            queued += 1
        return queued

    def _deliver(self, callback: Callable, message) -> None:
        self._pending -= 1
        self.delivered += 1
        callback(message)


@dataclass(frozen=True)
class CorruptionNotice:
    """Published when a receiving switch sees a corrupting ingress link."""

    link_name: str
    loss_rate: float
    detected_at_ns: int
    cleared: bool = False


class Corruptd:
    """One switch's monitoring daemon, watching one protected link's RX side.

    The daemon runs at the *receiver* switch (where corrupted frames are
    dropped by the MAC and visible in the counters) and publishes to the
    upstream switch's channel; an activator subscribed there flips
    LinkGuardian on.
    """

    def __init__(
        self,
        sim: Simulator,
        plink: ProtectedLink,
        bus: PubSubBus,
        poll_interval_ns: int = 1 * SEC,
        window_frames: int = 100_000_000,
        activation_threshold: float = 1e-8,
        deactivation: bool = False,
        obs=None,
    ) -> None:
        self.sim = sim
        self.plink = plink
        self.bus = bus
        self.poll_interval_ns = int(poll_interval_ns)
        self.window_frames = int(window_frames)
        self.activation_threshold = float(activation_threshold)
        self.deactivation = deactivation
        self.channel = f"corruptd:{plink.sender_switch.name}"
        self.notices: List[CorruptionNotice] = []
        self._window = LossWindow(self.window_frames)
        self._notified = False
        self._running = False
        self.polls = 0
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        if obs is not None:
            obs.registry.register_provider(
                f"corruptd.{plink.forward_link.name}", self.obs_snapshot
            )
        bus.subscribe(self.channel, self._on_notice)

    def obs_snapshot(self) -> dict:
        loss = self.window_loss_rate()
        return {
            "polls": self.polls,
            "notices": len(self.notices),
            "notified": self._notified,
            "running": self._running,
            "window_loss_rate": loss if loss is not None else 0.0,
        }

    # -- polling loop -------------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self.sim.schedule(self.poll_interval_ns, self._poll)

    def stop(self) -> None:
        self._running = False

    def window_loss_rate(self) -> Optional[float]:
        """Loss rate over (up to) the last ``window_frames`` frames."""
        return self._window.loss_rate()

    def _poll(self) -> None:
        if not self._running:
            return
        self.polls += 1
        counters = self.plink.forward_link.rx_counters
        self._window.observe(counters.frames_rx_all, counters.frames_rx_ok)
        loss = self.window_loss_rate()
        if loss is not None:
            if loss >= self.activation_threshold and not self._notified:
                self._notified = True
                notice = CorruptionNotice(
                    self.plink.forward_link.name, loss, self.sim.now
                )
                self.notices.append(notice)
                if self._tracer.enabled:
                    self._tracer.instant(self.sim.now, "corruptd", "corruption_notice", {
                        "link": notice.link_name, "loss_rate": loss,
                    })
                self.bus.publish(self.channel, notice)
            elif self.deactivation and self._notified and loss < self.activation_threshold:
                self._notified = False
                notice = CorruptionNotice(
                    self.plink.forward_link.name, loss, self.sim.now, cleared=True
                )
                self.notices.append(notice)
                if self._tracer.enabled:
                    self._tracer.instant(self.sim.now, "corruptd", "corruption_cleared", {
                        "link": notice.link_name, "loss_rate": loss,
                    })
                self.bus.publish(self.channel, notice)
        self.sim.schedule(self.poll_interval_ns, self._poll)

    # -- activation at the upstream switch --------------------------------------------

    def _on_notice(self, notice: CorruptionNotice) -> None:
        """The upstream corruptd pushes dataplane entries (activation)."""
        if notice.cleared:
            if self._tracer.enabled:
                self._tracer.instant(self.sim.now, "corruptd", "lg_deactivate",
                                     {"link": notice.link_name})
            self.plink.deactivate()
        else:
            n_copies = self.plink.activate(notice.loss_rate)
            if self._tracer.enabled:
                self._tracer.instant(self.sim.now, "corruptd", "lg_activate", {
                    "link": notice.link_name, "n_copies": n_copies,
                    "loss_rate": notice.loss_rate,
                })
