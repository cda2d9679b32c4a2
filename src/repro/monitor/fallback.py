"""Automatic fallback under sudden high loss rates (paper §5).

LinkGuardian is designed for the low corruption rates of Table 1; under
a sudden very high loss rate the ordered mode's pauses and reordering
buffer pressure degrade the link badly.  The paper proposes extending
the corruptd monitoring to detect this and automatically fall back to
LinkGuardianNB, or disable LinkGuardian entirely on the affected link.

:class:`AutoFallback` implements that policy on corruptd's poll loop
(:class:`~repro.monitor.corruptd.LinkPoller`) and windowed loss estimate:

* loss < ``nb_threshold``       -> full ordered LinkGuardian;
* loss in [nb, disable)         -> LinkGuardianNB (ordering dropped);
* loss >= ``disable_threshold`` -> LinkGuardian off (the link is beyond
  saving by retransmission; CorrOpt should disable it for repair).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.engine import Simulator
from ..linkguardian.protocol import ProtectedLink
from ..units import MS
from .corruptd import LinkPoller

__all__ = ["AutoFallback"]


class AutoFallback(LinkPoller):
    """Watches one protected link and demotes its mode under heavy loss.

    Demotions are debounced: a target mode must be confirmed by
    ``confirm_windows`` consecutive polls before it is applied, so a
    windowed loss estimate oscillating around ``nb_threshold`` or
    ``disable_threshold`` does not trigger a demotion off one outlier
    window (demotions are one-way, so a spurious one is never undone).
    """

    MODES = ("ordered", "non-blocking", "off")

    def __init__(
        self,
        sim: Simulator,
        plink: ProtectedLink,
        poll_interval_ns: int = 10 * MS,
        window_frames: int = 20_000,
        nb_threshold: float = 5e-3,
        disable_threshold: float = 5e-2,
        confirm_windows: int = 2,
    ) -> None:
        if not 0 < nb_threshold < disable_threshold:
            raise ValueError("need 0 < nb_threshold < disable_threshold")
        if confirm_windows < 1:
            raise ValueError("confirm_windows must be >= 1")
        super().__init__(sim, plink, poll_interval_ns, window_frames)
        self.nb_threshold = nb_threshold
        self.disable_threshold = disable_threshold
        #: hysteresis: a demotion fires only after this many *consecutive*
        #: polls agree on the same (or a worse) target mode, so a loss
        #: estimate oscillating around a threshold cannot demote on a
        #: single noisy window.
        self.confirm_windows = int(confirm_windows)
        self.transitions: List[tuple] = []  # (time_ns, from_mode, to_mode)
        self._pending_target: Optional[str] = None
        self._pending_count = 0

    @property
    def mode(self) -> str:
        if not self.plink.active:
            return "off"
        return "ordered" if self.plink.config.ordered else "non-blocking"

    def _on_estimate(self, loss: float) -> None:
        current = self.mode
        if loss >= self.disable_threshold:
            target = "off"
        elif loss >= self.nb_threshold:
            target = "non-blocking"
        else:
            target = "ordered"
        # Only demote automatically; promotion back to ordered is an
        # operator decision (the paper leaves re-enabling to corruptd /
        # repair workflows).
        order = {"ordered": 0, "non-blocking": 1, "off": 2}
        if order[target] <= order[current]:
            self._pending_target = None
            self._pending_count = 0
            return
        # Debounce: demand confirm_windows consecutive windows asking for
        # this demotion.  A harsher window counts as confirmation of the
        # pending (milder) target but is only applied once confirmed on
        # its own — demotions are one-way, so a single outlier window
        # must never jump straight to a harsher mode.
        if (
            self._pending_target is not None
            and order[target] >= order[self._pending_target]
        ):
            self._pending_count += 1
            target = self._pending_target
        else:
            self._pending_count = 1
            self._pending_target = target
        if self._pending_count < self.confirm_windows:
            return
        self._pending_target = None
        self._pending_count = 0
        if target == "non-blocking":
            self.plink.receiver.switch_to_non_blocking()
        elif target == "off":
            self.plink.deactivate()
        self.transitions.append((self.sim.now, current, target))
