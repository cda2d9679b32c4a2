"""Tests for the automatic-fallback control loop (§5)."""

import numpy as np
import pytest

from lg_fixtures import build_testbed

from repro.monitor.fallback import AutoFallback
from repro.phy.loss import BernoulliLoss
from repro.units import MS


def make_watched_testbed(loss_rate, nb_threshold=5e-3, disable_threshold=5e-2):
    loss = BernoulliLoss(loss_rate, np.random.default_rng(2)) if loss_rate else None
    testbed = build_testbed(loss=loss, activate_loss_rate=1e-4)
    watchdog = AutoFallback(
        testbed.sim, testbed.plink,
        poll_interval_ns=1 * MS, window_frames=5_000,
        nb_threshold=nb_threshold, disable_threshold=disable_threshold,
    )
    watchdog.start()
    return testbed, watchdog


class TestAutoFallback:
    def test_low_loss_stays_ordered(self):
        testbed, watchdog = make_watched_testbed(1e-3)
        testbed.inject(20_000, spacing_ns=1_000)
        testbed.sim.run(until=25 * MS)
        assert watchdog.mode == "ordered"
        assert watchdog.transitions == []

    def test_moderate_loss_falls_back_to_nb(self):
        testbed, watchdog = make_watched_testbed(2e-2)
        testbed.inject(20_000, spacing_ns=1_000)
        testbed.sim.run(until=25 * MS)
        assert watchdog.mode == "non-blocking"
        assert testbed.plink.active
        assert watchdog.transitions[0][1:] == ("ordered", "non-blocking")
        # Traffic still flows and losses are still recovered in NB mode.
        assert testbed.plink.receiver.stats.recovered > 0

    def test_extreme_loss_disables_lg(self):
        testbed, watchdog = make_watched_testbed(0.2)
        testbed.inject(20_000, spacing_ns=1_000)
        testbed.sim.run(until=25 * MS)
        assert watchdog.mode == "off"
        assert not testbed.plink.active
        final = watchdog.transitions[-1]
        assert final[2] == "off"

    def test_no_promotion_back(self):
        """Demotion is automatic; promotion is an operator action."""
        testbed, watchdog = make_watched_testbed(2e-2)
        testbed.inject(10_000, spacing_ns=1_000)
        testbed.sim.run(until=12 * MS)
        assert watchdog.mode == "non-blocking"
        # Loss clears, traffic continues — but the mode stays NB.
        testbed.plink.set_loss(None)
        testbed.inject(10_000, spacing_ns=1_000, start_ns=testbed.sim.now)
        testbed.sim.run(until=30 * MS)
        assert watchdog.mode == "non-blocking"

    def test_threshold_validation(self):
        testbed = build_testbed(activate_loss_rate=1e-4)
        with pytest.raises(ValueError):
            AutoFallback(testbed.sim, testbed.plink,
                         nb_threshold=0.5, disable_threshold=0.1)

    def test_mode_switch_preserves_delivery(self):
        """No packets are lost *by the switchover* itself: whatever the
        buffer held is released."""
        testbed, watchdog = make_watched_testbed(2e-2)
        testbed.inject(30_000, spacing_ns=1_000)
        testbed.sim.run(until=40 * MS)
        stats = testbed.plink.summary()
        delivered = len(testbed.delivered)
        # delivered + effective losses (timeouts) account for everything.
        assert delivered + stats["timeouts"] == 30_000


class _StubReceiver:
    def __init__(self, owner):
        self._owner = owner

    def switch_to_non_blocking(self):
        self._owner.config.ordered = False


class _StubLink:
    """Just enough ProtectedLink surface to drive _on_estimate directly."""

    def __init__(self):
        self.active = True
        self.config = type("Cfg", (), {"ordered": True})()
        self.receiver = _StubReceiver(self)

    def deactivate(self):
        self.active = False


class _StubSim:
    now = 0


class TestHysteresis:
    """Direct unit tests for the demotion debounce (no simulator)."""

    def _watchdog(self, confirm_windows=2):
        return AutoFallback(
            _StubSim(), _StubLink(), confirm_windows=confirm_windows,
            nb_threshold=5e-3, disable_threshold=5e-2)

    def test_single_noisy_window_does_not_demote(self):
        watchdog = self._watchdog()
        watchdog._on_estimate(1e-2)   # one window above nb_threshold
        watchdog._on_estimate(1e-4)   # back below: pending resets
        watchdog._on_estimate(1e-2)   # another isolated spike
        assert watchdog.mode == "ordered"
        assert watchdog.transitions == []

    def test_consecutive_windows_demote(self):
        watchdog = self._watchdog()
        watchdog._on_estimate(1e-2)
        assert watchdog.mode == "ordered"   # first window only arms
        watchdog._on_estimate(1e-2)
        assert watchdog.mode == "non-blocking"
        assert len(watchdog.transitions) == 1

    def test_oscillation_around_threshold_never_demotes(self):
        watchdog = self._watchdog()
        for _ in range(50):
            watchdog._on_estimate(1e-2)
            watchdog._on_estimate(1e-4)
        assert watchdog.mode == "ordered"
        assert watchdog.transitions == []

    def test_harsher_target_counts_as_confirmation(self):
        watchdog = self._watchdog()
        watchdog._on_estimate(1e-2)    # asks for non-blocking
        watchdog._on_estimate(1e-1)    # worse: asks for off — confirms
        assert watchdog.mode == "non-blocking"

    def test_escalation_to_off_needs_its_own_confirmation(self):
        watchdog = self._watchdog()
        watchdog._on_estimate(1e-2)
        watchdog._on_estimate(1e-2)
        assert watchdog.mode == "non-blocking"
        watchdog._on_estimate(1e-1)
        assert watchdog.mode == "non-blocking"  # armed, not yet confirmed
        watchdog._on_estimate(1e-1)
        assert watchdog.mode == "off"

    def test_confirm_windows_one_demotes_immediately(self):
        watchdog = self._watchdog(confirm_windows=1)
        watchdog._on_estimate(1e-2)
        assert watchdog.mode == "non-blocking"

    def test_confirm_windows_validation(self):
        with pytest.raises(ValueError):
            self._watchdog(confirm_windows=0)
