"""Tests for corruptd monitoring, the Wharf model, and flow classification."""

import hashlib
import json

import pytest

from lg_fixtures import build_testbed

from repro.monitor.corruptd import NOTIFY_DELAY_NS, Corruptd
from repro.monitor.fallback import AutoFallback
from repro.obs import Observability
from repro.phy.loss import BernoulliLoss
from repro.transport.flow import FlowRecord
from repro.analysis.classify import classify_flows
from repro.wharf.model import WharfFec, best_parameters
from repro.units import MS

import numpy as np


def _summary_digest(summary: dict) -> str:
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()


def _run_until_detected(testbed, daemon, limit_ms=40):
    """Run poll by poll and stop at the one that latches a detection."""
    for _ in range(limit_ms):
        testbed.sim.run(until=testbed.sim.now + MS)
        if daemon.detected is not None:
            return daemon.detected
    raise AssertionError("corruptd never noticed the corruption")


class TestCorruptd:
    def _monitored_testbed(self, loss_rate, obs=None):
        loss = BernoulliLoss(loss_rate, np.random.default_rng(3)) if loss_rate else None
        testbed = build_testbed(loss=loss, activate_loss_rate=None)
        daemon = Corruptd(
            testbed.sim, testbed.plink,
            poll_interval_ns=MS,          # accelerated polling for the test
            window_frames=10_000,
            obs=obs,
        )
        daemon.start()
        return testbed, daemon

    def test_detects_corruption_and_activates_lg(self):
        testbed, daemon = self._monitored_testbed(loss_rate=5e-3)
        testbed.inject(30_000, spacing_ns=1_000)
        testbed.sim.run(until=40 * MS)
        assert daemon.detected, "corruptd never noticed the corruption"
        assert testbed.plink.active
        _, loss_rate = daemon.detected
        assert loss_rate == pytest.approx(5e-3, rel=0.6)

    def test_healthy_link_never_triggers(self):
        testbed, daemon = self._monitored_testbed(loss_rate=0.0)
        testbed.inject(20_000, spacing_ns=1_000)
        testbed.sim.run(until=30 * MS)
        assert daemon.detected is None
        assert not testbed.plink.active

    def test_lg_masks_loss_after_activation(self):
        """End-to-end control loop: corruption starts, corruptd activates
        LinkGuardian, subsequent losses are recovered."""
        testbed, daemon = self._monitored_testbed(loss_rate=2e-3)
        testbed.inject(60_000, spacing_ns=1_000)
        testbed.sim.run(until=80 * MS)
        assert testbed.plink.active
        stats = testbed.plink.summary()
        assert stats["recovered"] > 0
        # Once active, deliveries resume in order and losses are masked.
        assert stats["timeouts"] <= stats["loss_events"] * 0.05

    def test_window_loss_rate_none_without_samples(self):
        testbed, daemon = self._monitored_testbed(loss_rate=0.0)
        assert daemon.window_loss_rate() is None

    def test_estimate_below_threshold_is_not_latched(self):
        loss = BernoulliLoss(5e-3, np.random.default_rng(3))
        testbed = build_testbed(loss=loss, activate_loss_rate=None)
        daemon = Corruptd(testbed.sim, testbed.plink, poll_interval_ns=MS,
                          window_frames=10_000, activation_threshold=1e-2)
        daemon.start()
        testbed.inject(30_000, spacing_ns=1_000)
        testbed.sim.run(until=40 * MS)
        assert daemon.window_loss_rate() > 0
        assert daemon.detected is None
        assert not testbed.plink.active

    def test_activation_lands_one_notify_delay_after_detection(self):
        testbed, daemon = self._monitored_testbed(loss_rate=5e-3)
        testbed.inject(30_000, spacing_ns=1_000)
        detected_ns, _ = _run_until_detected(testbed, daemon)
        testbed.sim.run(until=detected_ns + NOTIFY_DELAY_NS - 1)
        assert not testbed.plink.active
        testbed.sim.run(until=detected_ns + NOTIFY_DELAY_NS)
        assert testbed.plink.active

    def test_detection_latches_the_first_estimate(self):
        testbed, daemon = self._monitored_testbed(loss_rate=5e-3)
        activations = []
        activate = testbed.plink.activate

        def recorded_activate(rate):
            activations.append(rate)
            return activate(rate)

        testbed.plink.activate = recorded_activate
        testbed.inject(30_000, spacing_ns=1_000)
        testbed.sim.run(until=40 * MS)
        first = daemon.detected
        daemon._on_estimate(0.5)
        testbed.sim.run(until=50 * MS)
        assert daemon.detected == first
        assert activations == [first[1]]

    def test_notice_in_flight_survives_stop(self):
        """Stopping the daemon between detection and activation does not
        recall the notice already on its way upstream."""
        testbed, daemon = self._monitored_testbed(loss_rate=5e-3)
        testbed.inject(30_000, spacing_ns=1_000)
        _run_until_detected(testbed, daemon)
        daemon.stop()
        assert not testbed.plink.active
        testbed.sim.run(until=40 * MS)
        assert testbed.plink.active
        assert testbed.plink.sender.n_copies > 0

    #: recorded when the notice still crossed an in-process pub-sub bus
    #: with the same 1 ms delay: the direct call must activate at the
    #: same nanosecond with the same bits.
    PINNED = {
        5e-3: dict(
            frames=30_000, until_ms=40, activated_ns=3_000_000,
            detected=(2_000_000, "0.0050000000000000044"), n_copies=3,
            polls=40, window_loss_rate=0.004329876145403255,
            summary=("264e926ccf5c8491b7859fdf6dac745d"
                     "9c11f3f2aa277bb891ed65610ac6aa88"),
        ),
        2e-3: dict(
            frames=60_000, until_ms=80, activated_ns=4_000_000,
            detected=(3_000_000, "0.0024999999999999467"), n_copies=3,
            polls=80, window_loss_rate=0.0018126888217522286,
            summary=("a0e416e217126d78cdec39e4f9ede154"
                     "126deb81c1227286cd3629571d32165b"),
        ),
    }

    @pytest.mark.parametrize("loss_rate", sorted(PINNED))
    def test_activation_is_pinned(self, loss_rate):
        pin = self.PINNED[loss_rate]
        obs = Observability()
        testbed, daemon = self._monitored_testbed(loss_rate, obs=obs)
        plink = testbed.plink
        flips = []
        activate = plink.activate

        def recorded_activate(rate):
            flips.append(testbed.sim.now)
            return activate(rate)

        plink.activate = recorded_activate
        testbed.inject(pin["frames"], spacing_ns=1_000)
        testbed.sim.run(until=pin["until_ms"] * MS)

        detected_ns, loss = daemon.detected
        assert flips == [pin["activated_ns"]]
        assert (detected_ns, repr(loss)) == pin["detected"]
        assert plink.sender.n_copies == pin["n_copies"]
        assert _summary_digest(plink.summary()) == pin["summary"]
        link = plink.forward_link.name
        events = [(e.ts, e.name, e.phase, e.args)
                  for e in obs.tracer.events() if e.category == "corruptd"]
        assert events == [
            (detected_ns, "corruption_notice", "i",
             {"link": link, "loss_rate": loss}),
            (pin["activated_ns"], "lg_activate", "i",
             {"link": link, "n_copies": pin["n_copies"], "loss_rate": loss}),
        ]
        snapshot = {name: value for name, value in obs.snapshot().items()
                    if not name.startswith("engine.")}
        assert snapshot == {f"corruptd.{link}": {
            "polls": pin["polls"], "notices": 1, "notified": True,
            "running": True, "window_loss_rate": pin["window_loss_rate"],
        }}


def _corruptd(testbed):
    return Corruptd(testbed.sim, testbed.plink, poll_interval_ns=MS,
                    window_frames=10_000)


def _fallback(testbed):
    return AutoFallback(testbed.sim, testbed.plink, poll_interval_ns=MS,
                        window_frames=10_000)


@pytest.mark.parametrize("make", [_corruptd, _fallback],
                         ids=["corruptd", "fallback"])
class TestPollLoop:
    """A monitor polls once per interval however it is started and
    stopped: a restart leaves one poll chain, not two."""

    def test_stop_then_start_within_an_interval(self, make):
        testbed = build_testbed(activate_loss_rate=None)
        monitor = make(testbed)
        monitor.start()
        testbed.sim.run(until=MS + MS // 2)
        monitor.stop()
        monitor.start()
        testbed.sim.run(until=10 * MS + MS // 2)
        assert monitor.polls == 10

    def test_second_start_is_a_no_op(self, make):
        testbed = build_testbed(activate_loss_rate=None)
        monitor = make(testbed)
        monitor.start()
        monitor.start()
        testbed.sim.run(until=10 * MS + MS // 2)
        assert monitor.polls == 10

    def test_stop_ends_polling(self, make):
        testbed = build_testbed(activate_loss_rate=None)
        monitor = make(testbed)
        monitor.start()
        testbed.sim.run(until=3 * MS + MS // 2)
        monitor.stop()
        testbed.sim.run(until=10 * MS)
        assert monitor.polls == 3 and not monitor.running


class TestWharf:
    def test_code_rate(self):
        assert WharfFec(25, 1).code_rate == pytest.approx(25 / 26)
        assert WharfFec(5, 1).code_rate == pytest.approx(5 / 6)

    def test_residual_loss_zero_without_loss(self):
        assert WharfFec(25, 1).residual_loss(0.0) == 0.0

    def test_residual_loss_much_smaller_than_raw(self):
        fec = WharfFec(25, 1)
        assert fec.residual_loss(1e-4) < 1e-4 / 100

    def test_residual_loss_monotone(self):
        fec = WharfFec(25, 1)
        rates = [1e-5, 1e-4, 1e-3, 1e-2]
        residuals = [fec.residual_loss(r) for r in rates]
        assert residuals == sorted(residuals)

    def test_heavier_code_for_heavy_loss(self):
        assert best_parameters(1e-4) == WharfFec(25, 1)
        assert best_parameters(1e-2) == WharfFec(5, 1)

    def test_table3_goodput_ratio_shape(self):
        """Wharf's constant tax: ~96% of capacity up to 1e-3, ~83% at 1e-2
        (matching the 9.13 and 7.91 Gb/s rows of Table 3 on a 10G link)."""
        assert best_parameters(1e-3).code_rate == pytest.approx(9.13 / 9.49, abs=0.01)
        assert best_parameters(1e-2).code_rate == pytest.approx(7.91 / 9.49, abs=0.01)


class TestClassification:
    def _flow(self, fid, saw_sack=True, burst=0, pending=0):
        flow = FlowRecord(flow_id=fid, size_bytes=24_387)
        flow.saw_sack = saw_sack
        flow.max_sack_burst = burst
        flow.pending_bytes_at_reduction = pending
        return flow

    def test_unaffected_flows_not_classified(self):
        flows = [self._flow(1, saw_sack=False)]
        result = classify_flows(flows)
        assert result.affected == 0 and result.total == 1

    def test_group_a_small_sack_no_tail(self):
        result = classify_flows([self._flow(1, burst=1460)])
        assert result.group_a == 1 and result.group_b == 0

    def test_group_b_small_sack_tail_loss(self):
        result = classify_flows([self._flow(1, burst=1460)], tail_loss_flow_ids={1})
        assert result.group_b == 1

    def test_group_c_large_sack_nothing_pending(self):
        result = classify_flows([self._flow(1, burst=5 * 1460, pending=0)])
        assert result.group_c == 1

    def test_group_d_large_sack_with_pending(self):
        result = classify_flows([self._flow(1, burst=5 * 1460, pending=7 * 1460)])
        assert result.group_d == 1

    def test_tree_partitions_affected_flows(self):
        flows = [
            self._flow(1, burst=1460),
            self._flow(2, burst=1460),
            self._flow(3, burst=9000, pending=0),
            self._flow(4, burst=9000, pending=100),
            self._flow(5, saw_sack=False),
        ]
        result = classify_flows(flows, tail_loss_flow_ids={2})
        assert result.affected == 4
        groups = result.group_a + result.group_b + result.group_c + result.group_d
        assert groups == result.affected
        assert result.as_dict()["A"] == 1
