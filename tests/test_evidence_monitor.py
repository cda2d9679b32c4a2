"""The evidence-monitor contract, checked once for every evidence kind.

``StreamingArbiter`` (port counters) and ``BlameMonitor`` (007 voting)
bind different estimators to the one
:class:`~repro.fleet.monitor.EvidenceMonitor` loop; everything the loop
owns — the hysteresis band, the out-of-range reject, the policy lookup,
the decision log, the evidence label, the common counts/state keys,
``flush()`` and the onset/clear counters and trace instants — must
behave the same whichever estimator feeds it.  Estimator-specific
behaviour (pod sharding, oracle-signature goldens, window decay) is
tested beside the estimators in ``test_service.py``/``test_blame.py``.
"""

import pytest

from repro.blame import BlameMonitor, FlowReport
from repro.fleet.controller import ControllerConfig
from repro.fleet.monitor import EvidenceMonitor
from repro.fleet.topology import FleetSpec, FleetTopology
from repro.obs import Observability
from repro.service import StreamingArbiter, TelemetryRecord

SMALL_FLEET = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                        spine_uplinks=4, mttf_hours=300.0)
ONSET = 1e-3            # with clear_hysteresis 0.1: clear below 1e-4
HIGH, BAND, LOW = "high", "band", "low"   # >= onset | in between | < clear

COMMON_COUNTS = {
    "activations", "disables", "blocked", "preemptions", "max_concurrent_lg",
    "records_seen", "records_rejected", "onsets", "clears", "tracked_links",
    "open_episodes",
}
COMMON_STATE = {
    "evidence", "counts", "shard_sizes", "corrupting", "lg_active",
    "exposed", "last_record_s",
}


class CounterKind:
    """Feeds one poll interval whose loss is the asked level."""

    evidence = "port_counters"
    obs_prefix = "service.arbiter"
    extra_counts = set()
    extra_state = set()
    FRAMES = 10_000     # == window_frames: the estimate is the last interval
    LOST = {HIGH: 100, BAND: 5, LOW: 0}

    def __init__(self):
        self.counters = {}

    def make(self, policy="incremental", **kwargs) -> EvidenceMonitor:
        return StreamingArbiter(
            FleetTopology(SMALL_FLEET, seed=1), ControllerConfig(), policy,
            window_frames=self.FRAMES, onset_threshold=ONSET, **kwargs)

    def show(self, monitor, link, time_s, level):
        rx_all, rx_ok = self.counters.get(link, (0, 0))
        if not rx_all:      # a baseline snapshot to difference against
            monitor.observe(TelemetryRecord(time_s - 1.0, link, 0, 0))
        rx_all += self.FRAMES
        rx_ok += self.FRAMES - self.LOST[level]
        self.counters[link] = (rx_all, rx_ok)
        return monitor.observe(TelemetryRecord(time_s, link, rx_all, rx_ok))

    def naming(self, link):
        return TelemetryRecord(1.0, link, 100, 100)


class VotingKind:
    """Feeds one evidence window whose vote inverts to the asked level."""

    evidence = "voting"
    obs_prefix = "blame.monitor"
    extra_counts = {"reports_flagged", "evaluations"}
    extra_state = {"last_verdict"}
    FLOWS = 400
    # flagged of 400 single-link flows of 100 packets each: the inverted
    # per-packet loss is ~2.2e-3 | ~5.1e-4 | nothing (dropped from the
    # blamed set) ...
    FLAGGED = {HIGH: 80, BAND: 20, LOW: 0}
    # ... judged against clean background flows on a healthy link, so
    # the vote's binomial noise bar sits well below 20 flagged
    BACKGROUND, HEALTHY_LINK = 3600, 31

    def make(self, policy="incremental", **kwargs) -> EvidenceMonitor:
        # Rounds are 20 s apart and end in flush(): each vote sees
        # exactly one round, the cadence re-vote never fires.
        return BlameMonitor(
            FleetTopology(SMALL_FLEET, seed=1), ControllerConfig(), policy,
            window_s=10.0, eval_interval_s=1e9, onset_threshold=ONSET,
            **kwargs)

    def show(self, monitor, link, time_s, level):
        fresh = []
        for flow in range(self.FLOWS + self.BACKGROUND):
            on_link = flow < self.FLOWS
            fresh += monitor.observe(FlowReport(
                time_s, flow, 0, 0, 0, 1,
                (link if on_link else self.HEALTHY_LINK,),
                flow < self.FLAGGED[level]))
        return fresh + monitor.flush(time_s)

    def naming(self, link):
        return FlowReport(1.0, 0, 0, 0, 0, 1, (3, link), True)


@pytest.fixture(params=[CounterKind, VotingKind],
                ids=["port_counters", "voting"])
def kind(request):
    return request.param()


class TestMonitorContract:
    def test_hysteresis_band_does_not_flap(self, kind):
        monitor = kind.make()
        assert kind.show(monitor, 3, 20.0, BAND) == []    # below onset
        assert (monitor.onsets, monitor.clears) == (0, 0)
        onset = kind.show(monitor, 3, 40.0, HIGH)
        assert [d["link_id"] for d in onset] == [3]
        assert (monitor.onsets, monitor.clears) == (1, 0)
        assert [link for link, _ in monitor.corrupting_links()] == [3]
        # Between the clear and onset thresholds: stays open, no re-onset.
        for tick in (3, 4):
            assert kind.show(monitor, 3, 20.0 * tick, BAND) == []
        assert (monitor.onsets, monitor.clears) == (1, 0)
        kind.show(monitor, 3, 100.0, LOW)
        assert (monitor.onsets, monitor.clears) == (1, 1)
        assert monitor.corrupting_links() == []
        assert monitor.counts()["open_episodes"] == 0
        # From below, the band is still "healthy"; only HIGH re-opens.
        assert kind.show(monitor, 3, 120.0, BAND) == []
        assert monitor.onsets == 1
        kind.show(monitor, 3, 140.0, HIGH)
        assert (monitor.onsets, monitor.clears) == (2, 1)

    def test_bad_links_rejected_not_fatal(self, kind):
        monitor = kind.make()
        for link in (monitor.topology.n_links, 10_000, -1):
            assert monitor.observe(kind.naming(link)) == []
        counts = monitor.counts()
        assert counts["records_rejected"] == monitor.rejected == 3
        assert counts["records_seen"] == 0
        assert counts["tracked_links"] == 0
        assert kind.show(monitor, 3, 40.0, HIGH)          # still alive

    def test_unknown_policy_is_value_error(self, kind):
        with pytest.raises(ValueError, match="unknown fleet policy"):
            kind.make(policy="bogus")

    def test_decision_log_is_capped(self, kind):
        monitor = kind.make(decision_log=2)
        fresh = []
        for link in (3, 5, 7):
            fresh += kind.show(monitor, link, 20.0 * link, HIGH)
        # (a complete voting verdict also clears the link it stopped naming)
        assert len(fresh) >= 3                 # every decision is returned
        assert list(monitor.decisions) == fresh[-2:]      # two are retained

    def test_evidence_label_on_every_record(self, kind):
        monitor = kind.make()
        assert monitor.evidence == kind.evidence
        for link in (3, 5):
            kind.show(monitor, link, 20.0 * link, HIGH)
        assert [d["link_id"] for d in monitor.decisions] == [3, 5]
        assert all(d["evidence"] == kind.evidence for d in monitor.decisions)
        assert all(set(d) == {"time_s", "link_id", "action", "loss_rate",
                              "evidence"} for d in monitor.decisions)
        assert monitor.state_dict()["evidence"] == kind.evidence

    def test_common_counts_and_state_keys(self, kind):
        monitor = kind.make()
        kind.show(monitor, 5, 40.0, HIGH)
        counts = monitor.counts()
        assert set(counts) == COMMON_COUNTS | kind.extra_counts
        assert counts["onsets"] == 1
        assert (counts["disables"] + counts["activations"]
                + counts["blocked"]) == 1
        assert len(monitor.decisions) == 1    # ... and it reached the log
        state = monitor.state_dict()
        assert set(state) == COMMON_STATE | kind.extra_state
        assert state["counts"] == counts
        assert [row["link_id"] for row in state["corrupting"]] == [5]
        assert state["corrupting"][0]["loss_estimate"] >= ONSET
        assert sum(state["shard_sizes"].values()) == counts["tracked_links"]

    def test_flush_is_idempotent(self, kind):
        monitor = kind.make()
        kind.show(monitor, 3, 40.0, HIGH)
        monitor.flush()
        decisions = list(monitor.decisions)
        corrupting = monitor.corrupting_links()
        assert monitor.flush() == [] == monitor.flush()
        assert list(monitor.decisions) == decisions
        assert monitor.corrupting_links() == corrupting
        assert (monitor.onsets, monitor.clears) == (1, 0)

    def test_onsets_and_clears_reach_registry_and_trace(self, kind):
        obs = Observability(tracing=True)
        monitor = kind.make(obs=obs)
        kind.show(monitor, 3, 40.0, HIGH)
        kind.show(monitor, 3, 60.0, LOW)
        registry = obs.registry
        assert registry.counter(f"{kind.obs_prefix}.onsets").value == 1
        assert registry.counter(f"{kind.obs_prefix}.clears").value == 1
        category = kind.obs_prefix.split(".")[0]
        instants = [(event.name, event.args["link"])
                    for event in obs.tracer.events()
                    if event.category == category]
        assert instants == [("onset", 3), ("clear", 3)]

    def test_a_long_stream_holds_only_what_is_open(self, kind):
        # The controller forgets a cleared episode with its segments, and
        # the monitor empties the controller's decision list as it drains
        # it: pass after pass of onsets and clears, each of the three
        # stays within the open count.
        monitor = kind.make()
        controller = monitor.controller
        time_s = 0.0
        for _ in range(4):
            for link in (3, 5, 7):
                kind.show(monitor, link, time_s := time_s + 20.0, HIGH)
                kind.show(monitor, link, time_s := time_s + 20.0, LOW)
            kind.show(monitor, 9, time_s := time_s + 20.0, HIGH)
            open_now = monitor.counts()["open_episodes"]
            assert open_now == 1
            assert len(controller.episodes) == open_now
            assert len(controller.outcome.segments) == open_now
            assert controller.outcome.decisions == []
            assert [episode.link_id
                    for episode in controller.episodes.values()] == [9]
        assert monitor.onsets >= 13 and monitor.clears >= 12
        assert len(monitor.decisions) >= 13
