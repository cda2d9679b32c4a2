"""Idle loops coast — and nobody can tell.

A quiet LinkGuardian link books its dummy and explicit-ACK cycles in
bulk instead of dispatching four events per frame (DESIGN §5a).
These tests hold the two paths together: the same run with a no-op
``tap`` on both links (which pins the per-frame path) must agree with
the coasting run on every result, every counter and the loss process's
RNG position, and must dispatch exactly the events the coasting run
reports as elided.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.experiments.fct as fct_module
import repro.experiments.stress as stress_module
from repro.core.engine import Simulator
from repro.core.rng import RngFactory
from repro.linkguardian.bidirectional import BidirectionalProtectedLink
from repro.obs import Observability
from repro.obs.trace import Tracer
from repro.packets.packet import LgAckHeader, LgDataHeader, Packet, PacketKind
from repro.phy.loss import (
    BernoulliLoss, DataFrameLoss, GilbertElliottLoss, LossProcess, NoLoss,
    ScriptedLoss,
)
from repro.switchsim.link import Link
from repro.switchsim.switch import Switch
from repro.units import US, gbps

from lg_fixtures import build_testbed
from queue_contract import QueueLog, linear_earliest


def _noop_tap(packet, corrupted):
    pass


def _pin(plink):
    plink.forward_link.tap = _noop_tap
    plink.reverse_link.tap = _noop_tap


def _position(process) -> tuple:
    """A loss process's counters and its generator's position."""
    fields = dict(vars(process))
    rng = fields.pop("_rng", None)
    return fields, (rng.bit_generator.state if rng is not None else None)


def _everything(testbed) -> dict:
    """Every counter a run leaves on the protected link, the loss
    processes' positions and the clock."""
    plink, sim = testbed.plink, testbed.sim
    return {
        "sender": plink.sender.stats.snapshot(),
        "receiver": plink.receiver.stats.snapshot(),
        "retx_delays": list(plink.receiver.stats.retx_delays_ns),
        "tx_occupancy": plink.sender.tx_occupancy.summary(),
        "rx_occupancy": plink.receiver.rx_occupancy.summary(),
        "sender_port": plink.sender_port.egress.snapshot(),
        "receiver_port": plink.receiver_port.egress.snapshot(),
        "forward_link": plink.forward_link.rx_counters.snapshot(),
        "reverse_link": plink.reverse_link.rx_counters.snapshot(),
        "forward_loss": _position(plink.forward_link.loss),
        "reverse_loss": _position(plink.reverse_link.loss),
        "now": sim.now,
    }


def _run_experiment(monkeypatch, module, run, pinned: bool):
    """``run()`` with the experiment's testbed captured and, if asked,
    pinned to the per-frame path before anything is scheduled."""
    built = []
    build = module.build_testbed

    def capturing(*args, **kwargs):
        testbed = build(*args, **kwargs)
        if pinned:
            _pin(testbed.plink)
        built.append(testbed)
        return testbed

    with monkeypatch.context() as patch:
        patch.setattr(module, "build_testbed", capturing)
        result = run()
    (testbed,) = built
    return result, testbed


def _assert_same_run(pinned_bed, coasting_bed) -> None:
    assert _everything(pinned_bed) == _everything(coasting_bed)
    pinned_sim, coasting_sim = pinned_bed.sim, coasting_bed.sim
    assert pinned_sim.events_elided == 0
    assert (coasting_sim.events_processed + coasting_sim.events_elided
            == pinned_sim.events_processed)


def _loss(rate: float, mean_burst: float, seed: int):
    if rate <= 0.0:
        return None
    rng = RngFactory(seed).stream("link-loss")
    if mean_burst > 1.0:
        return GilbertElliottLoss(rate, mean_burst, rng)
    return BernoulliLoss(rate, rng)


# -- (a) pinned == coasting, whole experiments ---------------------------------

@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    transport=st.sampled_from(["dctcp", "cubic", "bbr", "rdma"]),
    scenario=st.sampled_from(["lg", "lgnb"]),
    flow_size=st.sampled_from([143, 1_500, 24_387]),
    loss_rate=st.sampled_from([0.0, 1e-3, 1e-2, 5e-2]),
    mean_burst=st.sampled_from([1.0, 1.35, 3.0]),
    seed=st.integers(1, 10_000),
)
def test_fct_pinned_equals_coasting(monkeypatch, transport, scenario,
                                    flow_size, loss_rate, mean_burst, seed):
    def run():
        return fct_module.run_fct_experiment(
            transport=transport, flow_size=flow_size, n_trials=8,
            scenario=scenario, loss_rate=loss_rate, seed=seed,
            loss=_loss(loss_rate, mean_burst, seed))

    pinned, pinned_bed = _run_experiment(monkeypatch, fct_module, run, True)
    coasting, coasting_bed = _run_experiment(
        monkeypatch, fct_module, run, False)
    assert np.array_equal(pinned.fcts_us, coasting.fcts_us)
    assert pinned.records == coasting.records
    assert pinned.tail_loss_flow_ids == coasting.tail_loss_flow_ids
    assert pinned.incomplete == coasting.incomplete
    _assert_same_run(pinned_bed, coasting_bed)
    assert coasting_bed.sim.events_elided > 0    # the gaps between trials


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ordered=st.booleans(),
    loss_rate=st.sampled_from([1e-4, 1e-3, 1e-2]),
    mean_burst=st.sampled_from([1.0, 1.35, 3.0]),
    seed=st.integers(1, 10_000),
)
# one recovery leaves the two loops half a cycle apart, each one's frame
# landing just after the other decides: they must still coast
@example(ordered=False, loss_rate=1e-4, mean_burst=1.0, seed=1220)
@example(ordered=False, loss_rate=1e-4, mean_burst=1.35, seed=2487)
@example(ordered=True, loss_rate=1e-4, mean_burst=3.0, seed=77)
def test_stress_pinned_equals_coasting(monkeypatch, ordered, loss_rate,
                                       mean_burst, seed):
    def run():
        return stress_module.run_stress_test(
            loss_rate=loss_rate, ordered=ordered, duration_ms=0.1,
            seed=seed, mean_burst=mean_burst)

    pinned, pinned_bed = _run_experiment(
        monkeypatch, stress_module, run, True)
    coasting, coasting_bed = _run_experiment(
        monkeypatch, stress_module, run, False)
    assert dataclasses.asdict(pinned) == dataclasses.asdict(coasting)
    _assert_same_run(pinned_bed, coasting_bed)
    # at line rate the ACKs carry news and the forward port is never
    # idle; the post-injection drain is where this one coasts
    assert coasting_bed.sim.events_elided > 0


def test_only_a_frame_without_news_lands_quietly():
    testbed = build_testbed()
    testbed.inject(5)
    testbed.sim.run(until=300 * US)
    plink = testbed.plink
    assert plink.receiver.next_rx == plink.sender.acked_next == (0, 5)

    def dummy(frontier):
        frame = Packet(size=64, kind=PacketKind.LG_DUMMY)
        if frontier is not None:
            frame.meta["lg_frontier"] = (0, frontier)
        return frame

    def ack(ackno):
        frame = Packet(size=64, kind=PacketKind.LG_ACK)
        frame.lg_ack = LgAckHeader(ackno, 0)
        return frame

    dummies, acks = plink.sender.dummy_loop, plink.receiver.ack_loop
    assert [dummies.lands_quietly(dummy(f)) for f in (None, 4, 5, 6)] == [
        True, True, True, False]                # 6: a tail loss to detect
    assert [acks.lands_quietly(ack(n)) for n in (4, 5, 6)] == [
        True, True, False]                      # 6: frees buffered copies
    data = Packet(size=1_500)
    assert not dummies.lands_quietly(data)
    assert not dummies.lands_quietly(ack(5))
    assert not acks.lands_quietly(dummy(5))


def test_corrupted_coasted_frames_reach_on_corrupt_and_nothing_else():
    """2 % loss on an otherwise silent link: every dummy the wire eats
    is reported to the corruption hook, stamped as it left."""
    seen = {}
    for pinned in (True, False):
        testbed = build_testbed(
            loss=BernoulliLoss(0.02, RngFactory(3).stream("loss")))
        lost = seen[pinned] = []
        testbed.plink.forward_link.on_corrupt = lambda packet, lost=lost: (
            lost.append((packet.kind, packet.size,
                         packet.meta.get("lg_frontier"))))
        if pinned:
            _pin(testbed.plink)
        testbed.sim.run(until=2_000 * US)
    assert seen[True] == seen[False]
    assert len(seen[False]) > 20


# -- (b) the loss processes draw in bulk exactly as they draw one by one ---------

def _builtin_processes(seed: int):
    def rng():
        return RngFactory(seed).stream("loss")

    return {
        "noloss": lambda: NoLoss(),
        "bernoulli": lambda: BernoulliLoss(0.07, rng()),
        "bernoulli-always": lambda: BernoulliLoss(1.0, rng()),
        "bernoulli-never": lambda: BernoulliLoss(0.0, rng()),
        "gilbert-elliott": lambda: GilbertElliottLoss(0.05, 2.5, rng()),
        "scripted": lambda: ScriptedLoss({0, 3, 4, 17, 40, 41, 99}),
        "dataframe": lambda: DataFrameLoss({0, 2}, per_flow={1: [0]}),
    }


@pytest.mark.parametrize("name", sorted(_builtin_processes(0)))
@settings(max_examples=25, deadline=None)
@given(chunks=st.lists(st.integers(0, 40), min_size=1, max_size=8),
       seed=st.integers(0, 1_000))
def test_corrupts_idle_is_n_calls_of_corrupts(name, chunks, seed):
    make = _builtin_processes(seed)[name]
    bulk, single = make(), make()
    frame = Packet(size=64)     # header-less: what an idle loop sends
    for n in chunks:
        expected = [i for i in range(n) if single.corrupts(frame)]
        assert bulk.corrupts_idle(n) == expected
        assert _position(bulk) == _position(single)
    # and the streams stay in step afterwards
    assert ([bulk.corrupts(frame) for _ in range(50)]
            == [single.corrupts(frame) for _ in range(50)])


@pytest.mark.parametrize("make", [
    lambda rng: BernoulliLoss(0.05, rng),
    lambda rng: GilbertElliottLoss(0.05, mean_burst=2.0, rng=rng),
    lambda rng: ScriptedLoss({3, 17, 40}),
    lambda rng: DataFrameLoss({2, 9}, per_flow={7: {0}}),
], ids=["bernoulli", "gilbert-elliott", "scripted", "dataframe"])
def test_idle_runs_between_data_frames_keep_the_position(make):
    """A coasting link interleaves protected data (asked one by one)
    with runs of control frames (asked in bulk): the process must end
    each step where the frame-by-frame one does, and keep deciding the
    same afterwards."""
    data = Packet(size=1_500, flow_id=7)
    data.lg = LgDataHeader(seqno=0, era=0)
    control = Packet(size=64)
    bulk = make(RngFactory(3).stream("loss"))
    single = make(RngFactory(3).stream("loss"))
    for idle in (3, 0, 11, 1, 25):
        assert bulk.corrupts(data) == single.corrupts(data)
        assert bulk.corrupts_idle(idle) == [
            i for i in range(idle) if single.corrupts(control)]
        assert _position(bulk) == _position(single)
    assert ([bulk.corrupts(data) for _ in range(60)]
            == [single.corrupts(data) for _ in range(60)])


def test_a_process_that_must_see_frames_is_asked_frame_by_frame():
    class EveryThird(LossProcess):
        def __init__(self):
            self.seen = 0

        def corrupts(self, packet=None):
            self.seen += 1
            return self.seen % 3 == 0

    process = EveryThird()
    assert process.corrupts_idle(5) is None
    assert process.seen == 0
    testbed = build_testbed(loss=process)
    testbed.sim.run(until=100 * US)
    # the forward loop stayed per-frame, so the process saw every dummy
    assert process.seen == testbed.plink.sender.stats.dummies_sent
    assert process.seen >= 99


# -- (c) the look-ahead query ---------------------------------------------------------

class _Loop:
    def __init__(self, coastable=True):
        self.can = coastable
        self.fired = 0

    def coastable(self):
        return self.can

    def replenish(self):
        self.fired += 1


def _never(entry):
    return False


class TestHorizon:
    def test_earliest_looks_past_cancelled_heads_and_removes_nothing(self):
        sim = Simulator()
        doomed = [sim.schedule(10 + i, lambda: None) for i in range(3)]
        sim.schedule(50, lambda: None)
        for event in doomed:
            event.cancel()
        held = len(sim.queue)
        assert sim.queue.earliest(_never) == 50
        assert len(sim.queue) == held
        assert sim.queue.cancelled_pending == 3
        assert sim.peek() == 50          # the destructive one agrees

    def test_empty_and_all_skipped_is_none(self):
        sim = Simulator()
        assert sim.queue.earliest(_never) is None
        sim.schedule(5, lambda: None)
        assert sim.queue.earliest(lambda entry: True) is None

    @pytest.mark.parametrize("child_times", [
        (20, 30), (30, 20), (20, 20), (15, 10_000), (10_000, 15)])
    def test_skipped_head_with_earlier_and_later_children(self, child_times):
        sim = Simulator()
        skipped = {sim.schedule(10, lambda: None)}   # the root
        for time in child_times:
            sim.schedule(time, lambda: None)
        # grandchildren, some earlier than the other child
        for time in (25, 40, 12_000):
            sim.schedule(time, lambda: None)
        assert sim.queue.earliest(
            lambda entry: entry[3] in skipped) == min(child_times)

    def test_skipped_and_cancelled_chain(self):
        sim = Simulator()
        skipped = set()
        for time in range(1, 9):
            event = sim.schedule(time, lambda: None)
            if time % 2:
                event.cancel()
            else:
                skipped.add(event)
        sim.schedule(9, lambda: None)
        sim.schedule(5_000, lambda: None)
        assert sim.queue.earliest(lambda entry: entry[3] in skipped) == 9

    def test_horizon_skips_coastable_loops_only(self):
        sim = Simulator()
        calm, busy = _Loop(True), _Loop(False)
        seen = []
        sim.schedule(10, lambda: seen.append(sim.idle_horizon()))
        sim.schedule_idle(20, calm)
        sim.schedule_idle(30, busy)
        sim.schedule(40, lambda: None)
        sim.run(until=1_000)
        assert seen == [30]
        assert (calm.fired, busy.fired) == (1, 1)
        assert sim.idle_pending(calm) == sim.idle_pending(busy) == 0

    def test_horizon_skips_quiet_landings_only(self):
        sim = Simulator()
        landed = []

        def land(frame):
            landed.append(frame)

        sim.idle_landing(land, lambda frame: frame == "quiet")
        seen = []

        def look():
            seen.append(sim.idle_horizon() - sim.now)

        sim.schedule(10, look)
        sim.schedule(20, land, "quiet")
        sim.schedule(30, land, "news")
        sim.schedule(100, look)
        sim.schedule(110, land, "quiet")
        sim.schedule(120, lambda frame: None, "quiet")    # not registered
        sim.schedule(200, look)
        sim.schedule(210, land, "quiet")
        sim.run(until=1_000)
        assert seen == [20, 20, 800]
        assert landed == ["quiet", "news", "quiet", "quiet"]

    def test_until_caps_the_horizon(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(sim.idle_horizon()))
        sim.schedule_idle(20, _Loop())
        sim.schedule(5_000, lambda: None)
        sim.run(until=700)
        assert seen == [700]
        sim.schedule(0, lambda: seen.append(sim.idle_horizon()))
        sim.run(until=9_000)
        assert seen == [700, 5_000]

    def test_no_look_ahead_without_a_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(sim.idle_horizon()))
        sim.schedule_idle(20, _Loop())
        sim.run()                          # no until, nothing else pending
        assert seen == [0]

    def test_max_events_and_stop_when_mean_no_look_ahead(self):
        sim = Simulator()
        seen = []
        for time in (10, 20):
            sim.schedule(time, lambda: seen.append(sim.idle_horizon()))
        sim.schedule(500, lambda: None)
        sim.run(until=1_000, max_events=1)
        sim.run(until=1_000, stop_when=lambda: len(seen) == 2)
        assert seen == [0, 0]

    def test_outside_run_is_zero(self):
        sim = Simulator()
        sim.schedule(500, lambda: None)
        assert sim.idle_horizon() == 0
        sim.run(until=100)
        assert sim.idle_horizon() == 0

    def test_clear_drops_the_registry_and_the_elided_count(self):
        sim = Simulator()
        loop = _Loop()
        sim.schedule_idle(20, loop)
        sim.schedule_idle(30, loop)
        sim.events_elided = 7
        assert sim.idle_pending(loop) == 2
        sim.clear()
        assert sim.idle_pending(loop) == 0
        assert sim.events_elided == 0
        sim.run(until=100)
        assert loop.fired == 0


@pytest.mark.parametrize("seed", range(4))
def test_earliest_equals_a_linear_scan(monkeypatch, seed):
    log = QueueLog(monkeypatch)
    rng = np.random.default_rng(11 + seed)
    sim = Simulator()
    for _ in range(300):
        delay, fate = int(rng.integers(0, 2_000)), int(rng.integers(0, 4))
        event = sim.schedule(delay, lambda fate: None, fate)
        if fate == 0:
            event.cancel()

    def skip(entry):
        return entry[5][0] == 1

    assert sim.queue.earliest(skip) == linear_earliest(log, skip) is not None
    sim.run(until=700)           # part-drained
    assert log.popped
    assert sim.queue.earliest(skip) == linear_earliest(log, skip) is not None


# -- (d) observers pin the per-frame path: exactly the parent's event count ---------

def _quiet_link_events(observe=None, **config) -> Simulator:
    """Five MTU frames, one of them corrupted, then 300 us of silence."""
    testbed = build_testbed(loss=ScriptedLoss({3}), **config)
    if observe is not None:
        observe(testbed.plink)
    testbed.inject(5)
    testbed.sim.run(until=300 * US)
    assert len(testbed.delivered) == 5
    return testbed.sim


#: ``events_processed`` of ``_quiet_link_events`` on the per-frame path,
#: where every frame is three events: its enqueue, its serializer finish
#: and its landing (wire and pipeline are one hop).  Before hops were
#: folded every frame was four events and these read 2,425 / 3,615 /
#: 4,798.
PARENT_EVENTS = 1_823
PARENT_EVENTS_TWO_DUMMIES = 2_715
PARENT_EVENTS_BIDIRECTIONAL = 3_601


def _enable_link_tracers(plink):
    plink.forward_link._tracer = Tracer(capacity=16, enabled=True)
    plink.reverse_link._tracer = Tracer(capacity=16, enabled=True)


def _attach_residence_histograms(plink):
    # what ProtectedLink(obs=...) does to its two ports
    obs = Observability(tracing=False)
    plink.sender_port.egress.attach_obs(obs)
    plink.receiver_port.egress.attach_obs(obs)


@pytest.mark.parametrize("observe", [
    _pin, _enable_link_tracers, _attach_residence_histograms])
def test_an_observer_pins_the_per_frame_path(observe):
    sim = _quiet_link_events(observe)
    assert (sim.events_processed, sim.events_elided) == (PARENT_EVENTS, 0)


def test_unobserved_the_same_run_coasts_and_accounts_for_every_event():
    sim = _quiet_link_events()
    assert sim.events_processed + sim.events_elided == PARENT_EVENTS
    assert sim.events_processed < PARENT_EVENTS / 4


def test_one_observed_direction_still_adds_up():
    # The tapped loop's frames are real events again, one per ~1 us and
    # phase-aligned with the other loop's replenish: they are that
    # loop's horizon, so it coasts little or not at all — but whatever
    # it does book is accounted for.
    def tap_forward(plink):
        plink.forward_link.tap = _noop_tap

    sim = _quiet_link_events(tap_forward)
    assert sim.events_processed + sim.events_elided == PARENT_EVENTS
    assert sim.events_processed > PARENT_EVENTS / 2


def test_two_dummy_copies_stay_per_frame():
    sim = _quiet_link_events(_pin, dummy_copies=2)
    assert (sim.events_processed, sim.events_elided) == (
        PARENT_EVENTS_TWO_DUMMIES, 0)
    # unobserved, the dummy loop still may not coast
    sim = _quiet_link_events(dummy_copies=2)
    assert sim.events_processed + sim.events_elided == PARENT_EVENTS_TWO_DUMMIES
    assert sim.events_processed > PARENT_EVENTS_TWO_DUMMIES / 2


def test_the_bidirectional_link_stays_per_frame():
    sim = Simulator()
    switch_a, switch_b = Switch(sim, "a"), Switch(sim, "b")
    blink = BidirectionalProtectedLink(sim, switch_a, switch_b)
    sink = []
    switch_b.add_port("sink", gbps(100), Link(sim, 10, receiver=sink.append))
    switch_b.set_route("dst", "sink")
    switch_a.set_route("dst", blink.port_ab_name)
    blink.activate(1e-4)
    for index in range(5):
        sim.schedule(0, switch_a.forward,
                     Packet(size=1_500, dst="dst", flow_id=index))
    sim.run(until=300 * US)
    assert len(sink) == 5
    assert (sim.events_processed, sim.events_elided) == (
        PARENT_EVENTS_BIDIRECTIONAL, 0)


# -- satellite: a flap does not double the loops -------------------------------------

@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("gap_ns", [50, 200, 5_000])
def test_deactivate_then_activate_leaves_one_frame_per_loop(gap_ns, pinned):
    testbed = build_testbed()
    if pinned:
        _pin(testbed.plink)
    sim, plink = testbed.sim, testbed.plink
    sender, receiver = plink.sender.stats, plink.receiver.stats

    def per_window():
        before = (sender.dummies_sent, receiver.explicit_acks)
        sim.run(until=sim.now + 100 * US)
        return (sender.dummies_sent - before[0],
                receiver.explicit_acks - before[1])

    # one frame per 1006 ns: 99 or 100 a window (the parent: 200 after
    # one flap inside replenish_delay_ns, another 100 for each more)
    one_loop_each = {(a, b) for a in (99, 100) for b in (99, 100)}
    sim.run(until=100 * US)
    assert per_window() in one_loop_each
    plink.deactivate()
    sim.run(until=sim.now + gap_ns)
    plink.activate(1e-4)
    per_window()                     # the window holding the flap itself
    assert per_window() in one_loop_each
    # ... however often corruptd's hysteresis flaps
    for _ in range(3):
        plink.deactivate()
        sim.run(until=sim.now + gap_ns)
        plink.activate(1e-4)
    per_window()
    assert per_window() in one_loop_each
