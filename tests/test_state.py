"""Snapshot/restore contracts for the state layer.

Round-trips the components a snapshot is made of, checks that a
snapshot refuses the wrong target, and — the load-bearing tests —
materializes a warmed-up protected link into a fresh simulator mid-run
and shows the continuation behaves exactly like the original under
identical scripted loss, and that restoring one snapshot many times
gives the same world every time (the hybrid splicer's windows).
"""

import pytest

from repro.analysis.stats import OccupancyTracker
from repro.core.engine import Simulator
from repro.core.state import SnapshotError, apply, capture
from repro.experiments.stress import STRESS_DST, stress_world
from repro.linkguardian.sender import PHASE_BLOCK
from repro.packets.packet import Packet
from repro.phy.loss import DataFrameLoss
from repro.switchsim.counters import PortCounters
from repro.switchsim.link import Link
from repro.switchsim.port import EgressPort
from repro.switchsim.queues import Queue
from repro.units import MTU_FRAME, gbps, serialization_ns


# -- building blocks ---------------------------------------------------------


def test_counters_round_trip():
    counters = PortCounters()
    counters.record_tx(100)
    counters.record_rx(100, ok=True)
    counters.record_rx(80, ok=False)
    twin = PortCounters()
    apply(twin, capture(counters))
    assert twin.snapshot() == counters.snapshot()


def test_queue_round_trip_preserves_contents_and_stats():
    queue = Queue(capacity_bytes=10_000, name="normal")
    for i in range(5):
        queue.push(Packet(size=1_000, flow_id=i))
    queue.pop()
    snap = capture(queue)
    twin = Queue(capacity_bytes=10_000, name="normal")
    apply(twin, snap)
    assert twin.snapshot() == queue.snapshot()
    assert [p.flow_id for p in twin._fifo] == [p.flow_id for p in queue._fifo]
    # Restored packets are copies: draining the twin leaves the original.
    twin.pop()
    assert queue.depth_packets == 4
    assert not {id(p) for p in twin._fifo} & {id(p) for p in queue._fifo}


def test_occupancy_round_trip():
    tracker = OccupancyTracker(0)
    tracker.update(10, 5)
    tracker.update(30, 2)
    twin = OccupancyTracker(0)
    apply(twin, capture(tracker))
    tracker.finish(100)
    twin.finish(100)
    assert twin.summary() == tracker.summary()


def test_apply_refuses_a_state_of_another_type():
    with pytest.raises(SnapshotError):
        apply(Queue(), capture(PortCounters()))
    with pytest.raises(SnapshotError):
        apply(Queue(), {"_fifo": [], "_bytes": 0, "stats": None})


def test_port_refuses_a_snapshot_with_another_queue_count():
    sim = Simulator()
    link = Link(sim, 10, receiver=lambda packet: None)
    three = EgressPort(sim, gbps(100), link, [Queue(), Queue(), Queue()])
    one = EgressPort(sim, gbps(100), link, [Queue()])
    with pytest.raises(SnapshotError):
        one.restore(capture(three))


def _port_world(delivered):
    sim = Simulator()
    link = Link(sim, 10, receiver=delivered.append)
    return sim, EgressPort(sim, gbps(100), link, [Queue(), Queue()])


def test_port_restore_rekicks_the_serializer():
    # Queue content rides in the snapshot, the serializer does not: the
    # restored port must start draining on its own.
    _, port = _port_world([])
    for i in range(5):
        port.queues[1].push(Packet(size=MTU_FRAME, flow_id=i))
    state = capture(port)

    delivered = []
    sim, twin = _port_world(delivered)
    twin.restore(state)
    sim.run()
    assert [p.flow_id for p in delivered] == list(range(5))
    assert twin.tx_counters.frames_tx == 5
    assert twin.link.rx_counters.frames_rx_ok == 5
    assert port.queues[1].depth_packets == 5


def test_apply_writes_nested_components_in_place():
    # Whatever else holds a port's queues or counters keeps seeing the
    # restored values, not a stale object.
    _, port = _port_world([])
    port.queues[0].push(Packet(size=1_000, flow_id=7))
    port.tx_counters.record_tx(1_000)
    port.pause(1)

    _, twin = _port_world([])
    queues, queue0, counters = twin.queues, twin.queues[0], twin.tx_counters
    apply(twin, capture(port))
    assert twin.queues is queues and twin.queues[0] is queue0
    assert twin.tx_counters is counters
    assert counters.snapshot() == port.tx_counters.snapshot()
    assert [p.flow_id for p in queue0._fifo] == [7]
    assert twin.is_paused(1) and not twin.is_paused(0)


# -- protected-link materialization ------------------------------------------


def _delivered(testbed) -> int:
    """Frames the stress world's receiver delivered."""
    return testbed.plink.receiver.stats.delivered


def _quiesce(testbed, injected):
    """Run until ``injected`` frames were delivered and nothing is
    pending on the protected link."""
    sim, plink = testbed.sim, testbed.plink
    deadline = sim.now + 50_000_000
    while sim.now < deadline:
        sim.run(until=sim.now + 50_000)
        if (
            _delivered(testbed) >= injected
            and plink.sender.buffer_packets == 0
            and not plink.receiver._missing
            and not plink.receiver._buffer
            and not plink.receiver._draining
        ):
            return
    raise AssertionError("testbed did not quiesce")


def _stress_world(seed=1, activate=True):
    """The stress harness's world at 100G.

    A world built to *receive* a snapshot is left dormant
    (``activate=False``): activation state rides in the snapshot, and
    restore requires an idle simulator (no pre-existing control events).
    """
    testbed = stress_world(100, seed=seed)
    if activate:
        testbed.plink.activate(1e-3)
    return testbed


def _inject_burst(testbed, count, start_flow=0):
    sim = testbed.sim
    spacing = serialization_ns(MTU_FRAME, gbps(100))
    for i in range(count):
        sim.schedule(i * spacing, testbed.sender_switch.forward,
                     Packet(size=MTU_FRAME, dst=STRESS_DST,
                            flow_id=start_flow + i))


def _warm_template(count=40):
    testbed = _stress_world()
    _inject_burst(testbed, count)
    _quiesce(testbed, count)
    return testbed


def _continuation(testbed):
    """30 more frames, the 5th and 6th dropped: a 2-frame burst
    exercising detection, notification and retx."""
    plink = testbed.plink
    plink.set_loss(DataFrameLoss({4, 5}))
    base = _delivered(testbed)
    _inject_burst(testbed, 30, start_flow=1_000)
    _quiesce(testbed, base + 30)
    return plink.summary()


def test_protected_link_restore_continues_like_the_original():
    # World A: warm up, quiesce, snapshot — then continue under scripted
    # loss.  World B: fresh build, restore the snapshot, continue under
    # the same scripted loss.  Protocol outcomes must match exactly.
    testbed_a = _warm_template()
    snap = testbed_a.plink.snapshot()
    assert snap["sim_now"] == testbed_a.sim.now
    assert snap["sender"]["stats"].protected == 40

    testbed_b = _stress_world(activate=False)
    testbed_b.plink.restore(snap)
    assert testbed_b.sim.now == snap["sim_now"]
    # The restored world starts from the captured counters...
    assert testbed_b.plink.sender.stats.protected == 40
    assert testbed_b.plink.receiver.stats.delivered == \
        testbed_a.plink.receiver.stats.delivered

    summary_a = _continuation(testbed_a)
    summary_b = _continuation(testbed_b)
    for summary in (summary_a, summary_b):
        summary.pop("tx_buffer")
        summary.pop("rx_buffer")
    assert summary_a == summary_b
    captured = snap["receiver"]["stats"]
    assert summary_a["loss_events"] == captured.loss_events + 2
    assert summary_a["recovered"] == captured.recovered + 2
    assert summary_a["timeouts"] == captured.timeouts


def test_one_snapshot_restores_the_same_world_every_time():
    # The splicer restores one snapshot into many windows: a restored
    # world running, and the template moving on, must leave the snapshot
    # as captured.  (An ``apply`` that assigned without copying would
    # hand world A the snapshot's own counters, and B would start from
    # A's end state.)
    template = _warm_template()
    snap = template.plink.snapshot()
    never_used = template.plink.snapshot()
    at_capture = template.plink.summary()

    world_a = _stress_world(activate=False)
    world_a.plink.restore(snap)
    _continuation(world_a)
    _inject_burst(template, 25, start_flow=500)
    _quiesce(template, _delivered(template) + 25)

    world_b = _stress_world(activate=False)
    world_b.plink.restore(snap)
    world_c = _stress_world(activate=False)
    world_c.plink.restore(never_used)
    assert world_b.plink.summary() == world_c.plink.summary() == at_capture
    assert world_b.plink.summary() != world_a.plink.summary()
    assert (_continuation(world_b)
            == _continuation(world_c))


def test_restore_excluding_loss_keeps_window_process():
    testbed_a = _warm_template(10)
    snap = testbed_a.plink.snapshot()

    testbed_b = _stress_world(activate=False)
    window_loss = DataFrameLoss({0})
    testbed_b.plink.set_loss(window_loss)
    testbed_b.plink.restore(snap)
    assert testbed_b.plink.forward_link.loss is window_loss


def test_receiver_snapshot_mid_drain_raises():
    testbed = _stress_world()
    receiver = testbed.plink.receiver
    receiver._draining = True
    with pytest.raises(SnapshotError):
        receiver.snapshot()


def test_receiver_restore_rearms_ack_no_timeout():
    # A snapshot with an outstanding loss must time out in the restored
    # world at the deadline its detection time implies.
    testbed_a = _warm_template(10)
    snap = testbed_a.plink.snapshot()
    detected = testbed_a.sim.now
    captured = snap["receiver"]
    captured["_missing"][(0, 9_999)] = detected  # fabricated stuck loss
    captured["stats"].loss_events += 1

    testbed_b = _stress_world(activate=False)
    testbed_b.plink.restore(snap)
    receiver = testbed_b.plink.receiver
    assert (0, 9_999) in receiver._missing
    timeout_ns = testbed_b.plink.config.ack_no_timeout_ns
    testbed_b.sim.run(until=detected + 2 * timeout_ns + 100_000)
    assert (0, 9_999) not in receiver._missing
    assert receiver.stats.timeouts == captured["stats"].timeouts + 1


def test_restore_carries_the_nb_fallback():
    # The NB fallback flips ``config.ordered`` at runtime; a world built
    # ordered must continue non-blocking after restoring such a snapshot.
    testbed_a = _warm_template(10)
    testbed_a.plink.receiver.switch_to_non_blocking()
    snap = testbed_a.plink.snapshot()
    assert snap["receiver"]["ordered"] is False

    testbed_b = _stress_world(activate=False)
    assert testbed_b.plink.receiver.config.ordered
    testbed_b.plink.restore(snap)
    assert testbed_b.plink.receiver.config.ordered is False
    assert testbed_b.plink.receiver._nb_floor == \
        testbed_a.plink.receiver._nb_floor

    summary_a = _continuation(testbed_a)
    summary_b = _continuation(testbed_b)
    for summary in (summary_a, summary_b):
        summary.pop("tx_buffer")
        summary.pop("rx_buffer")
    assert summary_a == summary_b
    assert summary_a["recovered"] == snap["receiver"]["stats"].recovered + 2


def test_sender_buffer_and_index_share_entries_after_restore():
    # One memo per snapshot: the Tx buffer and its by-key index hold the
    # same entries in the restored sender, none of them the original's.
    testbed = _stress_world()
    _inject_burst(testbed, 20)
    testbed.sim.run(until=testbed.sim.now + 1_000)
    sender = testbed.plink.sender
    assert sender.buffer_packets > 0
    state = sender.snapshot()

    twin_bed = _stress_world(activate=False)
    twin = twin_bed.plink.sender
    twin.restore(state)
    assert ([(e.era, e.seqno) for e in twin._buffer]
            == [(e.era, e.seqno) for e in sender._buffer])
    assert len(twin._entries) == len(twin._buffer)
    for entry in twin._buffer:
        assert twin._entries[(entry.era, entry.seqno)] is entry
    assert not {id(e) for e in twin._buffer} & {id(e) for e in sender._buffer}


def test_rng_stream_round_trip():
    # The recirculation-phase position rides in the sender's snapshot
    # and is written into the restoring world's own generator.
    testbed = _stress_world()
    _inject_burst(testbed, 10)
    testbed.sim.run(until=testbed.sim.now + 2_000)
    sender = testbed.plink.sender
    state = sender.snapshot()
    expected = sender._phase_rng.random(20).tolist()

    twin_bed = _stress_world(seed=2, activate=False)
    twin = twin_bed.plink.sender
    generator = twin._phase_rng
    twin.restore(state)
    assert twin._phase_rng is generator
    assert generator.random(20).tolist() == expected


def test_snapshot_mid_phase_block_keeps_the_per_frame_position():
    # The sender draws recirculation phases PHASE_BLOCK at a time; after
    # 300 mirrored frames (one whole block and 44 of the next) a snapshot
    # must carry the generator where 300 per-frame draws leave it, and a
    # world restored from it must continue exactly like a world that was
    # never snapshotted — phases decide when each retx fires.
    count = PHASE_BLOCK + 44
    uninterrupted = _warm_template(count)
    template = _warm_template(count)
    sender = template.plink.sender
    assert sender.stats.protected - sender.stats.unprotected == count
    snap = template.plink.snapshot()

    scalar = _stress_world(activate=False).plink.sender._phase_rng
    loop = template.plink.config.recirc_loop_ns
    for _ in range(count):
        scalar.integers(0, loop)
    assert snap["sender"]["phase_rng"] == scalar.bit_generator.state

    restored = _stress_world(activate=False)
    restored.plink.restore(snap)
    for world in (uninterrupted, template, restored):
        _continuation(world)
    # taking the snapshot left the live world's run untouched ...
    assert (uninterrupted.plink.sender.stats
            == template.plink.sender.stats)
    # ... and the restored world draws the same phases: the two
    # continuation losses wait as long for their copies to come around
    delays = [world.plink.receiver.stats.retx_delays_ns[-2:]
              for world in (uninterrupted, template, restored)]
    assert delays[0] == delays[1] == delays[2]
