"""Tests for queues, egress ports, links and the switch datapath."""

import pytest

from repro.core.engine import Simulator
from repro.packets.packet import EcnCodepoint, Packet
from repro.phy.loss import BernoulliLoss
from repro.switchsim.link import Link
from repro.switchsim.port import EgressPort
from repro.switchsim.queues import Queue
from repro.switchsim.switch import Switch
from repro.units import gbps, serialization_ns

import numpy as np


def make_packet(size=1518, dst="sink", **kw):
    return Packet(size=size, dst=dst, **kw)


class TestQueue:
    def test_fifo_order_and_byte_accounting(self):
        queue = Queue()
        first, second = make_packet(100), make_packet(200)
        queue.push(first)
        queue.push(second)
        assert queue.depth_bytes == 300
        assert queue.pop() is first
        assert queue.depth_bytes == 200
        assert queue.pop() is second
        assert queue.pop() is None

    def test_drop_tail(self):
        dropped = []
        queue = Queue(capacity_bytes=250, on_drop=dropped.append)
        assert queue.push(make_packet(200))
        assert not queue.push(make_packet(100))
        assert queue.stats.dropped == 1
        assert len(dropped) == 1

    def test_ecn_marking_above_threshold(self):
        queue = Queue(ecn_threshold_bytes=150)
        queue.push(make_packet(100, ecn=EcnCodepoint.ECT))
        below = make_packet(100, ecn=EcnCodepoint.ECT)
        queue.push(below)
        assert below.ecn is EcnCodepoint.ECT  # depth was 100 < 150
        above = make_packet(100, ecn=EcnCodepoint.ECT)
        queue.push(above)
        assert above.ecn is EcnCodepoint.CE   # depth was 200 >= 150

    def test_ecn_skips_not_ect(self):
        queue = Queue(ecn_threshold_bytes=0)
        packet = make_packet(100)  # NOT_ECT
        queue.push(packet)
        assert packet.ecn is EcnCodepoint.NOT_ECT

    def test_max_depth_tracked(self):
        queue = Queue()
        queue.push(make_packet(500))
        queue.push(make_packet(500))
        queue.pop()
        assert queue.stats.max_bytes == 1000


class TestEgressPortAndLink:
    def _setup(self, rate=gbps(100), loss=None):
        sim = Simulator()
        received = []
        link = Link(sim, propagation_ns=50, receiver=received.append, loss=loss)
        port = EgressPort(sim, rate, link, queues=[Queue(), Queue()])
        return sim, port, received

    def test_serialization_then_propagation(self):
        sim, port, received = self._setup()
        port.enqueue(make_packet(1518), 0)
        sim.run()
        # 124 ns serialization + 50 ns propagation
        assert received and sim.now == serialization_ns(1518, gbps(100)) + 50

    def test_strict_priority(self):
        sim, port, received = self._setup(rate=gbps(1))
        low = make_packet(200, flow_id=2)
        high = make_packet(200, flow_id=1)
        filler = make_packet(1518, flow_id=0)
        port.enqueue(filler, 1)      # starts serializing immediately
        port.enqueue(low, 1)
        port.enqueue(high, 0)        # must jump ahead of `low`
        sim.run()
        assert [p.flow_id for p in received] == [0, 1, 2]

    def test_pause_resume_gates_one_queue(self):
        sim, port, received = self._setup()
        port.pause(1)
        port.enqueue(make_packet(100, flow_id=7), 1)
        sim.run(until=10_000)
        assert received == []
        port.resume(1)
        sim.run()
        assert [p.flow_id for p in received] == [7]

    def test_pause_does_not_gate_other_queues(self):
        sim, port, received = self._setup()
        port.pause(1)
        port.enqueue(make_packet(100, flow_id=1), 1)
        port.enqueue(make_packet(100, flow_id=0), 0)
        sim.run()
        assert [p.flow_id for p in received] == [0]

    def test_work_conserving_back_to_back(self):
        sim, port, received = self._setup(rate=gbps(100))
        for _ in range(10):
            port.enqueue(make_packet(1518), 0)
        sim.run()
        assert len(received) == 10
        assert sim.now == 10 * serialization_ns(1518, gbps(100)) + 50

    def test_corruption_drops_frame_but_counts_it(self):
        rng = np.random.default_rng(1)
        sim, port, received = self._setup(loss=BernoulliLoss(0.5, rng))
        for _ in range(2000):
            port.enqueue(make_packet(100), 0)
        sim.run()
        counters = port.link.rx_counters
        assert counters.frames_rx_all == 2000
        assert counters.frames_rx_ok == len(received)
        assert counters.rx_loss_rate == pytest.approx(0.5, abs=0.05)

    def test_on_dequeue_and_on_transmit_hooks(self):
        sim, port, received = self._setup()
        events = []
        port.on_dequeue = lambda p, q: events.append(("deq", q))
        port.on_transmit = lambda p, q: events.append(("tx", q))
        port.enqueue(make_packet(100), 1)
        sim.run()
        assert events == [("deq", 1), ("tx", 1)]


class TestSwitch:
    def test_forwarding_between_ports(self):
        sim = Simulator()
        sink = []
        switch = Switch(sim, "sw1")
        out_link = Link(sim, 10, receiver=sink.append)
        switch.add_port("east", gbps(100), out_link)
        switch.set_route("hostB", "east")

        in_link = Link(sim, 10, receiver=switch.ingress())
        west_port_link = Link(sim, 10, receiver=lambda p: None)
        switch.add_port("west", gbps(100), west_port_link)

        in_link.transmit(make_packet(dst="hostB"))
        sim.run()
        assert len(sink) == 1

    def test_unrouted_packets_counted(self):
        sim = Simulator()
        switch = Switch(sim, "sw1")
        switch.forward(make_packet(dst="nowhere"))
        sim.run()
        assert switch.unrouted == 1

    def test_pipeline_latency_applied(self):
        sim = Simulator()
        sink = []
        switch = Switch(sim, "sw1", pipeline_ns=400)
        switch.add_port("out", gbps(100), Link(sim, 0, receiver=sink.append))
        switch.set_route("h", "out")
        Link(sim, 0, receiver=switch.ingress()).transmit(
            make_packet(100, dst="h"))
        sim.run()
        assert sim.now >= 400

    def test_set_route_requires_existing_port(self):
        sim = Simulator()
        switch = Switch(sim, "sw1")
        with pytest.raises(KeyError):
            switch.set_route("h", "missing")

    def test_ingress_handler_intercepts(self):
        sim = Simulator()
        seen = []
        switch = Switch(sim, "sw1")
        in_link = Link(sim, 0, receiver=switch.ingress())
        in_link.ingress.handler = seen.append
        in_link.transmit(make_packet(dst="h"))
        sim.run()
        assert len(seen) == 1 and switch.unrouted == 0
        assert sim.now == switch.pipeline_ns      # still one pipeline pass

    def test_egress_handler_intercepts(self):
        sim = Simulator()
        seen = []
        switch = Switch(sim, "sw1")
        switch.add_port("out", gbps(100), Link(sim, 0, receiver=lambda p: None))
        switch.ports["out"].egress_handler = seen.append
        switch.set_route("h", "out")
        switch.forward(make_packet(dst="h"))
        sim.run()
        assert len(seen) == 1
