"""Tests for the host/NIC model."""

import pytest

from repro.core.engine import Simulator
from repro.experiments.testbed import build_testbed
from repro.hosts.host import Host
from repro.packets.packet import Packet
from repro.units import MS


class TestHost:
    def test_send_requires_attachment(self):
        sim = Simulator()
        host = Host(sim, "h1")
        with pytest.raises(RuntimeError):
            host.send(Packet(size=100, dst="x"))

    def test_roundtrip_through_switch(self):
        testbed = build_testbed(lg_active=False)
        h1 = testbed.add_host("h1", "tx", stack_delay_ns=1_000)
        h2 = testbed.add_host("h2", "rx", stack_delay_ns=1_000)
        got = []
        h2.register_handler(7, got.append)
        h1.send(Packet(size=200, src="h1", dst="h2", flow_id=7))
        testbed.sim.run(until=1 * MS)
        assert len(got) == 1
        assert h2.received == 1

    def test_stack_delay_applied_both_ways(self):
        testbed = build_testbed(lg_active=False)
        h1 = testbed.add_host("h1", "tx", stack_delay_ns=50_000)
        h2 = testbed.add_host("h2", "rx", stack_delay_ns=50_000)
        arrival = []
        h2.register_handler(1, lambda p: arrival.append(testbed.sim.now))
        testbed.sim.schedule(0, h1.send, Packet(size=100, src="h1", dst="h2", flow_id=1))
        testbed.sim.run(until=1 * MS)
        assert arrival and arrival[0] >= 100_000  # two stack traversals

    def test_default_handler_catches_unknown_flows(self):
        testbed = build_testbed(lg_active=False)
        h1 = testbed.add_host("h1", "tx")
        h2 = testbed.add_host("h2", "rx")
        caught = []
        h2.set_default_handler(caught.append)
        h1.send(Packet(size=100, src="h1", dst="h2", flow_id=999))
        testbed.sim.run(until=1 * MS)
        assert len(caught) == 1

    def test_unregister_stops_delivery_to_handler(self):
        testbed = build_testbed(lg_active=False)
        h1 = testbed.add_host("h1", "tx")
        h2 = testbed.add_host("h2", "rx")
        got = []
        h2.register_handler(5, got.append)
        h2.unregister_handler(5)
        h1.send(Packet(size=100, src="h1", dst="h2", flow_id=5))
        testbed.sim.run(until=1 * MS)
        assert got == []
        assert h2.received == 1  # counted, just not dispatched

