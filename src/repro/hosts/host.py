"""End-host model: NIC, stack delay, and per-flow demultiplexing.

A :class:`Host` owns one NIC port attached to a switch.  The configurable
``stack_delay_ns`` stands in for everything the paper's 30 µs TCP RTT
contains besides wire time — kernel, driver and interrupt latency — and
is much smaller for the NIC-offloaded RDMA transport.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.engine import Simulator
from ..packets.packet import Packet
from ..switchsim.link import Ingress, Link
from ..switchsim.port import EgressPort
from ..switchsim.queues import Queue
from ..switchsim.switch import Switch
from ..units import gbps

__all__ = ["Host"]


class Host:
    """A server with one NIC, attachable to a switch port."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: int = gbps(100),
        stack_delay_ns: int = 6_000,
        obs=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rate_bps = int(rate_bps)
        self.stack_delay_ns = int(stack_delay_ns)
        self.obs = obs
        self.nic: Optional[EgressPort] = None
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        self._default_handler: Optional[Callable[[Packet], None]] = None
        self.received = 0
        self.received_bytes = 0
        if obs is not None:
            obs.registry.register_provider(f"host.{name}", self.obs_snapshot)

    def obs_snapshot(self) -> dict:
        return {
            "received": self.received,
            "received_bytes": self.received_bytes,
        }

    # -- wiring ---------------------------------------------------------------------

    def attach(self, switch: Switch, propagation_ns: int = 500,
               queue_capacity: Optional[int] = None) -> None:
        """Cable this host to ``switch`` (both directions) and install routes."""
        uplink = Link(
            self.sim, propagation_ns,
            receiver=switch.ingress(),
            name=f"{self.name}->{switch.name}",
            obs=self.obs,
        )
        self.nic = EgressPort(
            self.sim, self.rate_bps, uplink,
            queues=[Queue(capacity_bytes=queue_capacity)], name=f"{self.name}:nic",
        )
        downlink = Link(
            self.sim, propagation_ns,
            receiver=Ingress(self.stack_delay_ns, self._dispatch),
            name=f"{switch.name}->{self.name}",
            obs=self.obs,
        )
        switch.add_port(self.name, self.rate_bps, downlink)
        switch.set_route(self.name, self.name)

    # -- datapath ----------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Transmit through the stack and NIC."""
        if self.nic is None:
            raise RuntimeError(f"host {self.name} is not attached to a switch")
        self.sim.schedule(self.stack_delay_ns, self.nic.enqueue, packet, 0)

    def _dispatch(self, packet: Packet) -> None:
        self.received += 1
        self.received_bytes += packet.size
        handler = self._handlers.get(packet.flow_id, self._default_handler)
        if handler is not None:
            handler(packet)

    # -- demux registration -----------------------------------------------------------------

    def register_handler(self, flow_id: int, handler: Callable[[Packet], None]) -> None:
        self._handlers[flow_id] = handler

    def unregister_handler(self, flow_id: int) -> None:
        self._handlers.pop(flow_id, None)

    def set_default_handler(self, handler: Callable[[Packet], None]) -> None:
        """Catch-all for flows with no registered endpoint (listening socket)."""
        self._default_handler = handler
