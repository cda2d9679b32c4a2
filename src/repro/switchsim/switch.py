"""Output-queued switch model.

A :class:`Switch` receives frames from its links (:meth:`Switch.ingress`:
a fixed pipeline latency, then :meth:`Switch.forward`), consults a
destination-based forwarding table and enqueues into the chosen egress
port's normal queue.

Protocol machinery hooks in at two points, mirroring where LinkGuardian
sits in the Tofino pipeline:

* an **egress handler** on a port sees every frame *before* it is
  enqueued toward that port (the LinkGuardian sender stamps seqNos and
  mirrors Tx-buffer copies here);
* the **ingress** of the link feeding a port: its handler sees every
  frame arriving *from* that link, one pipeline pass after the wire,
  instead of ``forward`` (the LinkGuardian receiver runs loss detection
  and the reordering buffer here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.engine import Simulator
from ..packets.packet import Packet
from .link import Ingress, Link
from .port import EgressPort
from .queues import Queue

__all__ = ["Switch", "SwitchPort"]

#: default time a frame spends in the ingress+egress pipeline (ns); the
#: Tofino pipeline is a few hundred ns per pass.
DEFAULT_PIPELINE_NS = 400


@dataclass
class SwitchPort:
    """An attachment point: the egress side plus ingress bookkeeping."""

    name: str
    egress: EgressPort
    normal_queue_index: int = 0
    egress_handler: Optional[Callable[[Packet], None]] = None


class Switch:
    """A store-and-forward switch with per-destination routing."""

    def __init__(self, sim: Simulator, name: str, pipeline_ns: int = DEFAULT_PIPELINE_NS) -> None:
        self.sim = sim
        self.name = name
        self.pipeline_ns = int(pipeline_ns)
        self.ports: Dict[str, SwitchPort] = {}
        self._routes: Dict[str, str] = {}
        #: packets dropped because no route existed (should stay 0 in tests)
        self.unrouted = 0

    # -- wiring ---------------------------------------------------------------

    def add_port(
        self,
        name: str,
        rate_bps: int,
        link: Link,
        queues: Optional[List[Queue]] = None,
        normal_queue_index: int = 0,
    ) -> SwitchPort:
        """Create an egress port feeding ``link`` and register it as ``name``."""
        egress = EgressPort(self.sim, rate_bps, link, queues, name=f"{self.name}:{name}")
        port = SwitchPort(name=name, egress=egress, normal_queue_index=normal_queue_index)
        self.ports[name] = port
        return port

    def set_route(self, dst: str, port_name: str) -> None:
        if port_name not in self.ports:
            raise KeyError(f"{self.name} has no port {port_name!r}")
        self._routes[dst] = port_name

    # -- datapath ---------------------------------------------------------------

    def ingress(self) -> Ingress:
        """The receiving end for a :class:`Link` into this switch: one
        pipeline pass, then :meth:`forward`."""
        return Ingress(self.pipeline_ns, self.forward)

    def forward(self, packet: Packet) -> None:
        """Route and enqueue toward the destination (post-pipeline)."""
        port_name = self._routes.get(packet.dst)
        if port_name is None:
            self.unrouted += 1
            return
        self.transmit_via(packet, port_name)

    def transmit_via(self, packet: Packet, port_name: str) -> None:
        """Send out a specific port, honouring any egress handler."""
        port = self.ports[port_name]
        if port.egress_handler is not None:
            port.egress_handler(packet)
            return
        port.egress.enqueue(packet, port.normal_queue_index)
