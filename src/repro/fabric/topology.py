"""Facebook-fabric datacenter topology (paper Figure 4, §4.8).

The topology is the unit the CorrOpt evaluation runs on: pods of
``tors_per_pod`` ToR switches, each connected to all
``fabrics_per_pod`` fabric switches; each fabric switch has
``spine_uplinks`` uplinks into its spine plane.  Every ToR therefore has
``fabrics_per_pod * spine_uplinks`` valley-free paths to the spine
layer (4 x 48 = 192 in the paper).

The topology keeps its own books.  ``FabricLink.up`` is a plain
assignment to its callers, and each change of value reports to the
owning topology, which

* **maintains integers, incrementally** — per (pod, fabric) the number
  of up spine links and per (pod, ToR) the number of valley-free paths
  (a ToR-fabric link carries ``up-spine-links(fabric)`` paths; a
  fabric-spine link carries one path for every ToR still connected to
  that fabric switch).  Integer updates are exact in any order, so
  ``fabric_up_spine_links``/``tor_paths``/``pod_min_tor_paths`` are
  reads and CorrOpt's fast checker (:meth:`FabricTopology.can_disable`)
  is a read-only comparison;
* **sums floats on demand** — ``pod_capacity_fraction`` adds up each
  link's effective capacity (its LinkGuardian speed fraction when up,
  zero when disabled) over the pod's two pre-built per-stage link
  lists, in link order.  Nothing about capacity is stored, so
  ``speed_fraction`` is an ordinary attribute.  A running total would
  round differently from the in-order sum (``k + 0.92 + 1 + ...``) and
  every capacity figure downstream would move in its last digits.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

__all__ = ["FabricLink", "FabricTopology"]

TOR_FABRIC = "tor-fabric"
FABRIC_SPINE = "fabric-spine"


class FabricLink:
    """One optical switch-to-switch link and its operational state.

    Links are built by their :class:`FabricTopology` and are not
    constructible standalone: the first constructor argument is the
    owning topology, whose books a write to ``up`` updates
    (``speed_fraction`` is read when capacity is summed).  Equality is
    by identity: two links are equal only if they are the same object.
    """

    __slots__ = (
        "link_id", "kind", "pod", "fabric", "tor", "spine_port",
        "corrupting", "loss_rate", "lg_enabled",
        "speed_fraction", "_up", "_topology",
    )

    def __init__(self, topology: "FabricTopology", link_id: int, kind: str,
                 pod: int, fabric: int, tor: int = -1,
                 spine_port: int = -1) -> None:
        self.link_id = link_id
        self.kind = kind               # TOR_FABRIC or FABRIC_SPINE
        self.pod = pod
        self.fabric = fabric
        self.tor = tor                 # valid for TOR_FABRIC
        self.spine_port = spine_port   # valid for FABRIC_SPINE
        self.corrupting = False
        self.loss_rate = 0.0
        self.lg_enabled = False
        self.speed_fraction = 1.0      # < 1 when LinkGuardian trades speed
        self._up = True
        self._topology = topology

    def __repr__(self) -> str:
        where = (f"tor={self.tor}" if self.kind == TOR_FABRIC
                 else f"spine_port={self.spine_port}")
        return (f"FabricLink({self.link_id}, {self.kind}, pod={self.pod}, "
                f"fabric={self.fabric}, {where}, up={self._up}, "
                f"speed_fraction={self.speed_fraction})")

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        value = bool(value)
        if value != self._up:
            self._up = value
            self._topology._up_changed(self)

    @property
    def effective_capacity(self) -> float:
        return self.speed_fraction if self._up else 0.0


class FabricTopology:
    """A pods-of-ToRs fabric that keeps per-ToR path counts current as
    links go down and up, and sums pod capacity on demand."""

    def __init__(
        self,
        n_pods: int,
        tors_per_pod: int = 48,
        fabrics_per_pod: int = 4,
        spine_uplinks: int = 48,
    ) -> None:
        self.n_pods = n_pods
        self.tors_per_pod = tors_per_pod
        self.fabrics_per_pod = fabrics_per_pod
        self.spine_uplinks = spine_uplinks
        self.max_paths_per_tor = fabrics_per_pod * spine_uplinks
        self.links: List[FabricLink] = []
        # per (pod, tor, fabric) -> link ; per (pod, fabric, port) -> link
        self._tor_fabric = {}
        self._fabric_spine = {}
        # the books (module docstring): [pod][fabric] up spine links,
        # [pod][tor] valley-free paths, [pod][fabric] the ToR links into
        # that fabric switch by ToR; and, for the capacity sum, [pod] the
        # links of each stage in link order
        self._spine_up = [[spine_uplinks] * fabrics_per_pod
                          for _ in range(n_pods)]
        self._paths = [[self.max_paths_per_tor] * tors_per_pod
                       for _ in range(n_pods)]
        self._fabric_tor_links: List[List[List[FabricLink]]] = [
            [[] for _ in range(fabrics_per_pod)] for _ in range(n_pods)]
        self._tor_stage: List[List[FabricLink]] = [[] for _ in range(n_pods)]
        self._spine_stage: List[List[FabricLink]] = [[] for _ in range(n_pods)]
        link_id = 0
        for pod in range(n_pods):
            for tor in range(tors_per_pod):
                for fabric in range(fabrics_per_pod):
                    link = FabricLink(self, link_id, TOR_FABRIC, pod, fabric,
                                      tor=tor)
                    self._tor_fabric[(pod, tor, fabric)] = link
                    self._fabric_tor_links[pod][fabric].append(link)
                    self._tor_stage[pod].append(link)
                    self.links.append(link)
                    link_id += 1
            for fabric in range(fabrics_per_pod):
                for port in range(spine_uplinks):
                    link = FabricLink(self, link_id, FABRIC_SPINE, pod, fabric,
                                      spine_port=port)
                    self._fabric_spine[(pod, fabric, port)] = link
                    self._spine_stage[pod].append(link)
                    self.links.append(link)
                    link_id += 1

    # -- the write seam (called by FabricLink.up's setter) -------------------------

    def _up_changed(self, link: FabricLink) -> None:
        sign = 1 if link._up else -1
        pod, fabric = link.pod, link.fabric
        paths = self._paths[pod]
        if link.kind == TOR_FABRIC:
            paths[link.tor] += sign * self._spine_up[pod][fabric]
        else:
            self._spine_up[pod][fabric] += sign
            for tor_link in self._fabric_tor_links[pod][fabric]:
                if tor_link._up:
                    paths[tor_link.tor] += sign

    # -- index validation --------------------------------------------------------

    def _check_index(self, name: str, value: int, bound: int) -> int:
        if not 0 <= value < bound:
            raise ValueError(
                f"{name} index {value} out of range [0, {bound}) "
                f"for this {self.n_pods}-pod topology"
            )
        return value

    def _check_pod(self, pod: int) -> int:
        return self._check_index("pod", pod, self.n_pods)

    def _check_tor(self, tor: int) -> int:
        return self._check_index("tor", tor, self.tors_per_pod)

    def _check_fabric(self, fabric: int) -> int:
        return self._check_index("fabric", fabric, self.fabrics_per_pod)

    # -- basic queries ------------------------------------------------------------

    @property
    def n_links(self) -> int:
        return len(self.links)

    def link(self, link_id: int) -> FabricLink:
        self._check_index("link", link_id, len(self.links))
        return self.links[link_id]

    def pod_links(self, pod: int) -> Iterator[FabricLink]:
        self._check_pod(pod)
        for link in self.links:
            if link.pod == pod:
                yield link

    # -- adjacency ----------------------------------------------------------------

    def links_for_tor(self, pod: int, tor: int) -> List[FabricLink]:
        """The ToR's uplinks into the pod's fabric switches."""
        self._check_pod(pod)
        self._check_tor(tor)
        return [
            self._tor_fabric[(pod, tor, fabric)]
            for fabric in range(self.fabrics_per_pod)
        ]

    def links_between(self, pod: int, tor: int, fabric: int) -> List[FabricLink]:
        """Links directly connecting a ToR to one fabric switch.

        Returns a list (of one, in this single-link topology) so callers
        are ready for trunked multi-link bundles.
        """
        self._check_pod(pod)
        self._check_tor(tor)
        self._check_fabric(fabric)
        return [self._tor_fabric[(pod, tor, fabric)]]

    def tor_fabric_link(self, pod: int, tor: int, fabric: int) -> FabricLink:
        """The single link from one ToR up to one fabric switch."""
        return self.links_between(pod, tor, fabric)[0]

    def fabric_spine_link(self, pod: int, fabric: int, port: int) -> FabricLink:
        """One fabric switch's uplink into its spine plane, by port."""
        self._check_pod(pod)
        self._check_fabric(fabric)
        self._check_index("spine port", port, self.spine_uplinks)
        return self._fabric_spine[(pod, fabric, port)]

    # -- path counting -------------------------------------------------------------

    def fabric_up_spine_links(self, pod: int, fabric: int) -> int:
        self._check_pod(pod)
        self._check_fabric(fabric)
        return self._spine_up[pod][fabric]

    def tor_paths(self, pod: int, tor: int) -> int:
        """Valley-free paths from this ToR to the spine layer."""
        self._check_pod(pod)
        self._check_tor(tor)
        return self._paths[pod][tor]

    def pod_min_tor_paths(self, pod: int) -> int:
        self._check_pod(pod)
        return min(self._paths[pod])

    def min_tor_paths_fraction(self) -> Tuple[float, int]:
        """(worst-case fraction of paths retained, pod index)."""
        worst, worst_pod = 1.0, -1
        for pod in range(self.n_pods):
            fraction = self.pod_min_tor_paths(pod) / self.max_paths_per_tor
            if fraction < worst:
                worst, worst_pod = fraction, pod
        return worst, worst_pod

    # -- capacity ---------------------------------------------------------------------

    def pod_capacity_fraction(self, pod: int) -> float:
        """ToR-layer-to-spine capacity of a pod, normalized to healthy.

        The pod's usable capacity is limited by the thinner of its two
        stages (ToR->fabric and fabric->spine), normalized so a fully
        healthy pod is 1.0.  Summed in link order, never accumulated
        (module docstring); ``effective_capacity`` is spelled out because
        a pod of the paper's shape is 384 property calls a sum.
        """
        self._check_pod(pod)
        tor_max = self.tors_per_pod * self.fabrics_per_pod
        spine_max = self.fabrics_per_pod * self.spine_uplinks
        tor_up = sum([link.speed_fraction if link._up else 0.0
                      for link in self._tor_stage[pod]])
        spine_up = sum([link.speed_fraction if link._up else 0.0
                        for link in self._spine_stage[pod]])
        return min(tor_up / tor_max, spine_up / spine_max)

    # -- CorrOpt hooks -----------------------------------------------------------------

    def can_disable(self, link: FabricLink, capacity_constraint: float) -> bool:
        """CorrOpt's fast checker: would disabling ``link`` keep every
        affected ToR at or above the constraint fraction of its paths?"""
        if not link._up:
            return True
        threshold = capacity_constraint * self.max_paths_per_tor
        paths = self._paths[link.pod]
        if link.kind == TOR_FABRIC:
            lost = self._spine_up[link.pod][link.fabric]
            return not paths[link.tor] - lost < threshold
        # a spine link carries one path of every ToR attached to its fabric
        for tor_link in self._fabric_tor_links[link.pod][link.fabric]:
            if paths[tor_link.tor] - tor_link._up < threshold:
                return False
        return True
