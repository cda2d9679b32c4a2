"""ECMP path inference over the Clos fabric (007 §4: path discovery).

007's voting scheme needs, per flow, the set of links the flow's
packets crossed.  Production fabrics hash each flow's 5-tuple onto one
of the equal-cost valley-free paths; here the same idea is reproduced
deterministically — a keyed hash of the flow's endpoints and label
picks the fabric plane and spine ports, so any consumer (the evidence
harvester, the voting tally, a test) reconstructs the identical path
from the identical flow identity without shared state.

Path shapes over a :class:`~repro.fabric.topology.FabricTopology`:

* **intra-ToR** — both endpoints under one ToR: no fabric links.
* **intra-pod** — ToR up to a fabric switch, back down to the peer ToR:
  2 links, one ECMP choice (the fabric plane).
* **inter-pod** — up to a fabric switch, up its spine plane, down into
  the destination pod's same-plane fabric switch, down to the ToR:
  4 links, three ECMP choices (plane, up-port, down-port).  Planes are
  preserved across the spine (a spine plane only interconnects the
  fabric switches of its own index), as in the paper's Figure 4 fabric.
"""

from __future__ import annotations

import struct
from hashlib import sha256
from typing import Tuple

from ..fabric.topology import FabricTopology

__all__ = ["ecmp_path", "flow_endpoints"]

_first_word = struct.Struct("<Q").unpack_from


def _choice(key: bytes, n: int) -> int:
    """One ECMP choice in ``[0, n)``: the first little-endian u64 of
    sha256 of ``key``, modulo ``n``."""
    return _first_word(sha256(key).digest())[0] % n


def ecmp_path(
    topology: FabricTopology,
    src_pod: int,
    src_tor: int,
    dst_pod: int,
    dst_tor: int,
    flow_label: int,
    seed: int = 0,
) -> Tuple[int, ...]:
    """Link ids a flow crosses, in src-to-dst order.

    ``flow_label`` stands in for the transport 5-tuple's ports: two
    flows between the same ToRs with different labels may hash onto
    different planes, exactly the ECMP spreading the voting scheme
    counts on for coverage of every link.

    Each ECMP choice (``plane``, then ``up`` and ``down`` for an
    inter-pod flow) is :func:`_choice` over ``f"{seed}:ecmp:{choice}"``
    followed by the flow's identity,
    ``f":{src_pod}:{src_tor}:{dst_pod}:{dst_tor}:{flow_label}"`` —
    sha256 rather than ``hash()`` so the choice is stable across
    processes and Python builds (the same property the RNG factory's
    addressed streams rely on).
    """
    if src_pod == dst_pod and src_tor == dst_tor:
        return ()
    n_pods, tors = topology.n_pods, topology.tors_per_pod
    if not (0 <= src_pod < n_pods and 0 <= dst_pod < n_pods
            and 0 <= src_tor < tors and 0 <= dst_tor < tors):
        raise ValueError(
            f"endpoints ({src_pod}, {src_tor}) -> ({dst_pod}, {dst_tor}) "
            f"out of range for this {n_pods}-pod, {tors}-ToR topology")
    # the flow's identity, built once, follows each choice's salt
    identity = f":{src_pod}:{src_tor}:{dst_pod}:{dst_tor}:{flow_label}"
    fabric = _choice(f"{seed}:ecmp:plane{identity}".encode(),
                     topology.fabrics_per_pod)
    # Every index below is in range — the endpoints were checked above
    # and each choice is reduced modulo its fan-out — so the hops come
    # straight from the topology's lookup tables, without the per-call
    # checks of ``tor_fabric_link``/``fabric_spine_link``.
    tor_fabric = topology._tor_fabric
    if src_pod == dst_pod:
        return (tor_fabric[(src_pod, src_tor, fabric)].link_id,
                tor_fabric[(dst_pod, dst_tor, fabric)].link_id)
    spines = topology.spine_uplinks
    up_port = _choice(f"{seed}:ecmp:up{identity}".encode(), spines)
    down_port = _choice(f"{seed}:ecmp:down{identity}".encode(), spines)
    fabric_spine = topology._fabric_spine
    return (
        tor_fabric[(src_pod, src_tor, fabric)].link_id,
        fabric_spine[(src_pod, fabric, up_port)].link_id,
        fabric_spine[(dst_pod, fabric, down_port)].link_id,
        tor_fabric[(dst_pod, dst_tor, fabric)].link_id,
    )


def flow_endpoints(rng, n_pods: int, tors_per_pod: int
                   ) -> Tuple[int, int, int, int]:
    """Draw (src_pod, src_tor, dst_pod, dst_tor) with distinct ToRs.

    Rejection-samples the destination until it differs from the source
    ToR — an intra-ToR flow crosses no fabric link and carries no
    evidence.  Uses exactly one ``rng.integers`` call per attempt, so
    the stream stays addressable; the number of attempts is unbounded
    but geometric, ``total / (total - 1)`` destination draws in
    expectation over ``total = n_pods * tors_per_pod`` ToRs (two per
    flow on a two-ToR fleet).
    """
    total = n_pods * tors_per_pod
    src = int(rng.integers(total))
    dst = int(rng.integers(total))
    while dst == src:
        dst = int(rng.integers(total))
    return (src // tors_per_pod, src % tors_per_pod,
            dst // tors_per_pod, dst % tors_per_pod)
