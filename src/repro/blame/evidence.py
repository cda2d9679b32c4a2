"""Flow-level evidence: per-flow retransmission reports (007 §3).

The blame subsystem's input is not port counters but what transport
senders already know: "this flow retransmitted".  Each
:class:`FlowReport` carries one flow's endpoints, its inferred ECMP
path, and a ``retx`` flag; the harvester below generates the fleet's
report stream deterministically from ground-truth corruption state, so
voting accuracy can be scored against the truth that produced the
evidence.

Determinism is addressed per flow: flow ``k`` of a harvest draws
everything — endpoints, label, retransmission coin, telemetry-loss
coin — from a stream keyed ``(seed, "blame.flow", k)`` under the same
naming scheme as :meth:`~repro.core.rng.RngFactory.child_seed` (see
:class:`_FlowStream`), and its timestamp is
``(k + 0.5) / flows_per_s``.  Harvesting ``[0, 60)`` therefore yields
byte-identical reports to harvesting ``[0, 30)`` then ``[30, 60)`` —
windows, shards, and replay order never perturb the evidence.

The telemetry-loss model is the part real fleets get wrong: every
report is independently *dropped* with probability ``1 - coverage``
(collection agents crash, samples are rate-limited, spans are lost in
transit).  007's claim — and the acceptance bar here — is that voting
still localizes the corrupting link from the surviving fraction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple,
)

from ..core.spec import Spec
from ..fabric.topology import FabricTopology
from ..fleet.topology import CorruptionEpisode, FleetSpec
from .paths import ecmp_path, flow_endpoints


class _FlowStream:
    """Counter-expanded uniform draws addressed like an RNG stream.

    Keyed by the same ``f"{seed}:{name}#{index}"`` scheme
    :meth:`~repro.core.rng.RngFactory.child_seed` uses, but expanded
    directly from sha256 blocks (four 64-bit draws per digest) instead
    of a ``numpy`` generator.  Same addressing guarantee: draws at index
    ``k`` depend only on ``(seed, name, k)``, never on other flows or
    window boundaries.  :meth:`~repro.core.rng.RngFactory.streams` now
    seeds numpy streams in bulk at a few draws' cost, but this scheme
    stays: its values are the harvested evidence, and every blame
    golden pins them.
    """

    __slots__ = ("_key", "_block", "_words", "_cursor")

    def __init__(self, seed: int, name: str, index: int) -> None:
        self._key = f"{seed}:{name}#{index}".encode()
        self._block = 0
        self._words: Tuple[int, ...] = ()
        self._cursor = 0

    def _next_word(self) -> int:
        if self._cursor >= len(self._words):
            digest = hashlib.sha256(
                self._key + b":" + str(self._block).encode()).digest()
            self._block += 1
            self._words = tuple(
                int.from_bytes(digest[i:i + 8], "little")
                for i in range(0, 32, 8))
            self._cursor = 0
        word = self._words[self._cursor]
        self._cursor += 1
        return word

    def integers(self, n: int) -> int:
        return self._next_word() % int(n)

    def random(self) -> float:
        return self._next_word() / 2.0 ** 64

__all__ = [
    "EvidenceSpec", "FlowReport", "LossOracle", "default_fleet_evidence",
    "finite_time", "flow_flag_probability", "harvest_evidence",
    "iter_reports", "parse_flow_report",
]


@dataclass(frozen=True)
class EvidenceSpec(Spec):
    """Shape of one fleet's flow-evidence stream."""

    #: aggregate flow arrival rate across the fleet
    flows_per_s: float = 400.0
    #: packets per flow; sets how likely a lossy link flags a crossing
    flow_packets: int = 100
    #: fraction of reports that survive telemetry loss
    coverage: float = 1.0
    #: background retransmission probability of a clean flow (timeouts,
    #: congestion) — the noise floor voting must rise above
    base_retx_prob: float = 0.002
    seed: int = 1

    def __post_init__(self) -> None:
        if self.flows_per_s <= 0:
            raise ValueError("flows_per_s must be positive")
        if self.flow_packets < 1:
            raise ValueError("flow_packets must be >= 1")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if not 0.0 <= self.base_retx_prob < 1.0:
            raise ValueError("base_retx_prob must be in [0, 1)")


class FlowReport(NamedTuple):
    """One flow's evidence: where it went and whether it retransmitted."""

    time_s: float
    flow_id: int
    src_pod: int
    src_tor: int
    dst_pod: int
    dst_tor: int
    path: Tuple[int, ...]
    retx: bool

    def to_dict(self) -> dict:
        return {
            "t": self.time_s, "flow": self.flow_id,
            "src": [self.src_pod, self.src_tor],
            "dst": [self.dst_pod, self.dst_tor],
            "path": list(self.path), "retx": self.retx,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


_INTS = frozenset((int,))
#: builds a record from its field tuple without a Python-level ``__new__``
_new = tuple.__new__


def finite_time(value: Any) -> float:
    """A decoded JSON timestamp as seconds: an int or float (never a
    bool), finite.  A non-finite clock would wedge every time-driven
    window downstream (it never compares ``>=`` again)."""
    if type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ValueError("t is out of range") from None
    elif type(value) is not float:
        raise TypeError("t must be a number")
    if not -math.inf < value < math.inf:
        raise ValueError("t must be finite")
    return value


def parse_flow_report(data: Dict[str, Any]) -> FlowReport:
    """Build a :class:`FlowReport` from its decoded ``to_dict`` form;
    raises ``ValueError`` on a mis-shaped or mistyped document."""
    try:
        # Unpacking takes exactly two items; a JSON string or object
        # unpacks to strings, which the int checks below refuse.
        src_pod, src_tor = data["src"]
        dst_pod, dst_tor = data["dst"]
        flow_id, path, retx = data["flow"], data["path"], data["retx"]
        time_s = finite_time(data["t"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"mis-shaped flow report: {exc}") from None
    if (type(flow_id) is not int or type(src_pod) is not int
            or type(src_tor) is not int or type(dst_pod) is not int
            or type(dst_tor) is not int):
        raise ValueError("flow, src and dst must hold integers")
    if type(path) is not list or not _INTS.issuperset(map(type, path)):
        raise ValueError("path must be a list of integer link ids")
    if type(retx) is not bool:
        raise ValueError("retx must be true or false")
    return _new(FlowReport, (time_s, flow_id, src_pod, src_tor,
                             dst_pod, dst_tor, tuple(path), retx))


class LossOracle:
    """Ground-truth per-link loss as a function of time.

    Built from corruption episodes (a campaign's, or a lifecycle
    trace's repaired episodes); answers ``loss_at(link_id, t)`` — the
    loss rate the flow's packets actually saw crossing the link.
    """

    def __init__(self, episodes: Sequence[CorruptionEpisode]) -> None:
        self.intervals: Dict[int, List[Tuple[float, float, float]]] = {}
        for episode in episodes:
            self.intervals.setdefault(episode.link_id, []).append(
                (episode.onset_s, episode.clear_s, episode.loss_rate))
        for spans in self.intervals.values():
            spans.sort()

    def loss_at(self, link_id: int, time_s: float) -> float:
        for onset_s, clear_s, loss_rate in self.intervals.get(link_id, ()):
            if onset_s <= time_s < clear_s:
                return loss_rate
            if onset_s > time_s:
                break
        return 0.0

    def corrupting_at(self, time_s: float,
                      min_loss: float = 0.0) -> List[int]:
        """Links corrupting at ``time_s`` with loss >= ``min_loss``."""
        return sorted(
            link_id for link_id, spans in self.intervals.items()
            if any(onset <= time_s < clear and loss >= min_loss
                   for onset, clear, loss in spans))


def flow_flag_probability(path_losses: Sequence[float], flow_packets: int,
                          base_retx_prob: float = 0.0) -> float:
    """P(flow retransmits) crossing links with the given loss rates.

    Per link, a ``flow_packets``-packet flow escapes unscathed with
    probability ``(1-loss)^packets``; the flow flags if any link hits
    it or the background (congestion/timeout) coin does.
    """
    p_clean = 1.0 - base_retx_prob
    for loss in path_losses:
        if loss > 0.0:
            p_clean *= (1.0 - loss) ** flow_packets
    return 1.0 - p_clean


def iter_reports(
    spec: EvidenceSpec,
    topology: FabricTopology,
    loss_at: Callable[[int, float], float],
    t_lo: float,
    t_hi: float,
) -> Iterator[FlowReport]:
    """Surviving flow reports with timestamps in ``[t_lo, t_hi)``.

    ``loss_at(link_id, time_s)`` supplies ground truth (a
    :class:`LossOracle`, or any callable).  Reports stream oldest
    first; dropped (telemetry-lost) flows are silently absent, exactly
    as a collector would see them.
    """
    if t_hi <= t_lo:
        return
    rate = spec.flows_per_s
    first = math.floor(t_lo * rate)
    last = math.ceil(t_hi * rate)
    for k in range(max(first, 0), last):
        time_s = (k + 0.5) / rate
        if not t_lo <= time_s < t_hi:
            continue
        rng = _FlowStream(spec.seed, "blame.flow", k)
        src_pod, src_tor, dst_pod, dst_tor = flow_endpoints(
            rng, topology.n_pods, topology.tors_per_pod)
        label = int(rng.integers(1 << 16))
        path = ecmp_path(topology, src_pod, src_tor, dst_pod, dst_tor,
                         label, seed=spec.seed)
        p_flag = flow_flag_probability(
            [loss_at(link, time_s) for link in path],
            spec.flow_packets, spec.base_retx_prob)
        retx = bool(rng.random() < p_flag)
        surviving = bool(rng.random() < spec.coverage)
        if not surviving:
            continue
        yield FlowReport(
            time_s=time_s, flow_id=k,
            src_pod=src_pod, src_tor=src_tor,
            dst_pod=dst_pod, dst_tor=dst_tor,
            path=path, retx=retx,
        )


def harvest_evidence(
    spec: EvidenceSpec,
    topology: FabricTopology,
    episodes: Sequence[CorruptionEpisode],
    t_lo: float,
    t_hi: float,
) -> List[FlowReport]:
    """All surviving reports of ``[t_lo, t_hi)`` against episode truth."""
    oracle = LossOracle(episodes)
    return list(iter_reports(spec, topology, oracle.loss_at, t_lo, t_hi))


def default_fleet_evidence(fleet: FleetSpec, seed: int = 1,
                           **overrides: Any) -> EvidenceSpec:
    """An evidence spec sized so voting has signal on ``fleet``.

    The aggregate flow rate scales with the ToR count — per-link
    crossing counts, not fleet size, are what set voting confidence —
    while everything else keeps the defaults unless overridden.
    """
    tors = fleet.n_pods * fleet.tors_per_pod
    params: Dict[str, Any] = {"flows_per_s": 50.0 * tors, "seed": seed}
    params.update(overrides)
    return EvidenceSpec(**params)
