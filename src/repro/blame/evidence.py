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

import json
import math
import struct
from dataclasses import dataclass
from hashlib import sha256
from itertools import repeat
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple,
)

from ..core.spec import Spec, ranged
from ..fabric.topology import FabricTopology
from ..fleet.topology import CorruptionEpisode
from .paths import ecmp_path, flow_endpoints


#: one sha256 block as its four draws: little-endian u64 words, in order
_WORDS = struct.Struct("<4Q").unpack


class _FlowStream:
    """Counter-expanded uniform draws addressed like an RNG stream.

    The pinned format: block ``b`` of flow ``index`` is sha256 of
    ``f"{seed}:{name}#{index}:{b}"`` — the ``f"{seed}:{name}#{index}"``
    key :meth:`~repro.core.rng.RngFactory.child_seed` uses, plus the
    block counter — and yields four little-endian u64 words, used in
    order, blocks ``0, 1, 2, ...``.  Same addressing guarantee as an
    RNG stream: draws at index ``k`` depend only on ``(seed, name, k)``,
    never on other flows or window boundaries.  Every harvested flow
    takes at least five draws (two endpoints, label, two coins), so the
    first two blocks are hashed up front; a third only when the
    destination is redrawn often enough.
    :meth:`~repro.core.rng.RngFactory.streams` seeds numpy streams in
    bulk at a few draws' cost, but this scheme stays: its values are
    the harvested evidence, and every blame golden pins them.
    """

    __slots__ = ("_key", "_words", "_cursor")

    def __init__(self, key: bytes) -> None:
        """``key`` is the stream's ``f"{seed}:{name}#{index}:"`` prefix."""
        self._key = key
        self._words = (_WORDS(sha256(key + b"0").digest())
                       + _WORDS(sha256(key + b"1").digest()))
        self._cursor = 0

    def _next_word(self) -> int:
        """The next word once the cursor may be past the hashed blocks:
        block ``cursor // 4`` is hashed when the cursor reaches it."""
        cursor = self._cursor
        words = self._words
        if cursor == len(words):
            block = str(cursor >> 2).encode()
            words = self._words = words + _WORDS(
                sha256(self._key + block).digest())
        self._cursor = cursor + 1
        return words[cursor]

    def integers(self, n: int) -> int:
        cursor = self._cursor
        if cursor < 8:   # inside the two blocks hashed up front
            self._cursor = cursor + 1
            return self._words[cursor] % n
        return self._next_word() % n

    def random(self) -> float:
        cursor = self._cursor
        if cursor < 8:
            self._cursor = cursor + 1
            return self._words[cursor] / 2.0 ** 64
        return self._next_word() / 2.0 ** 64


__all__ = [
    "EvidenceSpec", "FlowReport", "LossOracle",
    "finite_time", "flow_flag_probability", "harvest_evidence",
    "iter_reports", "parse_flow_report",
]


@dataclass(frozen=True)
class EvidenceSpec(Spec):
    """Shape of one fleet's flow-evidence stream."""

    #: aggregate flow arrival rate across the fleet; 0 sizes it to the
    #: fleet the reports are harvested on: 50 flows/s per ToR, since
    #: per-link crossing counts, not fleet size, set voting confidence
    flows_per_s: float = ranged(0.0, "[0, inf)")
    #: packets per flow; sets how likely a lossy link flags a crossing
    flow_packets: int = ranged(100, "[1, inf)")
    #: fraction of reports that survive telemetry loss
    coverage: float = ranged(1.0, "(0, 1]")
    #: background retransmission probability of a clean flow (timeouts,
    #: congestion) — the noise floor voting must rise above
    base_retx_prob: float = ranged(0.002, "[0, 1)")
    seed: int = 1


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


def flow_flag_probability(path_losses: Iterable[float], flow_packets: int,
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
    n_pods, tors_per_pod = topology.n_pods, topology.tors_per_pod
    rate = spec.flows_per_s or 50.0 * n_pods * tors_per_pod
    first = math.floor(t_lo * rate)
    last = math.ceil(t_hi * rate)
    seed, coverage = spec.seed, spec.coverage
    flow_packets, base_retx_prob = spec.flow_packets, spec.base_retx_prob
    prefix = f"{seed}:blame.flow#".encode()
    for k in range(max(first, 0), last):
        time_s = (k + 0.5) / rate
        if not t_lo <= time_s < t_hi:
            continue
        rng = _FlowStream(b"%s%d:" % (prefix, k))
        src_pod, src_tor, dst_pod, dst_tor = flow_endpoints(
            rng, n_pods, tors_per_pod)
        label = rng.integers(1 << 16)
        # Both coins are drawn in their pinned order (retransmission,
        # then coverage); a dropped flow's path and flag probability are
        # never read, so they are not worked out.
        retx_draw = rng.random()
        if not rng.random() < coverage:
            continue
        path = ecmp_path(topology, src_pod, src_tor, dst_pod, dst_tor,
                         label, seed)
        p_flag = flow_flag_probability(
            map(loss_at, path, repeat(time_s)), flow_packets, base_retx_prob)
        yield _new(FlowReport, (time_s, k, src_pod, src_tor, dst_pod,
                                dst_tor, path, retx_draw < p_flag))


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
