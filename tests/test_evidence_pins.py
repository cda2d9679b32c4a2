"""The flow-evidence bits, pinned.

Every blame path starts from one generator — ``iter_reports`` with
``ecmp_path`` — so "the same evidence" means the same bytes: sha256 of
the harvested reports' ``to_json`` lines (and of the ECMP paths over
every endpoint pair), recorded before the harvester's per-flow work was
cut.  A speed-up below this line may not move one of them.

The cases reach every part of the stream format (``_FlowStream``):
word order inside a sha256 block, the ``:`` separators of both hash
keys, block rollover, rejection draws for ``dst == src`` (the 1-pod x
2-ToR fleet redraws half its destinations, so some flows reach a third
block), telemetry-loss coins (``coverage=0.4``), window splits, and the
service's chunked synthetic feed.

``PYTHONPATH=src python tests/test_evidence_pins.py`` prints the
digests of the tree it runs in; re-record only for an intended change
of the evidence itself.
"""

import hashlib
import json
from typing import Dict, Iterable, List

import numpy
import pytest

from repro.blame import (
    EvidenceSpec, FlowReport, ecmp_path, harvest_evidence,
)
from repro.fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology
from repro.lifecycle import TraceSpec
from repro.service.telemetry import SyntheticFlowEvidence

#: the serve_voting bench fleet (32 links)
VOTING_FLEET = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                         spine_uplinks=4, mttf_hours=300.0)
#: one pod of two ToRs: every destination draw has a 1/2 chance to repeat
#: the source and be redrawn
TINY_FLEET = FleetSpec(n_pods=1, tors_per_pod=2, fabrics_per_pod=2,
                       spine_uplinks=2)


def reports_sha256(reports: Iterable[FlowReport]) -> str:
    return hashlib.sha256(
        "\n".join(report.to_json() for report in reports).encode()
    ).hexdigest()


def voting_episodes(fleet: FleetSpec, seed: int) -> List[CorruptionEpisode]:
    """The two episodes the serve_voting workload plants: a ToR-fabric
    link over [0, 60) and a fabric-spine link over [20, 80)."""
    topology = FleetTopology(fleet, seed=1)
    rng = numpy.random.default_rng(seed)
    by_kind: Dict[bool, List[int]] = {True: [], False: []}
    for link_id in range(fleet.n_links):
        by_kind[topology.link(link_id).kind == "tor-fabric"].append(link_id)
    return [
        CorruptionEpisode(int(rng.choice(by_kind[True])), 0.0, 60.0,
                          float(rng.uniform(1e-3, 3e-3)), 1.0),
        CorruptionEpisode(int(rng.choice(by_kind[False])), 20.0, 80.0,
                          float(rng.uniform(1e-3, 3e-3)), 1.0),
    ]


def _voting(seed: int) -> List[FlowReport]:
    return harvest_evidence(
        EvidenceSpec(flows_per_s=400.0, seed=seed),
        FleetTopology(VOTING_FLEET, seed=1),
        voting_episodes(VOTING_FLEET, seed), 0.0, 150.0)


def _default_fleet() -> List[FlowReport]:
    fleet = FleetSpec()
    episodes = [CorruptionEpisode(3, 0.0, 8.0, 2e-3, 1.0),
                CorruptionEpisode(140, 2.0, 12.5, 1e-3, 1.0),
                CorruptionEpisode(255, 5.0, 30.0, 4e-3, 1.0)]
    # fleet-sized, 1,600 flows/s over 12.5 s: 20,000 reports
    return harvest_evidence(EvidenceSpec(seed=11),
                            FleetTopology(fleet, seed=11), episodes,
                            0.0, 12.5)


def _coverage() -> List[FlowReport]:
    return harvest_evidence(
        EvidenceSpec(flows_per_s=200.0, coverage=0.4, seed=2),
        FleetTopology(VOTING_FLEET, seed=1),
        [CorruptionEpisode(5, 0.0, 30.0, 2e-3, 1.0)], 0.0, 30.0)


def _tiny_fleet() -> List[FlowReport]:
    return harvest_evidence(
        EvidenceSpec(flows_per_s=500.0, seed=6), FleetTopology(TINY_FLEET),
        [CorruptionEpisode(1, 0.0, 20.0, 3e-3, 1.0)], 0.0, 20.0)


def _split(cuts: Iterable[float]) -> List[FlowReport]:
    spec = EvidenceSpec(flows_per_s=100.0, seed=5)
    topology = FleetTopology(VOTING_FLEET, seed=1)
    episodes = [CorruptionEpisode(3, 0.0, 30.0, 1e-3, 1.0)]
    bounds = [0.0, *cuts, 30.0]
    return [report for lo, hi in zip(bounds, bounds[1:])
            for report in harvest_evidence(spec, topology, episodes, lo, hi)]


def _synthetic_feed() -> List[FlowReport]:
    trace = TraceSpec(fleet=VOTING_FLEET, duration_days=2.0, seed=3)
    return list(SyntheticFlowEvidence(trace, chunk_s=5.0,
                                      limit=5000).reports())


def ecmp_sha256(fleet: FleetSpec, seed: int) -> str:
    """Every ordered endpoint pair (same-ToR included) x labels 0-63."""
    topology = FleetTopology(fleet, seed=1)
    tors = [(pod, tor) for pod in range(fleet.n_pods)
            for tor in range(fleet.tors_per_pod)]
    paths = [list(ecmp_path(topology, *src, *dst, label, seed=seed))
             for src in tors for dst in tors for label in range(64)]
    return hashlib.sha256(
        json.dumps(paths, separators=(",", ":")).encode()).hexdigest()


#: name -> (report builder, expected report count, sha256 of to_json lines)
HARVESTS = {
    "serve-voting-seed7": (lambda: _voting(7), 60000,
        "8faf517908aef724d4f78641c5f988334ed396d66dcabb0a9ee40a3d30a5014e"),
    "serve-voting-seed8": (lambda: _voting(8), 60000,
        "ff06c6197a5551417898f1c8768546ba64fff30e9087d4eca301d8b62d46b322"),
    "default-256-link-fleet": (_default_fleet, 20000,
        "22fbb9bb2d215392b98f2abc93fa0b6264dd48a54f5da3d65ec6e2168ecc0b92"),
    "coverage-0.4": (_coverage, 2443,
        "4c3e78b7022fbda6111dcf11aab34a6f2f6de5469c321f716e042e05cbf9de08"),
    "1-pod-2-tor-fleet": (_tiny_fleet, 10000,
        "2c15163394299b1b9d2bdbde7a59038419f989d35058642142717f55a2abcb2a"),
    "window-whole": (lambda: _split(()), 3000,
        "87497026fa07b2c42ea6685b99c687db74a33752553c552f4b071eee833e2140"),
    "window-split-13": (lambda: _split((13.0,)), 3000,
        "87497026fa07b2c42ea6685b99c687db74a33752553c552f4b071eee833e2140"),
    "synthetic-feed-limit-5000": (_synthetic_feed, 5000,
        "8e0d6af0864ca26177d89cf816caaab60658fcc33b3e9a4771edab317000f540"),
}

#: (fleet, ECMP seed) -> sha256 of every path
ECMP = {
    "voting-fleet-seed0": (VOTING_FLEET, 0,
        "0aee6356fcce4e0871a7ce0831ffb903cc18a39705101d09eab8b1c93873e4e6"),
    "voting-fleet-seed3": (VOTING_FLEET, 3,
        "6a6603dae5195c3043a1f75f63da6ae1b1e2f2d55d42ab21b536218b3664481d"),
    "default-fleet-seed0": (FleetSpec(), 0,
        "a63d875c8c2ec5c49248fe9c697645e54f61f0b7dc259e306c660ac665b5a127"),
    "default-fleet-seed3": (FleetSpec(), 3,
        "305af4d4319c17ad7150a618eb45e28e5056f61d20eca72e1dcd18afd3b0bd8a"),
}


@pytest.mark.parametrize("name", sorted(HARVESTS))
def test_harvest_digest(name):
    build, count, expected = HARVESTS[name]
    reports = build()
    assert len(reports) == count
    assert reports_sha256(reports) == expected


@pytest.mark.parametrize("name", sorted(ECMP))
def test_ecmp_path_digest(name):
    fleet, seed, expected = ECMP[name]
    assert ecmp_sha256(fleet, seed) == expected


def _words(seed: int, index: int) -> Iterable[int]:
    """The pinned stream format, spelled out: sha256 of
    ``"{seed}:blame.flow#{index}:{block}"``, four little-endian u64
    words per block, used in order."""
    block = 0
    while True:
        digest = hashlib.sha256(
            f"{seed}:blame.flow#{index}:{block}".encode()).digest()
        for at in range(0, 32, 8):
            yield int.from_bytes(digest[at:at + 8], "little")
        block += 1


def test_tiny_fleet_reaches_a_third_block():
    """The rejection draws the tiny fleet's pin covers: some flow redraws
    its destination often enough that its label and coins (three words
    after the endpoints) come from a third sha256 block (word 9 on)."""
    total = TINY_FLEET.n_pods * TINY_FLEET.tors_per_pod
    most = 0
    for k in range(10000):
        words = _words(6, k)
        src, used = next(words) % total, 2
        while next(words) % total == src:
            used += 1
        most = max(most, used + 3)
    assert most > 8


if __name__ == "__main__":  # pragma: no cover - the recorder
    for name in sorted(HARVESTS):
        build = HARVESTS[name][0]
        reports = build()
        print(f"{name}: {len(reports)} {reports_sha256(reports)}")
    for name in sorted(ECMP):
        fleet, seed, _ = ECMP[name]
        print(f"{name}: {ecmp_sha256(fleet, seed)}")
