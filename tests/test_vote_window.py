"""The incremental voting window against a full re-tally.

:class:`~repro.blame.voting.VoteWindow` keeps its per-link crossing
counts and its flagged subset up to date as reports enter and expire,
so a re-vote touches only the flagged flows.  :func:`reference_tally`
below is the whole-window pass the vote made before that: every
verdict the incremental window gives must equal it bit for bit — same
floats, same order — on the reports the window holds.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blame import (
    BlameMonitor, BlameReport, EvidenceSpec, FlowReport, LinkScore,
    harvest_evidence, invert_flow_loss, tally_votes,
)
from repro.blame.adapter import VotingEstimator
from repro.blame.voting import VoteWindow
from repro.fleet.controller import ControllerConfig
from repro.fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology

FLEET = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                  spine_uplinks=4, mttf_hours=300.0)
TOPOLOGY = FleetTopology(FLEET, seed=1)


def reference_tally(reports, flow_packets=100, min_votes=2.0, max_rounds=32):
    """A full pass over ``reports`` per verdict, then explain-away."""
    crossings, flagged_by_link, votes, flagged_flows = {}, {}, {}, []
    t_lo, t_hi = math.inf, -math.inf
    for report in reports:
        t_lo, t_hi = min(t_lo, report.time_s), max(t_hi, report.time_s)
        for link in report.path:
            crossings[link] = crossings.get(link, 0) + 1
        if report.retx and report.path:
            flagged_flows.append(report)
            share = 1.0 / len(report.path)
            for link in report.path:
                votes[link] = votes.get(link, 0.0) + share
                flagged_by_link[link] = flagged_by_link.get(link, 0) + 1
    if not reports:
        t_lo = t_hi = 0.0
    total = float(len(flagged_flows))
    out = BlameReport(t_lo=t_lo, t_hi=t_hi, n_reports=len(reports),
                      n_flagged=len(flagged_flows))

    def score_of(link, mass, flows):
        n_cross = crossings.get(link, 0)
        return LinkScore(link, mass, flows, n_cross, invert_flow_loss(
            flows / n_cross if n_cross else 0.0, flow_packets),
            mass / total if total else 0.0)

    remaining, n_total = flagged_flows, max(len(reports), 1)
    for _ in range(max_rounds):
        if not remaining:
            break
        top = max(votes, key=lambda link: (votes[link], -link))
        noise_mean = len(remaining) / n_total * crossings.get(top, 0)
        if (votes[top] < min_votes or flagged_by_link[top]
                < noise_mean + 4.0 * math.sqrt(noise_mean) + 2.0):
            break
        out.ranked.append(score_of(top, votes[top], flagged_by_link[top]))
        out.blamed.append(top)
        survivors = []
        for report in remaining:
            if top not in report.path:
                survivors.append(report)
                continue
            for link in report.path:
                votes[link] -= 1.0 / len(report.path)
                flagged_by_link[link] -= 1
                if flagged_by_link[link] <= 0:
                    votes.pop(link, None)
                    flagged_by_link.pop(link, None)
        remaining = survivors
    for mass, link in sorted(((mass, link) for link, mass in votes.items()
                              if link not in out.blamed),
                             key=lambda item: (-item[0], item[1])):
        out.ranked.append(score_of(link, mass, flagged_by_link.get(link, 0)))
    return out


def assert_same(got: BlameReport, want: BlameReport) -> None:
    # repr keeps the sign of a zero and every float digit
    assert got == want
    assert repr(got) == repr(want)


def assert_window_holds(window: VoteWindow, held) -> None:
    assert list(window.reports) == held
    assert list(window.flagged) == [r for r in held if r.retx and r.path]
    # exact counts, and no link left behind at zero
    assert window.crossings == dict(
        Counter(link for r in held for link in r.path))


# A few hot links so paths collide, repeat a link, and reach the noise
# bar; lengths 0-6, so shares of 1/3, 1/5 and 1/6 are not dyadic.
LINKS = (0, 1, 2, 3, 5, 8, 13, 21, 31)
N_PATHS = 7 * 9 ** 6        # a length, then up to six base-9 link digits
N_TIMES = 4001              # 0.00 .. 40.00 s in centiseconds


def decode_report(flow: int, code: int) -> FlowReport:
    """One drawn integer as a report: one draw per report keeps a
    200-report stream cheap to generate, and it still shrinks."""
    code, path_code = divmod(code, N_PATHS)
    code, retx = divmod(code, 2)
    centis = code % N_TIMES
    # every seventh time is an integer, as a JSON feed may send it
    time_s = centis // 100 if centis % 7 == 0 else centis / 100
    length, digits = path_code % 7, path_code // 7
    path = tuple(LINKS[digits // 9 ** at % 9] for at in range(length))
    return FlowReport(time_s, flow, 0, 0, 1, 0, path, bool(retx))


@st.composite
def report_streams(draw, max_size=200):
    # the size is drawn first: windows need tens of reports to blame
    size = draw(st.integers(0, max_size))
    codes = draw(st.lists(st.integers(0, N_PATHS * 2 * N_TIMES - 1),
                          min_size=size, max_size=size))
    reports = [decode_report(flow, code) for flow, code in enumerate(codes)]
    if draw(st.booleans()):
        reports.sort()        # time-ordered; else as drawn, shuffled
    if draw(st.booleans()):
        # every flow over the hot links flags, a few others by chance:
        # windows where explain-away blames one link or two
        hot = draw(st.sets(st.sampled_from([0, 1, 5]), min_size=1))
        reports = [r._replace(retx=bool(hot.intersection(r.path))
                              or r.flow_id % 11 == 0) for r in reports]
    return reports


VOTE_ARGS = dict(flow_packets=st.sampled_from([1, 7, 100]),
                 min_votes=st.sampled_from([0.0, 0.5, 2.0]))


@settings(max_examples=300, deadline=None)
@given(reports=report_streams(), window_s=st.sampled_from([5.0, 15.0, 30.0]),
       eval_interval_s=st.sampled_from([None, 0.5, 4.0]), **VOTE_ARGS)
def test_every_revote_equals_a_full_retally_of_the_window(
        reports, window_s, eval_interval_s, flow_packets, min_votes):
    estimator = VotingEstimator(
        TOPOLOGY, window_s=window_s, eval_interval_s=eval_interval_s,
        flow_packets=flow_packets, min_votes=min_votes)
    window = estimator.window
    held, newest = [], -math.inf
    for report in reports:
        # the expiry rule: the horizon trails the newest time seen
        newest = max(newest, report.time_s)
        horizon = newest - window_s
        if report.time_s >= horizon:
            held.append(report)
        while held and held[0].time_s < horizon:
            held.pop(0)
        evaluations = estimator.evaluations
        estimator.fold(report)
        if estimator.evaluations != evaluations:
            assert_window_holds(window, held)
            assert_same(estimator.last_verdict,
                        reference_tally(held, flow_packets, min_votes))
    assert_window_holds(window, held)
    estimator.flush(newest)
    assert_same(estimator.last_verdict,
                reference_tally(held, flow_packets, min_votes))


@settings(max_examples=300, deadline=None)
@given(reports=report_streams(), **VOTE_ARGS)
def test_tally_votes_equals_a_full_retally(reports, flow_packets, min_votes):
    assert_same(tally_votes(reports, flow_packets=flow_packets,
                            min_votes=min_votes),
                reference_tally(reports, flow_packets, min_votes))


# ---------------------------------------------------------------------------
# The bench-shaped feed: 400 flows/s for 150 s, two planted episodes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_feed():
    episodes = [CorruptionEpisode(3, 0.0, 60.0, 2e-3, 1.0),
                CorruptionEpisode(20, 20.0, 80.0, 2e-3, 1.0)]
    return harvest_evidence(EvidenceSpec(flows_per_s=400.0, seed=7),
                            TOPOLOGY, episodes, 0.0, 150.0)


def test_shard_sizes_equal_the_union_of_the_window_paths(bench_feed):
    estimator = VotingEstimator(TOPOLOGY)
    assert estimator.shard_sizes() == {}
    for at, report in enumerate(bench_feed):
        estimator.fold(report)
        if at % 6000 == 5999:
            by_pod = {}
            for link_id in set().union(
                    *(r.path for r in estimator.window.reports)):
                pod = TOPOLOGY.link(link_id).pod
                by_pod[pod] = by_pod.get(pod, 0) + 1
            assert estimator.shard_sizes() == dict(sorted(by_pod.items()))


def test_a_far_future_report_does_not_pin_the_window(bench_feed):
    monitor = BlameMonitor(TOPOLOGY, ControllerConfig(), "incremental")
    estimator = monitor.estimator
    early, late = bench_feed[:20000], bench_feed[20001:]
    for report in early:
        monitor.observe(report)
    window = estimator.window
    monitor.observe(bench_feed[20000]._replace(time_s=1e12))
    # the horizon is now 1e12 - 60 s: everything older has left ...
    assert list(window.reports) == [bench_feed[20000]._replace(time_s=1e12)]
    for report in late:
        monitor.observe(report)
    # ... and nothing older enters, though every report is counted
    assert len(window.reports) == 1
    assert sum(window.crossings.values()) == len(bench_feed[20000].path)
    assert monitor.records_seen == len(bench_feed)
    assert estimator.flagged_seen == sum(r.retx for r in bench_feed)


def test_a_report_older_than_the_horizon_never_enters():
    estimator = VotingEstimator(TOPOLOGY, window_s=10.0)
    fresh = FlowReport(100.0, 1, 0, 0, 1, 0, (3, 7), False)
    stale = FlowReport(85.0, 2, 0, 0, 1, 0, (3, 9), True)
    edge = FlowReport(90.0, 3, 0, 0, 1, 0, (4,), True)
    for report in (fresh, stale, edge):
        estimator.fold(report)
    assert list(estimator.window.reports) == [fresh, edge]
    assert list(estimator.window.flagged) == [edge]
    assert estimator.window.crossings == {3: 1, 7: 1, 4: 1}
    assert estimator.flagged_seen == 2
