"""The per-day SLO fold: pinned output bytes, the day-window expansion,
and the memoized Figure 8 speed lookup.

``lifecycle_golden_summary.json`` pins only a replay's summary and
counts, so a drift in one day's column entry could pass it.  The digests
below hash the whole ``canonical_json()`` — every per-day column — and
were recorded with the per-segment Python fold, before
``accumulate_days`` was vectorized; a speed-up may not move one of them.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.corropt.trace import LOSS_BUCKETS
from repro.fastpath.model import interp_log_loss
from repro.fleet.controller import ControllerConfig
from repro.fleet.cost import FIG8_POINTS, lg_effective_speed_fraction
from repro.fleet.topology import FleetSpec
from repro.lifecycle import ReplaySpec, TraceSpec, run_chunk, run_replay
from repro.lifecycle.slo import _day_windows
from repro.units import DAY_S


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _trace(pods=4, days=180.0, seed=7):
    return TraceSpec(fleet=FleetSpec(n_pods=pods), duration_days=days,
                     seed=seed)


#: name -> (replay, sha256 of its canonical_json)
SPECS = {
    # the bench replay (256 links, 180 d) at two seeds
    "4pod-180d-seed7": (
        ReplaySpec(trace=_trace()),
        "a5e8f5c3c9580018b1350ec6644015e8377ee81082dda44b07422bacbec720cd"),
    "4pod-180d-seed8": (
        ReplaySpec(trace=_trace(seed=8)),
        "20189af114e1e35c07e5b47297985501c4d6c7023065311cb752c538a0b5e1e2"),
    # a partial final day
    "2pod-30.5d": (
        ReplaySpec(trace=_trace(pods=2, days=30.5)),
        "c4839470ef7415c596b3f8fec7f957e5823a7f9f6257718ae86200aea601b015"),
    # chunked: the same bytes as the serial seed-7 run
    "4pod-180d-3chunks": (
        ReplaySpec(trace=_trace(), n_chunks=3),
        "a5e8f5c3c9580018b1350ec6644015e8377ee81082dda44b07422bacbec720cd"),
    # exposed segments and preemptions (309 blocked, 164 preemptions)
    "greedy-worst-budget2": (
        ReplaySpec(trace=_trace(), policy="greedy-worst",
                   controller=ControllerConfig(activation_budget=2,
                                               capacity_constraint=0.9)),
        "6fdc28b5401638bde7d45ea6fe5ec2905a5dff493447df6ee88abd60f3b1a3fc"),
    # exposed segments, chunked
    "incremental-budget1-4chunks": (
        ReplaySpec(trace=_trace(),
                   controller=ControllerConfig(activation_budget=1),
                   n_chunks=4),
        "9883fa87ee28928cf366ef684b183a716b56b79036a54dedf6612fd5b144d9a6"),
    # zero episodes: every column folds an empty input
    "quarter-day": (
        ReplaySpec(trace=_trace(days=0.25, seed=1)),
        "c11a58fa89e950968a137cccd413c3a7a2585cf3d5d5f610d8fa54bf4f676f45"),
    # another repair model on another tier, chunked
    "exponential-fastpath-3chunks": (
        ReplaySpec(trace=_trace(), repair="exponential", backend="fastpath",
                   n_chunks=3),
        "a8faedf314097daac7d1ad03bcdea3f7cc5f036647e2b66f4fba970d06a27078"),
}

#: the exposed share of each day's affected-flow fraction (kept out of
#: the canonical columns; the one-shot campaign reads it), over all chunks
EXPOSED_SHARES = {
    "greedy-worst-budget2":
        "d994eb5968f2c7198829cd80194c915c18cf5f40cddd9a498dcd8de09567763f",
    "incremental-budget1-4chunks":
        "49805f4b0230ca209dade1770539d15cd16ecc79d2be5549b5608ed132a39330",
}


class TestPinnedFold:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_canonical_json(self, name):
        spec, digest = SPECS[name]
        assert _sha256(run_replay(spec).canonical_json()) == digest

    @pytest.mark.parametrize("name", sorted(EXPOSED_SHARES))
    def test_exposed_share(self, name):
        spec, _ = SPECS[name]
        column = []
        for chunk in range(spec.n_chunks):
            column += run_chunk(spec, chunk)["exposed_affected_flow_fraction"]
        assert _sha256(json.dumps(column)) == EXPOSED_SHARES[name]

    def test_empty_fold_keeps_float_columns(self):
        days = run_replay(SPECS["quarter-day"][0]).days
        for name in ("goodput_fraction", "affected_flow_fraction",
                     "exposed_link_s", "protected_link_s", "disabled_link_s",
                     "repair_queue_depth_mean"):
            assert all(type(v) is float for v in days[name]), name
        for name in ("activations", "capacity_floor_violations",
                     "repair_queue_depth_max", "episode_onsets"):
            assert all(type(v) is int for v in days[name]), name


def _windows_loop(starts, ends):
    """Per-row reference: each ``[start, end)`` row's overlap with every
    day it touches, rows in order, days ascending."""
    out = []
    for row, (start_s, end_s) in enumerate(zip(starts, ends)):
        if end_s <= start_s:
            continue
        first = int(start_s / DAY_S)
        last = int(end_s / DAY_S)
        for day in range(first, last + 1):
            span = min(end_s, (day + 1) * DAY_S) - max(start_s, day * DAY_S)
            if span > 0:
                out.append((row, day, span))
    return out


class TestDayWindows:
    DURATION_S = 5.5 * DAY_S

    ROWS = [
        (2 * DAY_S, 2.25 * DAY_S),          # starts exactly on a day boundary
        (1.5 * DAY_S, 1.5 * DAY_S),         # zero length
        (4.9 * DAY_S, 5.5 * DAY_S),         # ends at duration_s
        (0.3 * DAY_S, 3.7 * DAY_S),         # spans four days
        (1.0 * DAY_S, 2.0 * DAY_S),         # exactly one whole day
        (3.2 * DAY_S, 3.1 * DAY_S),         # reversed: empty
        (0.0, 0.0),
    ]

    def _check(self, rows):
        starts = [s for s, _ in rows]
        ends = [e for _, e in rows]
        row, day, span = _day_windows(starts, ends)
        got = list(zip(row.tolist(), day.tolist(), span.tolist()))
        assert got == _windows_loop(starts, ends)
        return got

    def test_full_range(self):
        got = self._check(self.ROWS)
        assert [d for r, d, _ in got if r == 3] == [0, 1, 2, 3]
        assert not [r for r, _, _ in got if r in (1, 5, 6)]

    def test_empty(self):
        row, day, span = _day_windows([], [])
        assert row.size == day.size == span.size == 0

    def test_random_rows(self):
        rng = np.random.default_rng(5)
        starts = rng.uniform(0, self.DURATION_S, 300)
        ends = np.minimum(starts + rng.exponential(DAY_S, 300),
                          self.DURATION_S)
        # a few rows pinned to whole-day edges
        starts[:20] = np.floor(starts[:20] / DAY_S) * DAY_S
        ends[20:40] = np.ceil(ends[20:40] / DAY_S) * DAY_S
        self._check(list(zip(starts.tolist(), ends.tolist())))


class TestMemoizedSpeedLookup:
    RATES = sorted({0.0, 1e-6, 1e-2, 1.0, 2.0}
                   | {edge for low, high, _ in LOSS_BUCKETS
                      for edge in (low, high)})

    @pytest.mark.parametrize("rate", RATES)
    def test_equals_the_table_lookup(self, rate):
        want = 0.0 if rate >= 1.0 else float(
            interp_log_loss(rate, FIG8_POINTS))
        assert lg_effective_speed_fraction(rate) == want
        # a second call is served from the memo with the same value
        hits = lg_effective_speed_fraction.cache_info().hits
        assert lg_effective_speed_fraction(rate) == want
        assert lg_effective_speed_fraction.cache_info().hits == hits + 1
