"""Tests for the control-plane service (repro.service).

Covers the layers bottom-up: telemetry record parsing and the synthetic
generator, the streaming arbiter's onset/clear hysteresis, what-if
query canonicalization and the LRU cache, and the full asyncio service
end-to-end over real sockets — concurrent query load, the 429 admission
boundary, and a scrape-valid ``/metrics`` body under load.

No pytest-asyncio here: every async scenario runs under its own
``asyncio.run``.
"""

import asyncio
import json
import math

import pytest

from repro.fleet.controller import ControllerConfig
from repro.fleet.topology import FleetSpec
from repro.fleet.topology import FleetTopology
from repro.obs.schema import validate_prometheus
from repro.service import (
    ControlPlaneService, QueryError, ServiceConfig, StreamingArbiter,
    SyntheticTelemetry, TelemetryError, TelemetryRecord, WhatIfCache,
    WhatIfQuery, load_snapshot, parse_record, quantize_loss,
)
from repro.service.http import request
from repro.service.telemetry import file_source
from repro.lifecycle.traces import TraceSpec

SMALL_FLEET = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                        spine_uplinks=4, mttf_hours=300.0)


def small_config(**overrides) -> ServiceConfig:
    base = dict(
        port=0, fleet=SMALL_FLEET, executor="inline",
        telemetry="none", backend="fastpath",
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestTelemetryRecords:
    def test_roundtrip(self):
        record = TelemetryRecord(12.5, 7, 1000, 990)
        assert parse_record(record.to_json()) == record

    @pytest.mark.parametrize("line", [
        "not json",
        "[1,2,3]",
        '{"t": 1, "link": 2, "rx_all": 10}',                    # missing rx_ok
        '{"t": 1, "link": 2, "rx_all": "x", "rx_ok": 1}',       # non-numeric
        '{"t": 1, "link": -2, "rx_all": 10, "rx_ok": 1}',       # negative id
        '{"t": 1, "link": 2, "rx_all": 5, "rx_ok": 9}',         # ok > all
        '{"t": NaN, "link": 2, "rx_all": 10, "rx_ok": 9}',      # json.loads
        '{"t": Infinity, "link": 2, "rx_all": 10, "rx_ok": 9}',  # takes both
        '{"t": -Infinity, "link": 2, "rx_all": 10, "rx_ok": 9}',
        # mistyped fields are refused, not coerced
        '{"t": true, "link": 2, "rx_all": 10, "rx_ok": 9}',      # t = 1.0
        '{"t": "1", "link": 2, "rx_all": 10, "rx_ok": 9}',
        '{"t": 1%s, "link": 2, "rx_all": 10, "rx_ok": 9}' % ("0" * 400),
        '{"t": 1, "link": 17.9, "rx_all": 10, "rx_ok": 9}',      # link 17
        '{"t": 1, "link": true, "rx_all": 10, "rx_ok": 9}',
        '{"t": 1, "link": 2, "rx_all": 1000, "rx_ok": "999"}',
        '{"t": 1, "link": 2, "rx_all": 10.0, "rx_ok": 9}',
        # exactly what json.loads takes: JSON whitespace, one value
        '{"t": 1, "link": 2, "rx_all": 10, "rx_ok": 9} x',
        '{"t": 1, "link": 2, "rx_all": 10, "rx_ok": 9}{}',
        '\x0b{"t": 1, "link": 2, "rx_all": 10, "rx_ok": 9}',
        '{"t": 1, "link": 2, "rx_all": 10, "rx_ok": 9}\xa0',
        '\ufeff{"t": 1, "link": 2, "rx_all": 10, "rx_ok": 9}',
    ])
    def test_rejects_junk(self, line):
        with pytest.raises(TelemetryError):
            parse_record(line)

    def test_json_whitespace_and_integral_time_accepted(self):
        record = parse_record(
            ' \t{"t": 3, "link": 2, "rx_all": 10, "rx_ok": 9}\r\n')
        assert record == TelemetryRecord(3.0, 2, 10, 9)
        assert type(record.time_s) is float

    def test_record_is_an_immutable_hashable_tuple(self):
        record = TelemetryRecord(12.5, 7, 1000, 990)
        with pytest.raises(AttributeError):
            record.link_id = 8
        assert {record: 1}[TelemetryRecord(12.5, 7, 1000, 990)] == 1
        assert record._fields == ("time_s", "link_id", "rx_all", "rx_ok")

    def test_file_source_reads_jsonl(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        records = [TelemetryRecord(float(i), 0, 100 * (i + 1), 100 * (i + 1))
                   for i in range(5)]
        path.write_text("".join(r.to_json() + "\n" for r in records))

        async def read_all():
            return [parse_record(line)
                    async for lines in file_source(str(path))
                    for line in lines]

        assert asyncio.run(read_all()) == records


class TestSyntheticTelemetry:
    def test_deterministic_and_counters_monotonic(self):
        spec = TraceSpec(fleet=SMALL_FLEET, duration_days=3.0, seed=7)
        gen = SyntheticTelemetry(spec, tick_s=300.0)
        first = list(gen.records())
        second = list(SyntheticTelemetry(spec, tick_s=300.0).records())
        assert first == second
        assert first, "a 3-day trace at this MTTF must produce records"
        last = {}
        for record in first:
            if record.link_id in last:
                prev = last[record.link_id]
                assert record.rx_all > prev.rx_all
                assert record.rx_ok >= prev.rx_ok
            assert 0 <= record.rx_ok <= record.rx_all
            last[record.link_id] = record

    def test_limit_caps_record_count(self):
        spec = TraceSpec(fleet=SMALL_FLEET, duration_days=3.0, seed=7)
        gen = SyntheticTelemetry(spec, tick_s=300.0, limit=25)
        assert len(list(gen.records())) == 25

    def test_corrupting_interval_shows_loss(self):
        spec = TraceSpec(fleet=SMALL_FLEET, duration_days=5.0, seed=3)
        gen = SyntheticTelemetry(spec, tick_s=300.0)
        assert gen.intervals, "trace produced no episodes"
        link_id, spans = next(iter(gen.intervals.items()))
        onset_s, clear_s, loss = spans[0]
        mid = (onset_s + clear_s) / 2
        assert gen.oracle.loss_at(link_id, mid) == loss
        assert gen.oracle.loss_at(link_id, onset_s - 1.0) != loss or onset_s == 0


class TestStreamingArbiter:
    """Counter-estimator specifics; the monitor contract both evidence
    kinds share is ``tests/test_evidence_monitor.py``."""

    def _arbiter(self, **kwargs) -> StreamingArbiter:
        topology = FleetTopology(SMALL_FLEET, seed=1)
        defaults = dict(window_frames=3000, onset_threshold=1e-3,
                        clear_hysteresis=0.1)
        defaults.update(kwargs)
        return StreamingArbiter(topology, ControllerConfig(), "incremental",
                                **defaults)

    @staticmethod
    def _feed(arbiter, link, time_s, frames, lost, state={}):
        rx_all, rx_ok = state.get((id(arbiter), link), (0, 0))
        rx_all += frames
        rx_ok += frames - lost
        state[(id(arbiter), link)] = (rx_all, rx_ok)
        return arbiter.observe(TelemetryRecord(time_s, link, rx_all, rx_ok))

    def test_onset_then_clear_with_hysteresis(self):
        arbiter = self._arbiter()
        self._feed(arbiter, 3, 0.0, 1000, 0)
        assert arbiter.onsets == 0
        # 1% loss over the window: above the 1e-3 onset threshold.
        decisions = self._feed(arbiter, 3, 60.0, 1000, 10)
        assert arbiter.onsets == 1
        assert decisions and decisions[0]["link_id"] == 3
        assert [link for link, _ in arbiter.corrupting_links()] == [3]
        # The 3000-frame window still spans the lossy tick: the decayed
        # estimate (10/2000 = 5e-3) stays above clear = 1e-4.
        self._feed(arbiter, 3, 120.0, 1000, 0)
        assert arbiter.clears == 0
        # Once the window slides past the lossy tick the estimate drops
        # to zero and the episode clears.
        for tick in range(3, 30):
            self._feed(arbiter, 3, 60.0 * tick, 1000, 0)
            if arbiter.clears:
                break
        assert arbiter.clears == 1
        assert arbiter.corrupting_links() == []

    def test_dead_link_is_blocked_not_protected(self):
        """A link losing every frame has nothing left to protect: pricing
        it at Figure 8's 85% floor used to ``activate`` it (and
        ``segment_cost(PROTECTED, 1.0)`` then raised inside Eq. 2)."""
        from repro.fleet.cost import PROTECTED, segment_cost

        topology = FleetTopology(SMALL_FLEET, seed=1)
        arbiter = StreamingArbiter(
            topology, ControllerConfig(capacity_constraint=1.0),
            "incremental", window_frames=3000, onset_threshold=1e-3,
            clear_hysteresis=0.1)
        decisions = []
        for tick in range(3):
            decisions += self._feed(arbiter, 3, 60.0 * tick, 1000, 1000)
        assert [(d["action"], d["loss_rate"]) for d in decisions] == [
            ("blocked", 1.0)]
        assert arbiter.controller.exposed_links() == [3]
        assert arbiter.controller.lg_active_links() == []
        assert topology.link(3).speed_fraction == 1.0
        assert segment_cost(PROTECTED, 1.0) == (1.0, 1.0)

    def test_state_sharded_by_pod(self):
        arbiter = self._arbiter()
        pods = set()
        for link_id in (0, 1, arbiter.topology.n_links - 1):
            self._feed(arbiter, link_id, 0.0, 100, 0)
            pods.add(arbiter.topology.link(link_id).pod)
        assert set(arbiter.shard_sizes()) == pods
        assert arbiter.tracked_links() == 3


class TestVotingEvidenceService:
    """evidence="voting": the BlameMonitor behind the same service."""

    def test_evidence_line_parsing(self):
        from repro.blame import FlowReport
        from repro.service.telemetry import parse_evidence_line

        report = FlowReport(2.5, 7, 0, 1, 1, 2, (3, 12, 30, 21), True)
        assert parse_evidence_line(report.to_json()) == report
        line = report.to_json()
        mistyped = [
            line.replace("true", '"false"'),          # retx would be True
            line.replace("true", "1"),
            line.replace("[3,12", "[3.9,12"),         # path link 3
            line.replace('"path":[3,12,30,21]', '"path":"3"'),
            line.replace('"path":[3,12,30,21]', '"path":{}'),
            line.replace('"src":[0,1]', '"src":"01"'),  # pod 0, ToR 1
            line.replace('"src":[0,1]', '"src":[0,1,2]'),
            line.replace('"dst":[1,2]', '"dst":[1]'),
            line.replace('"dst":[1,2]', '"dst":[1,true]'),
            line.replace('"flow":7', '"flow":7.0'),
            line.replace('"flow":7', '"flow":false'),
            line.replace("2.5", "true"),              # t would be 1.0
            line.replace("2.5", '"2.5"'),
        ]
        assert all(bad != line for bad in mistyped)
        for bad in ("junk", "[1]", '{"t": 1.0, "flow": 2}',
                    line.replace("2.5", "Infinity"),
                    line.replace("2.5", "NaN"),
                    line + " {}", *mistyped):
            with pytest.raises(TelemetryError):
                parse_evidence_line(bad)
        # an empty path and an integral time are well-typed
        empty = parse_evidence_line(
            line.replace("2.5", "2").replace("[3,12,30,21]", "[]"))
        assert empty == report._replace(time_s=2.0, path=())
        with pytest.raises(AttributeError):
            report.retx = False
        assert hash(report) == hash(parse_evidence_line(line))

    def test_monitor_keeps_revoting_after_a_bad_line(self, tmp_path):
        """One non-finite timestamp must not wedge the re-vote cadence
        (it used to set the next evaluation to t=inf, forever)."""
        from repro.blame import FlowReport

        def line(time_s, flow):
            return FlowReport(time_s, flow, 0, 0, 0, 1, (3,), False).to_json()

        config = small_config(
            evidence="voting", telemetry="file", blame_window_s=60.0,
            telemetry_file=str(tmp_path / "evidence.jsonl"))
        with open(config.telemetry_file, "w") as handle:
            handle.write(line(0.0, 0) + "\n")
            handle.write(line(1.0, 1).replace("1.0", "Infinity") + "\n")
            for second in range(1, 1001):
                handle.write(line(float(second), second) + "\n")

        async def scenario():
            service = await _started(config)
            try:
                await service.wait_ingest_idle()
                assert service._bad_lines == 1
                counts = service.arbiter.counts()
                assert counts["records_seen"] == 1001
                # a re-vote every blame_window_s / 4 = 15 s of stream time
                assert counts["evaluations"] == 1000 // 15
                # and the sliding window still evicts
                assert len(service.arbiter.estimator._reports) <= 62
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_config_validates_evidence(self):
        assert small_config().evidence == "port_counters"
        assert small_config(evidence="voting").evidence == "voting"
        with pytest.raises(ValueError, match="unknown evidence"):
            small_config(evidence="rumor")
        with pytest.raises(ValueError):
            small_config(evidence="voting", coverage=0.0)
        # a non-finite synthetic flow rate used to be accepted and fail
        # only once the voting feed started
        for rate in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="flows_per_s"):
                small_config(evidence="voting", flows_per_s=rate)
        for window in (math.inf, math.nan):
            with pytest.raises(ValueError, match="blame_window_s"):
                small_config(evidence="voting", blame_window_s=window)
        # the feed itself: a nan rate used to mean fleet-sized
        from repro.lifecycle import TraceSpec
        from repro.service.telemetry import SyntheticFlowEvidence

        with pytest.raises(ValueError, match="flows_per_s"):
            SyntheticFlowEvidence(TraceSpec(fleet=SMALL_FLEET),
                                  flows_per_s=math.nan)

    def test_file_fed_voting_service_reaches_oracle_decisions(self, tmp_path):
        """Flow-report JSONL in, voting-labeled decisions out — and the
        controller acts on the corrupting link the evidence implies."""
        from repro.blame import EvidenceSpec, harvest_evidence
        from repro.fleet.topology import CorruptionEpisode

        config = small_config(
            evidence="voting", telemetry="file", blame_window_s=60.0,
            telemetry_file=str(tmp_path / "evidence.jsonl"),
            onset_threshold=1e-6)
        topology = FleetTopology(config.fleet, seed=config.seed)
        truth = CorruptionEpisode(link_id=5, onset_s=0.0, clear_s=120.0,
                                  loss_rate=1.5e-3, mean_burst=1.0)
        reports = harvest_evidence(
            EvidenceSpec(flows_per_s=400.0, seed=4), topology, [truth],
            0.0, 120.0)
        with open(config.telemetry_file, "w") as handle:
            for report in reports:
                handle.write(report.to_json() + "\n")
            handle.write("not a flow report\n")

        async def scenario():
            service = await _started(config)
            try:
                assert service.arbiter.evidence == "voting"
                await service.wait_ingest_idle()
                status, _, raw = await request(
                    "127.0.0.1", service.port, "GET", "/state")
                state = json.loads(raw)
                assert status == 200
                assert state["evidence"] == "voting"
                assert state["counts"]["records_seen"] == len(reports)
                status, _, raw = await request(
                    "127.0.0.1", service.port, "GET", "/decisions")
                decisions = json.loads(raw)["decisions"]
                assert status == 200 and decisions
                assert all(d["evidence"] == "voting" for d in decisions)
                assert {d["link_id"] for d in decisions} == {5}
                assert service._bad_lines == 1
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_synthetic_flow_evidence_deterministic(self):
        from repro.blame import FlowReport

        config = small_config(evidence="voting", telemetry="synthetic",
                              synthetic_days=1.0, synthetic_records=500)
        first = list(config.synthetic_feed())
        second = list(config.synthetic_feed())
        assert len(first) == 500
        assert first == second
        assert all(isinstance(report, FlowReport) for report in first)


class TestWhatIfCanonicalization:
    def test_string_and_float_spellings_share_a_key(self):
        # The satellite case: "0.001" (JSON string), 0.001 and 1e-3 are
        # the same physical question and must hit one cache entry.
        spellings = [{"loss_rate": "0.001"}, {"loss_rate": 0.001},
                     {"loss_rate": 1e-3}, {"loss_rate": "1e-3"}]
        keys = {WhatIfQuery(body).cache_key(3) for body in spellings}
        assert len(keys) == 1

    def test_quantization_snaps_near_duplicates(self):
        base = WhatIfQuery({"loss_rate": 1e-3}).cache_key(3)
        near = WhatIfQuery({"loss_rate": 1.0004e-3}).cache_key(3)
        far = WhatIfQuery({"loss_rate": 1.4e-3}).cache_key(3)
        assert near == base
        assert far != base

    def test_quantize_loss(self):
        assert quantize_loss(1.23456e-3, 3) == pytest.approx(1.23e-3)
        assert quantize_loss(0.0, 3) == 0.0
        assert quantize_loss(5.5e-4, 0) == 5.5e-4   # disabled

    def test_backend_and_seed_partition_the_cache(self):
        a = WhatIfQuery({"loss_rate": 1e-3, "backend": "fastpath"})
        b = WhatIfQuery({"loss_rate": 1e-3, "backend": "hybrid"})
        c = WhatIfQuery({"loss_rate": 1e-3, "seed": 2})
        assert len({q.cache_key(3) for q in (a, b, c)}) == 3

    @pytest.mark.parametrize("body, match", [
        ("nope", "JSON object"),
        ({}, "loss_rate"),
        ({"loss_rate": 2.0}, r"\[0, 1\)"),
        ({"loss_rate": float("nan")}, r"loss_rate must be in \[0, 1\)"),
        ({"loss_rate": 1e-3, "rate_gbps": "inf"},
         r"rate_gbps must be in \(0, inf\)"),
        ({"loss_rate": 1e-3, "bogus": 1}, "unknown query fields"),
        ({"loss_rate": 1e-3, "n_trials": "many"}, "integer"),
        ({"loss_rate": 1e-3, "n_trials": 1e400}, "integer"),   # inf
        ({"loss_rate": False}, "number"),                      # read 0.0
        ({"loss_rate": 1e-3, "rate_gbps": True}, "number"),    # read 1.0
        ({"loss_rate": 1e-3, "backend": "abacus"}, "backend"),
    ])
    def test_invalid_queries_rejected(self, body, match):
        with pytest.raises(QueryError, match=match):
            WhatIfQuery(body)

    def test_integer_fields_keep_integral_spellings(self):
        query = WhatIfQuery({"loss_rate": 1e-3, "link": "3", "n_trials": 50.0,
                             "flow_size": " 1460 ", "seed": 2})
        assert query.link == 3
        assert (query.spec.n_trials, query.spec.flow_size,
                query.spec.seed) == (50, 1460, 2)

    def test_lru_counts_and_evicts(self):
        cache = WhatIfCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)     # refreshes a
        cache.put("c", 3)                      # evicts b (LRU)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 1


async def _started(config: ServiceConfig) -> ControlPlaneService:
    service = ControlPlaneService(config)
    await service.start()
    return service


class TestServiceEndToEnd:
    def test_concurrent_whatifs_cache_hits_and_speedup(self):
        """Warm a handful of cells cold, then fire >= 50 concurrent
        queries over them: every response is 200, all are served from
        cache, and the *median* hit beats the fastest cold dispatch by
        >= 100x server-side (medians keep a single scheduler hiccup
        from flaking the ratio)."""

        async def scenario():
            service = await _started(small_config(
                queue_limit=64, max_inflight=4, cache_size=64))
            rates = [1e-3, 2e-3, 5e-3, 1e-2]
            try:
                async def ask(i):
                    body = {"loss_rate": rates[i % len(rates)],
                            "kind": "fct", "n_trials": 200}
                    status, _, raw = await request(
                        "127.0.0.1", service.port, "POST", "/whatif", body)
                    return status, json.loads(raw)

                cold = []
                for i in range(len(rates)):
                    status, payload = await ask(i)
                    assert status == 200 and not payload["cached"]
                    cold.append(payload)
                results = await asyncio.gather(*(ask(i) for i in range(52)))
                assert all(status == 200 for status, _ in results)
                hot = [r for _, r in results if r["cached"]]
                assert len(hot) == 52
                assert service.cache.hits >= 52
                hit_walls = sorted(r["wall_s"] for r in hot)
                median_hit = hit_walls[len(hit_walls) // 2]
                fastest_cold = min(r["dispatch_wall_s"] for r in cold)
                assert fastest_cold >= 100 * median_hit, (
                    f"cache hit {median_hit:.6f}s not >=100x faster than "
                    f"cold dispatch {fastest_cold:.6f}s")
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_concurrent_duplicates_coalesce_onto_one_dispatch(self):
        """The dog-pile case: N concurrent queries for the *same* cell
        admitted before the first result lands must trigger at most a
        couple of cold dispatches, not N."""

        async def scenario():
            service = await _started(small_config(
                queue_limit=64, max_inflight=2, cache_size=64))
            try:
                async def ask():
                    status, _, raw = await request(
                        "127.0.0.1", service.port, "POST", "/whatif",
                        {"loss_rate": 3e-3, "kind": "fct", "n_trials": 200})
                    return status, json.loads(raw)

                results = await asyncio.gather(*(ask() for _ in range(20)))
                assert all(status == 200 for status, _ in results)
                cold = [r for _, r in results if not r["cached"]]
                # max_inflight=2 bounds the duplicates that can be mid-
                # dispatch when the first result lands.
                assert len(cold) <= 2
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_admission_control_returns_429_never_hangs(self):
        async def scenario():
            # One dispatcher that is deliberately blocked, a queue of 2:
            # the third+ concurrent queries must bounce with 429.
            service = await _started(small_config(
                queue_limit=2, max_inflight=1))
            release = asyncio.Event()

            async def stuck(spec_dict):
                await release.wait()
                return {"cell_id": "stuck", "spec": spec_dict,
                        "backend": "fastpath", "metrics": {},
                        "compute_wall_s": 0.0}

            service._run_spec = stuck
            try:
                async def ask(i):
                    status, _, raw = await request(
                        "127.0.0.1", service.port, "POST", "/whatif",
                        {"loss_rate": (i + 1) * 1e-4, "n_trials": 10})
                    return status

                async def settle(predicate):
                    for _ in range(500):
                        if predicate():
                            return
                        await asyncio.sleep(0.01)
                    raise AssertionError("service never reached the "
                                         "expected admission state")

                # Saturate deterministically: first the single dispatch
                # slot, then the two queue slots.
                waiters = [asyncio.create_task(ask(0))]
                await settle(lambda: service._inflight == 1)
                waiters += [asyncio.create_task(ask(i)) for i in (1, 2)]
                await settle(lambda: service._queue.qsize() == 2)
                overflow = await asyncio.gather(*(ask(10 + i)
                                                  for i in range(5)))
                assert all(status == 429 for status in overflow)
                release.set()
                assert await asyncio.gather(*waiters) == [200, 200, 200]
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_metrics_scrape_valid_under_load(self):
        async def scenario():
            service = await _started(small_config(
                telemetry="synthetic", synthetic_days=2.0,
                synthetic_records=150))
            try:
                await service.wait_ingest_idle()
                assert service.arbiter.records_seen == 150
                queries = [request("127.0.0.1", service.port, "POST",
                                   "/whatif",
                                   {"loss_rate": 1e-3, "n_trials": 100})
                           for _ in range(4)]
                scrapes = [request("127.0.0.1", service.port, "GET",
                                   "/metrics") for _ in range(3)]
                responses = await asyncio.gather(*queries, *scrapes)
                for status, headers, raw in responses[-3:]:
                    assert status == 200
                    assert headers["content-type"].startswith("text/plain")
                    body = raw.decode()
                    assert validate_prometheus(body) == []
                    assert "service_queue_depth" in body
                    assert "service_cache_hit_rate" in body
                    assert "service_inflight_queries" in body
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_state_decisions_config_and_errors(self):
        async def scenario():
            service = await _started(small_config(
                telemetry="synthetic", synthetic_days=5.0))
            try:
                await service.wait_ingest_idle()
                status, _, raw = await request(
                    "127.0.0.1", service.port, "GET", "/state")
                state = json.loads(raw)
                assert status == 200
                assert state["counts"]["onsets"] > 0
                assert state["shard_sizes"]
                status, _, raw = await request(
                    "127.0.0.1", service.port, "GET", "/decisions?n=2")
                decisions = json.loads(raw)["decisions"]
                assert status == 200 and len(decisions) <= 2
                status, _, raw = await request(
                    "127.0.0.1", service.port, "GET", "/config")
                assert status == 200
                assert json.loads(raw)["policy"] == "incremental"
                status, _, _ = await request(
                    "127.0.0.1", service.port, "GET", "/nope")
                assert status == 404
                status, _, _ = await request(
                    "127.0.0.1", service.port, "GET", "/whatif")
                assert status == 405
                status, _, raw = await request(
                    "127.0.0.1", service.port, "POST", "/whatif",
                    {"loss_rate": "lots"})
                assert status == 400
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_unrunnable_whatif_is_400_at_admission(self):
        """A kind the cell table has no row for on the asked (or the
        default) backend used to pass admission, take a queue slot and a
        dispatcher turn, and answer 500 ``query failed``."""
        from repro.service.http import Request

        async def ask(service, body):
            response = await service.handle(Request(
                "POST", "/whatif", {}, {}, json.dumps(body).encode()))
            return response.status, json.loads(response.body)

        async def scenario():
            service = await _started(small_config())   # default: fastpath
            try:
                status, reply = await ask(
                    service, {"loss_rate": 1e-3, "kind": "multihop"})
                assert status == 400
                assert reply["error"] == (
                    "kind 'multihop' has no fastpath backend; "
                    "it runs on: packet")
                status, reply = await ask(service, {
                    "loss_rate": 1e-3, "kind": "timeline",
                    "backend": "hybrid"})
                assert status == 400 and "it runs on: packet" in reply["error"]
                status, reply = await ask(
                    service, {"loss_rate": 1e-3, "kind": "nope"})
                assert status == 400
                assert "unknown experiment kind 'nope'" in reply["error"]
                # nothing was queued, dispatched or cached for them
                assert service._queue.qsize() == 0
                assert service.cache.stats()["misses"] == 0
                status, reply = await ask(
                    service, {"loss_rate": 1e-3, "kind": "stress",
                              "params": {"duration_ms": 1.0}})
                assert status == 200 and reply["backend"] == "fastpath"
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize("field, value", [
        ("link", 3.7),             # int() read link 3
        ("n_trials", True),        # int() read 1 trial
        ("flow_size", 1460.5),
        ("seed", False),
    ])
    def test_mistyped_integer_field_is_400(self, field, value):
        from repro.service.http import Request

        async def scenario():
            service = await _started(small_config())
            try:
                response = await service.handle(Request(
                    "POST", "/whatif", {}, {},
                    json.dumps({"loss_rate": 1e-3, field: value}).encode()))
                assert response.status == 400
                assert json.loads(response.body)["error"] == (
                    f"{field} must be an integer")
                assert service.cache.stats()["misses"] == 0
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_decision_preview_on_link_queries(self):
        async def scenario():
            service = await _started(small_config())
            try:
                status, _, raw = await request(
                    "127.0.0.1", service.port, "POST", "/whatif",
                    {"loss_rate": 1e-3, "link": 3, "n_trials": 50})
                payload = json.loads(raw)
                assert status == 200
                preview = payload["decision_preview"]
                assert preview["link_id"] == 3
                assert isinstance(preview["can_disable"], bool)
                assert 0 < preview["lg_effective_speed_fraction"] <= 1
                assert preview["lg_effective_loss_rate"] < 1e-3
                assert preview["activation_headroom"] > 0
                status, _, _ = await request(
                    "127.0.0.1", service.port, "POST", "/whatif",
                    {"loss_rate": 1e-3, "link": 10_000})
                assert status == 400
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_tcp_ingest_feeds_arbiter(self):
        async def scenario():
            service = await _started(small_config(telemetry="tcp"))
            try:
                assert service.ingest_port
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.ingest_port)
                lost = 0
                for tick in range(1, 6):
                    lost += 50 if tick >= 2 else 0
                    record = TelemetryRecord(
                        60.0 * tick, 2, 1000 * tick, 1000 * tick - lost)
                    writer.write((record.to_json() + "\n").encode())
                writer.write(b"this is not telemetry\n")
                writer.write_eof()
                # the service closes its end once every line is folded
                assert await asyncio.wait_for(reader.read(), 10.0) == b""
                writer.close()
                await writer.wait_closed()
                assert service.arbiter.records_seen == 5
                assert service._bad_lines == 1
                assert service.arbiter.onsets >= 1
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_snapshot_written_and_loadable(self, tmp_path):
        path = tmp_path / "service-state.json"

        async def scenario():
            service = await _started(small_config(
                telemetry="synthetic", synthetic_days=2.0,
                synthetic_records=100, snapshot_path=str(path)))
            try:
                await service.wait_ingest_idle()
            finally:
                await service.begin_drain()

        asyncio.run(scenario())
        snapshot = load_snapshot(str(path))
        assert snapshot.version == 1
        assert snapshot.counts["records_seen"] == 100
        assert snapshot.config["policy"] == "incremental"
        # the controller keeps (and the snapshot lists) open episodes only
        assert len(snapshot.episodes) == snapshot.counts["open_episodes"]

    def test_stale_snapshot_rejected(self, tmp_path):
        from repro.core.state import SnapshotError

        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(SnapshotError, match="stale"):
            load_snapshot(str(path))
