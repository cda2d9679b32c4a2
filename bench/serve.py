"""The three control-plane workloads: a real ``python -m repro serve``
subprocess driven over loopback TCP/HTTP by :mod:`bench.client`.

The server runs ``--executor inline`` because a 2-core box cannot host
client + event loop + worker pool without measuring the scheduler.  Its
traced pass replays the same input lines and queries through an
in-process loop over the same public functions (no server, no sockets),
which is where the stack sampler can see ``service`` / ``monitor`` /
``blame`` / ``fleet`` / ``fastpath``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from bench import client, probes
from bench.common import (
    OUT_DIR, Recorder, canonical, digest, fast, percentile, ratio,
)
from bench.trace import Tracer
from bench.workload import NoTrace, Workload

BATCH = 1000   # lines per driver span in the in-process replay


class _ServeWorkload(Workload):
    """A workload that owns one server subprocess."""

    #: extra ``repro serve`` arguments
    SERVER_ARGS: Tuple[str, ...] = ("--cache-size", "256")
    server: Optional[client.Server] = None

    def start_server(self) -> client.Server:
        self.server = client.Server(os.path.join(OUT_DIR, "tmp"),
                                    self.SERVER_ARGS)
        return self.server

    def stop_server(self, rec: Recorder) -> None:
        """SIGTERM: the drain must exit 0."""
        code = self.server.stop()
        rec.check(code == 0, f"server exited {code} on SIGTERM")

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.kill()

    def server_rounds(self, seconds: float) -> Recorder:
        """Drive the real server for ``seconds`` (the traced run's share
        for the numbers only a live server has)."""
        real = Recorder()
        deadline = time.perf_counter() + seconds
        while not real.walls or time.perf_counter() < deadline:
            self.round(real)
        return real

    def service_metrics(self, rec: Recorder) -> Dict[str, float]:
        """``service.*`` numbers every server workload reports."""
        self.service_counts(rec)
        return {
            "service.startup_s": self.server.startup_s,
            "service.bad_lines":
                float(rec.counts["service"]["telemetry_bad_lines"]),
            "service.rejected": float(rec.counts["service"]["rejected"]),
        }

    def service_counts(self, rec: Recorder) -> Dict[str, Any]:
        """``/state`` with the gates every server workload shares."""
        state = self.server.get_json("/state")
        service = state["service"]
        rec.check(service["telemetry_bad_lines"] == 0,
                  f"{service['telemetry_bad_lines']} telemetry bad lines")
        rejected = service["rejected_429"] + service["rejected_503"]
        rec.check(rejected == 0, f"{rejected} requests refused (429/503)")
        rec.counts["service"] = {
            "telemetry_bad_lines": service["telemetry_bad_lines"],
            "rejected": rejected}
        return state


class _IngestWorkload(_ServeWorkload):
    """A server fed one periodic line feed over TCP.

    :meth:`lines` yields pass ``k`` of the feed: the same generated input
    continued one period later, so one server ingests for the whole window
    without regenerating.  A pass is sent in ``CHUNKS`` separately timed
    pieces (each its own sample kind — piece 3 always carries the same
    lines) to keep samples short.
    """

    CHUNKS = 4

    def lines(self, k: int) -> List[str]:
        raise NotImplementedError

    def begin(self) -> None:
        self.passes = 0
        self.sent = 0
        # no warm-up pass: the first timed pass runs cold and the
        # fastest-decile wall leaves it out
        self.start_server()

    def ingest_pass(self, rec: Recorder) -> None:
        lines = self.lines(self.passes)
        size = -(-len(lines) // self.CHUNKS)
        for chunk in range(self.CHUNKS):
            part = lines[chunk * size:(chunk + 1) * size]
            kind = f"ingest#{chunk}"
            before = rec.walls.get(kind)
            self.sent += len(part)
            wall = self.server.ingest(
                client.join_lines(part), self.sent,
                expect_s=fast(before) if before else None)
            rec.sample(kind, len(part), wall)
            rec.op(len(part))
        self.passes += 1

    def round(self, rec: Recorder, tracer: Any = NoTrace) -> None:
        rec.input_digests = self.input_digest
        self.ingest_pass(rec)

    def check_ingested(self, rec: Recorder) -> Dict[str, Any]:
        state = self.service_counts(rec)
        counts = state["counts"]
        rec.check(counts["records_seen"] == self.sent,
                  f"records_seen {counts['records_seen']} != sent {self.sent}")
        rec.check(counts["records_rejected"] == 0,
                  f"{counts['records_rejected']} records rejected")
        return state


# ---------------------------------------------------------------------------
# serve_counters
# ---------------------------------------------------------------------------

class ServeCounters(_IngestWorkload):
    """Port-counter telemetry in, controller decisions out.

    The input is a ``SyntheticTelemetry`` feed of the default 256-link
    fleet.  Pass ``k`` of the feed is the same trace continued one period
    later (time ``+ k*T``, counters ``+ k*`` their end-of-trace totals) —
    what cumulative counters of a periodic failure process look like —
    so one server ingests for the whole window without regenerating.
    """

    name = "serve_counters"
    work = "telemetry records ingested"

    def setup(self) -> None:
        from repro.fleet import FleetSpec
        from repro.lifecycle import TraceSpec
        from repro.service import SyntheticTelemetry

        spec = TraceSpec(fleet=FleetSpec(),
                         duration_days=0.5 if self.smoke else 4.0,
                         seed=self.seed)
        feed = SyntheticTelemetry(spec)
        self.tick_s = feed.tick_s
        #: clear lag: the 10M-frame window holds this many lossy ticks
        self.lag_s = (10_000_000 / feed.frames_per_tick + 1) * feed.tick_s
        self.period_s = spec.duration_s
        self.truth = feed.intervals
        self.records = [(r.time_s, r.link_id, r.rx_all, r.rx_ok)
                        for r in feed.records()]
        self.totals: Dict[int, Tuple[int, int]] = {}
        for _, link, rx_all, rx_ok in self.records:
            self.totals[link] = (rx_all, rx_ok)
        self.input_digest = {
            "telemetry": digest(client.join_lines(self.lines(0)))}
        self.begin()

    def lines(self, k: int) -> List[str]:
        shift = k * self.period_s
        totals = self.totals
        return ['{"t":%r,"link":%d,"rx_all":%d,"rx_ok":%d}' % (
            t + shift, link, rx_all + k * totals[link][0],
            rx_ok + k * totals[link][1])
            for t, link, rx_all, rx_ok in self.records]

    def round(self, rec: Recorder, tracer: Any = NoTrace) -> None:
        super().round(rec)
        if self.passes == 1:
            # decisions of the first pass: the same however many passes
            # the window holds, so this is the digest
            rec.same("decisions", [
                (d["time_s"], d["link_id"], d["action"])
                for d in self.server.get_json("/decisions")["decisions"]])

    def in_truth(self, link: int, time_s: float) -> bool:
        """Was ``link`` corrupting (or still inside the estimator's clear
        lag) at ``time_s`` of the periodic feed?"""
        phase = time_s % self.period_s
        return any(
            onset - self.tick_s <= at <= clear + self.lag_s
            for onset, clear, _ in self.truth.get(link, ())
            for at in (phase, phase + self.period_s))

    def finish(self, rec: Recorder) -> None:
        self.check_ingested(rec)
        for decision in self.server.get_json("/decisions")["decisions"]:
            if decision["action"] != "clear":
                rec.check(
                    self.in_truth(decision["link_id"], decision["time_s"]),
                    f"decision {decision['action']} on link "
                    f"{decision['link_id']} at {decision['time_s']} s is "
                    f"outside every truth interval")
        self.stop_server(rec)

    # -- traced pass: the ingest path in-process -------------------------------

    def traced_round(self, rec: Recorder, tracer: Any) -> None:
        from repro.fleet import ControllerConfig, FleetSpec, FleetTopology
        from repro.service import StreamingArbiter, parse_record

        arbiter = StreamingArbiter(FleetTopology(FleetSpec(), seed=1),
                                   ControllerConfig(), "incremental")
        lines = self.lines(0)[:100_000]
        started = time.perf_counter()
        for at in range(0, len(lines), BATCH):
            batch = lines[at:at + BATCH]
            with tracer.span("ingest batch", "ingest"):
                records = tracer.call(
                    "parse_record", lambda: [parse_record(x) for x in batch])
                tracer.call("StreamingArbiter.observe",
                            lambda: [arbiter.observe(r) for r in records])
        rec.sample("ingest_inproc", len(lines), time.perf_counter() - started)
        rec.op(len(lines))
        rec.check(arbiter.records_seen == len(lines),
                  "in-process arbiter dropped records")
        rec.same("ingest_inproc", arbiter.counts())

    def layer_metrics(self, tracer: Tracer, rec: Recorder,
                      seconds: float) -> Dict[str, Optional[float]]:
        n = rec.ops["ingest_inproc"] * len(rec.walls["ingest_inproc"])
        self_s = tracer.self_times()

        def loss_window_observes_per_s() -> float:
            from repro.monitor.corruptd import LossWindow

            counters = [(rx_all, rx_ok)
                        for _, link, rx_all, rx_ok in self.records
                        if link == self.records[0][1]] * 50

            def observe_all() -> None:
                window = LossWindow(10_000_000)
                for rx_all, rx_ok in counters:
                    window.observe(rx_all, rx_ok)
                    window.loss_rate()

            return probes.per_second(len(counters), observe_all)

        real = self.server_rounds(0.3 * seconds)
        rec.absorb(real)
        return {
            **self.service_metrics(rec),
            "service.ingest_records_per_s": real.throughput(),
            "service.parse_records_per_s":
                ratio(n, self_s.get("parse_record", 0.0)),
            "service.arbiter_observes_per_s":
                ratio(n, self_s.get("StreamingArbiter.observe", 0.0)),
            "monitor.loss_window_observes_per_s": probes.attempt(
                self.warnings, "monitor.loss_window_observes_per_s",
                loss_window_observes_per_s),
            "fleet.decisions": float(sum(
                self.server.get_json("/state")["counts"][name]
                for name in ("activations", "disables", "blocked"))),
        }


# ---------------------------------------------------------------------------
# serve_whatif
# ---------------------------------------------------------------------------

class ServeWhatif(_ServeWorkload):
    """One closed-loop client asking ``POST /whatif``.

    The key sequence is ``CYCLE`` draws, Zipf(1.1) over 2048 distinct
    fastpath cells, asked over and over against a 256-entry LRU: ~500
    distinct cells a cycle, twice the cache, ~74 % hits (an endless Zipf
    stream over the same cells: 73.5 %), so both the hit path and the
    miss path (a cold fastpath cell) carry weight.  An LRU's content is
    fixed by the last 256 distinct keys it saw, so once one cycle has been
    asked every cycle starts from the same cache state, and block ``j`` of
    the cycle is the same hits and misses each time — a sample kind that
    repeats its input exactly, like a cell of the in-process workloads.
    A sample is the wall of one block, client loop included.  Closed loop
    because each operator tool waits for its answer.
    """

    name = "serve_whatif"
    work = "what-if queries answered"
    CYCLE = 2000     # queries in the repeating key sequence
    BLOCK = 100      # queries per timed sample
    CACHE = 256

    def setup(self) -> None:
        import numpy

        rng = numpy.random.default_rng(self.seed)
        n_rates = 8 if self.smoke else 128
        rates = sorted({float(f"{rate:.3g}")
                        for rate in numpy.geomspace(1e-5, 2e-2, n_rates)})
        cells = [{"loss_rate": rate, "flow_size": size, "transport": transport,
                  "scenario": scenario, "kind": "fct", "n_trials": 400}
                 for rate in rates for size in (143, 1460, 24_387, 100_000)
                 for transport in ("dctcp", "rdma")
                 for scenario in ("lg", "loss")]
        rng.shuffle(cells)               # the seed picks which cells are hot
        self.bodies = [json.dumps(dict(cell, link=index % 256)).encode()
                       for index, cell in enumerate(cells)]
        weights = 1.0 / numpy.arange(1, len(cells) + 1) ** 1.1
        self.popularity = weights / weights.sum()
        cycle = 4 * self.BLOCK if self.smoke else self.CYCLE
        self.sequence = [int(cell) for cell in rng.choice(
            len(cells), size=cycle, p=self.popularity)]
        self.input_digest = {"cells": digest(b"\n".join(self.bodies)),
                             "sequence": digest(self.sequence)}
        self.lru: "OrderedDict[int, None]" = OrderedDict()
        self.hits = self.misses = 0
        self.first_answer: Dict[int, str] = {}
        self.latencies: List[Tuple[float, bool]] = []
        self.asked = 0
        self.start_server()
        # warm-up: the whole cycle once, which leaves the cache in the
        # state every later cycle starts from
        self.warmup = Recorder()
        for _ in range(0, cycle, self.BLOCK):
            self.ask_block(self.warmup)

    def expect_hit(self, cell: int) -> bool:
        """The benchmark's own LRU-256 replay of the key sequence."""
        hit = cell in self.lru
        if hit:
            self.lru.move_to_end(cell)
            self.hits += 1
        else:
            self.lru[cell] = None
            self.misses += 1
            if len(self.lru) > self.CACHE:
                self.lru.popitem(last=False)
        return hit

    def ask_block(self, rec: Recorder) -> None:
        """The next ``BLOCK`` queries of the cycle, closed loop: one
        sample (the block's wall); answers are checked after the clock
        stops."""
        at = self.asked % len(self.sequence)
        cells = self.sequence[at:at + self.BLOCK]
        self.asked += len(cells)
        replies = []
        started = time.perf_counter()
        for cell in cells:
            replies.append(client.whatif(self.server, self.bodies[cell]))
        rec.sample(f"block#{at // self.BLOCK}", len(cells),
                   time.perf_counter() - started)
        rec.op(len(cells))
        for cell, (latency, status, reply) in zip(cells, replies):
            expected = self.expect_hit(cell)
            if status != 200:
                rec.fail(f"POST /whatif -> {status}: {reply}")
                continue
            self.latencies.append((latency, bool(reply["cached"])))
            rec.check(reply["cached"] == expected,
                      f"cell {cell}: cached={reply['cached']} but the LRU "
                      f"replay says {expected}")
            answer = canonical(reply["metrics"])
            rec.check(self.first_answer.setdefault(cell, answer) == answer,
                      f"cell {cell}: answer differs from its first answer")

    def round(self, rec: Recorder, tracer: Any = NoTrace) -> None:
        rec.input_digests = self.input_digest
        self.ask_block(rec)

    def finish(self, rec: Recorder) -> None:
        rec.absorb(self.warmup)
        cache = self.service_counts(rec)["cache"]
        rec.check((cache["hits"], cache["misses"])
                  == (self.hits, self.misses),
                  f"server cache hits/misses {cache['hits']}/"
                  f"{cache['misses']} != LRU replay {self.hits}/{self.misses}")
        # every cell of the cycle was answered in the warm-up
        rec.same("answers", digest(sorted(self.first_answer.items())))
        self.stop_server(rec)

    # -- traced pass: the query path in-process --------------------------------

    def traced_round(self, rec: Recorder, tracer: Any) -> None:
        from repro.runner.cells import run_cell
        from repro.service import WhatIfCache, WhatIfQuery

        cache = WhatIfCache(self.CACHE)
        order = self.sequence        # one cycle, from a cold cache
        started = time.perf_counter()
        for cell in order:
            with tracer.span("whatif", "whatif"):
                body = json.loads(self.bodies[cell])
                query = tracer.call("WhatIfQuery", WhatIfQuery, body)
                key = tracer.call("WhatIfQuery.cache_key", query.cache_key)
                hit, value = tracer.call("WhatIfCache.get", cache.get, key)
                if not hit:
                    result = tracer.call("run_cell(fastpath)", run_cell,
                                         query.to_spec_dict())
                    value = {"metrics": result.metrics}
                    cache.put(key, value)
                json.dumps(value, sort_keys=True, default=float)
        rec.sample("whatif_inproc", len(order), time.perf_counter() - started)
        rec.op(len(order))
        rec.same("whatif_inproc", cache.stats())

    def layer_metrics(self, tracer: Tracer, rec: Recorder,
                      seconds: float) -> Dict[str, Optional[float]]:
        n = rec.ops["whatif_inproc"] * len(rec.walls["whatif_inproc"])
        self_s = tracer.self_times()
        cache_stats = json.loads(rec.sim["whatif_inproc"])
        # the real server, quiet: latency split by the reply's ``cached``
        self.latencies.clear()
        real = self.server_rounds(0.25 * seconds)
        quiet = list(self.latencies)
        scrapes = []
        for _ in range(20 if self.smoke else 200):
            started = time.perf_counter()
            status, _ = self.server.request("GET", "/metrics")
            scrapes.append(time.perf_counter() - started)
            rec.op()
            rec.check(status == 200, f"GET /metrics -> {status}")
        rec.absorb(real)
        busy = probes.attempt(self.warnings, "busy phase",
                              lambda: self.busy_phase(rec, 0.25 * seconds))
        cache = self.server.get_json("/state")["cache"]
        out = {
            **self.service_metrics(rec),
            "service.whatif_qps": real.throughput(),
            "service.whatif_p50_ms": _ms(quiet, 50),
            "service.whatif_p99_ms": _ms(quiet, 99),
            "service.hit_ms": _ms([x for x in quiet if x[1]], 50),
            "service.miss_ms": _ms([x for x in quiet if not x[1]], 50),
            "service.scrape_ms": percentile(scrapes, 50) * 1e3,
            "service.cache_hit_frac":
                ratio(cache["hits"], cache["hits"] + cache["misses"]),
            "service.query_build_us": ratio(
                (self_s.get("WhatIfQuery", 0.0)
                 + self_s.get("WhatIfQuery.cache_key", 0.0)) * 1e6, n),
            "service.cache_get_us":
                ratio(self_s.get("WhatIfCache.get", 0.0) * 1e6, n),
            "fastpath.cold_cell_ms": ratio(
                self_s.get("run_cell(fastpath)", 0.0) * 1e3,
                cache_stats["misses"] * len(rec.walls["whatif_inproc"])),
        }
        out.update(busy or {})
        return out

    def busy_phase(self, rec: Recorder, seconds: float) -> Dict[str, float]:
        """Writes beside reads: telemetry paced open-loop at 25k records/s
        on a second thread while the closed-loop client keeps asking."""
        from repro.fleet import FleetSpec
        from repro.lifecycle import TraceSpec
        from repro.service import SyntheticTelemetry

        feed = SyntheticTelemetry(TraceSpec(
            fleet=FleetSpec(), duration_days=0.2 if self.smoke else 2.0,
            seed=self.seed))
        lines = [record.to_json() for record in feed.records()]
        per_batch = 250
        batches = [client.join_lines(lines[at:at + per_batch])
                   for at in range(0, len(lines) - per_batch + 1, per_batch)]
        done = threading.Event()
        late: List[float] = []
        sender = threading.Thread(target=lambda: late.extend(
            client.paced_send(self.server, batches, 25_000.0, per_batch,
                              done.is_set)))
        self.latencies.clear()
        sender.start()
        try:
            deadline = time.perf_counter() + seconds
            asked = Recorder()
            while time.perf_counter() < deadline and sender.is_alive():
                self.ask_block(asked)
            rec.absorb(asked)
        finally:
            done.set()
            sender.join(timeout=60.0)
        return {
            "service.whatif_busy_p99_ms": _ms(self.latencies, 99),
            "service.sender_late_ms": percentile(late, 50) if late else 0.0,
        }


def _ms(latencies: List[Tuple[float, bool]], q: float) -> float:
    return percentile([x[0] for x in latencies], q) * 1e3 if latencies else 0.0


# ---------------------------------------------------------------------------
# serve_voting
# ---------------------------------------------------------------------------

class ServeVoting(_IngestWorkload):
    """Per-flow retransmission reports in, 007-style voting decisions out.

    Two episodes are planted on the 32-link fleet — a ToR-fabric link
    (the controller activates LinkGuardian) and a fabric-spine link (it
    disables the link) — and the flow evidence is harvested against them.
    Pass ``k`` is the same evidence one period later, as in
    :class:`ServeCounters`; each pass must reach the oracle's verdicts.
    """

    name = "serve_voting"
    work = "flow reports ingested"
    FLEET = dict(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                 spine_uplinks=4, mttf_hours=300.0)
    # With the default 1e-6 onset threshold about 2 % of seeds also blame
    # one collateral link (estimate < 1e-4, planted losses >= 1e-3); an
    # operator threshold of 2e-4 reached the oracle's verdicts on 220 of
    # 220 seeds.
    ONSET_THRESHOLD = 2e-4
    SERVER_ARGS = ("--evidence", "voting", "--fleet-pods", "2",
                   "--fleet-tors", "4", "--fleet-fabrics", "2",
                   "--fleet-spines", "4", "--mttf-hours", "300",
                   "--onset-threshold", str(ONSET_THRESHOLD))
    #: evidence period: both episodes age out of the 60 s window before it ends
    PERIOD_S = 150.0
    CHUNKS = 10

    def setup(self) -> None:
        import numpy
        from repro.blame import EvidenceSpec, harvest_evidence, run_oracle
        from repro.fleet import ControllerConfig, FleetSpec, FleetTopology
        from repro.fleet.topology import CorruptionEpisode

        self.fleet = FleetSpec(**self.FLEET)
        self.topology = FleetTopology(self.fleet, seed=1)
        rng = numpy.random.default_rng(self.seed)
        by_kind: Dict[bool, List[int]] = {True: [], False: []}
        for link_id in range(self.fleet.n_links):
            by_kind[self.topology.link(link_id).kind == "tor-fabric"].append(
                link_id)
        self.episodes = [
            CorruptionEpisode(int(rng.choice(by_kind[True])), 0.0, 60.0,
                              float(rng.uniform(1e-3, 3e-3)), 1.0),
            CorruptionEpisode(int(rng.choice(by_kind[False])), 20.0, 80.0,
                              float(rng.uniform(1e-3, 3e-3)), 1.0),
        ]
        self.evidence = EvidenceSpec(flows_per_s=400.0, seed=self.seed)
        horizon = 15.0 if self.smoke else self.PERIOD_S
        self.reports = harvest_evidence(self.evidence, self.topology,
                                        self.episodes, 0.0, horizon)
        self.templates = [
            (r.time_s, r.flow_id,
             '{"t":%%r,"flow":%%d,"src":[%d,%d],"dst":[%d,%d],"path":%s,'
             '"retx":%s}' % (r.src_pod, r.src_tor, r.dst_pod, r.dst_tor,
                             json.dumps(list(r.path), separators=(",", ":")),
                             "true" if r.retx else "false"))
            for r in self.reports]
        self.oracle = [list(pair) for pair in run_oracle(
            self.fleet, 1, ControllerConfig(), "incremental", self.episodes)]
        self.input_digest = {
            "evidence": digest(client.join_lines(self.lines(0))),
            "episodes": digest([e.to_dict() for e in self.episodes])}
        self.begin()

    def lines(self, k: int) -> List[str]:
        shift, flows = k * self.PERIOD_S, k * len(self.templates)
        return [template % (t + shift, flow + flows)
                for t, flow, template in self.templates]

    def finish(self, rec: Recorder) -> None:
        self.check_ingested(rec)
        if not self.smoke:   # the smoke feed is too short to reach a verdict
            self.check_verdicts(rec, self.server.get_json(
                "/decisions")["decisions"], self.passes)
        self.stop_server(rec)

    def check_verdicts(self, rec: Recorder, decisions: List[dict],
                       passes: int) -> None:
        from repro.blame import decision_signature

        signature = [list(pair) for pair in decision_signature(decisions)]
        rec.check(signature == self.oracle * passes,
                  f"voting decisions {signature} != oracle "
                  f"{self.oracle} x {passes} passes")
        rec.same("verdicts", self.oracle)

    # -- traced pass: the evidence path in-process -----------------------------

    def traced_round(self, rec: Recorder, tracer: Any) -> None:
        from repro.blame import BlameMonitor
        from repro.fleet import ControllerConfig, FleetTopology
        from repro.service.telemetry import parse_evidence_line

        monitor = BlameMonitor(FleetTopology(self.fleet, seed=1),
                               ControllerConfig(), "incremental",
                               onset_threshold=self.ONSET_THRESHOLD)
        lines = self.lines(0)
        started = time.perf_counter()
        for at in range(0, len(lines), BATCH):
            batch = lines[at:at + BATCH]
            with tracer.span("evidence batch", "ingest"):
                reports = tracer.call(
                    "parse_evidence_line",
                    lambda: [parse_evidence_line(x) for x in batch])
                tracer.call("BlameMonitor.observe",
                            lambda: [monitor.observe(r) for r in reports])
        monitor.flush()
        rec.sample("ingest_inproc", len(lines), time.perf_counter() - started)
        rec.op(len(lines))
        if not self.smoke:
            self.check_verdicts(rec, list(monitor.decisions), 1)
        rec.same("ingest_inproc", monitor.counts())

    def layer_metrics(self, tracer: Tracer, rec: Recorder,
                      seconds: float) -> Dict[str, Optional[float]]:
        from repro.blame import harvest_evidence, tally_votes

        n = rec.ops["ingest_inproc"] * len(rec.walls["ingest_inproc"])
        self_s = tracer.self_times()
        counts = json.loads(rec.sim["ingest_inproc"])
        window = [r for r in self.reports if 20.0 <= r.time_s < 80.0]
        slice_s = 2.0 if self.smoke else 20.0

        def harvest_reports_per_s() -> float:
            wall, reports = probes.best_wall(lambda: tracer.call(
                "harvest_evidence", harvest_evidence, self.evidence,
                self.topology, self.episodes, 0.0, slice_s, label="blame"),
                repeats=2)
            return len(reports) / wall

        real = self.server_rounds(0.3 * seconds)
        rec.absorb(real)
        return {
            **self.service_metrics(rec),
            "service.ingest_records_per_s": real.throughput(),
            "blame.harvest_reports_per_s": probes.attempt(
                self.warnings, "blame.harvest_reports_per_s",
                harvest_reports_per_s),
            "blame.parse_reports_per_s":
                ratio(n, self_s.get("parse_evidence_line", 0.0)),
            "blame.monitor_observes_per_s":
                ratio(n, self_s.get("BlameMonitor.observe", 0.0)),
            "blame.tally_reports_per_s": probes.attempt(
                self.warnings, "blame.tally_reports_per_s",
                lambda: probes.per_second(len(window), lambda: tracer.call(
                    "tally_votes", tally_votes, window, label="blame"))),
            "blame.evaluations": float(counts["evaluations"]),
            "blame.flagged_frac":
                ratio(counts["reports_flagged"], counts["records_seen"]),
        }
