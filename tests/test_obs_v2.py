"""Tests for obs v2: causal spans, flight recorder, profiling, CLI verbs."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checker.scenarios import (
    CheckConfig, FaultScenario, compile_forward, run_scenario,
)
from repro.obs import (
    MetricsRegistry, Observability, PhaseTimer, SpanTracer, TimelineRecorder,
    TraceEvent, Tracer, events_to_jsonl, read_span_records, to_chrome_trace,
)
from repro.obs.schema import (
    validate_chrome_trace, validate_events_jsonl, validate_timeline,
)
from repro.obs.timeline import numeric_leaves
from repro.packets.seqno import SEQ_RANGE


class TestGaugeWatermark:
    def test_negative_gauge_reports_true_maximum(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("credit")
        gauge.set(-5)
        gauge.set(-2)
        gauge.set(-9)
        assert gauge.high_watermark == -2

    def test_untouched_gauge_watermark_is_zero(self):
        assert MetricsRegistry().gauge("depth").high_watermark == 0

    def test_positive_behaviour_unchanged(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.set(4)
        assert gauge.high_watermark == 10
        gauge.add(-20)
        assert gauge.value == -16
        assert gauge.high_watermark == 10


class TestPrometheusNameCollisions:
    def test_colliding_names_disambiguated(self):
        reg = MetricsRegistry()
        reg.counter("lg.sender").inc(1)
        reg.counter("lg_sender").inc(2)
        text = reg.prometheus_text()
        families = [line.split(" ")[2] for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert len(families) == len(set(families)) == 2
        # One keeps the plain form, the other gets a digest suffix.
        assert "lg_sender" in families
        assert any(f.startswith("lg_sender_") and f != "lg_sender"
                   for f in families)

    def test_disambiguation_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("lg.sender").inc()
            reg.counter("lg_sender").inc()
            return reg.prometheus_text()

        assert build() == build()

    def test_provider_vs_metric_collision(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(7)
        reg.register_provider("a_b", lambda: {"x": 1})
        lines = reg.prometheus_text().splitlines()
        sample_names = {line.split(" ")[0] for line in lines
                        if not line.startswith("#")}
        # The provider's a_b_x must not shadow or collide with the
        # counter family; every exported sample name is unique.
        assert len(sample_names) == len(
            [line for line in lines if not line.startswith("#")])

    def test_non_colliding_names_unchanged(self):
        reg = MetricsRegistry()
        reg.counter("lg.sender.retx").inc(3)
        assert "lg_sender_retx 3" in reg.prometheus_text()


class TestTracerSinkAcrossWraparound:
    """Satellite: the live sink sees every event exactly once even when
    the ring wraps, and ``events()`` stays emission-ordered."""

    def test_sink_sees_each_event_exactly_once(self):
        tracer = Tracer(capacity=4)
        seen = []
        tracer.sink = seen.append
        for i in range(11):
            tracer.instant(i, "t", f"e{i}")
        assert [e.name for e in seen] == [f"e{i}" for i in range(11)]
        # The ring retained only the newest capacity-many...
        assert [e.name for e in tracer.events()] == ["e7", "e8", "e9", "e10"]
        # ...in emission order, with the loss accounted for.
        assert tracer.dropped == 7

    def test_sink_receives_event_before_overwrite(self):
        tracer = Tracer(capacity=1)
        order = []

        def sink(event):
            # At sink time the event just emitted must still be readable.
            assert tracer.events()[-1] is event
            order.append(event.name)

        tracer.sink = sink
        tracer.instant(0, "t", "a")
        tracer.instant(1, "t", "b")
        assert order == ["a", "b"]

    def test_events_emission_ordered_after_wrap(self):
        tracer = Tracer(capacity=8)
        # Timestamps deliberately NOT monotone: order must follow
        # emission, not ts.
        stamps = [5, 3, 9, 1, 7, 2, 8, 4, 6, 0]
        for index, ts in enumerate(stamps):
            tracer.instant(ts, "t", f"e{index}")
        assert [e.name for e in tracer.events()] == [
            f"e{i}" for i in range(2, 10)]


def _event(ts, category, name, phase="i", **args):
    return TraceEvent(ts, category, name, phase, args or None)


class TestSpanTracer:
    def test_root_and_children_share_trace_id(self):
        spans = SpanTracer()
        root = spans.begin(100, "episode", "recovery_episode")
        child = spans.event(150, "lg.receiver", "loss_notification",
                            parent=root)
        assert root.trace_id == root.span_id
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.end_ns == child.start_ns  # instant

    def test_end_is_idempotent_and_merges_args(self):
        spans = SpanTracer()
        span = spans.begin(0, "c", "n", args={"a": 1})
        spans.end(span, 10, args={"b": 2})
        spans.end(span, 99, args={"a": 9})  # second end ignored
        assert span.end_ns == 10
        assert span.args == {"a": 1, "b": 2}

    def test_eviction_pins_open_spans(self):
        spans = SpanTracer(capacity=2)
        root = spans.begin(0, "episode", "open_root")
        for i in range(5):
            spans.event(i, "c", f"e{i}", parent=root)
        assert spans.dropped == 3
        retained = spans.spans()
        assert root in retained  # open span survives eviction pressure
        assert len([s for s in retained if not s.open]) == 2

    def test_episodes_correlate_on_link_era_seq(self):
        spans = SpanTracer()
        for link in ("link-a", "link-b"):
            spans.observe(_event(0, "link", "corruption_drop",
                                 link=link, seq=42, size=1521, era=0))
        spans.observe(_event(5, "lg.receiver", "in_order_release",
                             link="link-a", seq=42, era=0))
        # the key is unbound once closed: a late copy's release is ignored
        spans.observe(_event(9, "lg.receiver", "in_order_release",
                             link="link-a", seq=42, era=0))
        (a, b) = spans.trees().values()
        assert [s.name for s in a] == [
            "recovery_episode", "corruption_drop", "in_order_release"]
        assert a[0].args == {"link": "link-a", "seq": 42, "era": 0,
                             "outcome": "recovered"}
        assert a[1].args == {"seq": 42, "size": 1521, "era": 0}
        assert a[0].end_ns == 5
        assert [s.name for s in b] == ["recovery_episode", "corruption_drop"]
        assert b[0].open

    def test_events_outside_an_episode_are_ignored(self):
        spans = SpanTracer()
        spans.observe(_event(0, "link", "corruption_drop",
                             link="l", size=64, seq=None))   # no LG header
        spans.observe(_event(1, "lg.sender", "retx_fire",
                             link="l", seq=3, era=0, copies=2))  # no episode
        spans.observe(_event(2, "engine", "tick"))
        assert spans.spans() == []

    def test_pause_parent_is_the_links_open_episode(self):
        spans = SpanTracer()
        spans.observe(_event(0, "link", "corruption_drop",
                             link="l", seq=7, size=1521, era=0))
        spans.observe(_event(1, "lg.receiver", "pause", "B",
                             link="l", buffer_bytes=6084))
        spans.observe(_event(2, "lg.receiver", "ack_no_timeout",
                             link="l", seq=7, era=0))
        spans.observe(_event(3, "lg.receiver", "pause", "E",
                             link="l", resume_buffer_bytes=0))
        spans.observe(_event(4, "lg.sender", "pause", "B", link="l"))
        (episode, orphan) = spans.trees().values()
        root, pause = episode[0], episode[2]
        assert root.args["outcome"] == "timeout"
        assert pause.parent_id == root.span_id
        assert (pause.start_ns, pause.end_ns) == (1, 3)
        assert pause.args == {"buffer_bytes": 6084, "resume_buffer_bytes": 0}
        # no episode open on the link: the pause is a root of its own
        assert orphan[0].parent_id is None and orphan[0].open

    def test_trees_groups_by_episode_root_first(self):
        spans = SpanTracer()
        r1 = spans.begin(0, "episode", "r1")
        spans.event(5, "c", "c1", parent=r1)
        r2 = spans.begin(10, "episode", "r2")
        spans.end(r1, 7)
        spans.end(r2, 12)
        trees = spans.trees()
        assert set(trees) == {r1.trace_id, r2.trace_id}
        assert [s.name for s in trees[r1.trace_id]] == ["r1", "c1"]

    def test_disabled_instance_records_nothing_on_end(self):
        obs = Observability()
        assert not obs.spans.enabled and obs.tracer.sink is None
        obs.tracer.instant(0, "link", "corruption_drop",
                           {"link": "l", "seq": 1, "size": 64, "era": 0})
        assert obs.spans.spans() == []

    def test_clear_resets_counters(self):
        spans = SpanTracer(capacity=1)
        root = spans.begin(0, "e", "r")
        spans.event(1, "c", "a", parent=root)
        spans.event(2, "c", "b", parent=root)
        spans.clear()
        assert spans.spans() == []
        assert spans.started == 0 and spans.dropped == 0


class TestTimelineRecorder:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            TimelineRecorder(MetricsRegistry(), interval_ns=0)

    def test_samples_on_simulated_cadence(self):
        from repro.core.engine import Simulator

        obs = Observability(timeline={"interval_ns": 1_000})
        sim = Simulator(obs=obs)
        sim.schedule(5_000, lambda: None)
        # until= bounds the run: the recorder's tick re-arms itself, so
        # a run-to-empty would never return (same property as LG's
        # self-replenishing queues; see TrialHarness).
        sim.run(until=5_000)
        series = obs.timeline.series()
        assert series["ts_ns"][:6] == [0, 1_000, 2_000, 3_000, 4_000, 5_000]
        assert validate_timeline(series) == []
        assert "engine.sim_time_ns" in series["metrics"]

    def test_run_counter_distinguishes_simulators(self):
        from repro.core.engine import Simulator

        obs = Observability(timeline={"interval_ns": 1_000})
        for _ in range(2):
            sim = Simulator(obs=obs)
            sim.schedule(1_500, lambda: None)
            sim.run(until=1_500)
        series = obs.timeline.series()
        assert sorted(set(series["run"])) == [1, 2]
        # Time restarts per run but must stay monotone within each.
        assert validate_timeline(series) == []

    def test_stop_halts_sampling(self):
        from repro.core.engine import Simulator

        obs = Observability(timeline={"interval_ns": 1_000})
        sim = Simulator(obs=obs)
        sim.schedule(10_000, lambda: None)
        obs.timeline.stop()
        sim.run()
        assert obs.timeline.sampled <= 1

    def test_capacity_bounds_samples(self):
        recorder = TimelineRecorder(MetricsRegistry(), interval_ns=1,
                                    capacity=3)
        for ts in range(10):
            recorder.sample(ts, run=1)
        series = recorder.series()
        assert series["ts_ns"] == [7, 8, 9]
        assert series["dropped"] == 7 and series["sampled"] == 10

    def test_include_filter(self):
        reg = MetricsRegistry()
        reg.counter("lg.sender.retx").inc()
        reg.counter("engine.events").inc()
        recorder = TimelineRecorder(reg, interval_ns=1, include=("lg.",))
        recorder.sample(0, run=1)
        assert set(recorder.series()["metrics"]) == {"lg.sender.retx.value"}

    def test_late_metric_columns_padded(self):
        reg = MetricsRegistry()
        state = {}
        reg.register_provider("comp", lambda: dict(state))
        recorder = TimelineRecorder(reg, interval_ns=1)
        recorder.sample(0, run=1)
        state["late"] = 7
        recorder.sample(1, run=1)
        series = recorder.series()
        assert series["metrics"]["comp.late"] == [None, 7]
        assert validate_timeline(series) == []

    def test_numeric_leaves_flattening(self):
        flat = numeric_leaves({
            "lg": {"active": True, "depth": 3,
                   "hist": {"type": "histogram", "count": 2, "sum": 10,
                            "buckets": {10: 2}}},
            "rate": float("nan"),
            "name": "ignored",
        })
        assert flat == {"lg.active": 1, "lg.depth": 3,
                        "lg.hist.count": 2, "lg.hist.sum": 10}


class TestSchemaValidators:
    def test_valid_trace_passes(self):
        trace = {"traceEvents": [
            {"name": "a", "cat": "c", "ph": "i", "ts": 1.0},
            {"name": "b", "cat": "c", "ph": "X", "ts": 2.0, "dur": 1.0},
        ]}
        assert validate_chrome_trace(trace) == []

    def test_unknown_phase_and_missing_dur_flagged(self):
        trace = {"traceEvents": [
            {"name": "a", "cat": "c", "ph": "Z", "ts": 1.0},
            {"name": "b", "cat": "c", "ph": "X", "ts": 2.0},
        ]}
        problems = validate_chrome_trace(trace)
        assert any("unknown phase" in p for p in problems)
        assert any("dur" in p for p in problems)

    def test_unsorted_ts_flagged(self):
        trace = {"traceEvents": [
            {"name": "a", "cat": "c", "ph": "i", "ts": 5.0},
            {"name": "b", "cat": "c", "ph": "i", "ts": 1.0},
        ]}
        assert any("not sorted" in p for p in validate_chrome_trace(trace))

    def test_flow_integrity(self):
        base = {"name": "f", "cat": "flow", "pid": 1, "id": 9}
        trace = {"traceEvents": [
            {**base, "ph": "s", "ts": 1.0},
            {**base, "ph": "s", "ts": 2.0},
        ]}
        assert any("exactly one start" in p
                   for p in validate_chrome_trace(trace))
        orphan = {"traceEvents": [
            {"name": "f", "cat": "flow", "ph": "t", "ts": 1.0}]}
        assert any("needs an id" in p for p in validate_chrome_trace(orphan))

    def test_dangling_span_parent_flagged(self):
        trace = {"traceEvents": [
            {"name": "c", "cat": "e", "ph": "i", "ts": 1.0,
             "args": {"span_id": 2, "parent_id": 99, "trace_id": 1}},
        ]}
        assert any("parent 99" in p for p in validate_chrome_trace(trace))

    def test_jsonl_validator(self):
        good = ('{"ts": 1, "cat": "c", "name": "a", "ph": "i"}\n'
                '{"kind": "span", "span_id": 1, "trace_id": 1, "cat": "e",'
                ' "name": "r", "start_ns": 0, "end_ns": 5}\n')
        assert validate_events_jsonl(good) == []
        bad = '{"kind": "span", "span_id": 1}\nnot json\n'
        problems = validate_events_jsonl(bad)
        assert any("span missing" in p for p in problems)
        assert any("not valid JSON" in p for p in problems)

    def test_timeline_validator(self):
        assert validate_timeline({"bad": True}) != []
        misaligned = {"interval_ns": 10, "run": [1], "ts_ns": [0, 1],
                      "metrics": {"m": [1]}}
        problems = validate_timeline(misaligned)
        assert any("align" in p for p in problems)
        assert any("column length" in p for p in problems)
        reversed_time = {"interval_ns": 10, "run": [1, 1], "ts_ns": [5, 1],
                         "metrics": {}}
        assert any("reversed" in p for p in validate_timeline(reversed_time))


def _single_loss_run():
    from repro.checker.scenarios import CheckConfig, FaultScenario, run_scenario

    obs = Observability(spans=True)
    scenario = FaultScenario(name="one-loss",
                             drops=[{"kind": "data", "index": 5}])
    outcome = run_scenario(scenario, CheckConfig(n_packets=20), obs=obs)
    return obs, outcome


class TestSpanRoundTrip:
    """Acceptance: one seeded loss => one episode tree matching the event
    log, and a Perfetto export that reloads with flow links intact."""

    @pytest.fixture(scope="class")
    def run(self):
        return _single_loss_run()

    def test_single_loss_yields_one_episode_tree(self, run):
        obs, outcome = run
        assert outcome.ok and outcome.completed
        trees = obs.spans.trees()
        assert len(trees) == 1
        (tree,) = trees.values()
        root = tree[0]
        assert root.name == "recovery_episode"
        assert root.args["seq"] == 5
        assert root.args["outcome"] == "recovered"
        assert not root.open
        names = [span.name for span in tree[1:]]
        assert names == ["corruption_drop", "loss_notification",
                         "retx_fire", "recovered", "in_order_release"]
        # Causality: children in non-decreasing time, inside the root.
        times = [span.start_ns for span in tree[1:]]
        assert times == sorted(times)
        assert root.start_ns == times[0] and root.end_ns == times[-1]

    def test_children_match_checker_event_log(self, run):
        obs, _ = run
        (tree,) = obs.spans.trees().values()
        log = {(e.name, e.ts) for e in obs.tracer.events()}
        for span in tree[1:]:
            if span.name in ("corruption_drop", "loss_notification",
                             "retx_fire", "recovered"):
                assert (span.name, span.start_ns) in log

    def test_perfetto_export_reloads_with_flow_links(self, run, tmp_path):
        from repro.obs import write_chrome_trace

        obs, _ = run
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), obs.tracer, obs.registry,
                           spans=obs.spans)
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        (tree,) = obs.spans.trees().values()
        trace_id = tree[0].trace_id
        flows = [e for e in trace["traceEvents"]
                 if e.get("ph") in ("s", "t", "f") and e.get("id") == trace_id]
        assert [e["ph"] for e in flows].count("s") == 1
        assert [e["ph"] for e in flows].count("f") == 1
        assert [e["ph"] for e in flows].count("t") == len(tree) - 1
        assert trace["otherData"]["spans"]["started"] == len(tree)

    def test_jsonl_export_carries_span_records(self, run):
        obs, _ = run
        text = events_to_jsonl(obs.tracer, spans=obs.spans)
        assert validate_events_jsonl(text) == []
        kinds = [json.loads(line).get("kind") for line in text.splitlines()]
        assert kinds.count("span") == 6

    def test_retx_drop_attaches_to_existing_episode(self):
        # Dropping the retransmission too must not open a second episode.
        from repro.checker.scenarios import (
            CheckConfig, FaultScenario, run_scenario,
        )

        obs = Observability(spans=True)
        scenario = FaultScenario(
            name="retx-loss",
            drops=[{"kind": "data", "index": 5}, {"kind": "retx", "index": 0}])
        run_scenario(scenario, CheckConfig(n_packets=20), obs=obs)
        trees = obs.spans.trees()
        assert len(trees) == 1
        (tree,) = trees.values()
        assert any(s.name == "retx_drop" for s in tree)


class TestSpanExportShapes:
    def test_open_root_exports_as_begin_without_finish(self):
        spans = SpanTracer()
        root = spans.begin(1_000, "episode", "r")
        spans.event(2_000, "c", "child", parent=root)
        trace = to_chrome_trace(Tracer(capacity=4), spans=spans)
        by_phase = {}
        for event in trace["traceEvents"]:
            by_phase.setdefault(event["ph"], []).append(event)
        assert [e["name"] for e in by_phase["B"]] == ["r"]
        assert "f" not in by_phase  # open episode: no flow finish yet
        assert validate_chrome_trace(trace) == []

    def test_single_span_episode_has_no_flow_chain(self):
        spans = SpanTracer()
        root = spans.begin(0, "episode", "solo")
        spans.end(root, 10)
        trace = to_chrome_trace(Tracer(capacity=4), spans=spans)
        assert all(e["ph"] not in ("s", "t", "f")
                   for e in trace["traceEvents"])


def _drops(*atoms):
    return [{"kind": kind, "index": index} for kind, index in atoms]


def _tree_dicts(spans):
    return {trace_id: [span.to_dict() for span in group]
            for trace_id, group in spans.trees().items()}


def _replayed(events):
    spans = SpanTracer()
    for event in events:
        spans.observe(event)
    return spans


#: a backpressure burst: five consecutive losses fill the reordering
#: buffer past a 2 KB resume threshold, so both endpoints pause
_BURST = [("data", index) for index in range(10, 15)]
_BACKPRESSURE = {"resume_threshold_bytes": 2_000}


@st.composite
def _fault_runs(draw):
    """A FaultScenario plus CheckConfig mixing every episode shape:
    data drops, retx drops (both copies of one retx = an all-copies-lost
    timeout), backpressure pauses, an overflow stall and an NB fallback."""
    n_packets = draw(st.integers(40, 160))
    atoms = {("data", index) for index in draw(st.lists(
        st.integers(0, n_packets - 1), max_size=6))}
    atoms |= {("retx", index) for index in draw(st.lists(
        st.integers(0, 3), max_size=3))}
    mode = draw(st.sampled_from(["plain", "backpressure", "stall"]))
    lg = {}
    if mode == "backpressure":
        atoms |= set(_BURST)
        lg = dict(_BACKPRESSURE)
    elif mode == "stall":
        lg = {"rx_buffer_capacity_bytes": 8_000}
    ordered = mode != "plain" or draw(st.booleans())
    nb_switch_ns = draw(st.sampled_from([None, 4_000, 12_000])) \
        if ordered else None
    scenario = FaultScenario(drops=_drops(*sorted(atoms)),
                             nb_switch_ns=nb_switch_ns)
    config = CheckConfig(
        n_packets=max(n_packets, 60), ordered=ordered,
        backpressure=mode != "stall", lg=lg,
        seq_start=draw(st.sampled_from([0, SEQ_RANGE - 30])))
    return scenario, config


class TestSpansReadTheStream:
    """Spans are a function of the flat event stream: the live reader
    chained on the tracer's sink and a fresh reader fed the retained
    events build the same trees, and a wrapping ring changes nothing."""

    @settings(max_examples=25, deadline=None)
    @given(run=_fault_runs())
    @example(run=(FaultScenario(drops=_drops(("data", 20), ("retx", 0),
                                             ("retx", 1))),
                  CheckConfig(n_packets=120)))
    @example(run=(FaultScenario(drops=_drops(*_BURST)),
                  CheckConfig(n_packets=120, lg=_BACKPRESSURE)))
    @example(run=(FaultScenario(drops=_drops(*_BURST), nb_switch_ns=4_000),
                  CheckConfig(n_packets=120, lg=_BACKPRESSURE)))
    def test_replaying_the_events_rebuilds_the_trees(self, run):
        scenario, config = run
        full = Observability(spans=True)
        run_scenario(scenario, config, obs=full)
        assert full.tracer.dropped == 0
        trees = _tree_dicts(full.spans)
        assert _tree_dicts(_replayed(full.tracer.events())) == trees
        # a one-event ring keeps nothing but the last event
        wrapped = Observability(spans=True, trace_capacity=1)
        run_scenario(scenario, config, obs=wrapped)
        assert wrapped.tracer.dropped == max(0, full.tracer.emitted - 1)
        assert _tree_dicts(wrapped.spans) == trees

    @pytest.mark.parametrize("drops, config, outcome, children", [
        ([("data", 20), ("retx", 0), ("retx", 1)], {}, "timeout",
         ["retx_drop", "retx_drop", "pause", "pause", "ack_no_timeout"]),
        ([("data", 20), ("retx", 0)], {"ordered": False}, "recovered",
         ["retx_drop", "recovered", "reordered_release"]),
        # the second loss's release overflows a tiny reordering buffer
        # with backpressure off; only the stall watchdog moves ackNo on
        ([("data", 5), ("data", 6)],
         {"backpressure": False, "lg": {"rx_buffer_capacity_bytes": 8_000}},
         "stalled", ["recovered", "overflow_drop", "overflow_drop",
                     "stall_advance"]),
    ])
    def test_every_outcome_closes_its_episode(self, drops, config, outcome,
                                              children):
        obs = Observability(spans=True)
        run_scenario(FaultScenario(drops=_drops(*drops)),
                     CheckConfig(n_packets=120, **config), obs=obs)
        tree = list(obs.spans.trees().values())[-1]
        assert tree[0].args["outcome"] == outcome
        assert [span.name for span in tree[1:4]] == [
            "corruption_drop", "loss_notification", "retx_fire"]
        assert [span.name for span in tree[4:]] == children

    def test_pause_spans_hang_off_the_open_episode(self):
        def pauses(nb_switch_ns):
            obs = Observability(spans=True)
            outcome = run_scenario(
                FaultScenario(drops=_drops(*_BURST),
                              nb_switch_ns=nb_switch_ns),
                CheckConfig(n_packets=250, lg=_BACKPRESSURE), obs=obs)
            assert outcome.ok
            spans = {span.span_id: span for span in obs.spans.spans()}
            found = {span.category: span for span in spans.values()
                     if span.name == "pause"}
            assert set(found) == {"lg.sender", "lg.receiver"}
            for span in found.values():
                parent = spans[span.parent_id]
                assert parent.name == "recovery_episode"
                assert parent.start_ns <= span.start_ns < parent.end_ns
                assert not span.open
            return found["lg.sender"], found["lg.receiver"]

        sender, receiver = pauses(None)
        assert receiver.start_ns < sender.start_ns < receiver.end_ns
        assert set(receiver.args) == {"buffer_bytes", "resume_buffer_bytes"}
        assert sender.args in (None, {})
        # an NB fallback mid-pause closes the receiver's pause itself
        _, receiver = pauses(4_000)
        assert receiver.end_ns == 4_000
        assert receiver.args["nb_fallback"] is True
        assert "resume_buffer_bytes" not in receiver.args

    def test_two_links_sharing_one_obs_keep_their_episodes_apart(self):
        from repro.core.engine import Simulator
        from repro.core.rng import RngFactory
        from repro.linkguardian.protocol import ProtectedLink
        from repro.packets.packet import Packet
        from repro.switchsim.switch import Switch
        from repro.units import MTU_FRAME

        obs = Observability(spans=True)
        sim = Simulator(obs=obs)
        lose_sixth = FaultScenario(drops=_drops(("data", 5)))
        for ends in ("ab", "cd"):
            plink = ProtectedLink(
                sim, Switch(sim, ends[0]), Switch(sim, ends[1]), obs=obs,
                loss=compile_forward(lose_sixth, RngFactory(1)))
            plink.activate(1e-3)
            plink.receiver.forward = lambda packet: None
            for index in range(20):
                sim.schedule_at(index * 200, plink.sender.send,
                                Packet(size=MTU_FRAME))
        sim.run(until=30_000)
        trees = list(obs.spans.trees().values())
        assert [(tree[0].args["link"], tree[0].args["era"],
                 tree[0].args["seq"], tree[0].args["outcome"])
                for tree in trees] == [("a->b", 0, 5, "recovered"),
                                       ("c->d", 0, 5, "recovered")]
        assert [len(tree) for tree in trees] == [6, 6]

    def test_spans_imply_a_tracer(self):
        from repro.runner.cells import _build_obs

        def trees(options):
            obs = _build_obs(options)
            assert obs.tracer.enabled
            run_scenario(
                FaultScenario(drops=_drops(("data", 5), ("retx", 0))),
                CheckConfig(n_packets=40), obs=obs)
            return _tree_dicts(obs.spans)

        traced = trees({"trace": True, "spans": True})
        assert traced
        assert trees({"trace": False, "spans": True}) == traced

    def test_chrome_and_jsonl_readbacks_agree(self, tmp_path):
        from repro.obs import write_chrome_trace, write_jsonl

        obs = Observability(spans=True)
        run_scenario(FaultScenario(drops=_drops(*_BURST)),
                     CheckConfig(n_packets=250, lg=_BACKPRESSURE), obs=obs)
        # a pause still open at the end of a run
        root = obs.spans.begin(10**6, "episode", "recovery_episode")
        obs.spans.begin(10**6 + 1, "lg.sender", "pause", parent=root)
        chrome_path = write_chrome_trace(str(tmp_path / "t.json"),
                                         obs.tracer, spans=obs.spans)
        jsonl_path = write_jsonl(str(tmp_path / "t.jsonl"), obs.tracer,
                                 spans=obs.spans)

        def records(path, jsonl=False):
            with open(path) as handle:
                found = read_span_records(handle.read(), jsonl=jsonl)
            for record in found:
                record.pop("kind", None)
            return sorted(found, key=lambda record: record["span_id"])

        from_chrome = records(chrome_path)
        assert from_chrome == records(jsonl_path, jsonl=True)
        assert from_chrome[-1]["name"] == "pause"
        assert from_chrome[-1]["end_ns"] is None
        assert all(record["end_ns"] == record["start_ns"]
                   for record in from_chrome
                   if record["name"] == "corruption_drop")


class TestPhaseTimer:
    def test_accumulates_and_rounds(self):
        timer = PhaseTimer()
        timer.add("setup", 0.5)
        timer.add("setup", 0.25)
        with timer.phase("run"):
            pass
        timings = timer.timings()
        assert timings["setup"] == 0.75
        assert timings["run"] >= 0.0


class TestTimelineOverflowPolicies:
    def test_rejects_unknown_policy_and_tiny_capacity(self):
        with pytest.raises(ValueError, match="policy"):
            TimelineRecorder(MetricsRegistry(), policy="bogus")
        with pytest.raises(ValueError, match="capacity"):
            TimelineRecorder(MetricsRegistry(), capacity=1)

    def test_decimate_spans_whole_run_at_coarser_cadence(self):
        recorder = TimelineRecorder(MetricsRegistry(), interval_ns=1,
                                    capacity=4, policy="decimate")
        for ts in range(9):
            recorder.sample(ts, run=1)
        series = recorder.series()
        # The ring still starts at t=0 (unlike policy="drop", which
        # keeps only the tail) and the cadence has doubled per pass.
        assert series["ts_ns"][0] == 0
        assert series["ts_ns"][-1] == 8
        assert len(series["ts_ns"]) <= 4
        assert series["decimations"] >= 2
        assert series["interval_ns"] == 1 * 2 ** series["decimations"]
        assert series["sampled"] == 9
        assert series["dropped"] == 9 - len(series["ts_ns"])
        assert validate_timeline(series) == []

    def test_decimation_memory_stays_bounded(self):
        # Regression: month-scale runs must not grow the ring without
        # bound — 10k samples into a 64-slot decimating ring stay <= 64.
        recorder = TimelineRecorder(MetricsRegistry(), interval_ns=1,
                                    capacity=64, policy="decimate")
        for ts in range(10_000):
            recorder.sample(ts, run=1)
        assert len(recorder.samples()) <= 64
        assert recorder.sampled == 10_000

    def test_decimation_slows_installed_tick_cadence(self):
        from repro.core.engine import Simulator

        obs = Observability(
            timeline={"interval_ns": 1_000, "capacity": 4,
                      "policy": "decimate"})
        sim = Simulator(obs=obs)
        sim.schedule(40_000, lambda: None)
        sim.run(until=40_000)
        series = obs.timeline.series()
        # After decimation the recorder re-arms at the doubled interval,
        # so consecutive retained samples are spaced >= 1000ns apart and
        # far fewer than 41 samples were ever taken live.
        assert obs.timeline.interval_ns > 1_000
        assert obs.timeline.sampled < 41
        assert validate_timeline(series) == []
