"""Telemetry is folded where it is read.

Every ingest byte stream — a TCP connection, a JSONL file — is cut into
lines by one :class:`~repro.service.telemetry.LineSplitter`, and each
read's lines are parsed and folded in the coroutine that read them.
These tests hold that path to four promises: where the stream is split
never changes what is folded; a line over ``MAX_LINE_BYTES`` costs one
bad line, not the connection; nothing is folded once a drain starts;
and a line is accepted exactly when ``json.loads`` takes it and its
fields have their JSON types.

No pytest-asyncio here: every async scenario runs under its own
``asyncio.run``.
"""

import asyncio
import functools
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blame import FlowReport
from repro.fleet.topology import FleetSpec
from repro.service import (
    ControlPlaneService, ServiceConfig, TelemetryError, TelemetryRecord,
)
from repro.service.config import EVIDENCE
from repro.service.http import request
from repro.service.telemetry import (
    MAX_LINE_BYTES, OVERLONG_LINE, LineSplitter, file_source,
)

SMALL_FLEET = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                        spine_uplinks=4, mttf_hours=300.0)
KINDS = tuple(EVIDENCE)

#: what one feed line can be; "record" is weighted up so decisions happen
LINE_KINDS = ("record", "record", "record", "record", "multibyte",
              "bad_utf8", "junk", "not_object", "non_finite", "blank",
              "at_bound", "overlong")


def service_config(evidence: str, **overrides) -> ServiceConfig:
    base = dict(port=0, fleet=SMALL_FLEET, executor="inline",
                telemetry="none", evidence=evidence, window_frames=3000,
                onset_threshold=1e-3, blame_window_s=8.0)
    base.update(overrides)
    return ServiceConfig(**base)


def record_json(evidence: str, index: int, link: int, lost: int,
                counters: dict, note: str = "") -> dict:
    """Line ``index`` of a feed as a JSON-able document (cumulative
    counters per link, or a flow report crossing ``link``)."""
    if evidence == "port_counters":
        rx_all, rx_ok = counters.get(link, (0, 0))
        rx_all, rx_ok = rx_all + 1000, rx_ok + 1000 - lost
        counters[link] = (rx_all, rx_ok)
        doc = TelemetryRecord(float(index), link, rx_all, rx_ok).to_dict()
    else:
        doc = FlowReport(index / 10, index, 0, link % 4, 1, 0,
                         (link, 8 + index % 8), lost > 10).to_dict()
    if note:
        doc["note"] = note
    return doc


def build_feed(evidence: str, kinds, links, losses, crlf,
               last_newline: bool) -> bytes:
    counters: dict = {}
    lines = []
    for index, (kind, link, lost) in enumerate(zip(kinds, links, losses)):
        doc = functools.partial(record_json, evidence, index, link, lost,
                                counters)
        if kind == "record":
            line = json.dumps(doc()).encode()
        elif kind == "multibyte":          # 2- and 4-byte UTF-8 characters
            line = json.dumps(doc("é🙂"), ensure_ascii=False).encode()
        elif kind == "bad_utf8":           # decodes to U+FFFD: still valid
            line = json.dumps(doc("X")).encode().replace(b'"X"', b'"\xff"')
        elif kind == "junk":
            line = b"this is not telemetry"
        elif kind == "not_object":
            line = b"[1, 2, 3]"
        elif kind == "non_finite":
            bad = doc()
            bad["t"] = float("nan")
            line = json.dumps(bad).encode()
        elif kind == "blank":
            line = b"   "
        else:                 # a valid record padded to the bound, or past it
            line = json.dumps(doc()).encode()
            size = MAX_LINE_BYTES + (kind == "overlong")
            line += b" " * (size - len(line))
        lines.append(line)
    ends = [b"\r\n" if flag else b"\n" for flag in crlf]
    data = b"".join(line + end for line, end in zip(lines, ends))
    return data if last_newline else data[:-len(ends[-1])]


@st.composite
def feeds(draw):
    evidence = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 40))

    def same(strategy):
        return st.lists(strategy, min_size=n, max_size=n)

    data = build_feed(
        evidence, draw(same(st.sampled_from(LINE_KINDS))),
        draw(same(st.integers(0, 3))), draw(same(st.integers(0, 30))),
        draw(same(st.booleans())), draw(st.booleans()))
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=30)))
    return evidence, data, cuts


def reference(evidence: str, data: bytes):
    """The parent's semantics, one line at a time: split on ``\\n``,
    decode each line with ``errors="replace"``, skip blanks, count a
    line over the bound or one the parser rejects as bad, fold the rest."""
    service = ControlPlaneService(service_config(evidence))
    parse = EVIDENCE[evidence].parse_line
    bad = 0
    for raw in data.split(b"\n"):
        line = raw.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        if len(raw) > MAX_LINE_BYTES:
            bad += 1
            continue
        try:
            record = parse(line)
        except TelemetryError:
            bad += 1
            continue
        service.arbiter.observe(record)
    return outcome(service, bad)


def outcome(service: ControlPlaneService, bad_lines: int):
    service.arbiter.flush()
    return (service.arbiter.counts(), bad_lines,
            list(service.arbiter.decisions))


def chunked(evidence: str, data: bytes, cuts):
    """The service's read path over ``data`` split at ``cuts``."""
    service = ControlPlaneService(service_config(evidence))
    splitter = LineSplitter()
    bounds = [0, *cuts, len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            service._fold_lines(splitter.feed(data[lo:hi]))
    service._fold_lines(splitter.close())
    return outcome(service, service._bad_lines)


def tcp_feed(evidence: str) -> bytes:
    """A fixed feed with every line kind that reaches decisions."""
    kinds = (["record"] * 60 + ["multibyte", "bad_utf8", "junk",
                                "not_object", "non_finite", "blank",
                                "overlong", "at_bound"] + ["record"] * 60)
    n = len(kinds)
    return build_feed(evidence, kinds, [i % 4 for i in range(n)],
                      [30 if i % 4 == 1 else 0 for i in range(n)],
                      [i % 3 == 0 for i in range(n)], False)


async def started(config: ServiceConfig) -> ControlPlaneService:
    service = ControlPlaneService(config)
    await service.start()
    return service


class TestChunkBoundaries:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(feeds())
    def test_split_points_change_nothing(self, feed):
        evidence, data, cuts = feed
        assert chunked(evidence, data, cuts) == reference(evidence, data)

    def test_one_byte_reads(self):
        for evidence in KINDS:
            data = tcp_feed(evidence)
            cuts = list(range(1, len(data)))
            assert chunked(evidence, data, cuts) == reference(evidence, data)

    def test_fixed_feed_reaches_decisions(self):
        """The TCP feed below is not vacuous: both kinds decide."""
        for evidence in KINDS:
            counts, bad, decisions = reference(evidence, tcp_feed(evidence))
            assert decisions, evidence
            assert bad == 4          # junk, not_object, non_finite, overlong
            assert counts["records_seen"] == 123

    def test_odd_sized_tcp_writes(self):
        async def scenario(evidence, data):
            service = await started(service_config(evidence,
                                                   telemetry="tcp"))
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.ingest_port)
                sizes, offset, step = (1, 7, 13, 4093, 3, 65537, 2), 0, 0
                while offset < len(data):
                    size = sizes[step % len(sizes)]
                    writer.write(data[offset:offset + size])
                    await writer.drain()
                    await asyncio.sleep(0)
                    offset, step = offset + size, step + 1
                writer.write_eof()
                assert await asyncio.wait_for(reader.read(), 10.0) == b""
                writer.close()
                await writer.wait_closed()
                return outcome(service, service._bad_lines)
            finally:
                await service.begin_drain()

        for evidence in KINDS:
            data = tcp_feed(evidence)
            assert (asyncio.run(scenario(evidence, data))
                    == reference(evidence, data))


class TestOverlongLine:
    def test_tcp_connection_survives_an_overlong_line(self):
        """One record, a 200 KB line, four records on one connection:
        the long line is one bad line and the four records still fold."""
        records = [TelemetryRecord(60.0 * i, 2, 1000 * i, 1000 * i)
                   for i in range(1, 6)]
        payload = (records[0].to_json().encode() + b"\n"
                   + b"x" * 200_000 + b"\n"
                   + b"".join(r.to_json().encode() + b"\n"
                              for r in records[1:]))

        async def scenario():
            service = await started(service_config("port_counters",
                                                   telemetry="tcp"))
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.ingest_port)
                writer.write(payload)
                writer.write_eof()
                assert await asyncio.wait_for(reader.read(), 10.0) == b""
                writer.close()
                await writer.wait_closed()
                assert service.arbiter.records_seen == 5
                assert service._bad_lines == 1
            finally:
                await service.begin_drain()

        asyncio.run(scenario())

    def test_overlong_line_is_not_buffered_whole(self):
        splitter = LineSplitter()
        assert splitter.feed(b'{"a": 1}\n' + b"x" * 50_000) == ['{"a": 1}']
        for _ in range(20):       # a megabyte with no newline in sight
            assert splitter.feed(b"y" * 50_000) == []
            assert len(splitter._tail) <= MAX_LINE_BYTES + 1
        assert splitter.feed(b"zz\nnext\npart") == [OVERLONG_LINE, "next"]
        assert splitter.close() == ["part"]
        assert splitter.close() == []

    def test_file_source_holds_a_partial_line_under_follow(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_bytes(b'{"t": 1}\n{"t": 2')

        async def scenario():
            source = file_source(str(path), follow=True, poll_s=0.001)
            assert await source.__anext__() == ['{"t": 1}']
            with open(path, "ab") as handle:
                handle.write(b'}\n')
            lines = []
            while not lines:
                lines = await source.__anext__()
            await source.aclose()
            return lines

        assert asyncio.run(scenario()) == ['{"t": 2}']


async def closed_by_peer(reader: asyncio.StreamReader) -> bool:
    """Whether the service shut its end (a FIN, or a reset when it
    closed with our unread bytes still queued)."""
    try:
        return await asyncio.wait_for(reader.read(), 5.0) == b""
    except ConnectionError:
        return True


class TestDrainStopsIngest:
    def test_nothing_folded_after_drain_starts(self, tmp_path):
        """Records keep arriving on an open connection after
        ``begin_drain`` (held open by an in-flight query): ``counts()``,
        ``/decisions`` and the snapshot stay as the drain's flush left
        them, and the connection's handler ends."""
        snapshot = tmp_path / "state.json"

        def record(i, link):
            lost = 50 * i if i >= 3 else 0
            return (TelemetryRecord(60.0 * i, link, 1000 * i, 1000 * i - lost)
                    .to_json().encode() + b"\n")

        async def scenario():
            release, started_query = asyncio.Event(), asyncio.Event()

            async def slow(spec_dict):
                started_query.set()
                await release.wait()
                return {"cell_id": "slow", "spec": spec_dict,
                        "backend": "fastpath", "metrics": {},
                        "compute_wall_s": 0.0}

            service = await started(service_config(
                "port_counters", telemetry="tcp", drain_timeout_s=10.0,
                snapshot_path=str(snapshot)))
            service._run_spec = slow
            query = asyncio.create_task(request(
                "127.0.0.1", service.port, "POST", "/whatif",
                {"loss_rate": 1e-3, "n_trials": 10}))
            await asyncio.wait_for(started_query.wait(), 10.0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.ingest_port)
            writer.write(b"".join(record(i, 2) for i in range(1, 11)))
            await writer.drain()
            for _ in range(2000):
                if service.arbiter.records_seen >= 10:
                    break
                await asyncio.sleep(0.005)
            drain = asyncio.create_task(service.begin_drain())
            await asyncio.sleep(0.02)         # past the drain's flush()
            counts = service.arbiter.counts()
            decisions = list(service.arbiter.decisions)
            try:
                for i in range(1, 200):       # new onsets, were they folded
                    writer.write(record(i, 3))
                    await writer.drain()
            except ConnectionError:
                pass
            assert await closed_by_peer(reader)
            for _ in range(2000):             # and its handler returned
                if not service._connections:
                    break
                await asyncio.sleep(0.005)
            assert not service._connections
            status, _, raw = await request(
                "127.0.0.1", service.port, "GET", "/decisions")
            release.set()
            await asyncio.wait_for(drain, 10.0)
            assert (await asyncio.wait_for(query, 10.0))[0] == 200
            writer.close()
            assert status == 200
            assert json.loads(raw)["decisions"] == decisions
            assert service.arbiter.counts() == counts
            assert list(service.arbiter.decisions) == decisions
            assert counts["records_seen"] == 10 and decisions
            on_disk = json.loads(snapshot.read_text())
            assert on_disk["counts"] == counts
            assert on_disk["decisions"] == decisions

        asyncio.run(scenario())


def test_config_naming_the_ingest_queue_is_refused():
    """There is no ingest queue to size any more."""
    with pytest.raises(ValueError, match="ingest_queue"):
        ServiceConfig.from_dict({"ingest_queue": 4096})


# -- the decode: exactly what json.loads and the field rules accept ----------

FIELDS = {"port_counters": ("t", "link", "rx_all", "rx_ok"),
          "voting": ("t", "flow", "src", "dst", "path", "retx")}


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def expected_parse(evidence: str, line: str):
    """The record ``line`` must parse to, or None if it must be a bad
    line: ``json.loads``, then the field rules, spelled out the slow way."""
    try:
        data = json.loads(line)
    except ValueError:
        return None
    if not isinstance(data, dict) or any(
            name not in data for name in FIELDS[evidence]):
        return None
    time_s = data["t"]
    if isinstance(time_s, bool) or not isinstance(time_s, (int, float)):
        return None
    try:
        time_s = float(time_s)
    except OverflowError:
        return None
    if not math.isfinite(time_s):
        return None
    if evidence == "port_counters":
        fields = [data["link"], data["rx_all"], data["rx_ok"]]
        if (not all(map(is_int, fields)) or min(fields) < 0
                or fields[2] > fields[1]):
            return None
        return TelemetryRecord(time_s, *fields)
    src, dst, path = data["src"], data["dst"], data["path"]
    pairs_ok = all(isinstance(pair, list) and len(pair) == 2
                   and all(map(is_int, pair)) for pair in (src, dst))
    if not (pairs_ok and is_int(data["flow"]) and isinstance(path, list)
            and all(map(is_int, path)) and isinstance(data["retx"], bool)):
        return None
    return FlowReport(time_s, data["flow"], *src, *dst, tuple(path),
                      data["retx"])


#: any JSON value, NaN and the infinities included
ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3)
    | st.integers(-3, 10 ** 6) | st.just(10 ** 400) | st.floats(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)

_PAIR = st.lists(st.integers(0, 3), min_size=2, max_size=2)
#: per field: well-typed values, and near misses of the wrong JSON type
#: (hypothesis favours the front of a sampled list: the subtlest go first)
FIELD_VALUES = {
    "t": (st.floats(0, 1e7) | st.integers(0, 10 ** 7),
          st.sampled_from([True, 10 ** 400, math.nan, math.inf, -math.inf,
                           False, "1.5", None, [1.0]])),
    "link": (st.integers(0, 40), st.sampled_from(
        [17.9, 3.0, True, "3", -1, None, [3]])),
    "rx_all": (st.integers(500, 10 ** 6), st.sampled_from(
        [600.0, False, "999", -1, None])),
    "rx_ok": (st.integers(0, 1000), st.sampled_from(
        [1.0, True, "999", 10 ** 7, None])),
    "flow": (st.integers(0, 10 ** 6), st.sampled_from([7.0, True, "7", None, [7]])),
    "src": (_PAIR, st.sampled_from(
        ["01", [0, 1.0], [True, 1], [0, 1, 2], [0], ["0", "1"],
         {"a": 1, "b": 2}, [], None])),
    "dst": (_PAIR, st.sampled_from(
        [[1, 2.5], [1.5, 2], [1, False], [1], [1, 2, 3], "12", 12])),
    "path": (st.lists(st.integers(0, 40), max_size=5), st.sampled_from(
        [[3.9, 12], [3, True], "3", {}, {"3": 1}, [None], [[3]], 3])),
    "retx": (st.booleans(), st.sampled_from(
        ["false", 0, 1, "true", None, [], 0.0])),
}


def escaped(key: str) -> str:
    return '"' + "".join("\\u%04x" % ord(char) for char in key) + '"'


@st.composite
def ingest_lines(draw):
    """A line of either kind: mostly well-formed records, at most one
    field of the wrong type, fields sometimes missing, arbitrary,
    duplicated or spelled with ``\\u`` escapes; sometimes not an object
    at all; padded with whitespace JSON does and does not take;
    sometimes followed by more data."""
    evidence = draw(st.sampled_from(KINDS))
    names = FIELDS[evidence]
    # sampled_from lists put the common case first: hypothesis draws
    # small integers far more often than uniformly
    if draw(st.sampled_from([False] * 9 + [True])):
        body = json.dumps(draw(st.lists(ANY_VALUE, max_size=2)
                               | st.integers() | st.text(max_size=3)))
    else:
        wrong = draw(st.sampled_from((None, None, None) + names))
        items = []
        for name in names:
            good, near_miss = FIELD_VALUES[name]
            choice = draw(st.sampled_from(
                ["good"] * 37 + ["missing", "any", "duplicate"]))
            if choice == "missing":
                continue
            value = draw(near_miss if name == wrong
                         else ANY_VALUE if choice == "any" else good)
            if choice == "duplicate":        # the last one wins
                items.append((name, draw(ANY_VALUE)))
            items.append((name, value))
        if draw(st.booleans()):
            items.append(("note", draw(st.text(max_size=3))))
        ascii_only = draw(st.booleans())
        body = "{" + draw(st.sampled_from([",", ", ", " ,\t"])).join(
            (escaped(key) if draw(st.sampled_from([False] * 4 + [True]))
             else json.dumps(key)) + ":"
            + json.dumps(value, ensure_ascii=ascii_only)
            for key, value in items) + "}"
    pad = st.text(" \t\r\n", max_size=3)
    junk = st.sampled_from([""] * 12 + ["\x0b", "\xa0", "\ufeff", "\x0c"])
    tail = draw(st.sampled_from([""] * 15 + ["x", ",", "]", " 1", "{}"]))
    if tail == "{}" and draw(st.booleans()):
        tail = body                      # two objects on one line
    line = (draw(junk) + draw(pad) + body + draw(pad) + tail + draw(pad)
            + draw(junk))
    return evidence, line


class TestDecodeMatchesJsonLoads:
    @settings(max_examples=1000, deadline=None)
    @given(ingest_lines())
    def test_accepts_exactly_json_loads_plus_field_rules(self, drawn):
        evidence, line = drawn
        parse = EVIDENCE[evidence].parse_line
        expected = expected_parse(evidence, line)
        if expected is None:
            with pytest.raises(TelemetryError):
                parse(line)
        else:
            record = parse(line)
            assert record == expected
            assert type(record) is type(expected)
            assert type(record.time_s) is float

    @settings(max_examples=300, deadline=None)
    @given(st.builds(
        lambda t, link, rx_ok, more: TelemetryRecord(t, link, rx_ok + more,
                                                     rx_ok),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 10 ** 6), st.integers(0, 10 ** 12),
        st.integers(0, 10 ** 12)))
    def test_counter_record_round_trips(self, record):
        assert EVIDENCE["port_counters"].parse_line(record.to_json()) == record

    @settings(max_examples=300, deadline=None)
    @given(st.builds(
        FlowReport, st.floats(allow_nan=False, allow_infinity=False),
        st.integers(), st.integers(), st.integers(), st.integers(),
        st.integers(), st.lists(st.integers(0, 10 ** 6)).map(tuple),
        st.booleans()))
    def test_flow_report_round_trips(self, report):
        assert EVIDENCE["voting"].parse_line(report.to_json()) == report
