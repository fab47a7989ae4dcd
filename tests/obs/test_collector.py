"""Telemetry collector plumbing: wire format, bounded queues, HTTP
ingest (mounted and standalone) and the in-process flush path."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import SimRuntime
from repro.core.context import Context
from repro.net import LinkSpec, Network
from repro.http import Request
from repro.obs import MetricsRegistry, Tracer
from repro.obs.analyze import assemble_traces
from repro.obs.collector import (
    TELEMETRY_CONTENT_TYPE,
    TelemetryCollector,
    TelemetrySink,
    parse_records,
    push_telemetry,
    record_to_json,
    records_to_json_lines,
)
from repro.server import (
    CollectorApp,
    HttpServer,
    ObjectStore,
    ServerConfig,
    StorageApp,
)
from repro.sim import Environment


def make_sink(node="unit", **kwargs):
    return TelemetrySink(node, **kwargs)


# -- wire format --------------------------------------------------------------


def test_span_round_trips_through_jsonl():
    sink = make_sink()
    tracer = Tracer(node="unit")
    tracer.sink = sink.record_span
    span = tracer.start("request", root=True, url="http://x/y")
    child = tracer.start("recv", parent=span)
    child.end(bytes=7)
    span.end()

    lines = records_to_json_lines(sink.drain())
    parsed = parse_records(lines)
    assert [r["name"] for r in parsed] == ["recv", "request"]
    recv, request = parsed
    assert recv["type"] == "span"
    assert recv["node"] == "unit"
    assert recv["trace"] == request["trace"]
    assert recv["parent"] == request["span"]
    assert request["parent"] is None
    assert recv["attrs"]["bytes"] == 7
    assert request["attrs"]["url"] == "http://x/y"


def test_record_json_is_canonical():
    sink = make_sink(clock=lambda: 4.0)
    sink.record_event({"kind": "cache", "hits": 3})
    registry = MetricsRegistry()
    registry.counter("io.bytes_total").inc(12)
    sink.record_metrics(registry)
    event, metrics = sink.drain()
    # Sorted keys, integral floats normalised to ints.
    assert record_to_json(event) == (
        '{"event": {"hits": 3, "kind": "cache"},'
        ' "node": "unit", "type": "event"}'
    )
    parsed = json.loads(record_to_json(metrics))
    assert parsed["ts"] == 4
    assert parsed["series"]["io.bytes_total"] == 12


def test_drain_empties_and_preserves_order():
    sink = make_sink()
    sink.record_event({"kind": "a"})
    sink.record_event({"kind": "b"})
    first = sink.drain()
    assert [r["event"]["kind"] for r in first] == ["a", "b"]
    assert sink.drain() == []
    assert sink.pending == 0


# -- bounded queues -----------------------------------------------------------


def test_sink_drops_beyond_capacity_and_counts():
    sink = make_sink(capacity=2)
    for n in range(5):
        sink.record_event({"kind": "e", "n": n})
    assert sink.pending == 2
    assert sink.dropped == 3
    kept = [r["event"]["n"] for r in sink.drain()]
    assert kept == [0, 1]  # oldest-first, tail dropped


def test_sink_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TelemetrySink("x", capacity=0)


def test_collector_drops_beyond_capacity_and_counts():
    collector = TelemetryCollector(capacity=3)
    accepted = collector.ingest(
        [{"type": "event", "node": "n", "event": {"n": i}}
         for i in range(5)]
    )
    assert accepted == 3
    assert len(collector) == 3
    assert collector.dropped == 2
    assert collector.batches == 1


def test_flush_delivers_to_bound_or_explicit_target():
    bound = TelemetryCollector()
    sink = make_sink(target=bound)
    sink.record_event({"kind": "x"})
    sink.flush()
    assert len(bound) == 1

    override = TelemetryCollector()
    sink.record_event({"kind": "y"})
    sink.flush(target=override)
    assert len(bound) == 1  # unchanged
    assert override.records()[0]["event"]["kind"] == "y"


def test_malformed_jsonl_batch_fails_whole_batch():
    collector = TelemetryCollector()
    with pytest.raises(ValueError):
        collector.ingest_lines('{"type": "event"}\nnot json\n')
    assert len(collector) == 0


# -- HTTP ingest --------------------------------------------------------------


def collector_world(app_factory):
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("client")
    net.add_host("hub")
    net.set_route(
        "client", "hub",
        LinkSpec(latency=0.001, bandwidth=125_000_000),
    )
    HttpServer(SimRuntime(net, "hub"), app_factory(), port=80).start()
    return SimRuntime(net, "client")


def test_push_telemetry_into_mounted_storage_collector():
    collector = TelemetryCollector()

    def app():
        return StorageApp(
            ObjectStore(), config=ServerConfig(collector=collector)
        )

    runtime = collector_world(app)
    sink = TelemetrySink("client")
    context = Context(telemetry=sink)
    context.clock = runtime.now
    context.events.emit("cache", hits=1)
    response = runtime.run(
        push_telemetry(context, "http://hub/v1/telemetry", sink)
    )
    assert response.status == 204
    assert response.headers.get("X-Telemetry-Accepted") == "1"
    assert collector.events()[0]["event"]["kind"] == "cache"
    # The push drains before building the request: its own span is
    # still queued locally, not in the shipped batch.
    assert collector.spans() == []
    assert sink.pending > 0


def test_push_telemetry_with_empty_queue_skips_the_wire():
    runtime = collector_world(
        lambda: CollectorApp(TelemetryCollector())
    )
    sink = TelemetrySink("client")
    context = Context()
    context.clock = runtime.now
    assert (
        runtime.run(
            push_telemetry(context, "http://hub/v1/telemetry", sink)
        )
        is None
    )


def test_collector_app_serves_jsonl_and_stats_back():
    collector = TelemetryCollector()
    runtime = collector_world(lambda: CollectorApp(collector))
    sink = TelemetrySink("client")
    context = Context(telemetry=sink)
    context.clock = runtime.now
    context.events.emit("cache", hits=2)
    runtime.run(
        push_telemetry(context, "http://hub/v1/telemetry", sink)
    )

    from repro.core import DavixClient

    client = DavixClient(runtime, context=context)
    body = client.get("http://hub/v1/telemetry")
    assert parse_records(body.decode("utf-8")) == collector.records()
    stats = client.get("http://hub/v1/telemetry/stats")
    assert stats == b"records=1 batches=1 dropped=0\n"

    from repro.errors import FileNotFound

    with pytest.raises(FileNotFound):
        client.get("http://hub/elsewhere")


def test_bad_batch_answers_400_and_ingests_nothing():
    collector = TelemetryCollector()
    runtime = collector_world(lambda: CollectorApp(collector))

    from repro.core.request import execute_request
    from repro.http import Headers, Request, Url

    context = Context()
    context.clock = runtime.now

    def op():
        response, _ = yield from execute_request(
            context,
            Url.parse("http://hub/v1/telemetry"),
            Request(
                "POST",
                "/v1/telemetry",
                Headers([("Content-Type", TELEMETRY_CONTENT_TYPE)]),
                b"not json\n",
            ),
        )
        return response

    response = runtime.run(op())
    assert response.status == 400
    assert len(collector) == 0


# -- hostile batches ------------------------------------------------------------


#: One line nested past the JSON decoder's recursion limit.
DEEP = b"[" * 100_000


def post_batch(app, body: bytes):
    return app.handle(Request("POST", "/v1/telemetry", body=body)).response


def test_lines_that_are_not_objects_fail_the_whole_batch():
    collector = TelemetryCollector()
    app = CollectorApp(collector)
    assert post_batch(app, b"5\n[1,2]\nnull").status == 400
    assert len(collector) == 0
    # The read side still works: nothing without ``.get`` was stored.
    assert collector.nodes() == [] and collector.spans() == []
    assert assemble_traces(collector.records()) == []
    for text in ('{"type": "event"}\n"text"\n', DEEP.decode("ascii")):
        with pytest.raises(ValueError):
            parse_records(text)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_LINES = st.lists(
    st.one_of(_JSON.map(json.dumps), st.text(max_size=16)), max_size=6
).map("\n".join)


@settings(max_examples=200)
@given(body=st.one_of(st.text(), _LINES))
def test_ingest_answers_400_unchanged_or_204_with_only_objects(body):
    collector = TelemetryCollector()
    app = CollectorApp(collector)
    assert post_batch(app, b'{"type": "event", "node": "n"}').status == 204
    before, batches = collector.records(), collector.batches
    status = post_batch(app, body.encode("utf-8")).status
    assert status in (204, 400)
    if status == 400:
        assert collector.records() == before
        assert collector.batches == batches
    else:
        assert all(isinstance(r, dict) for r in collector.records())
        collector.nodes(), collector.spans(), collector.events()


def deep_batch_then_stats(context, base):
    """Effect op: POST ``DEEP`` as a batch, then GET the stats on the
    same pooled connection. Returns both statuses and the stats body."""
    from repro.core.request import execute_request
    from repro.http import Headers, Url

    posted, _ = yield from execute_request(
        context,
        Url.parse(base + "/v1/telemetry"),
        Request(
            "POST",
            "/v1/telemetry",
            Headers([("Content-Type", TELEMETRY_CONTENT_TYPE)]),
            DEEP,
        ),
    )
    stats, _ = yield from execute_request(
        context,
        Url.parse(base + "/v1/telemetry/stats"),
        Request("GET", "/v1/telemetry/stats"),
    )
    return posted.status, stats.status, stats.body


def assert_deep_batch_refused(outcome, context, collector):
    posted, status, body = outcome
    assert posted == 400
    assert status == 200
    assert body == b"records=0 batches=0 dropped=0\n"
    assert collector.batches == 0
    # The 400 kept the connection: the stats GET reused it.
    pool = context.pool.stats()
    assert (pool.misses, pool.hits) == (1, 1)


def test_deep_json_batch_answers_400_and_keeps_the_connection_sim():
    collector = TelemetryCollector()
    runtime = collector_world(lambda: CollectorApp(collector))
    context = Context()
    context.clock = runtime.now
    outcome = runtime.run(deep_batch_then_stats(context, "http://hub"))
    assert_deep_batch_refused(outcome, context, collector)


def test_deep_json_batch_answers_400_and_keeps_the_connection_sockets():
    from repro.concurrency import ThreadRuntime
    from repro.server import real_server

    collector = TelemetryCollector()
    runtime = ThreadRuntime()
    context = Context()
    with real_server(CollectorApp(collector)) as server:
        outcome = runtime.run(
            deep_batch_then_stats(context, f"http://127.0.0.1:{server.port}")
        )
        assert_deep_batch_refused(outcome, context, collector)
        context.pool.clear()
