"""End-to-end instrumentation: real client traffic against the sim
server must land in the metrics registry and the span tree."""

import pytest

from tests.helpers import davix_world


def test_pool_hit_miss_accounting_under_sim():
    client, app, store, _ = davix_world()
    store.put("/obj", b"x" * 1024)
    for _ in range(5):
        client.get("http://server/obj")

    registry = client.metrics()
    assert registry.value("pool.acquire_total", outcome="miss") == 1
    assert registry.value("pool.acquire_total", outcome="hit") == 4
    assert registry.value("pool.release_total", outcome="recycled") == 5
    assert registry.value("session.connect_total") == 1
    # Registry mirrors the typed snapshot exactly.
    stats = client.pool_stats()
    assert stats.hits == 4
    assert stats.misses == 1
    assert stats.hit_rate == pytest.approx(0.8)
    assert stats.idle == 1


def test_connect_histogram_records_simulated_time():
    client, _, store, _ = davix_world(latency=0.010)
    store.put("/obj", b"y")
    client.get("http://server/obj")
    histogram = client.metrics().get("session.connect_seconds")
    assert histogram.count == 1
    # One RTT of simulated time, at least.
    assert histogram.sum >= 0.010


def test_client_byte_counters():
    client, _, store, _ = davix_world()
    store.put("/obj", b"z" * 4096)
    client.get("http://server/obj")
    registry = client.metrics()
    assert registry.value("session.bytes_received_total") >= 4096
    assert registry.value("session.bytes_sent_total") > 0
    assert registry.value("client.requests_total") == 1


def test_vector_metrics_from_pread_vec():
    client, _, store, _ = davix_world()
    store.put("/obj", bytes(range(256)) * 1024)
    reads = [(0, 64), (4096, 64), (4160, 64), (65536, 64)]
    client.pread_vec("http://server/obj", reads)

    registry = client.metrics()
    assert registry.value("vector.fragments_total") == 4
    assert registry.value("vector.requested_bytes_total") == 256
    round_trips = registry.value("vector.round_trips_total")
    ranges = registry.value("vector.ranges_total")
    coalesced = registry.value("vector.fragments_coalesced_total")
    assert round_trips == 1
    # The two adjacent fragments coalesce into one range.
    assert ranges == 3
    assert coalesced == 1


def test_span_hierarchy_for_one_get():
    client, _, store, _ = davix_world()
    store.put("/obj", b"q" * 128)
    client.get("http://server/obj")

    tracer = client.tracer()
    (request,) = tracer.by_name("request")
    assert request.attrs["method"] == "GET"
    assert request.attrs["status"] == 200
    assert request.ended

    by_id = {span.span_id: span for span in tracer.finished()}
    (acquire,) = tracer.by_name("session-acquire")
    (connect,) = tracer.by_name("tcp-connect")
    (exchange,) = tracer.by_name("exchange")
    (send,) = tracer.by_name("send")
    (recv,) = tracer.by_name("recv")
    assert acquire.parent_id == request.span_id
    assert connect.parent_id == acquire.span_id
    assert exchange.parent_id == request.span_id
    assert send.parent_id == exchange.span_id
    assert recv.parent_id == exchange.span_id
    # All one trace, timed on the simulated clock.
    assert {span.trace_id for span in by_id.values()} == {
        request.trace_id
    }
    assert request.duration > 0
    assert recv.attrs["bytes"] >= 128


def test_reused_session_skips_connect_span():
    client, _, store, _ = davix_world()
    store.put("/obj", b"r")
    client.get("http://server/obj")
    client.get("http://server/obj")
    tracer = client.tracer()
    assert len(tracer.by_name("request")) == 2
    # Only the first request paid a TCP connect.
    assert len(tracer.by_name("tcp-connect")) == 1


def test_pread_vec_span_parents_requests():
    client, _, store, _ = davix_world()
    store.put("/obj", b"v" * 131072)
    client.pread_vec("http://server/obj", [(0, 16), (65536, 16)])
    tracer = client.tracer()
    (vec,) = tracer.by_name("pread-vec")
    batches = tracer.by_name("vec-batch")
    assert batches
    assert all(b.parent_id == vec.span_id for b in batches)
    batch_ids = {b.span_id for b in batches}
    requests = tracer.by_name("request")
    assert requests
    assert all(r.parent_id in batch_ids for r in requests)


def test_cached_gap_fill_observes_multipart_decode():
    """The gap fill of a cached ``pread_vec`` decodes the same
    ``multipart/byteranges`` bodies the uncached path does, and records
    the ``multipart-decode`` phase like it (it used to record nothing)."""
    from repro.core import RequestParams, TransferConfig

    reads = [(0, 16), (65536 * 2, 16), (65536 * 4, 16)]
    counts = {}
    for budget in (0, 1 << 20):
        client, _, store, _ = davix_world(
            params=RequestParams(
                transfer=TransferConfig(page_cache_bytes=budget)
            )
        )
        store.put("/obj", b"m" * (65536 * 5))
        client.pread_vec("http://server/obj", reads)
        decode = client.metrics().get(
            "request.phase_seconds", phase="multipart-decode"
        )
        counts[budget] = decode.count if decode is not None else 0
    # One three-range request either way: its phase recorder observes
    # once, the decode of its one multipart body once more.
    assert counts == {0: 2, 1 << 20: 2}


def test_server_side_metrics_and_events():
    from repro.obs import EventLog, MetricsRegistry

    client, app, store, _ = davix_world()
    server_registry = MetricsRegistry()
    app.metrics = server_registry
    app.events = EventLog()
    store.put("/obj", b"s" * 512)
    client.get("http://server/obj")
    client.stat("http://server/obj")

    assert server_registry.value("server.requests_total", method="GET") == 1
    assert server_registry.value("server.requests_total", method="HEAD") == 1
    assert server_registry.value("server.responses_total", status="200") == 2
    events = app.events.by_kind("request")
    assert [(e["method"], e["status"]) for e in events] == [
        ("GET", 200),
        ("HEAD", 200),
    ]
    assert sum(e["bytes_sent"] for e in events) >= 512


def test_failover_metrics_and_span():
    from repro.concurrency import SimRuntime
    from repro.core import DavixClient
    from repro.net import LinkSpec, Network
    from repro.server import HttpServer, ObjectStore, StorageApp
    from repro.sim import Environment

    env = Environment()
    net = Network(env, seed=1)
    net.add_host("client")
    path = "/data/f.root"
    urls = [f"http://site{i}{path}" for i in range(2)]
    for name in ("site0", "site1"):
        net.add_host(name)
        net.set_route(
            "client", name, LinkSpec(latency=0.001, bandwidth=1e8)
        )
        store = ObjectStore()
        store.put(path, b"replicated-content")
        app = StorageApp(store, replicas={path: urls})
        HttpServer(SimRuntime(net, name), app, port=80).start()
    client = DavixClient(SimRuntime(net, "client"))

    net.host("site0").fail()
    data = client.get_with_failover(urls[0], metalink_url=urls[1])
    assert data == b"replicated-content"

    registry = client.metrics()
    assert registry.value("failover.triggered_total") == 1
    assert (
        registry.value("failover.replica_attempts_total", host="site1")
        == 1
    )
    assert registry.value("failover.recovered_total") == 1
    (span,) = client.tracer().by_name("failover")
    assert span.attrs["recovered_via"] == "site1"
    assert span.attrs["cause"] == "RequestError"


def test_disabled_tracer_still_serves_requests():
    from repro.obs import Tracer

    client, _, store, _ = davix_world()
    client.context.tracer = Tracer(enabled=False)
    store.put("/obj", b"d" * 32)
    assert client.get("http://server/obj") == b"d" * 32
    assert len(client.context.tracer) == 0
