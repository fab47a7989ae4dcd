"""Tests for the flat-object (S3-like) storage dialect.

The dialect speaks only GET/HEAD/PUT/DELETE/OPTIONS over a flat key
space: WebDAV verbs answer 405, ranged and multi-range GETs ride the
shared RFC 7233 machinery, and listing is one JSON endpoint. These
tests drive :class:`FlatObjectApp.handle` directly (the app computes
responses; the HTTP server only moves bytes).
"""

import json

import pytest

from repro.http import Headers, Request
from repro.server import FlatObjectApp, ObjectStore, ServerConfig
from repro.server.faults import FaultAction
from tests.resilience.conftest import ScriptedFaults

BODY = bytes((i * 13 + 5) % 256 for i in range(10_000))


def app_with(key="/data/blob", config=None, faults=None):
    store = ObjectStore()
    app = FlatObjectApp(store, config=config, faults=faults)
    store.put(key, BODY)
    return app, store


def req(method, target, headers=None, body=b""):
    return Request(method, target, Headers(headers or []), body=body)


# -- object verbs -----------------------------------------------------------


def test_get_whole_object():
    app, _ = app_with()
    served = app.handle(req("GET", "/data/blob"))
    assert served.response.status == 200
    assert served.response.body == BODY
    assert served.response.headers.get("Server") == "repro-flatstore/1.0"


def test_get_missing_key_is_404_json():
    app, _ = app_with()
    served = app.handle(req("GET", "/nope"))
    assert served.response.status == 404
    assert "error" in json.loads(served.response.body)


def test_head_reports_size_etag_and_ranges():
    app, store = app_with()
    served = app.handle(req("HEAD", "/data/blob"))
    response = served.response
    assert response.status == 200
    assert int(response.headers.get("Content-Length")) == len(BODY)
    assert response.headers.get("ETag") == store.get("/data/blob").etag
    assert response.headers.get("Accept-Ranges") == "bytes"
    assert response.body == b""


def test_put_create_then_replace():
    app, store = app_with()
    created = app.handle(req("PUT", "/fresh", body=b"one"))
    assert created.response.status == 201
    assert store.get("/fresh").content.read(0, 3) == b"one"
    replaced = app.handle(req("PUT", "/fresh", body=b"two"))
    assert replaced.response.status == 204
    assert store.get("/fresh").content.read(0, 3) == b"two"
    assert created.response.headers.get("ETag") != replaced.response.headers.get(
        "ETag"
    )


def test_delete_then_404():
    app, store = app_with()
    assert app.handle(req("DELETE", "/data/blob")).response.status == 204
    assert not store.exists("/data/blob")
    assert app.handle(req("DELETE", "/data/blob")).response.status == 404


def test_options_advertises_the_flat_verbs():
    app, _ = app_with()
    response = app.handle(req("OPTIONS", "/")).response
    assert response.status == 204
    assert response.headers.get("Allow") == "GET, HEAD, PUT, DELETE, OPTIONS"


@pytest.mark.parametrize("verb", ["PROPFIND", "MKCOL", "COPY", "MOVE", "LOCK"])
def test_webdav_verbs_are_405_with_allow(verb):
    app, _ = app_with()
    response = app.handle(req(verb, "/data/blob")).response
    assert response.status == 405
    assert "GET" in response.headers.get("Allow")


# -- ranges -----------------------------------------------------------------


def test_single_range_get():
    app, _ = app_with()
    response = app.handle(
        req("GET", "/data/blob", [("Range", "bytes=100-199")])
    ).response
    assert response.status == 206
    assert response.body == BODY[100:200]
    assert response.headers.get("Content-Range") == (
        f"bytes 100-199/{len(BODY)}"
    )


def test_multi_range_get_is_multipart():
    app, _ = app_with()
    response = app.handle(
        req("GET", "/data/blob", [("Range", "bytes=0-9,100-109")])
    ).response
    assert response.status == 206
    assert "multipart/byteranges" in response.headers.get("Content-Type")
    body = b"".join(response.pieces)
    assert BODY[:10] in body
    assert BODY[100:110] in body


def test_unsatisfiable_range_is_416():
    app, _ = app_with()
    response = app.handle(
        req("GET", "/data/blob", [("Range", f"bytes={len(BODY)}-")])
    ).response
    assert response.status == 416
    assert response.headers.get("Content-Range") == f"bytes */{len(BODY)}"


def test_if_range_mismatch_serves_the_full_object():
    app, _ = app_with()
    response = app.handle(
        req(
            "GET",
            "/data/blob",
            [("Range", "bytes=0-9"), ("If-Range", '"stale-etag"')],
        )
    ).response
    assert response.status == 200
    assert response.body == BODY


def test_bytes_read_accounting():
    app, store = app_with()
    app.handle(req("GET", "/data/blob", [("Range", "bytes=0-99")]))
    assert store.bytes_read == 100


# -- listing ----------------------------------------------------------------


def test_listing_enumerates_keys_sorted():
    app, store = app_with()
    store.put("/data/a", b"x")
    store.put("/logs/z", b"y")
    response = app.handle(req("GET", "/?list=1")).response
    assert response.status == 200
    keys = json.loads(response.body)["keys"]
    assert keys == sorted(keys)
    assert set(keys) == {"/data/a", "/data/blob", "/logs/z"}


def test_listing_prefix_filter():
    app, store = app_with()
    store.put("/data/a", b"x")
    store.put("/logs/z", b"y")
    keys = json.loads(
        app.handle(req("GET", "/?list=1&prefix=/data")).response.body
    )["keys"]
    assert keys == ["/data/a", "/data/blob"]


def test_plain_root_get_is_not_a_listing():
    app, _ = app_with()
    assert app.handle(req("GET", "/")).response.status == 404


# -- config / faults --------------------------------------------------------


def test_cache_control_on_read_verbs_only():
    app, _ = app_with(config=ServerConfig(cache_control="max-age=60"))
    assert (
        app.handle(req("GET", "/data/blob")).response.headers.get(
            "Cache-Control"
        )
        == "max-age=60"
    )
    assert (
        app.handle(req("PUT", "/x", body=b"1")).response.headers.get(
            "Cache-Control"
        )
        is None
    )
    assert (
        app.handle(req("GET", "/missing")).response.headers.get(
            "Cache-Control"
        )
        is None
    )


def test_service_time_charges_overhead_and_disk():
    config = ServerConfig(service_overhead=0.01, disk_bandwidth=1e6)
    app, _ = app_with(config=config)
    served = app.handle(req("GET", "/data/blob"))
    assert served.service_time == pytest.approx(0.01 + len(BODY) / 1e6)


def test_fault_error_short_circuits():
    faults = ScriptedFaults([FaultAction("error", status=503)])
    app, _ = app_with(faults=faults)
    assert app.handle(req("GET", "/data/blob")).response.status == 503
    # Script exhausted: next request serves normally.
    assert app.handle(req("GET", "/data/blob")).response.status == 200


def test_fault_slow_and_reset_decorate_the_response():
    slow = app_with(faults=ScriptedFaults([FaultAction("slow", delay=2.0)]))[0]
    served = slow.handle(req("GET", "/data/blob"))
    assert served.response.status == 200
    assert served.service_time >= 2.0

    reset = app_with(faults=ScriptedFaults([FaultAction("reset")]))[0]
    served = reset.handle(req("GET", "/data/blob"))
    assert served.reset_midway


# -- observability parity ---------------------------------------------------


def observable_flat_world():
    """FlatObjectApp behind a real sim server, fully instrumented —
    the same kit StorageApp wears (tracer, events, metrics
    endpoint)."""
    from repro.concurrency import SimRuntime
    from repro.core import DavixClient, RequestParams, RetryPolicy
    from repro.net import LinkSpec, Network
    from repro.obs import EventLog, MetricsRegistry, Tracer
    from repro.server import HttpServer
    from repro.sim import Environment

    env = Environment()
    net = Network(env, seed=7)
    net.add_host("client")
    net.add_host("server")
    net.set_route(
        "client", "server",
        LinkSpec(latency=0.001, bandwidth=125_000_000),
    )
    server_rt = SimRuntime(net, "server")
    store = ObjectStore()
    store.put("/data/blob", BODY)
    app = FlatObjectApp(
        store,
        config=ServerConfig(metrics_path="/metrics"),
        metrics=MetricsRegistry(),
    )
    app.tracer = Tracer(clock=server_rt.now, node="flat")
    app.events = EventLog()
    HttpServer(server_rt, app, port=80).start()
    client = DavixClient(
        SimRuntime(net, "client"),
        params=RequestParams(retry_policy=RetryPolicy(max_attempts=1)),
    )
    return client, app


def test_flat_app_joins_client_traces_and_logs_access():
    from repro.obs import format_trace_id

    client, app = observable_flat_world()
    assert client.get("http://server/data/blob") == BODY

    (span,) = app.tracer.by_name("server-request")
    client_span = client.tracer().by_name("request")[0]
    assert format_trace_id(span.trace_id) == format_trace_id(
        client_span.trace_id
    )
    (event,) = app.events.by_kind("request")
    assert event["status"] == 200
    assert event["method"] == "GET"


def test_flat_app_counts_requests_and_serves_prometheus():
    from tests.helpers import get, one_request

    client, app = observable_flat_world()
    client.get("http://server/data/blob")
    client.stat("http://server/data/blob")

    response = client.runtime.run(
        one_request(("server", 80), get("/metrics"))
    )
    assert response.status == 200
    body = response.body.decode("utf-8")
    assert 'server_requests_total{method="GET"} 1' in body
    assert 'server_requests_total{method="HEAD"} 1' in body
    # The scrape is an observer: no span, no wide event for it.
    assert len(app.tracer.by_name("server-request")) == 2
    assert len(app.events.by_kind("request")) == 2


def test_flat_app_ships_spans_into_a_telemetry_sink():
    from repro.obs.collector import TelemetryCollector, TelemetrySink

    client, app = observable_flat_world()
    collector = TelemetryCollector()
    sink = TelemetrySink("flat", target=collector)
    app.tracer.sink = sink.record_span
    app.events.sink = sink.record_event
    client.get("http://server/data/blob")
    sink.flush()
    assert [r["node"] for r in collector.spans()] == ["flat"]
    assert collector.spans()[0]["name"] == "server-request"
