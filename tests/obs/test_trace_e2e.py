"""End-to-end acceptance: one vectored read through the sim server
produces client spans, server spans and server wide events that all
share a single trace ID, with the phase profile summing to the request
span's duration, and a scrapable Prometheus endpoint on the server."""

import pytest

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    EventLog,
    MetricsRegistry,
    Tracer,
    common_log_format,
    format_span_id,
    format_trace_id,
    slo_verdicts,
)
from repro.server import ServerConfig
from tests.helpers import davix_world, get, one_request


def observable_world(**kwargs):
    """davix_world with the server side fully instrumented."""
    config = kwargs.pop("config", None) or ServerConfig(
        metrics_path="/metrics"
    )
    client, app, store, server_rt = davix_world(config=config, **kwargs)
    app.metrics = MetricsRegistry()
    app.tracer = Tracer(clock=server_rt.now)
    app.events = EventLog()
    return client, app, store, server_rt


def test_one_trace_id_across_client_server_and_server_events():
    client, app, store, _ = observable_world()
    store.put("/obj", bytes(range(256)) * 1024)
    client.pread_vec("http://server/obj", [(0, 64), (65536, 64)])

    requests = client.tracer().by_name("request")
    assert requests
    trace_hexes = {format_trace_id(span.trace_id) for span in requests}
    assert len(trace_hexes) == 1  # one pread-vec, one trace
    (trace_hex,) = trace_hexes

    server_spans = app.tracer.by_name("server-request")
    assert server_spans
    for span in server_spans:
        assert format_trace_id(span.trace_id) == trace_hex
        assert span.parent_id is not None

    events = app.events.by_kind("request")
    assert events
    for event in events:
        assert event["trace_id"] == trace_hex
        assert len(event["parent_span_id"]) == 16
        assert "trace=" + trace_hex in common_log_format(event)


def test_server_span_parents_the_client_exchange_span():
    client, app, store, _ = observable_world()
    store.put("/obj", b"x" * 512)
    client.get("http://server/obj")

    (exchange,) = client.tracer().by_name("exchange")
    (server_span,) = app.tracer.by_name("server-request")
    assert server_span.parent_id == exchange.span_id
    (event,) = app.events.by_kind("request")
    assert event["parent_span_id"] == format_span_id(exchange.span_id)


def test_phases_sum_to_request_span_duration():
    client, _, store, _ = observable_world(latency=0.005)
    store.put("/obj", b"p" * 65536)
    client.get("http://server/obj")

    (request,) = client.tracer().by_name("request")
    timings = request.attrs["timings"]
    assert timings.total == pytest.approx(request.duration, abs=1e-9)
    # A cold request pays real connect and first-byte time.
    assert timings.connect > 0
    assert timings.ttfb > 0
    assert timings.body_transfer > 0


def test_client_wide_event_carries_trace_and_phases():
    client, _, store, _ = observable_world()
    store.put("/obj", b"w" * 128)
    client.get("http://server/obj")

    (event,) = client.events().by_kind("request")
    (request,) = client.tracer().by_name("request")
    assert event["side"] == "client"
    assert event["status"] == 200
    assert event["origin"] == "server:80"
    assert event["trace_id"] == format_trace_id(request.trace_id)
    for phase_field in ("phase_queue_wait", "phase_connect", "phase_ttfb"):
        assert phase_field in event
    (verdict,) = slo_verdicts(client.events().by_kind("request"))
    assert verdict["origin"] == "server:80"
    assert verdict["verdict"] == "OK"


def test_server_wide_event_joins_the_client_trace():
    client, app, store, _ = observable_world()
    store.put("/obj", b"s" * 128)
    client.get("http://server/obj")

    (event,) = app.events.by_kind("request")
    (request,) = client.tracer().by_name("request")
    assert event["side"] == "server"
    assert event["trace_id"] == format_trace_id(request.trace_id)
    assert event["bytes_sent"] >= 128
    assert event["duration"] >= 0


def test_metrics_endpoint_serves_prometheus_exposition():
    client, app, store, _ = observable_world()
    store.put("/obj", b"m" * 256)
    client.get("http://server/obj")

    response = client.runtime.run(
        one_request(("server", 80), get("/metrics"))
    )
    assert response.status == 200
    assert response.headers.get("Content-Type") == PROMETHEUS_CONTENT_TYPE
    body = response.body.decode("utf-8")
    assert "# TYPE server_requests_total counter" in body
    assert 'server_requests_total{method="GET"} 1' in body
    assert 'server_responses_total{status="200"} 1' in body
    # The scrape itself is not counted in the series it exposes, and
    # leaves no record: one server request event, the GET's.
    (event,) = app.events.by_kind("request")
    assert event["path"] == "/obj"


def test_propagation_can_be_disabled_per_request():
    from repro.core import RequestParams

    client, app, store, _ = observable_world()
    store.put("/obj", b"n" * 64)
    client.get(
        "http://server/obj", params=RequestParams(trace_propagation=False)
    )
    (event,) = app.events.by_kind("request")
    assert event["trace_id"] == ""
    assert "trace=" not in common_log_format(event)
    (server_span,) = app.tracer.by_name("server-request")
    assert server_span.parent_id is None
