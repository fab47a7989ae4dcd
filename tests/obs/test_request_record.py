"""A request is recorded once, as its span.

The client's ``request`` span and the server's ``server-request`` span
are the only records of a request; :func:`request_events` folds them
into the client and server rows that the access log, the SLO verdicts
and the campaign JSONL read. These tests pin the fold's rows byte for
byte, check that the collected trace carries no second copy of a
request, and check that a request that failed without a response
still reaches the SLO.
"""

import pytest

from repro.core import Context, DavixClient
from repro.errors import RequestError
from repro.obs import (
    TelemetryCollector,
    TelemetrySink,
    Tracer,
    assemble_traces,
    records_to_json_lines,
    request_events,
    slo_verdicts,
)
from repro.server import HttpServer, ObjectStore, StorageApp
from tests.helpers import sim_world

#: The client and server rows of the seeded GET + pread_vec below, in
#: canonical JSONL: the field set, the field values and the order that
#: campaign artefacts and access logs depend on.
CLIENT_ROWS = "\n".join(
    [
        '{"duration": 0.0067157628, "host": "server", '
        '"kind": "request", "method": "GET", "origin": "server:80", '
        '"phase_body_transfer": 0.0021715200000000006, '
        '"phase_cache_lookup": 0, "phase_connect": 0.002, '
        '"phase_multipart_decode": 0, "phase_queue_wait": 0, '
        '"phase_readahead_wait": 0, "phase_request_write": 0, '
        '"phase_tls": 0, "phase_ttfb": 0.0025442428, "redirects": 0, '
        '"retries": 0, "side": "client", '
        '"span_id": "c744045500000001", "status": 200, '
        '"trace_id": "00000000c74404550000000000000001", "ts": 0, '
        '"url": "http://server/data"}',
        '{"duration": 0.002513432900000001, "host": "server", '
        '"kind": "request", "method": "GET", "origin": "server:80", '
        '"phase_body_transfer": 0, "phase_cache_lookup": 0, '
        '"phase_connect": 0, "phase_multipart_decode": 0, '
        '"phase_queue_wait": 0, "phase_readahead_wait": 0, '
        '"phase_request_write": 0, "phase_tls": 0, '
        '"phase_ttfb": 0.002513432900000001, "redirects": 0, '
        '"retries": 0, "side": "client", '
        '"span_id": "c744045500000009", "status": 206, '
        '"trace_id": "00000000c74404550000000000000002", '
        '"ts": 0.0067157628, "url": "http://server/data"}',
    ]
)

SERVER_ROWS = "\n".join(
    [
        '{"bytes_sent": 16384, "client": "client", '
        '"duration": 0.00054096, "kind": "request", "method": "GET", '
        '"parent_span_id": "c744045500000004", "path": "/data", '
        '"side": "server", "status": 200, '
        '"trace_id": "00000000c74404550000000000000001", '
        '"ts": 0.0030015659999999998}',
        '{"bytes_sent": 645, "client": "client", '
        '"duration": 0.0005016125000000008, "kind": "request", '
        '"method": "GET", "parent_span_id": "c74404550000000b", '
        '"path": "/data", "side": "server", "status": 206, '
        '"trace_id": "00000000c74404550000000000000002", '
        '"ts": 0.0077177812}',
    ]
)


def collected_run():
    """A seeded GET and pread_vec, both sides shipping to a collector."""
    client_rt, server_rt = sim_world(seed=42)
    collector = TelemetryCollector()
    store = ObjectStore(clock=server_rt.now)
    store.put("/data", bytes(range(256)) * 64)
    app = StorageApp(store)
    server_sink = TelemetrySink(
        "server", clock=server_rt.now, target=collector
    )
    app.tracer = Tracer(
        clock=server_rt.now, node="server", sink=server_sink.record_span
    )
    HttpServer(server_rt, app, port=80).start()
    context = Context(telemetry=TelemetrySink("client", target=collector))
    client = DavixClient(client_rt, context=context)
    client.get("http://server/data")
    client.pread_vec(
        "http://server/data", [(0, 100), (4096, 100), (9000, 50)]
    )
    context.flush_telemetry()
    server_sink.flush()
    return context, app, collector


def test_the_trace_holds_each_request_once():
    context, app, collector = collected_run()
    records = collector.records()
    assert not [
        record
        for record in records
        if record["type"] == "event"
        and record["event"].get("kind") == "request"
    ]
    client_rows = request_events(context.tracer.finished())
    server_rows = request_events(app.tracer.finished())
    spans = [record["name"] for record in records if record["type"] == "span"]
    assert spans.count("request") == len(client_rows) == 2
    assert spans.count("server-request") == len(server_rows) == 2
    trees = assemble_traces(records)
    assert sum(len(tree.orphans) for tree in trees) == 0


def test_the_fold_reproduces_the_event_log_rows():
    context, app, _ = collected_run()
    client_rows = request_events(context.tracer.finished())
    server_rows = request_events(app.tracer.finished())
    assert records_to_json_lines(client_rows) == CLIENT_ROWS
    assert records_to_json_lines(server_rows) == SERVER_ROWS


def test_a_failed_request_reaches_the_slo():
    client_rt, _ = sim_world(seed=42)  # nothing listens on the server
    client = DavixClient(client_rt)
    with pytest.raises(RequestError):
        client.get("http://server/data")
    (span,) = client.tracer().by_name("request")
    assert span.attrs["error"] == "RequestError"
    (row,) = request_events(client.tracer().finished())
    assert row["status"] == 0
    assert row["origin"] == "server:80"
    assert row["retries"] == 1
    assert row["duration"] == span.duration
    (verdict,) = slo_verdicts([row])
    assert verdict["availability"] == 0.0
    assert verdict["verdict"] == "BREACH"
