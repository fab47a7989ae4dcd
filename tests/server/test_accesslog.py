"""The access log is a fold over the server's request rows, which fold
out of its ``server-request`` spans."""

import pytest

from repro.core import session
from repro.errors import FileNotFound
from repro.obs import (
    Tracer,
    common_log_format,
    parse_records,
    records_to_json_lines,
    request_events,
)

from tests.helpers import davix_world


def served(*urls):
    """Server request rows of GETs against a simulated server."""
    client, app, store, server_rt = davix_world()
    app.tracer = Tracer(clock=server_rt.now)
    store.put("/x", b"0123456789")
    for url in urls:
        try:
            client.get(url)
        except FileNotFound:
            pass
    return request_events(app.tracer.finished())


def event(**fields):
    record = {
        "kind": "request",
        "side": "server",
        "ts": 1.0,
        "client": "client",
        "method": "GET",
        "path": "/x",
        "status": 200,
        "bytes_sent": 100,
        "duration": 0.01,
        "trace_id": "",
        "parent_span_id": "",
    }
    record.update(fields)
    return record


def test_common_log_format(monkeypatch):
    # One served GET renders the line the access log always wrote.
    (traced,) = served("http://server/x")
    assert common_log_format(traced) == (
        'client - - [0.003002] "GET /x HTTP/1.1" 200 10 0.000500'
        " trace=00000000000000000000000000000001"
    )
    monkeypatch.setattr(session, "TRACE_PROPAGATION", False)
    (plain,) = served("http://server/x")
    assert common_log_format(plain) == (
        'client - - [0.003001] "GET /x HTTP/1.1" 200 10 0.000500'
    )


def test_render_tail():
    events = [event(status=200 + i) for i in range(5)]
    rendered = "\n".join(common_log_format(e) for e in events[-2:])
    assert rendered.count("\n") == 1
    assert "203" in rendered and "204" in rendered


def test_server_event_is_flat_and_complete():
    (record,) = served("http://server/x")
    assert record == {
        "kind": "request",
        "side": "server",
        "ts": record["ts"],
        "client": "client",
        "method": "GET",
        "path": "/x",
        "status": 200,
        "bytes_sent": 10,
        "duration": record["duration"],
        "trace_id": "0" * 31 + "1",
        "parent_span_id": record["parent_span_id"],
    }
    assert len(record["parent_span_id"]) == 16


def test_clf_is_a_rendering_of_the_record():
    assert "trace=" not in common_log_format(event())
    traced = event(trace_id="ab" * 16, parent_span_id="cd" * 8)
    line = common_log_format(traced)
    assert line == (
        'client - - [1.000000] "GET /x HTTP/1.1" 200 100 0.010000'
        f" trace={'ab' * 16}"
    )


def test_to_json_lines_is_deterministic_jsonl():
    events = served("http://server/x", "http://server/missing")
    text = records_to_json_lines(events)
    parsed = parse_records(text)
    assert [record["status"] for record in parsed] == [200, 404]
    assert all(record["side"] == "server" for record in parsed)
    assert text == records_to_json_lines(
        served("http://server/x", "http://server/missing")
    )


def test_serve_loop_records_requests():
    client, app, store, server_rt = davix_world()
    app.tracer = Tracer(clock=server_rt.now)
    store.put("/x", b"0123456789")
    client.get("http://server/x")
    client.pread("http://server/x", 0, 4)
    with pytest.raises(FileNotFound):
        client.get("http://server/missing")
    events = request_events(app.tracer.finished())
    assert len(events) == 3
    assert [e["status"] for e in events] == [200, 206, 404]
    assert events[0]["bytes_sent"] == 10
    assert events[0]["client"] == "client"
    assert all(e["duration"] >= 0 for e in events)
    assert "GET /x" in "\n".join(common_log_format(e) for e in events)
