"""Golden-output tests for the exporters.

The JSON-lines format is a contract with downstream tooling: sorted by
series, sorted keys inside each object, integral floats emitted as
ints. These tests pin the exact bytes, for metric series and for the
span wire records the collector ships.
"""

import json

from repro.obs import (
    MetricsRegistry,
    Tracer,
    assemble_traces,
    metrics_to_json_lines,
    records_to_json_lines,
    render_metrics,
    render_waterfall,
)
from repro.obs.collector import encode_span


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("pool.acquire_total", outcome="hit").inc(4)
    registry.counter("pool.acquire_total", outcome="miss").inc()
    registry.gauge("pool.idle_sessions").set(1)
    histogram = registry.histogram(
        "session.connect_seconds", buckets=(0.01, 0.1, 1.0)
    )
    histogram.observe(0.05)
    histogram.observe(0.5)
    return registry


GOLDEN_METRIC_LINES = "\n".join(
    [
        '{"labels": {"outcome": "hit"}, "name": "pool.acquire_total", '
        '"type": "counter", "value": 4}',
        '{"labels": {"outcome": "miss"}, "name": "pool.acquire_total", '
        '"type": "counter", "value": 1}',
        '{"labels": {}, "name": "pool.idle_sessions", "type": "gauge", '
        '"value": 1}',
        '{"buckets": {"0.1": 1, "1": 1}, "count": 2, "labels": {}, '
        '"max": 0.5, "min": 0.05, "name": "session.connect_seconds", '
        '"sum": 0.55, "type": "histogram"}',
    ]
)


def test_metrics_json_lines_golden():
    assert metrics_to_json_lines(_sample_registry()) == GOLDEN_METRIC_LINES


def test_metrics_json_lines_parse_back():
    records = [
        json.loads(line)
        for line in metrics_to_json_lines(_sample_registry()).splitlines()
    ]
    assert len(records) == 4
    assert {r["type"] for r in records} == {"counter", "gauge", "histogram"}
    # Counters export as ints, never 4.0.
    assert all(
        isinstance(r["value"], int) for r in records if "value" in r
    )


def test_render_metrics_table():
    rendered = render_metrics(_sample_registry(), title="demo")
    lines = rendered.splitlines()
    assert lines[0] == "demo:"
    assert "pool.acquire_total{outcome=hit}" in rendered
    assert "count=2" in rendered
    assert render_metrics(MetricsRegistry()) == "metrics: (empty)"


def _sample_tracer() -> Tracer:
    clock = iter([0.0, 1.0, 2.0, 3.0]).__next__
    tracer = Tracer(clock=clock)
    request = tracer.start("request", method="GET")
    send = request.child("send", bytes=10)
    send.end()
    request.end(status=200)
    return tracer


def _sample_records():
    spans = _sample_tracer().finished()
    return [encode_span(span, "client") for span in spans]


GOLDEN_SPAN_LINES = "\n".join(
    [
        '{"attrs": {"bytes": 10}, "end": 2, "name": "send", '
        '"node": "client", "parent": "0000000000000001", "remote": false, '
        '"span": "0000000000000002", "start": 1, '
        '"trace": "00000000000000000000000000000001", "type": "span"}',
        '{"attrs": {"method": "GET", "status": 200}, "end": 3, '
        '"name": "request", "node": "client", "parent": null, '
        '"remote": false, "span": "0000000000000001", "start": 0, '
        '"trace": "00000000000000000000000000000001", "type": "span"}',
    ]
)


def test_encode_span_golden():
    assert records_to_json_lines(_sample_records()) == GOLDEN_SPAN_LINES


def test_render_waterfall_nests_children():
    (tree,) = assemble_traces(_sample_records())
    lines = render_waterfall(tree).splitlines()
    assert lines[0].startswith(
        "trace 00000000000000000000000000000001  root=request"
    )
    assert lines[1].endswith("3.000000s  client:request")
    assert lines[2].endswith("1.000000s    client:send")
    assert assemble_traces([]) == []
