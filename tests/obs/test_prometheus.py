"""Prometheus text exposition: golden output and edge cases."""

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    prometheus_exposition,
)

GOLDEN = """\
# TYPE pool_acquire_total counter
pool_acquire_total{outcome="hit"} 3
pool_acquire_total{outcome="miss"} 1
# TYPE pool_idle_sessions gauge
pool_idle_sessions 2
# TYPE session_connect_seconds histogram
session_connect_seconds_bucket{le="0.01"} 1
session_connect_seconds_bucket{le="0.1"} 3
session_connect_seconds_bucket{le="+Inf"} 4
session_connect_seconds_sum 10.08
session_connect_seconds_count 4
"""


def golden_registry():
    registry = MetricsRegistry()
    registry.counter("pool.acquire_total", outcome="hit").inc(3)
    registry.counter("pool.acquire_total", outcome="miss").inc()
    registry.gauge("pool.idle_sessions").set(2)
    hist = registry.histogram(
        "session.connect_seconds", buckets=(0.01, 0.1)
    )
    for value in (0.005, 0.05, 0.025, 10.0):
        hist.observe(value)
    return registry


def test_golden_exposition():
    assert prometheus_exposition(golden_registry()) == GOLDEN


def test_deterministic_across_insert_order():
    reversed_registry = MetricsRegistry()
    hist = reversed_registry.histogram(
        "session.connect_seconds", buckets=(0.01, 0.1)
    )
    for value in (0.005, 0.05, 0.025, 10.0):
        hist.observe(value)
    reversed_registry.gauge("pool.idle_sessions").set(2)
    reversed_registry.counter("pool.acquire_total", outcome="miss").inc()
    reversed_registry.counter("pool.acquire_total", outcome="hit").inc(3)
    assert prometheus_exposition(reversed_registry) == GOLDEN


def test_empty_registry_renders_empty():
    assert prometheus_exposition(MetricsRegistry()) == ""


def test_label_keys_render_in_sorted_order():
    registry = MetricsRegistry()
    registry.counter("c", zeta="1", alpha="2").inc()
    out = prometheus_exposition(registry)
    assert 'c{alpha="2",zeta="1"} 1' in out


def test_unicode_label_values_pass_through():
    registry = MetricsRegistry()
    registry.counter("c", site="zürich-прага").inc()
    assert 'c{site="zürich-прага"} 1' in prometheus_exposition(registry)


def test_label_escaping():
    registry = MetricsRegistry()
    registry.counter("c", path='a"b\\c\nd').inc()
    assert 'c{path="a\\"b\\\\c\\nd"} 1' in prometheus_exposition(registry)


def test_metric_names_are_sanitised():
    registry = MetricsRegistry()
    registry.counter("1weird.name-x").inc()
    out = prometheus_exposition(registry)
    assert out.startswith("# TYPE _1weird_name_x counter\n")


def test_content_type_constant():
    assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
    assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


def test_quote_only_label_value_escapes_each_quote():
    registry = MetricsRegistry()
    registry.counter("c", q='"""').inc()
    assert 'c{q="\\"\\"\\""} 1' in prometheus_exposition(registry)


def test_backslash_only_label_value_doubles_each_backslash():
    registry = MetricsRegistry()
    registry.counter("c", p="\\\\").inc()
    assert 'c{p="\\\\\\\\"} 1' in prometheus_exposition(registry)


def test_trailing_backslash_does_not_swallow_the_closing_quote():
    registry = MetricsRegistry()
    registry.counter("c", p="dir\\").inc()
    line = next(
        ln for ln in prometheus_exposition(registry).splitlines()
        if ln.startswith("c{")
    )
    assert line == 'c{p="dir\\\\"} 1'


def test_newline_label_values_stay_on_one_exposition_line():
    registry = MetricsRegistry()
    registry.counter("c", msg="a\nb\nc").inc()
    registry.counter("d").inc()
    out = prometheus_exposition(registry)
    assert 'c{msg="a\\nb\\nc"} 1' in out
    # The raw newlines never leak: every line is a comment or sample.
    for line in out.strip().splitlines():
        assert line.startswith("# TYPE") or " " in line


def test_empty_registry_scrape_over_http_is_a_valid_empty_page():
    from repro.obs import MetricsRegistry as Registry
    from repro.server import ServerConfig
    from tests.helpers import davix_world, get, one_request

    client, app, _, _ = davix_world(
        config=ServerConfig(metrics_path="/metrics")
    )
    app.metrics = Registry()
    response = client.runtime.run(
        one_request(("server", 80), get("/metrics"))
    )
    assert response.status == 200
    assert response.headers.get("Content-Type") == (
        PROMETHEUS_CONTENT_TYPE
    )
    assert response.body == b""
