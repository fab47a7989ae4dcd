"""Unit tests for the metric instruments and the registry."""

import pytest

from repro.core.pagecache import PageCache
from repro.core.pool import SessionPool
from repro.obs import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.metrics import format_series


def test_counter_increments_and_defaults_to_one():
    registry = MetricsRegistry()
    counter = registry.counter("requests_total")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.value("requests_total") == 5


def test_counter_rejects_negative_increment():
    counter = MetricsRegistry().counter("c")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_series_identity():
    registry = MetricsRegistry()
    assert registry.counter("c") is registry.counter("c")
    assert registry.counter("c", a="1") is registry.counter("c", a="1")
    assert registry.counter("c", a="1") is not registry.counter("c", a="2")


def test_labels_are_order_insensitive():
    registry = MetricsRegistry()
    one = registry.counter("c", a="1", b="2")
    two = registry.counter("c", b="2", a="1")
    assert one is two


def test_label_order_resolves_one_instance_on_every_path():
    """Each label order is its own key on the lock-free path; every key
    leads to the one series, whichever order created it."""
    registry = MetricsRegistry()
    orders = [{"a": "1", "b": "2", "c": "3"}, {"c": "3", "a": "1", "b": "2"}]
    first = registry.counter("c", **orders[0])
    for labels in orders * 2:
        assert registry.counter("c", **labels) is first
    assert registry.get("c", b="2", c="3", a="1") is first
    assert len(registry) == 1


def test_equal_but_differently_typed_labels_stay_distinct():
    registry = MetricsRegistry()
    registry.counter("c", flag="True").inc()
    registry.counter("c", flag=True).inc()
    one = registry.counter("c", flag=1)
    one.inc(5)
    assert registry.counter("c", flag=1) is one
    assert registry.snapshot() == {"c{flag=1}": 5, "c{flag=True}": 2}


def test_kind_clash_raises_after_a_resolved_hit():
    registry = MetricsRegistry()
    counter = registry.counter("x", a="1")
    assert registry.counter("x", a="1") is counter  # the lock-free hit
    with pytest.raises(ValueError, match="is a counter"):
        registry.gauge("x", a="1")
    with pytest.raises(ValueError, match="is a counter"):
        registry.histogram("x", a="1")
    assert registry.counter("x", a="1") is counter


def test_histogram_with_list_buckets():
    registry = MetricsRegistry()
    histogram = registry.histogram("h", buckets=[1.0, 2.0], a="1")
    histogram.observe(1.5)
    assert histogram.buckets == (1.0, 2.0)
    assert histogram.bucket_counts == [0, 1, 0]
    assert registry.histogram("h", buckets=[1.0, 2.0], a="1") is histogram
    assert registry.histogram("h", a="1") is histogram


def test_owners_built_before_a_reset_show_their_next_update():
    """Owners keep no series handle across ``reset()``: their next
    update re-creates the series, visible in the registry."""
    registry = MetricsRegistry()
    cache = PageCache(budget_bytes=1 << 10, page_size=4, metrics=registry)
    pool = SessionPool(metrics=registry)
    cache.lookup("k", 0, 4)
    assert pool.acquire(("http", "h", 80)) is None
    assert registry.value("cache.miss") == 1
    registry.reset()
    assert registry.snapshot() == {}
    cache.insert("k", None, 0, b"abcd")
    assert cache.lookup("k", 0, 4) == (b"abcd", [])
    assert pool.acquire(("http", "h", 80)) is None
    assert registry.snapshot() == {
        "cache.hit": 1,
        "cache.origin_bytes_saved": 4,
        "cache.pages": 1,
        "cache.used_bytes": 4,
        "pool.acquire_total{outcome=miss}": 1,
    }


def test_gauge_set_and_add():
    registry = MetricsRegistry()
    gauge = registry.gauge("idle")
    gauge.set(3)
    gauge.add(-1)
    assert gauge.value == 2
    assert registry.value("idle") == 2


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="is a counter"):
        registry.gauge("x")
    with pytest.raises(ValueError):
        registry.histogram("x")


def test_histogram_buckets_follow_prometheus_convention():
    registry = MetricsRegistry()
    histogram = registry.histogram("h", buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.0, 1.5, 10.0):
        histogram.observe(value)
    # <=1.0 gets 0.5 and 1.0; <=2.0 gets 1.5; +Inf gets 10.0.
    assert histogram.bucket_counts == [2, 1, 0, 1]
    assert histogram.count == 4
    assert histogram.sum == pytest.approx(13.0)
    assert histogram.min == 0.5
    assert histogram.max == 10.0
    assert histogram.mean == pytest.approx(3.25)


def test_histogram_percentile_and_validation():
    histogram = MetricsRegistry().histogram("h")
    assert histogram.percentile(0.5) is None
    for value in range(1, 101):
        histogram.observe(value / 100)
    assert histogram.percentile(0.0) == 0.01
    assert histogram.percentile(1.0) == 1.0
    assert histogram.percentile(0.5) == pytest.approx(0.51)
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_histogram_rejects_unsorted_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("bad", buckets=(2.0, 1.0))


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_value_returns_none_for_missing_series():
    registry = MetricsRegistry()
    assert registry.value("absent") is None
    registry.counter("c", a="1")
    assert registry.value("c") is None
    assert registry.value("c", a="1") == 0
    assert registry.get("absent") is None


def test_series_iterates_sorted():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a", x="2")
    registry.counter("a", x="1")
    names = [
        format_series(i.name, i.labels) for i in registry.series()
    ]
    assert names == ["a{x=1}", "a{x=2}", "b"]


def test_snapshot_and_reset_and_len():
    registry = MetricsRegistry()
    registry.counter("c").inc(7)
    registry.histogram("h").observe(0.25)
    assert registry.snapshot() == {"c": 7, "h": (1, 0.25)}
    assert len(registry) == 2
    registry.reset()
    assert len(registry) == 0
    assert registry.snapshot() == {}


def test_format_series():
    assert format_series("plain", ()) == "plain"
    assert (
        format_series("c", (("a", "1"), ("b", "2"))) == "c{a=1,b=2}"
    )
