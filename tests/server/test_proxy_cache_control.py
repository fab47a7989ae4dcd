"""Origin ``Cache-Control`` directives steering the proxy's TTL.

``max-age`` replaces the proxy's fixed ``default_ttl``, ``no-store``
pins a URL to the relay path, ``no-cache`` forces revalidation on
every request — and with no directive the default still applies.
"""

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams
from repro.http import parse_cache_control
from repro.net import LinkSpec, Network
from repro.obs import MetricsRegistry, Tracer
from repro.server import (
    HttpServer,
    ObjectStore,
    ProxyApp,
    ServerConfig,
    StorageApp,
)
from repro.sim import Environment

from tests.helpers import NO_RETRY, proxy_outcomes


def world(cache_control=None, default_ttl=60.0):
    env = Environment()
    net = Network(env, seed=12)
    for name in ("client", "proxy", "origin"):
        net.add_host(name)
    net.set_route(
        "client", "proxy", LinkSpec(latency=0.001, bandwidth=125_000_000)
    )
    net.set_route(
        "proxy", "origin", LinkSpec(latency=0.02, bandwidth=12_500_000)
    )
    store = ObjectStore()
    origin = StorageApp(
        store,
        config=ServerConfig(cache_control=cache_control),
        metrics=MetricsRegistry(),
    )
    HttpServer(SimRuntime(net, "origin"), origin, port=80).start()
    proxy = ProxyApp(default_ttl=default_ttl)
    proxy_rt = SimRuntime(net, "proxy")
    proxy.tracer = Tracer(clock=proxy_rt.now)
    HttpServer(proxy_rt, proxy, port=3128).start()
    client = DavixClient(
        SimRuntime(net, "client"),
        params=RequestParams(proxy="http://proxy:3128", retry_policy=NO_RETRY),
    )
    return client, proxy, origin, store


def test_parse_cache_control_directives():
    assert parse_cache_control(None) == {}
    assert parse_cache_control("") == {}
    assert parse_cache_control("no-store") == {"no-store": None}
    assert parse_cache_control("max-age=60, no-cache") == {
        "max-age": "60",
        "no-cache": None,
    }
    assert parse_cache_control('private, max-age="5"') == {
        "private": None,
        "max-age": "5",
    }


def test_max_age_overrides_default_ttl():
    # default_ttl tiny, origin grants a long max-age: entries stay
    # fresh far beyond the default window.
    client, proxy, origin, store = world(
        cache_control="max-age=3600", default_ttl=0.001
    )
    store.put("/x", b"fresh for an hour")
    client.get("http://origin/x")
    baseline = origin.requests_handled
    client.runtime.run(_sleep(10.0))
    for _ in range(3):
        assert client.get("http://origin/x") == b"fresh for an hour"
    # Still fresh: no revalidation round trips reached the origin.
    assert origin.requests_handled == baseline


def test_short_max_age_expires_before_default_ttl():
    client, proxy, origin, store = world(
        cache_control="max-age=1", default_ttl=3600.0
    )
    store.put("/x", b"stale in a second")
    client.get("http://origin/x")
    baseline = origin.requests_handled
    client.runtime.run(_sleep(5.0))
    assert client.get("http://origin/x") == b"stale in a second"
    # Expired despite the huge default_ttl: the origin saw a
    # revalidation (304 — the cached body was still served).
    assert origin.requests_handled == baseline + 1
    assert proxy_outcomes(proxy)["REVALIDATED"] == 1


def test_no_store_bypasses_the_cache():
    client, proxy, origin, store = world(cache_control="no-store")
    store.put("/secret", b"never cached")
    for _ in range(3):
        assert client.get("http://origin/secret") == b"never cached"
    # Every request reached the origin; nothing landed in the store.
    gets = origin.metrics.counter("server.requests_total", method="GET")
    assert gets.value == 3
    assert proxy.cached_objects == 0
    assert proxy_outcomes(proxy)["BYPASS"] >= 2


def test_a_304_marked_no_store_grants_no_freshness():
    """A revalidation answered ``304`` with ``no-store`` reads as a
    zero lifetime, like ``no-cache``: the next request revalidates
    again rather than riding on ``default_ttl``."""
    client, proxy, origin, store = world(
        cache_control="max-age=1", default_ttl=3600.0
    )
    store.put("/x", b"revalidate me")
    client.get("http://origin/x")
    client.runtime.run(_sleep(5.0))
    origin.config.cache_control = "no-store"
    assert client.get("http://origin/x") == b"revalidate me"
    baseline = origin.requests_handled
    assert client.get("http://origin/x") == b"revalidate me"
    assert origin.requests_handled == baseline + 1
    assert proxy_outcomes(proxy)["REVALIDATED"] == 2


def test_no_cache_revalidates_every_time():
    client, proxy, origin, store = world(cache_control="no-cache")
    store.put("/x", b"always check")
    for _ in range(3):
        assert client.get("http://origin/x") == b"always check"
    # Cached (bodies served from pages) but never served blind: each
    # repeat costs exactly one conditional round trip.
    assert proxy_outcomes(proxy)["REVALIDATED"] == 2
    assert origin.requests_handled == 3


def test_default_ttl_still_applies_without_directives():
    client, proxy, origin, store = world(cache_control=None)
    store.put("/x", b"default rules")
    for _ in range(4):
        assert client.get("http://origin/x") == b"default rules"
    assert origin.requests_handled == 1
    outcomes = proxy_outcomes(proxy)
    assert outcomes["HIT"] + outcomes["STALE"] == 3


def _sleep(seconds):
    from repro.concurrency import Sleep

    def op():
        yield Sleep(seconds)

    return op()
