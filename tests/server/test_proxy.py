"""Tests for the caching forward proxy and the client's proxy mode."""

import pytest

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams
from repro.errors import RequestError
from repro.net import LinkSpec, Network
from repro.server import (
    HttpServer,
    ObjectStore,
    ProxyApp,
    ServerConfig,
    StorageApp,
)
from repro.sim import Environment

from tests.helpers import NO_RETRY


def proxy_world(cache_bytes=256 << 20, default_ttl=60.0):
    """client -- proxy -- origin, with a slow client<->origin path so
    the cache benefit is visible."""
    env = Environment()
    net = Network(env, seed=12)
    net.add_host("client")
    net.add_host("proxy")
    net.add_host("origin")
    net.set_route(
        "client", "proxy", LinkSpec(latency=0.001, bandwidth=125_000_000)
    )
    net.set_route(
        "proxy", "origin", LinkSpec(latency=0.08, bandwidth=12_500_000)
    )
    net.set_route(
        "client", "origin", LinkSpec(latency=0.08, bandwidth=12_500_000)
    )
    origin_store = ObjectStore()
    origin_app = StorageApp(origin_store)
    HttpServer(SimRuntime(net, "origin"), origin_app, port=80).start()
    proxy_app = ProxyApp(cache_bytes=cache_bytes, default_ttl=default_ttl)
    HttpServer(SimRuntime(net, "proxy"), proxy_app, port=3128).start()
    client = DavixClient(
        SimRuntime(net, "client"),
        params=RequestParams(proxy="http://proxy:3128", retry_policy=NO_RETRY),
    )
    return client, proxy_app, origin_app, origin_store, net


def test_proxied_get_relays_content():
    client, proxy, origin, store, net = proxy_world()
    store.put("/data/x.bin", b"through-the-proxy")
    data = client.get("http://origin/data/x.bin")
    assert data == b"through-the-proxy"
    assert proxy.stats["misses"] == 1
    assert origin.requests_handled == 1
    # The client connected to the proxy, never to the origin.
    assert net.host("origin").counters["connections_accepted"] == 1  # proxy's


def test_cache_hit_skips_origin():
    client, proxy, origin, store, net = proxy_world()
    store.put("/x", b"cache me")
    for _ in range(5):
        assert client.get("http://origin/x") == b"cache me"
    assert proxy.stats["misses"] == 1
    assert proxy.stats["hits"] == 4
    assert origin.requests_handled == 1
    assert proxy.hit_ratio() == pytest.approx(0.8)


def test_cache_hit_is_much_faster():
    client, proxy, origin, store, net = proxy_world()
    store.put("/big", b"B" * 5_000_000)
    start = client.runtime.now()
    client.get("http://origin/big")
    miss_time = client.runtime.now() - start
    start = client.runtime.now()
    client.get("http://origin/big")
    hit_time = client.runtime.now() - start
    assert hit_time < miss_time / 4


def test_revalidation_after_ttl_expiry():
    client, proxy, origin, store, net = proxy_world(default_ttl=1.0)
    store.put("/x", b"fresh")
    client.get("http://origin/x")
    client.runtime.env.run(until=client.runtime.env.now + 5.0)
    assert client.get("http://origin/x") == b"fresh"
    assert proxy.stats["revalidated"] == 1
    # The revalidation was a conditional GET answered 304: the origin
    # served no second body.
    assert origin.requests_handled == 2


def test_changed_content_refetched_after_ttl():
    client, proxy, origin, store, net = proxy_world(default_ttl=1.0)
    store.put("/x", b"version-1")
    assert client.get("http://origin/x") == b"version-1"
    store.put("/x", b"version-2")  # new etag
    client.runtime.env.run(until=client.runtime.env.now + 5.0)
    assert client.get("http://origin/x") == b"version-2"
    assert proxy.stats["misses"] == 2


def test_stale_served_when_origin_down():
    client, proxy, origin, store, net = proxy_world(default_ttl=0.0)
    store.put("/x", b"survivor")
    assert client.get("http://origin/x") == b"survivor"
    net.host("origin").fail()
    # TTL 0: every request revalidates; with the origin dead the proxy
    # serves the stale copy instead of failing.
    assert client.get("http://origin/x") == b"survivor"
    assert proxy.stats["hits"] == 1


def test_ranged_requests_are_cached():
    """Regression: ranged GETs used to bypass the cache entirely —
    they now populate the page store and repeat reads never reach the
    origin."""
    client, proxy, origin, store, net = proxy_world()
    store.put("/x", b"0123456789")
    assert client.pread("http://origin/x", 2, 3) == b"234"
    assert proxy.stats["bypassed"] == 0
    assert proxy.stats["misses"] == 1
    assert proxy.cached_objects == 1
    before = origin.requests_handled
    assert client.pread("http://origin/x", 2, 3) == b"234"
    assert client.pread("http://origin/x", 3, 2) == b"34"
    assert proxy.stats["hits"] == 2
    assert origin.requests_handled == before


def test_whole_object_entry_answers_ranged_requests():
    """Regression: a cached full GET is reused for later Range
    requests instead of re-fetching from the origin."""
    client, proxy, origin, store, net = proxy_world()
    content = bytes(i % 251 for i in range(100_000))
    store.put("/x", content)
    assert client.get("http://origin/x") == content
    before = origin.requests_handled
    assert client.pread("http://origin/x", 10, 100) == content[10:110]
    reads = [(0, 10), (50_000, 64), (99_990, 10)]
    assert client.pread_vec("http://origin/x", reads) == [
        content[o : o + n] for o, n in reads
    ]
    assert origin.requests_handled == before
    assert proxy.stats["hits"] == 2
    assert proxy.stats["bypassed"] == 0


def test_partial_hit_fetches_only_the_gaps():
    """A request straddling cached and uncached spans fetches only the
    missing page-aligned gaps from the origin."""
    client, proxy, origin, store, net = proxy_world()
    content = bytes(i % 251 for i in range(400_000))
    store.put("/x", content)
    # Warm the first 64 KiB page via a ranged read.
    assert client.pread("http://origin/x", 0, 70_000) == content[:70_000]
    bytes_before = store.bytes_read
    # Overlaps the cached pages and extends beyond them.
    assert client.pread("http://origin/x", 0, 200_000) == content[:200_000]
    assert proxy.stats["partial_hits"] == 1
    # The origin only served the gap, not the full 200 000 bytes.
    assert store.bytes_read - bytes_before < 200_000
    assert proxy.stats["origin_bytes_saved"] > 0


def test_ranged_request_after_update_serves_new_version():
    """An ETag change observed during a gap fetch drops the stale
    pages — the proxy never mixes versions in one response."""
    client, proxy, origin, store, net = proxy_world()
    content_v1 = b"A" * 200_000
    store.put("/x", content_v1)
    assert client.pread("http://origin/x", 0, 70_000) == content_v1[:70_000]
    store.put("/x", b"B" * 200_000)  # new etag
    client.runtime.env.run(until=client.runtime.env.now + 120.0)  # expire ttl
    data = client.pread("http://origin/x", 0, 200_000)
    assert data == b"B" * 200_000  # coherent: no v1/v2 mix


def test_put_passes_through():
    client, proxy, origin, store, net = proxy_world()
    assert client.put("http://origin/new", b"written") == 201
    assert store.read("/new") == b"written"
    assert proxy.stats["bypassed"] == 1


def test_lru_eviction_bounded_by_bytes():
    client, proxy, origin, store, net = proxy_world(cache_bytes=25_000)
    for i in range(4):
        store.put(f"/obj{i}", bytes(10_000))
        client.get(f"http://origin/obj{i}")
    assert proxy.cached_bytes <= 25_000
    assert proxy.cached_objects == 2
    assert proxy.stats["evictions"] == 2
    # The oldest entries were evicted: obj0 misses again.
    client.get("http://origin/obj0")
    assert proxy.stats["misses"] == 5


def test_missing_object_propagates_404():
    client, proxy, origin, store, net = proxy_world()
    from repro.errors import FileNotFound

    with pytest.raises(FileNotFound):
        client.get("http://origin/nope")
    with pytest.raises(FileNotFound):
        client.pread("http://origin/nope", 0, 10)
    # Plain or ranged, cold or not, the 404 is the proxy's answer: it
    # carries the proxy's marks, not the origin's raw headers.
    from tests.helpers import one_request, get

    for headers in ({}, {"Range": "bytes=0-9"}):
        response = client.runtime.run(
            one_request(
                ("proxy", 3128), get("http://origin/nope", headers)
            )
        )
        assert response.status == 404
        assert response.headers.get("Via") == "1.1 repro-proxy"
        assert response.headers.get("X-Cache") == "UNCACHEABLE"


def test_bad_proxy_request_rejected():
    # A relative-URI request straight at the proxy is a client error.
    from tests.helpers import one_request, get

    client, proxy, origin, store, net = proxy_world()
    runtime = client.runtime
    response = runtime.run(one_request(("proxy", 3128), get("/not-absolute")))
    assert response.status == 400


def test_validation():
    with pytest.raises(ValueError):
        ProxyApp(cache_bytes=-1)
    with pytest.raises(ValueError):
        ProxyApp(default_ttl=-1)
