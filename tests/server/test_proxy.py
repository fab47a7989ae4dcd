"""Tests for the caching forward proxy and the client's proxy mode."""

import pytest

from repro.concurrency import SimRuntime, Sleep, bounded_gather
from repro.core import DavixClient, RequestParams
from repro.core.context import Context
from repro.core.request import execute_request
from repro.errors import RequestError
from repro.http import Headers, Request, Url
from repro.net import LinkSpec, Network
from repro.obs import request_events
from repro.server import (
    HttpServer,
    ObjectStore,
    ProxyApp,
    ServerConfig,
    StorageApp,
)
from repro.sim import Environment

from tests.helpers import NO_RETRY, proxy_outcomes


def proxy_world(cache_bytes=256 << 20, default_ttl=60.0):
    """client -- proxy -- origin, with a slow client<->origin path so
    the cache benefit is visible. The proxy gets a context, and so a
    tracer on the proxy's clock: its served requests' outcomes are
    folded from its spans (:func:`~tests.helpers.proxy_outcomes`)."""
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
    proxy_rt = SimRuntime(net, "proxy")
    context = Context()
    context.clock = proxy_rt.now
    proxy_app = ProxyApp(
        cache_bytes=cache_bytes, default_ttl=default_ttl, context=context
    )
    HttpServer(proxy_rt, proxy_app, port=3128).start()
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
    assert proxy_outcomes(proxy)["MISS"] == 1
    assert origin.requests_handled == 1
    # The client connected to the proxy, never to the origin.
    assert net.host("origin").counters["connections_accepted"] == 1  # proxy's


def test_cache_hit_skips_origin():
    client, proxy, origin, store, net = proxy_world()
    store.put("/x", b"cache me")
    for _ in range(5):
        assert client.get("http://origin/x") == b"cache me"
    outcomes = proxy_outcomes(proxy)
    assert outcomes["MISS"] == 1
    assert outcomes["HIT"] + outcomes["STALE"] == 4
    assert origin.requests_handled == 1
    served = sum(
        outcomes[o] for o in ("HIT", "STALE", "PARTIAL", "REVALIDATED")
    )
    assert served / (served + outcomes["MISS"]) == pytest.approx(0.8)


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
    assert proxy_outcomes(proxy)["REVALIDATED"] == 1
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
    assert proxy_outcomes(proxy)["MISS"] == 2


def test_stale_served_when_origin_down():
    client, proxy, origin, store, net = proxy_world(default_ttl=0.0)
    store.put("/x", b"survivor")
    assert client.get("http://origin/x") == b"survivor"
    net.host("origin").fail()
    # TTL 0: every request revalidates; with the origin dead the proxy
    # serves the stale copy instead of failing.
    assert client.get("http://origin/x") == b"survivor"
    outcomes = proxy_outcomes(proxy)
    assert outcomes["HIT"] + outcomes["STALE"] == 1


def test_ranged_requests_are_cached():
    """Regression: ranged GETs used to bypass the cache entirely —
    they now populate the page store and repeat reads never reach the
    origin."""
    client, proxy, origin, store, net = proxy_world()
    store.put("/x", b"0123456789")
    assert client.pread("http://origin/x", 2, 3) == b"234"
    assert proxy_outcomes(proxy)["BYPASS"] == 0
    assert proxy_outcomes(proxy)["MISS"] == 1
    assert proxy.cached_objects == 1
    before = origin.requests_handled
    assert client.pread("http://origin/x", 2, 3) == b"234"
    assert client.pread("http://origin/x", 3, 2) == b"34"
    outcomes = proxy_outcomes(proxy)
    assert outcomes["HIT"] + outcomes["STALE"] == 2
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
    outcomes = proxy_outcomes(proxy)
    assert outcomes["HIT"] + outcomes["STALE"] == 2
    assert outcomes["BYPASS"] == 0


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
    assert proxy_outcomes(proxy)["PARTIAL"] == 1
    # The origin only served the gap, not the full 200 000 bytes.
    assert store.bytes_read - bytes_before < 200_000
    rows = request_events(proxy.tracer.finished())
    assert sum(row.get("from_cache_bytes", 0) for row in rows) > 0


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
    assert proxy_outcomes(proxy)["BYPASS"] == 1


def test_a_fallback_relay_records_onto_its_own_request():
    """A request whose pages never fit falls back to a relay after
    several gap fetches; by then a second connection is being served.
    The relay span and the BYPASS split still land on the first
    request's own ``server-request`` span."""
    client, proxy, _, store, _ = proxy_world(cache_bytes=64 << 10)
    store.put("/pages", bytes(256 << 10))
    store.put("/big", bytes(4 << 20))

    def get(path, delay=0.0, headers=()):
        yield Sleep(delay)
        response, _ = yield from execute_request(
            client.context,
            Url.parse("http://origin" + path),
            Request("GET", path, Headers(list(headers))),
        )
        return response.headers.get("X-Cache")

    def both():
        outcomes = yield from bounded_gather(
            [
                # Two pages through a one-page budget: never converges.
                lambda: get("/pages", headers=[("Range", "bytes=0-131071")]),
                # Arrives during the first one's gap fetches, and is
                # still being served when the first one falls back.
                lambda: get("/big", delay=0.3),
            ],
            limit=2,
        )
        return [outcome.value for outcome in outcomes]

    assert client.runtime.run(both()) == ["BYPASS", "MISS"]
    spans = proxy.tracer.finished()
    serving = {
        span.attrs["path"]: span
        for span in spans
        if span.name == "server-request"
    }
    fallback, other = serving["http://origin/pages"], serving["http://origin/big"]
    assert fallback.end_time > other.start
    (relay,) = [span for span in spans if span.name == "relay"]
    assert relay.parent_id == fallback.span_id
    assert fallback.attrs["outcome"] == "BYPASS"
    assert fallback.attrs["served_bytes"] == 131072
    assert other.attrs["outcome"] == "MISS"


#: The proxy rows of four reads, as the proxy's event log held them
#: before its cache split moved onto the serving span: the fold over
#: that span must rebuild them field for field, apart from the BYPASS
#: row's ``ts`` — stamped after the upstream exchange then, at arrival
#: (the span's start) now, like every other outcome.
PROXY_ROWS = [
    {
        "kind": "proxy", "ts": 0.0030016224000000004,
        "url": "http://origin/obj", "outcome": "MISS", "status": 206,
        "served_bytes": 65536, "from_cache_bytes": 0,
        "trace_id": "00000000000000000000000000000001",
    },
    {
        "kind": "proxy", "ts": 0.6553059023999999,
        "url": "http://origin/obj", "outcome": "PARTIAL", "status": 206,
        "served_bytes": 131072, "from_cache_bytes": 65536,
        "trace_id": "00000000000000000000000000000002",
    },
    {
        "kind": "proxy", "ts": 0.8264527424,
        "url": "http://origin/obj", "outcome": "HIT", "status": 206,
        "served_bytes": 65536, "from_cache_bytes": 65536,
        "trace_id": "00000000000000000000000000000003",
    },
    {
        "kind": "proxy", "ts": 0.9896981872000001,
        "url": "http://origin/up", "outcome": "BYPASS", "status": 201,
        "served_bytes": 0, "from_cache_bytes": 0,
        "trace_id": "00000000000000000000000000000004",
    },
]

#: When the BYPASS request arrived: its row's ``ts`` now.
BYPASS_ARRIVAL = 0.8290936576000001


def test_proxy_rows_are_folded_from_the_serving_spans():
    client, proxy, _, store, _ = proxy_world()
    store.put("/obj", bytes(range(256)) * 512)  # two 64 KiB pages
    client.pread("http://origin/obj", 0, 65536)  # cold: MISS
    client.pread("http://origin/obj", 0, 131072)  # one page cached
    client.pread("http://origin/obj", 32768, 65536)  # both: HIT
    client.put("http://origin/up", b"u" * 1000)  # not a GET: BYPASS
    rows = request_events(proxy.tracer.finished())
    expected = [dict(row) for row in PROXY_ROWS]
    expected[-1]["ts"] = BYPASS_ARRIVAL
    assert [row for row in rows if row["kind"] == "proxy"] == expected
    # Each follows its own request's server row, stamped the same.
    for index, row in enumerate(rows):
        if row["kind"] == "proxy":
            server = rows[index - 1]
            assert server["side"] == "server"
            assert (server["ts"], server["trace_id"]) == (
                row["ts"], row["trace_id"]
            )


def test_lru_eviction_bounded_by_bytes():
    client, proxy, origin, store, net = proxy_world(cache_bytes=25_000)
    for i in range(4):
        store.put(f"/obj{i}", bytes(10_000))
        client.get(f"http://origin/obj{i}")
    assert proxy.cached_bytes <= 25_000
    assert proxy.cached_objects == 2
    # Two whole 10 000-byte objects (one page each) were evicted.
    assert proxy.pages.stats["evicted_bytes"] == 2 * 10_000
    # The oldest entries were evicted: obj0 misses again.
    client.get("http://origin/obj0")
    assert proxy_outcomes(proxy)["MISS"] == 5


def test_meta_follows_the_page_store():
    """Distinct URLs through a one-object proxy: a URL evicted from
    the page store keeps no meta, so the table stays at one entry."""
    client, proxy, origin, store, net = proxy_world(cache_bytes=1000)
    for i in range(50):
        store.put(f"/obj{i}", bytes(1000))
        client.get(f"http://origin/obj{i}")
    assert proxy.cached_objects == 1
    assert list(proxy._meta) == ["http://origin/obj49"]


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
