"""Origin-driven freshness for the client page cache.

The server's ``Cache-Control`` header now governs what the client
page cache may keep: ``no-store``/``no-cache``/``max-age=0`` responses
are never cached, ``max-age=N`` bounds the pages' freshness on the
client clock, and absent directives keep the old cache-forever
behaviour. Covers the :class:`PageCache` TTL mechanics directly and
the header-to-TTL wiring end-to-end through ``DavFile``.
"""

import pytest

from repro.concurrency import Sleep
from repro.core import RequestParams, TransferConfig
from repro.core import pagecache
from repro.core.pagecache import PageCache
from repro.http import Headers, Response, freshness_lifetime
from repro.obs import MetricsRegistry
from repro.server import ServerConfig

from tests.helpers import davix_world, traced_peak

PAGE = 1024
BLOB = bytes((i * 37 + 11) % 256 for i in range(16 * PAGE))


# -- PageCache unit mechanics ----------------------------------------------


def make_cache(clock):
    return PageCache(64 * PAGE, page_size=PAGE, clock=clock)


def test_ttl_zero_is_never_stored():
    cache = make_cache(lambda: 0.0)
    cache.insert("k", None, 0, BLOB[:PAGE], total=len(BLOB), ttl=0)
    assert cache.read("k", 0, PAGE) is None
    assert cache.used_bytes == 0


def test_positive_ttl_expires_on_the_clock():
    now = [0.0]
    cache = make_cache(lambda: now[0])
    cache.insert("k", "v1", 0, BLOB[:PAGE], total=len(BLOB), ttl=30.0)
    assert cache.read("k", 0, PAGE) == BLOB[:PAGE]

    now[0] = 29.9
    assert cache.read("k", 0, PAGE) == BLOB[:PAGE]

    now[0] = 30.0
    assert cache.read("k", 0, PAGE) is None
    assert cache.used_bytes == 0
    assert cache.stats["ttl_expirations"] == 1
    # The expired entry is gone entirely — size and etag included.
    assert cache.etag("k") is None
    assert cache.known_size("k") is None


def test_expired_entry_accepts_fresh_inserts():
    now = [0.0]
    cache = make_cache(lambda: now[0])
    cache.insert("k", "v1", 0, BLOB[:PAGE], total=len(BLOB), ttl=10.0)
    now[0] = 100.0
    cache.insert("k", "v1", 0, BLOB[:PAGE], total=len(BLOB), ttl=10.0)
    assert cache.read("k", 0, PAGE) == BLOB[:PAGE]
    now[0] = 109.0
    assert cache.read("k", 0, PAGE) == BLOB[:PAGE]


def test_no_directive_means_no_expiry():
    now = [0.0]
    cache = make_cache(lambda: now[0])
    cache.insert("k", None, 0, BLOB[:PAGE], total=len(BLOB))
    now[0] = 1e9
    assert cache.read("k", 0, PAGE) == BLOB[:PAGE]


def test_directive_free_insert_does_not_extend_ttl():
    """A later response without Cache-Control must not refresh an
    existing freshness bound."""
    now = [0.0]
    cache = make_cache(lambda: now[0])
    cache.insert("k", None, 0, BLOB[:PAGE], total=len(BLOB), ttl=10.0)
    now[0] = 5.0
    cache.insert("k", None, PAGE, BLOB[PAGE : 2 * PAGE], total=len(BLOB))
    now[0] = 10.0
    assert cache.read("k", 0, PAGE) is None
    assert cache.read("k", PAGE, PAGE) is None


def test_missing_spans_sees_expiry():
    now = [0.0]
    cache = make_cache(lambda: now[0])
    cache.insert("k", None, 0, BLOB[: 2 * PAGE], total=len(BLOB), ttl=5.0)
    assert cache.missing_spans("k", 0, 2 * PAGE) == []
    now[0] = 6.0
    assert cache.missing_spans("k", 0, 2 * PAGE) == [(0, 2 * PAGE)]


# -- header parsing ---------------------------------------------------------


def response_with(cache_control):
    headers = Headers()
    if cache_control is not None:
        headers.set("Cache-Control", cache_control)
    return Response(200, headers)


@pytest.mark.parametrize(
    "value,expected",
    [
        (None, None),
        ("no-store", 0.0),
        ("no-cache", 0.0),
        ("max-age=0", 0.0),
        ("max-age=60", 60.0),
        ("public, max-age=300", 300.0),
        ("private", None),
        ("max-age=banana", None),
    ],
)
def test_cache_ttl_parsing(value, expected):
    assert freshness_lifetime(response_with(value).headers) == expected


# -- end-to-end through DavFile --------------------------------------------


def cached_world(cache_control):
    params = RequestParams(
        transfer=TransferConfig(page_cache_bytes=1 << 20, page_size=PAGE)
    )
    client, app, store, _ = davix_world(
        params=params, config=ServerConfig(cache_control=cache_control)
    )
    store.put("/blob", BLOB)
    return client, app


def test_no_store_origin_never_caches():
    client, app = cached_world("no-store")
    for _ in range(3):
        assert client.pread("http://server/blob", 0, PAGE) == BLOB[:PAGE]
    # The first read pays one wasted gap-fill before the no-store
    # verdict is learned; after that every read is a single demanded
    # range request, nothing is ever cached.
    assert app.requests_handled == 4
    assert client.context.page_cache.stats["hits"] == 0
    assert client.context.page_cache.used_bytes == 0
    assert client.context.page_cache.suppressed("http://server/blob")


def test_the_no_store_table_forgets_its_oldest_verdicts(monkeypatch):
    """Every URL an origin marks no-store is a verdict to remember; a
    stream of distinct ones must not grow the table without bound."""
    monkeypatch.setattr(pagecache, "MAX_NO_STORE_KEYS", 8)
    metrics = MetricsRegistry()
    cache = PageCache(64 * PAGE, page_size=PAGE, metrics=metrics)

    def url(n):
        return f"http://server/{n:04d}/" + "x" * 1000

    def suppress_a_thousand():
        for n in range(1000):
            cache.suppress(url(n))
        cache.suppress(url(992))  # renewed: now the newest verdict
        cache.suppress(url(1000))

    _, _, held = traced_peak(suppress_a_thousand)
    # Eight kilobyte-long keys, not a thousand of them.
    assert held < 64 << 10
    assert metrics.value("cache.no_store_forgotten_total") == 993
    # 992 was renewed, so 993 was the oldest when 1000 arrived.
    kept = [n for n in range(1001) if cache.suppressed(url(n))]
    assert kept == [992, *range(994, 1001)]


def test_max_age_serves_from_cache_until_stale():
    client, app = cached_world("max-age=60")
    url = "http://server/blob"
    assert client.pread(url, 0, PAGE) == BLOB[:PAGE]
    assert client.pread(url, 0, PAGE) == BLOB[:PAGE]
    assert app.requests_handled == 1  # second read was a cache hit

    def nap():
        yield Sleep(61.0)

    client.runtime.run(nap())
    assert client.pread(url, 0, PAGE) == BLOB[:PAGE]
    assert app.requests_handled == 2  # stale -> back to the origin
    assert client.context.page_cache.stats["ttl_expirations"] == 1


def test_unbounded_origin_caches_forever():
    client, app = cached_world(None)
    url = "http://server/blob"
    for _ in range(3):
        assert client.pread(url, 0, PAGE) == BLOB[:PAGE]
    assert app.requests_handled == 1
