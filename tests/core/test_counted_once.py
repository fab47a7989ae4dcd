"""Every count is one registry series, kept once.

``PageCache.stats`` and ``SessionPool.stats()`` hold no tally of their
own: they read the ``cache.*`` / ``pool.*`` series of the registry the
component counts into — the one it is given, or a private one. A read
creates no series, so reading a count never grows a snapshot.
"""

import pytest

from repro.core.pagecache import PageCache
from repro.core.pool import PoolStats, SessionPool
from repro.obs import MetricsRegistry

ORIGIN = ("http", "h", 80)

#: ``PageCache.stats`` key -> its series.
CACHE_SERIES = {
    "hits": "cache.hit",
    "misses": "cache.miss",
    "partial_hits": "cache.partial_hit",
    "evicted_bytes": "cache.evicted_bytes",
    "invalidations": "cache.invalidations",
    "origin_bytes_saved": "cache.origin_bytes_saved",
    "ttl_expirations": "cache.ttl_expirations",
}

#: ``PoolStats`` field -> its series and labels.
POOL_SERIES = {
    "hits": ("pool.acquire_total", {"outcome": "hit"}),
    "misses": ("pool.acquire_total", {"outcome": "miss"}),
    "recycled": ("pool.release_total", {"outcome": "recycled"}),
    "discarded": ("pool.release_total", {"outcome": "discarded"}),
    "evicted": ("pool.evicted_total", {}),
}


class FakeSession:
    def __init__(self, reusable=True):
        self.origin = ORIGIN
        self.reusable = reusable

    def discard(self):
        self.reusable = False


def drive_cache(cache, now):
    """Hit, partial hit, miss, eviction, invalidation, TTL expiry."""
    cache.insert("a", '"v1"', 0, b"a" * 8, total=16)  # pages 0, 1
    assert cache.lookup("a", 0, 8) == (b"a" * 8, [])  # hit: 8 saved
    assert cache.lookup("a", 4, 8) == (None, [(8, 4)])  # partial: 4 saved
    assert cache.lookup("a", 8, 8) == (None, [(8, 8)])  # miss
    cache.insert("b", None, 0, b"b" * 8)  # 16 bytes > 12: evicts a/0
    assert "a" in cache
    assert not cache.observe("a", '"v2"')  # invalidation
    cache.insert("c", None, 0, b"c" * 4, ttl=5.0)
    now[0] = 10.0
    assert cache.lookup("c", 0, 4) == (None, [(0, 4)])  # expired: a miss


def drive_pool(pool):
    """Pool hit, miss, recycle, discard and a purge."""
    assert pool.acquire(ORIGIN) is None  # miss
    warm = FakeSession()
    pool.release(warm)  # recycled
    assert pool.acquire(ORIGIN) is warm  # hit
    pool.release(FakeSession(reusable=False))  # discarded
    pool.release(warm)  # recycled
    assert pool.purge_origin(ORIGIN) == 1  # evicted


@pytest.mark.parametrize("given", [True, False], ids=["shared", "private"])
def test_stats_are_the_registry_series(given):
    shared = MetricsRegistry() if given else None
    now = [0.0]
    cache = PageCache(12, page_size=4, metrics=shared, clock=lambda: now[0])
    pool = SessionPool(metrics=shared)
    if given:
        assert cache.metrics is shared and pool.metrics is shared
    else:
        assert cache.metrics is not pool.metrics
    drive_cache(cache, now)
    drive_pool(pool)

    sizes = len(cache.metrics), len(pool.metrics)
    stats, pool_stats = cache.stats, pool.stats()
    # Reading the counts created no series.
    assert (len(cache.metrics), len(pool.metrics)) == sizes

    assert stats == {
        key: int(cache.metrics.value(series) or 0)
        for key, series in CACHE_SERIES.items()
    }
    assert stats == {
        "hits": 1,
        "misses": 2,
        "partial_hits": 1,
        "evicted_bytes": 4,
        "invalidations": 1,
        "origin_bytes_saved": 12,
        "ttl_expirations": 1,
    }
    assert pool_stats == PoolStats(
        idle=0,
        **{
            field: int(pool.metrics.value(name, **labels) or 0)
            for field, (name, labels) in POOL_SERIES.items()
        },
    )
    assert pool_stats == PoolStats(
        hits=1, misses=1, recycled=2, discarded=1, evicted=1
    )


def test_a_fresh_component_reads_zero_without_creating_series():
    cache, pool = PageCache(1024), SessionPool()
    assert set(cache.stats.values()) == {0}
    assert pool.stats() == PoolStats()
    assert len(cache.metrics) == len(pool.metrics) == 0
