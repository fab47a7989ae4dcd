"""Property tests: the client page cache never changes read results
and never exceeds its configured byte budget.

Two layers: the :class:`PageCache` alone against a reference byte
string (arbitrary insert/read interleavings, ETag churn included), and
the full ``DavFile`` path over the simulated network (cache-backed
reads byte-identical to direct slicing, warm repeats included).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RequestParams, TransferConfig
from repro.core.pagecache import PageCache

from tests.helpers import davix_world

SLOW = settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=100)
@given(
    data=st.data(),
    page_size=st.integers(min_value=1, max_value=300),
    budget=st.integers(min_value=0, max_value=4000),
    size=st.integers(min_value=0, max_value=3000),
)
def test_pagecache_unit_matches_reference(data, page_size, budget, size):
    """Any interleaving of inserts and reads (across two object
    versions) returns exactly the reference bytes of the *current*
    version, and the byte budget holds after every operation."""
    contents = {
        "v0": bytes(i % 251 for i in range(size)),
        "v1": bytes((i * 7 + 13) % 256 for i in range(size)),
    }
    cache = PageCache(budget_bytes=budget, page_size=page_size)
    current = None
    for _ in range(data.draw(st.integers(0, 40), label="ops")):
        op = data.draw(
            st.sampled_from(["insert", "read", "missing"]), label="op"
        )
        offset = data.draw(st.integers(0, size + 50), label="offset")
        length = data.draw(st.integers(0, size + 50), label="length")
        if op == "insert":
            etag = data.draw(st.sampled_from(["v0", "v1"]), label="etag")
            if offset <= size:
                end = min(size, offset + length)
                cache.insert(
                    "k",
                    etag,
                    offset,
                    contents[etag][offset:end],
                    total=size,
                )
                current = etag
        elif op == "read":
            got = cache.read("k", offset, length)
            if got is not None and current is not None:
                assert got == contents[current][offset : offset + length]
        else:
            spans = cache.missing_spans("k", offset, length)
            # Spans are sorted, disjoint, non-empty and page-aligned.
            for (a, n1), (b, _n2) in zip(spans, spans[1:]):
                assert a + n1 <= b
            for a, n in spans:
                assert n > 0
                assert a % page_size == 0
        assert cache.used_bytes <= budget
    assert cache.used_bytes <= max(0, budget)


@SLOW
@given(
    reads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1500),
            st.integers(min_value=0, max_value=500),
        ),
        min_size=1,
        max_size=10,
    ),
    page_size=st.integers(min_value=1, max_value=257),
    budget=st.integers(min_value=0, max_value=1 << 16),
    use_vec=st.booleans(),
)
def test_cached_reads_match_direct(reads, page_size, budget, use_vec):
    """Cache-backed ``pread``/``pread_vec`` over the simulated network
    is byte-identical to direct slicing — for any page size and byte
    budget (including budgets too small to hold a single read)."""
    content = bytes((i * 7 + 3) % 256 for i in range(1200))
    params = RequestParams(
        transfer=TransferConfig(
            page_cache_bytes=budget, page_size=page_size
        )
    )
    client, app, store, _ = davix_world(params=params)
    store.put("/x", content)
    expected = [content[o : o + n] for o, n in reads]
    vec_reads = [
        (o, n) for o, n in reads if n == 0 or o < len(content)
    ]
    for _round in range(2):  # cold, then warm
        if use_vec and vec_reads:
            got = client.pread_vec("http://server/x", vec_reads)
            assert got == [content[o : o + n] for o, n in vec_reads]
        else:
            for (o, n), want in zip(reads, expected):
                assert client.pread("http://server/x", o, n) == want
    cache = client.context.page_cache
    if budget > 0:
        assert cache is not None
        assert cache.used_bytes <= budget
    else:
        assert cache is None


def test_an_object_evicted_whole_leaves_no_entry():
    """1 000 distinct keys through a one-page cache: the entry table
    holds the one object the page belongs to, not every key seen."""
    cache = PageCache(64, page_size=64)
    for index in range(1000):
        cache.insert(f"k{index}", None, 0, bytes(64), total=64)
    assert cache.object_count == 1
    assert len(cache._entries) == 1
    assert "k999" in cache and "k0" not in cache


class _CountingLock:
    """A lock that counts its acquisitions and, once, runs ``between``
    just before its second one (a competing thread's insert)."""

    def __init__(self, lock, between=None):
        self.lock = lock
        self.acquired = 0
        self.between = between

    def __enter__(self):
        self.acquired += 1
        if self.acquired == 2 and self.between is not None:
            self.between()
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_a_lookup_takes_the_lock_once():
    """A hit, a partial hit, a miss and a read past EOF each take the
    lock once, and an insert racing the probe cannot split it: the read
    is classified from one view of the pages, so it is never a partial
    hit with nothing missing."""
    page = b"p" * 64
    cache = PageCache(1 << 12, page_size=64)
    cache.insert("k", None, 0, page, total=256)
    cache.insert("k", None, 128, page)
    for offset, length, want in [
        (0, 64, (page, [])),
        (32, 64, (None, [(64, 64)])),
        (192, 64, (None, [(192, 64)])),
        (300, 8, (b"", [])),
    ]:
        before = dict(cache.stats)
        cache._lock = _CountingLock(
            cache._lock,
            between=lambda: cache.insert("k", None, 64, page),
        )
        got = cache.lookup("k", offset, length)
        assert cache._lock.acquired == 1
        cache._lock = cache._lock.lock
        assert got == want
        moved = {k for k, v in cache.stats.items() if v != before[k]}
        assert len(moved & {"hits", "misses", "partial_hits"}) == 1
    assert cache.stats["partial_hits"] == 1 and cache.stats["misses"] == 1
