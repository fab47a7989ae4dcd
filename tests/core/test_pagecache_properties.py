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
