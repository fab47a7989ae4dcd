"""One read path: ``pread`` and ``pread_vec`` of one read are the same
read.

Both resolve through ``DavFile._resolve`` — probe, engine, gap fill,
demand — so for any offset and length (inside, straddling and past
EOF) and under every combination of stages they must return the same
bytes, cost the origin the same number of requests and charge the
byte-provenance ledger exactly the bytes they returned.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import DavFile, RequestParams, TransferConfig
from repro.server import ServerConfig

from tests.helpers import davix_world

PAGE = 64

#: name -> (TransferConfig fields, server max_ranges, warm the cache?)
STAGES = {
    "no-cache": ({}, 256, False),
    "cache-cold": ({"page_cache_bytes": 1 << 16}, 256, False),
    "cache-warm": ({"page_cache_bytes": 1 << 16}, 256, True),
    "engine": ({"read_ahead": True}, 256, False),
    "cache+engine": (
        {"page_cache_bytes": 1 << 16, "read_ahead": True}, 256, True,
    ),
    # Two non-adjacent gaps around the warm page make the gap fill a
    # multi-range GET, which this server answers with a full 200.
    "no-multirange": ({"page_cache_bytes": 1 << 16}, 1, True),
    # One page of budget: a gap fill of a longer read cannot converge
    # and falls through to the demanded request.
    "tiny-budget": ({"page_cache_bytes": PAGE}, 256, False),
    # The engine speculates elsewhere (PLANS), so every read it sees
    # is a miss and goes on down the ladder: gap fill, then demand.
    "off-plan": (
        {"page_cache_bytes": 1 << 16, "read_ahead": True}, 256, True,
    ),
}

#: Stages whose engine is armed with a plan: past EOF, where no drawn
#: read can land exactly.
PLANS = {"off-plan": [(8 * PAGE, PAGE)]}


def _world(stage, content):
    fields, max_ranges, warm = STAGES[stage]
    if "page_cache_bytes" in fields:
        fields = dict(fields, page_size=PAGE)
    client, app, store, _ = davix_world(
        params=RequestParams(transfer=TransferConfig(**fields)),
        config=ServerConfig(max_ranges=max_ranges),
    )
    store.put("/x", content)
    if warm:
        # The page in the middle of the object: reads inside it are
        # full hits, reads across it partial hits with a gap each side.
        middle = (len(content) // 2 // PAGE) * PAGE
        client.pread("http://server/x", middle, PAGE)
    return client, app


def _delivered(client):
    metrics = client.metrics()
    return sum(
        metrics.value("provenance.bytes_total", source=source) or 0
        for source in ("page-cache", "network")
    )


def _read_once(stage, content, offset, length, vector):
    """One read in a fresh world -> (bytes, origin requests, bytes the
    provenance ledger was charged)."""
    client, app = _world(stage, content)
    requests, charged = app.requests_handled, _delivered(client)
    file = DavFile(client.context, "http://server/x")
    if stage in PLANS:
        file.prefetch(PLANS[stage])

    def op():
        if vector:
            (piece,) = yield from file.pread_vec([(offset, length)])
        else:
            piece = yield from file.pread(offset, length)
        yield from file.close()
        return piece

    data = client.runtime.run(op())
    return (
        data,
        app.requests_handled - requests,
        _delivered(client) - charged,
    )


@pytest.mark.parametrize("stage", sorted(STAGES))
@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(
    content=st.binary(min_size=1, max_size=6 * PAGE),
    offset=st.integers(min_value=0, max_value=7 * PAGE),
    length=st.integers(min_value=0, max_value=4 * PAGE),
)
# Wholly past EOF: a short read on every path, not a 416 on some.
@example(content=bytes(range(100)), offset=200, length=5)
# Across the warm page: two gaps, one multi-range gap fill.
@example(content=bytes(250) + bytes(range(134)), offset=130, length=200)
def test_pread_is_pread_vec_of_one(stage, content, offset, length):
    want = content[offset : offset + length]
    single = _read_once(stage, content, offset, length, vector=False)
    vector = _read_once(stage, content, offset, length, vector=True)
    assert single[0] == vector[0] == want
    assert single[1] == vector[1], "origin requests differ"
    assert single[2] == vector[2] == len(want), "provenance drifted"


def test_a_straddling_read_charges_each_source_its_bytes():
    """Half the read lies in a cached page and half in a missing one:
    each half is charged to its own source, though the gap fill
    fetches the whole missing page."""
    content = bytes(range(256))
    client, _ = _world("cache-cold", content)
    client.pread("http://server/x", 0, PAGE)  # page 0 resident

    def charged():
        metrics = client.metrics()
        return [
            metrics.value("provenance.bytes_total", source=source) or 0
            for source in ("page-cache", "network")
        ]

    before = charged()
    assert client.pread("http://server/x", 32, 64) == content[32:96]
    assert [n - m for n, m in zip(charged(), before)] == [32, 32]


def test_unsatisfiable_without_a_total_still_raises():
    """A 416 that does not say ``bytes */N`` teaches nothing: it is an
    error, not a short read."""
    from repro.errors import RequestError
    from repro.server.faults import FaultPolicy

    client, _, store, _ = davix_world(
        faults=FaultPolicy(broken_paths={"/x"}, error_status=416)
    )
    store.put("/x", bytes(100))
    with pytest.raises(RequestError):
        client.pread_vec("http://server/x", [(200, 5)])
    with pytest.raises(RequestError):
        client.pread("http://server/x", 200, 5)


def test_an_off_plan_vector_miss_fills_the_cache():
    """An engine miss takes the gap fill like any other read: its
    pages land in the cache, so repeating the read costs the origin
    nothing."""
    client, app, store, _ = davix_world(
        params=RequestParams(
            transfer=TransferConfig(
                page_cache_bytes=1 << 16, page_size=PAGE, read_ahead=True
            )
        )
    )
    content = bytes(i % 251 for i in range(6 * PAGE))
    store.put("/x", content)
    reads = [(2 * PAGE + 5, 100), (4 * PAGE + 1, 20)]
    file = DavFile(client.context, "http://server/x")
    file.prefetch([(0, PAGE)])

    def op():
        pieces = yield from file.pread_vec(reads)
        yield from file.close()
        return pieces

    assert client.runtime.run(op()) == [content[o : o + n] for o, n in reads]
    assert file.engine.stats["misses"] == 2
    before = app.requests_handled
    again = client.pread_vec("http://server/x", reads)
    assert again == [content[o : o + n] for o, n in reads]
    assert app.requests_handled == before


def test_engine_miss_is_charged_once():
    """An off-plan vectored read misses the engine and is demanded by
    the resolver, which charges its bytes once."""
    client, _, store, _ = davix_world()
    content = bytes(i % 251 for i in range(400_000))
    store.put("/x", content)
    file = DavFile(client.context, "http://server/x")
    file.prefetch([(0, 1000), (5000, 1000)])

    def op():
        pieces = yield from file.pread_vec([(100_000, 500), (200_000, 700)])
        yield from file.close()
        return pieces

    pieces = client.runtime.run(op())
    assert pieces == [content[100_000:100_500], content[200_000:200_700]]
    assert file.engine.stats["misses"] == 2
    assert _delivered(client) == 1200
