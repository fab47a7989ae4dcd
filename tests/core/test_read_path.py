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

#: name -> (TransferConfig fields, server multirange, warm the cache?)
STAGES = {
    "no-cache": ({}, True, False),
    "cache-cold": ({"page_cache_bytes": 1 << 16}, True, False),
    "cache-warm": ({"page_cache_bytes": 1 << 16}, True, True),
    "engine": ({"read_ahead": True}, True, False),
    "cache+engine": (
        {"page_cache_bytes": 1 << 16, "read_ahead": True}, True, True,
    ),
    # Two non-adjacent gaps around the warm page make the gap fill a
    # multi-range GET, which this server answers with a full 200.
    "no-multirange": ({"page_cache_bytes": 1 << 16}, False, True),
    # One page of budget: a gap fill of a longer read cannot converge
    # and falls through to the demanded request.
    "tiny-budget": ({"page_cache_bytes": PAGE}, True, False),
}


def _world(stage, content):
    fields, multirange, warm = STAGES[stage]
    if "page_cache_bytes" in fields:
        fields = dict(fields, page_size=PAGE)
    client, app, store, _ = davix_world(
        params=RequestParams(transfer=TransferConfig(**fields)),
        config=ServerConfig(multirange=multirange),
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
    if vector:
        (data,) = client.pread_vec("http://server/x", [(offset, length)])
    else:
        data = client.pread("http://server/x", offset, length)
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


def test_engine_miss_is_charged_once():
    """An off-plan vectored read falls from the engine to the demanded
    path inside ``read_vec``; its bytes are charged by the resolver,
    once (they used to be charged by both)."""
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
