"""Multistream chunk-boundary properties for third-party copy.

Pure :func:`plan_chunks` invariants plus full-simulation byte-identity:
for any object size and chunk size — including sizes not divisible by
the chunk, a single-byte final chunk, and the zero-length source — a
multi-stream TPC commits bytes identical to a single-stream one, and
both identical to the payload.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency import SimRuntime
from repro.core import DavixClient, RequestParams
from repro.http.ranges import plan_chunks
from repro.net import LinkSpec, Network
from repro.server import HttpServer, ObjectStore, ServerConfig, StorageApp
from repro.sim import Environment

from tests.helpers import NO_RETRY


@given(
    size=st.integers(min_value=0, max_value=1 << 16),
    chunk=st.integers(min_value=1, max_value=1 << 10),
    scale=st.sampled_from([1, 1 << 20]),
)
def test_plan_chunks_partitions_exactly(size, chunk, scale):
    # `scale` exercises multi-terabyte objects without materialising
    # billions of chunks: the chunk count stays bounded by size/chunk.
    size, chunk = size * scale, chunk * scale
    chunks = plan_chunks(size, chunk)
    # Chunks tile [0, size) in order with no gaps or overlap.
    position = 0
    for offset, length in chunks:
        assert offset == position
        assert 0 < length <= chunk
        position += length
    assert position == size
    # Every chunk but the last is full-size; the last may be any
    # remainder down to a single byte.
    for offset, length in chunks[:-1]:
        assert length == chunk
    if size == 0:
        assert chunks == []


@given(chunk=st.integers(min_value=2, max_value=1 << 20))
def test_plan_chunks_single_byte_final_chunk(chunk):
    # size ≡ 1 (mod chunk): the remainder chunk is exactly one byte.
    size = chunk * 3 + 1
    chunks = plan_chunks(size, chunk)
    assert chunks[-1] == (chunk * 3, 1)


def tpc_world(chunk_size, streams):
    env = Environment()
    net = Network(env, seed=7)
    for name in ("client", "site-a", "site-b"):
        net.add_host(name)
    net.set_route(
        "site-a", "site-b", LinkSpec(latency=0.002, bandwidth=125_000_000)
    )
    default = LinkSpec(latency=0.01, bandwidth=12_500_000)
    net.set_route("client", "site-a", default)
    net.set_route("client", "site-b", default)
    apps = {}
    for name in ("site-a", "site-b"):
        app = StorageApp(
            ObjectStore(),
            config=ServerConfig(tpc_chunk=chunk_size, tpc_streams=streams),
        )
        HttpServer(SimRuntime(net, name), app, port=80).start()
        apps[name] = app
    client = DavixClient(
        SimRuntime(net, "client"), params=RequestParams(retry_policy=NO_RETRY)
    )
    return client, apps


@settings(
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    size=st.one_of(
        st.integers(min_value=0, max_value=4096),
        # Sizes straddling chunk multiples (single-byte tails etc.).
        st.builds(
            lambda k, d: max(0, k * 1024 + d),
            st.integers(0, 4),
            st.integers(-2, 2),
        ),
    ),
    mode=st.sampled_from(["pull", "push"]),
)
def test_multistream_tpc_byte_identical_to_single_stream(size, mode):
    payload = bytes((i * 131 + 17) % 256 for i in range(size))

    committed = {}
    for streams in (1, 4):
        client, apps = tpc_world(chunk_size=1024, streams=streams)
        apps["site-a"].store.put("/src", payload)
        summary = client.third_party_copy(
            "http://site-a/src",
            "http://site-b/dst",
            mode=mode,
            streams=streams,
        )
        assert summary.ok
        committed[streams] = apps["site-b"].store.read("/dst")

    assert committed[1] == committed[4] == payload


def test_plan_chunks_rejects_a_negative_size_or_an_empty_chunk():
    import pytest

    with pytest.raises(ValueError):
        plan_chunks(-1, 8)
    with pytest.raises(ValueError):
        plan_chunks(8, 0)
