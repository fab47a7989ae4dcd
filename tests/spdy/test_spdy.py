"""Tests for the SPDY-like multiplexed comparator."""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.concurrency import Await, Join, SimRuntime, Spawn
from repro.errors import ConnectionClosed, HttpProtocolError
from repro.http import Headers, Request
from repro.server import ObjectStore, StorageApp
from repro.spdy import SpdyClient, SpdyServer, serve_spdy
from repro.spdy import protocol as sp

from tests.helpers import sim_world


# -- protocol codecs ----------------------------------------------------------


def test_frame_roundtrip():
    wire = sp.encode_frame(7, sp.TYPE_DATA, b"abc", flags=sp.FLAG_FIN)
    reader = sp.FrameReader()
    reader.feed(wire)
    frame = reader.next_frame()
    assert frame == sp.Frame(7, sp.TYPE_DATA, sp.FLAG_FIN, b"abc")
    assert frame.fin
    assert reader.next_frame() is None


def test_frame_incremental():
    wire = sp.encode_frame(1, sp.TYPE_HEADERS, b"x" * 100)
    reader = sp.FrameReader()
    for i in range(0, len(wire), 7):
        reader.feed(wire[i : i + 7])
    assert reader.next_frame().payload == b"x" * 100


def test_oversized_frame_rejected():
    with pytest.raises(HttpProtocolError):
        sp.encode_frame(1, sp.TYPE_DATA, b"x" * (sp.MAX_FRAME_PAYLOAD + 1))


def test_request_head_roundtrip():
    headers = Headers([("Host", "h"), ("Range", "bytes=0-1")])
    blob = sp.encode_request_head("GET", "/data?x=1", headers)
    method, target, parsed = sp.decode_request_head(blob)
    assert method == "GET"
    assert target == "/data?x=1"
    assert parsed == headers


def test_response_head_roundtrip():
    headers = Headers([("Content-Type", "text/plain")])
    blob = sp.encode_response_head(206, headers)
    status, parsed = sp.decode_response_head(blob)
    assert status == 206
    assert parsed == headers


def test_header_block_is_compressed():
    headers = Headers([("X-Pad", "v" * 2000)])
    blob = sp.encode_request_head("GET", "/", headers)
    assert len(blob) < 500  # zlib'd


@pytest.mark.parametrize(
    "raw",
    [
        b"",  # no pair count
        b"\x00\x01\x00",  # a name length cut short
        b"\x00\x01\x00\x01a\x00\x00\x00\x64xyz",  # value runs past the end
        b"\x00\x01\x00\x01\xff\x00\x00\x00\x00",  # name is not UTF-8
        b"not zlib at all",
    ],
)
def test_malformed_header_block_is_a_typed_error(raw):
    blob = raw if raw.startswith(b"not") else zlib.compress(raw)
    for decode in (sp.decode_request_head, sp.decode_response_head):
        with pytest.raises(HttpProtocolError):
            decode(blob)


@given(
    st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("L", "N"),
                    whitelist_characters="-",
                ),
                min_size=1,
                max_size=20,
            ),
            st.text(max_size=100),
        ),
        max_size=10,
    )
)
def test_head_roundtrip_property(pairs):
    headers = Headers(pairs)
    blob = sp.encode_request_head("PUT", "/p", headers)
    method, target, parsed = sp.decode_request_head(blob)
    assert parsed == headers


# -- end to end ----------------------------------------------------------------


def spdy_world(latency=0.005, bandwidth=1e8):
    client_rt, server_rt = sim_world(latency=latency, bandwidth=bandwidth)
    store = ObjectStore()
    server = SpdyServer(StorageApp(store))
    serve_spdy(server_rt, server, port=443)
    return client_rt, store, server


def test_single_exchange():
    client_rt, store, server = spdy_world()
    store.put("/x", b"spdy-payload")

    def op():
        client = yield from SpdyClient.connect(("server", 443))
        response = yield from client.request(Request("GET", "/x"))
        yield from client.disconnect()
        return response

    response = client_rt.run(op())
    assert response.status == 200
    assert response.body == b"spdy-payload"


def test_put_with_body():
    client_rt, store, server = spdy_world()

    def op():
        client = yield from SpdyClient.connect(("server", 443))
        response = yield from client.request(
            Request("PUT", "/new", body=b"uploaded")
        )
        return response.status

    assert client_rt.run(op()) == 201
    assert store.read("/new") == b"uploaded"


def test_many_streams_one_connection():
    client_rt, store, server = spdy_world()
    for i in range(10):
        store.put(f"/f{i}", f"value-{i}".encode())

    def op():
        client = yield from SpdyClient.connect(("server", 443))
        promises = []
        for i in range(10):
            promise = yield from client.request_nowait(
                Request("GET", f"/f{i}")
            )
            promises.append(promise)
        bodies = []
        for promise in promises:
            response = yield Await(promise)
            bodies.append(response.body)
        return bodies

    bodies = client_rt.run(op())
    assert bodies == [f"value-{i}".encode() for i in range(10)]
    assert client_rt.network.host("server").counters[
        "connections_accepted"
    ] == 1


def test_multiplexing_avoids_hol():
    client_rt, store, server = spdy_world(latency=0.01, bandwidth=2e6)
    store.put("/big", b"B" * 2_000_000)
    store.put("/small", b"s")

    def op():
        client = yield from SpdyClient.connect(("server", 443))
        big_promise = yield from client.request_nowait(
            Request("GET", "/big")
        )
        small_promise = yield from client.request_nowait(
            Request("GET", "/small")
        )
        yield Await(small_promise)
        small_done = client_rt.now()
        yield Await(big_promise)
        big_done = client_rt.now()
        return small_done, big_done

    small_done, big_done = client_rt.run(op())
    assert small_done < big_done * 0.5  # DATA frames interleaved


def test_range_request_over_spdy():
    client_rt, store, server = spdy_world()
    store.put("/x", b"0123456789")

    def op():
        client = yield from SpdyClient.connect(("server", 443))
        response = yield from client.request(
            Request("GET", "/x", Headers([("Range", "bytes=2-5")]))
        )
        return response

    response = client_rt.run(op())
    assert response.status == 206
    assert response.body == b"2345"


def test_server_death_rejects_pending_streams():
    client_rt, store, server = spdy_world()
    store.put("/x", b"data")

    def op():
        client = yield from SpdyClient.connect(("server", 443))
        promise = yield from client.request_nowait(Request("GET", "/x"))
        client_rt.network.host("server").fail()
        try:
            yield Await(promise)
        except ConnectionClosed:
            return "lost"

    assert client_rt.run(op()) == "lost"


def test_tls_is_mandatory():
    # A SPDY client against a missing TLS peer (nothing listening that
    # speaks the handshake) must fail, not hang: point it at a plain
    # HTTP storage server.
    from repro.server import HttpServer

    client_rt, server_rt = sim_world()
    HttpServer(server_rt, StorageApp(ObjectStore()), port=80).start()

    def op():
        try:
            yield from SpdyClient.connect(("server", 80))
        except (HttpProtocolError, ConnectionClosed):
            return "refused"

    assert client_rt.run(op()) == "refused"


def test_large_upload_chunks_body_frames():
    client_rt, store, server = spdy_world()
    payload = bytes(range(256)) * 4096  # 1 MiB > frame cap

    def op():
        client = yield from SpdyClient.connect(("server", 443))
        response = yield from client.request(
            Request("PUT", "/big", body=payload)
        )
        return response.status

    assert client_rt.run(op()) == 201
    assert store.read("/big") == payload


def test_large_download_chunks_response_frames():
    client_rt, store, server = spdy_world()
    payload = b"D" * 1_000_000
    store.put("/big", payload)

    def op():
        client = yield from SpdyClient.connect(("server", 443))
        response = yield from client.request(Request("GET", "/big"))
        return response.body

    assert client_rt.run(op()) == payload
