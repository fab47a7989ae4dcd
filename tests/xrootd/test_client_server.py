"""End-to-end XRootD client/server tests over the simulator."""

import pytest

from repro.concurrency import Accept, Close, Connect, Recv, Send
from repro.errors import ConnectionClosed, XrootdError
from repro.server import ObjectStore
from repro.xrootd import (
    ReadAheadWindow,
    XrdClient,
    XrdFile,
    XrdServer,
    serve_xrootd,
)
from repro.xrootd import protocol as proto

from tests.helpers import sim_world


def xrd_world(latency=0.005, bandwidth=1e8):
    client_rt, server_rt = sim_world(latency=latency, bandwidth=bandwidth)
    store = ObjectStore()
    server = XrdServer(store)
    serve_xrootd(server_rt, server, port=1094)
    return client_rt, store, server


def test_open_stat_read_close():
    client_rt, store, server = xrd_world()
    content = bytes(i % 251 for i in range(100_000))
    store.put("/data/f.root", content)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        yield from client.ping()
        size, is_dir = yield from client.stat("/data/f.root")
        f = yield from client.open("/data/f.root")
        data = yield from client.read(f, 1000, 500)
        yield from client.close_file(f)
        yield from client.disconnect()
        return size, is_dir, f.size, data

    size, is_dir, fsize, data = client_rt.run(op())
    assert size == fsize == len(content)
    assert not is_dir
    assert data == content[1000:1500]


def test_open_missing_file_errors():
    client_rt, store, server = xrd_world()

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        try:
            yield from client.open("/nope")
        except XrootdError as exc:
            return str(exc)

    assert "no such object" in client_rt.run(op())


def test_readv_returns_chunks_in_order():
    client_rt, store, server = xrd_world()
    content = bytes(i % 251 for i in range(50_000))
    store.put("/x", content)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        f = yield from client.open("/x")
        chunks = yield from client.readv(
            f, [(0, 10), (40_000, 100), (25_000, 50)]
        )
        return chunks

    chunks = client_rt.run(op())
    assert chunks == [
        content[0:10],
        content[40_000:40_100],
        content[25_000:25_050],
    ]


def test_concurrent_reads_multiplex_out_of_order():
    """A big read issued first must not delay a small read issued
    second — the core multiplexing property HTTP/1.1 lacks."""
    client_rt, store, server = xrd_world(latency=0.01, bandwidth=2e6)
    store.put("/big", b"B" * 2_000_000)
    store.put("/small", b"s" * 10)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        big = yield from client.open("/big")
        small = yield from client.open("/small")
        big_promise = yield from client.read_nowait(big, 0, 2_000_000)
        small_promise = yield from client.read_nowait(small, 0, 10)
        small_data = yield from client.read_result(small_promise)
        small_done = client_rt.now()
        big_data = yield from client.read_result(big_promise)
        big_done = client_rt.now()
        return small_data, small_done, len(big_data), big_done

    small_data, small_done, big_len, big_done = client_rt.run(op())
    assert small_data == b"s" * 10
    assert big_len == 2_000_000
    assert small_done < big_done * 0.5  # small finished long before


def test_connection_loss_rejects_pending_reads():
    client_rt, store, server = xrd_world()
    store.put("/x", b"data" * 1000)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        f = yield from client.open("/x")
        promise = yield from client.read_nowait(f, 0, 4000)
        client_rt.network.host("server").fail()
        try:
            yield from client.read_result(promise)
        except Exception as exc:
            return type(exc).__name__

    assert client_rt.run(op()) in ("ConnectionClosed",)


def test_readahead_window_hits_planned_reads():
    client_rt, store, server = xrd_world(latency=0.05)
    content = bytes(i % 251 for i in range(1_000_000))
    store.put("/x", content)
    segments = [(i * 10_000, 10_000) for i in range(100)]

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        f = yield from client.open("/x")
        window = ReadAheadWindow(client, f, window_bytes=100_000)
        window.set_plan(segments)
        out = bytearray()
        for offset, length in segments:
            data = yield from window.read(offset, length)
            out.extend(data)
        return bytes(out), window.stats

    data, stats = client_rt.run(op())
    assert data == content
    assert stats["hits"] == 100
    assert stats["misses"] == 0


def test_readahead_hides_latency_vs_sync_reads():
    """With 100 ms RTT, 50 planned reads: sync pays 50 RTTs, the window
    overlaps them."""
    segments = [(i * 1000, 1000) for i in range(50)]

    def run(window_bytes):
        client_rt, store, server = xrd_world(latency=0.05, bandwidth=1e8)
        store.put("/x", bytes(100_000))

        def op():
            client = yield from XrdClient.connect(("server", 1094))
            f = yield from client.open("/x")
            window = ReadAheadWindow(client, f, window_bytes=window_bytes)
            window.set_plan(segments)
            for offset, length in segments:
                yield from window.read(offset, length)
            return client_rt.now()

        return client_rt.run(op())

    sync_ish = run(window_bytes=1)  # window of 1 byte: no overlap
    windowed = run(window_bytes=64_000)
    assert windowed < sync_ish / 5


def test_off_plan_read_falls_back_to_sync():
    client_rt, store, server = xrd_world()
    store.put("/x", bytes(range(256)))

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        f = yield from client.open("/x")
        window = ReadAheadWindow(client, f, window_bytes=1000)
        window.set_plan([(0, 10)])
        surprise = yield from window.read(100, 10)  # not in the plan
        planned = yield from window.read(0, 10)
        yield from window.drain()
        return surprise, planned, dict(window.stats)

    surprise, planned, stats = client_rt.run(op())
    assert surprise == bytes(range(100, 110))
    assert planned == bytes(range(10))
    assert stats["misses"] == 1
    assert stats["hits"] == 1


def test_bad_handle_errors():
    client_rt, store, server = xrd_world()
    store.put("/x", b"abc")

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        f = yield from client.open("/x")
        f.handle = 999
        try:
            yield from client.read(f, 0, 3)
        except XrootdError as exc:
            return str(exc)

    assert "bad file handle" in client_rt.run(op())


def test_server_counters():
    client_rt, store, server = xrd_world()
    store.put("/x", b"0123456789")

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        f = yield from client.open("/x")
        yield from client.read(f, 0, 10)
        yield from client.read(f, 0, 5)

    client_rt.run(op())
    assert server.requests_handled == 3  # open + 2 reads
    assert server.bytes_served == 15


# -- malformed requests, rogue servers ----------------------------------------


def raw_frames(endpoint, requests):
    """Effect op: send raw request frames one at a time; the
    ``(streamid, status, payload)`` each is answered with."""
    channel = yield Connect(endpoint)
    reader = proto.FrameReader()
    replies = []
    for request in requests:
        yield Send(channel, request)
        while True:
            frame = reader.next_frame()
            if frame is not None:
                break
            data = yield Recv(channel)
            assert data, "server dropped the connection"
            reader.feed(data)
        replies.append(frame)
    return replies


def test_malformed_request_gets_an_error_frame_and_the_connection_survives():
    """A payload shorter than its own length field used to raise
    struct.error out of the whole simulated run."""
    client_rt, store, server = xrd_world()
    store.put("/x", b"0123456789")
    requests = [
        proto.encode_request(1, proto.KXR_OPEN, b"\x00"),
        proto.encode_request(2, proto.KXR_OPEN, b"\x00\x02\xff\xfe"),
        proto.encode_request(3, proto.KXR_STAT, b""),
        proto.encode_request(4, proto.KXR_READV, b"\x01"),
        proto.encode_request(5, proto.KXR_OPEN, proto.encode_open("/x")),
        proto.encode_request(6, proto.KXR_READ, proto.encode_read(1, 2, 3)),
    ]
    replies = client_rt.run(raw_frames(("server", 1094), requests))
    assert [(sid, status) for sid, status, _ in replies] == [
        (1, proto.STATUS_ERROR),
        (2, proto.STATUS_ERROR),
        (3, proto.STATUS_ERROR),
        (4, proto.STATUS_ERROR),
        (5, proto.STATUS_OK),
        (6, proto.STATUS_OK),
    ]
    assert replies[5][2] == b"234"
    assert server.requests_handled == 6


def rogue_server(listener, script):
    """Effect op: accept one connection, wait for the first request,
    then send what ``script(streamid)`` lists and close."""
    channel = yield Accept(listener)
    reader = proto.FrameReader()
    while True:
        frame = reader.next_frame()
        if frame is not None:
            break
        reader.feed((yield Recv(channel)))
    for wire in script(frame[0]):
        yield Send(channel, wire)
    yield Close(channel)


def rogue_world(script):
    client_rt, server_rt = sim_world(latency=0.005)
    server_rt.spawn(rogue_server(server_rt.listen(1094), script))
    return client_rt


def test_partials_for_a_stream_nobody_awaits_are_dropped():
    """A server streaming oksofar frames for an id the client never
    issued used to grow ``_partials`` without limit."""

    def script(streamid):
        flood = proto.encode_response(999, proto.STATUS_OKSOFAR, b"x" * 1000)
        return [
            proto.encode_response(999, proto.STATUS_OK, b"unasked"),
            *[flood] * 50,
            proto.encode_response(streamid, proto.STATUS_OKSOFAR, b"he"),
            flood,
            proto.encode_response(streamid, proto.STATUS_OK, b"llo"),
        ]

    client_rt = rogue_world(script)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        file = XrdFile(client, 1, 5, "/x")
        promise = yield from client.read_nowait(file, 0, 5)
        data = yield from client.read_result(promise)
        return data, dict(client._partials), client.bytes_read

    assert client_rt.run(op()) == (b"hello", {}, 5)


def test_connection_loss_drops_buffered_partials():
    def script(streamid):
        return [proto.encode_response(streamid, proto.STATUS_OKSOFAR, b"half")]

    client_rt = rogue_world(script)

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        file = XrdFile(client, 1, 8, "/x")
        promise = yield from client.read_nowait(file, 0, 8)
        try:
            yield from client.read_result(promise)
        except ConnectionClosed:
            return dict(client._partials), dict(client._pending)

    assert client_rt.run(op()) == ({}, {})


def test_streamed_reply_reaches_the_caller_as_bytes():
    """Reads and readv chunks larger than a frame and than a receive
    burst come back as plain bytes, equal to the stored content."""
    client_rt, store, server = xrd_world()
    content = bytes(i % 241 for i in range(1_200_000))
    store.put("/x", content)
    chunks = [(0, 600_000), (599_000, 300_000), (1_199_990, 100), (5, 0)]

    def op():
        client = yield from XrdClient.connect(("server", 1094))
        f = yield from client.open("/x")
        whole = yield from client.read(f, 100, 1_000_000)
        pieces = yield from client.readv(f, chunks)
        return whole, pieces, client.bytes_read

    whole, pieces, bytes_read = client_rt.run(op())
    assert whole == content[100:1_000_100]
    assert pieces == [content[o : o + n] for o, n in chunks]
    assert all(type(piece) is bytes for piece in [whole, *pieces])
    assert bytes_read == 1_000_000 + 600_000 + 300_000 + 10
    assert server.bytes_served == store.bytes_read == bytes_read
