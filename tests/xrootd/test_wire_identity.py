"""What XrdServer puts on the wire, byte for byte, on both runtimes.

The server sends a reply as the buffers ``store.read`` returned, cut
where a frame ends; the reference joins the whole reply with the public
encoders and slices it per frame. The two must not differ by one byte:
frame boundaries every ``response_chunk``, ``oksofar`` on every frame
but the last, no empty trailing frame after an exact multiple.
"""

import pytest

from repro.concurrency import Close, Connect, Recv, Send, ThreadRuntime
from repro.server import ObjectStore
from repro.xrootd import XrdServer, XrdServerConfig, serve_xrootd
from repro.xrootd import protocol as proto

from tests.helpers import sim_world

PATH = "/data/f.root"
OPEN = proto.encode_request(1, proto.KXR_OPEN, proto.encode_open(PATH))
CONTENT = bytes(i % 251 for i in range(5000))
CHUNK = 1000

#: name -> (offset, length) chunks of one readv; the reply is
#: 2 + sum(4 + clamped length) bytes.
READV_CASES = {
    "below": [(0, 10), (4000, 100), (2500, 50)],
    "exactly-one-frame": [(7, 994)],
    "above": [(0, 700), (1000, 900), (10, 5)],
    "exact-multiple": [(100, 990), (2000, 1000)],
    "length-prefix-straddles-a-frame": [(0, 993), (3000, 20)],
    "clamped-at-eof": [(4900, 500), (0, 1200)],
    "zero-length-and-past-eof": [(10, 0), (6000, 10), (5000, 1), (1, 2500)],
}

#: name -> (offset, length) of one read.
READ_CASES = {
    "below": (1000, 500),
    "exact-multiple": (0, 3000),
    "above": (123, 2345),
    "clamped-at-eof": (4500, 4000),
    "empty": (5000, 10),
}


def reference(streamid, reply, chunk=CHUNK):
    """The parent's wire form: join the reply, slice it per frame."""
    if len(reply) <= chunk:
        return proto.encode_response(streamid, proto.STATUS_OK, reply)
    frames = []
    for position in range(0, len(reply), chunk):
        last = position + chunk >= len(reply)
        frames.append(
            proto.encode_response(
                streamid,
                proto.STATUS_OK if last else proto.STATUS_OKSOFAR,
                reply[position : position + chunk],
            )
        )
    return b"".join(frames)


def exchange(endpoint, requests):
    """Effect op: one connection; each ``(frame, expect)`` request is
    sent alone and exactly ``expect`` bytes are read back."""
    channel = yield Connect(endpoint)
    replies = []
    for frame, expect in requests:
        yield Send(channel, frame)
        reply = bytearray()
        while len(reply) < expect:
            data = yield Recv(channel)
            if not data:
                break
            reply.extend(data)
        replies.append(bytes(reply))
    yield Close(channel)
    return replies


def run_sim(store, config, requests):
    client_rt, server_rt = sim_world(latency=0.005)
    server = XrdServer(store, config)
    serve_xrootd(server_rt, server, port=1094)
    return server, client_rt.run(exchange(("server", 1094), requests))


def run_sockets(store, config, requests):
    runtime = ThreadRuntime()
    server = XrdServer(store, config)
    loop = serve_xrootd(runtime, server, port=0)
    try:
        endpoint = ("127.0.0.1", loop.port)
        return server, runtime.run(exchange(endpoint, requests))
    finally:
        loop.stop()


RUNTIMES = pytest.mark.parametrize(
    "run", [run_sim, run_sockets], ids=["sim", "sockets"]
)


def opened(size):
    """What ``OPEN`` is answered with on a fresh connection."""
    return proto.encode_response(
        1, proto.STATUS_OK, proto.encode_open_reply(1, size)
    )


def check(run, request, reply, served, chunk=CHUNK, content=CONTENT):
    store = ObjectStore()
    store.put(PATH, content)
    expected_open = opened(len(content))
    expected = reference(2, reply, chunk)
    server, replies = run(
        store,
        XrdServerConfig(response_chunk=chunk),
        [(OPEN, len(expected_open)), (request, len(expected))],
    )
    assert replies == [expected_open, expected]
    # The same totals the joined path counted: every byte read once.
    assert server.bytes_served == store.bytes_read == served
    assert server.requests_handled == 2


@RUNTIMES
@pytest.mark.parametrize("case", READV_CASES)
def test_readv_wire_bytes_equal_the_joined_reference(run, case):
    chunks = READV_CASES[case]
    pieces = [CONTENT[offset : offset + length] for offset, length in chunks]
    request = proto.encode_request(
        2,
        proto.KXR_READV,
        proto.encode_readv([(1, offset, length) for offset, length in chunks]),
    )
    reply = proto.encode_readv_reply(pieces)
    check(run, request, reply, sum(map(len, pieces)))


@RUNTIMES
@pytest.mark.parametrize("case", READ_CASES)
def test_read_wire_bytes_equal_the_joined_reference(run, case):
    offset, length = READ_CASES[case]
    request = proto.encode_request(
        2, proto.KXR_READ, proto.encode_read(1, offset, length)
    )
    reply = CONTENT[offset : offset + length]
    check(run, request, reply, len(reply))


@RUNTIMES
def test_default_frame_size_on_a_basket_sized_readv(run):
    """The paper job's shape, 600 KB chunks against 256 KiB frames; the
    last chunk is clamped and the reply is five frames exactly."""
    content = bytes(i % 249 for i in range(1_500_000))
    chunks = [(0, 600_000), (700_000, 610_706), (1_400_000, 200_000)]
    pieces = [content[o : o + n] for o, n in chunks]
    request = proto.encode_request(
        2,
        proto.KXR_READV,
        proto.encode_readv([(1, o, n) for o, n in chunks]),
    )
    reply = proto.encode_readv_reply(pieces)
    chunk = XrdServerConfig().response_chunk
    assert len(reply) == 5 * chunk
    check(run, request, reply, sum(map(len, pieces)), chunk, content)


def test_no_frame_follows_an_exact_multiple():
    """After the last full frame the server is silent: the next bytes on
    the connection are the next request's reply."""
    store = ObjectStore()
    store.put(PATH, CONTENT)
    read = proto.encode_request(
        2, proto.KXR_READ, proto.encode_read(1, 0, 2 * CHUNK)
    )
    ping = proto.encode_request(3, proto.KXR_PING)
    expected = reference(2, CONTENT[: 2 * CHUNK])
    pong = proto.encode_response(3, proto.STATUS_OK)
    _server, replies = run_sim(
        store,
        XrdServerConfig(response_chunk=CHUNK),
        [
            (OPEN, len(opened(len(CONTENT)))),
            (read, len(expected)),
            (ping, len(pong)),
        ],
    )
    assert replies == [opened(len(CONTENT)), expected, pong]


def test_frame_size_is_validated():
    for bad in (0, -1, proto.MAX_DLEN + 1):
        with pytest.raises(ValueError):
            XrdServerConfig(response_chunk=bad)
