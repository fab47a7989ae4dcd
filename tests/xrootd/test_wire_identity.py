"""What XrdServer puts on the wire, byte for byte, on both runtimes.

The server sends a reply as the buffers ``store.read`` returned, cut
where a frame ends; the reference joins the whole reply with the public
encoders and slices it per frame. The two must not differ by one byte:
frame boundaries every ``RESPONSE_CHUNK``, ``oksofar`` on every frame
but the last, no empty trailing frame after an exact multiple.
"""

import pytest

from repro.concurrency import Close, Connect, Recv, Send, ThreadRuntime
from repro.server import ObjectStore
from repro.xrootd import XrdServer, serve_xrootd
from repro.xrootd import protocol as proto
from repro.xrootd.server import RESPONSE_CHUNK as CHUNK

from tests.helpers import sim_world

PATH = "/data/f.root"
OPEN = proto.encode_request(1, proto.KXR_OPEN, proto.encode_open(PATH))
SIZE = 5 * CHUNK
CONTENT = (bytes(range(251)) * (SIZE // 251 + 1))[:SIZE]

#: name -> (offset, length) chunks of one readv; the reply is
#: 2 + sum(4 + clamped length) bytes.
READV_CASES = {
    "below": [(0, 10), (4 * CHUNK, 100), (5 * CHUNK // 2, 50)],
    "exactly-one-frame": [(7, CHUNK - 6)],
    "above": [(0, 700), (CHUNK, CHUNK - 100), (10, 5)],
    "exact-multiple": [(100, CHUNK - 10), (2 * CHUNK, CHUNK)],
    "length-prefix-straddles-a-frame": [(0, CHUNK - 7), (3 * CHUNK, 20)],
    "clamped-at-eof": [(SIZE - 100, 500), (0, CHUNK + 200)],
    "zero-length-and-past-eof": [
        (10, 0), (SIZE + 1000, 10), (SIZE, 1), (1, 5 * CHUNK // 2),
    ],
}

#: name -> (offset, length) of one read.
READ_CASES = {
    "below": (CHUNK, 500),
    "exact-multiple": (0, 3 * CHUNK),
    "above": (123, 2 * CHUNK + 345),
    "clamped-at-eof": (SIZE - 500, 4 * CHUNK),
    "empty": (SIZE, 10),
}


def reference(streamid, reply):
    """The parent's wire form: join the reply, slice it per frame."""
    if len(reply) <= CHUNK:
        return proto.encode_response(streamid, proto.STATUS_OK, reply)
    frames = []
    for position in range(0, len(reply), CHUNK):
        last = position + CHUNK >= len(reply)
        frames.append(
            proto.encode_response(
                streamid,
                proto.STATUS_OK if last else proto.STATUS_OKSOFAR,
                reply[position : position + CHUNK],
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


def run_sim(store, requests):
    client_rt, server_rt = sim_world(latency=0.005)
    server = XrdServer(store)
    serve_xrootd(server_rt, server, port=1094)
    return server, client_rt.run(exchange(("server", 1094), requests))


def run_sockets(store, requests):
    runtime = ThreadRuntime()
    server = XrdServer(store)
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


def check(run, request, reply, served, content=CONTENT):
    store = ObjectStore()
    store.put(PATH, content)
    expected_open = opened(len(content))
    expected = reference(2, reply)
    server, replies = run(
        store, [(OPEN, len(expected_open)), (request, len(expected))]
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
    assert len(reply) == 5 * CHUNK
    check(run, request, reply, sum(map(len, pieces)), content)


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
        [
            (OPEN, len(opened(len(CONTENT)))),
            (read, len(expected)),
            (ping, len(pong)),
        ],
    )
    assert replies == [opened(len(CONTENT)), expected, pong]
