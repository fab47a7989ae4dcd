"""An idle kept-alive connection pins nothing of what it already sent.

Session recycling (paper §2.2) means many connections that sit idle
between requests. Each must be back to its floor once a response is
out: the request, the response and its pieces are the peer's now. Both
servers, and the XRootD client's demultiplexer, are held to that on
both runtimes, after an 8 MiB two-range read whose result the client
has dropped while the connection stays open.
"""

from repro.concurrency import Connect, Recv, Send, Sleep, ThreadRuntime
from repro.core import DavixClient
from repro.server import ObjectStore, StorageApp, real_server
from repro.xrootd import XrdClient, XrdServer, serve_xrootd
from repro.xrootd import protocol as proto

from tests.helpers import davix_world, sim_world, traced_peak

MIB = 1 << 20
#: Two 4 MiB ranges a MiB apart: never coalesced, an 8 MiB response.
RANGES = [(0, 4 * MIB), (5 * MIB, 4 * MIB)]
CONTENT = bytes(9 * MIB)
PATH = "/data/blob"


def settled(held):
    """Under a MiB: what a server thread still finishing the request
    it has just answered is given time to reach."""
    return held < MIB


def pause(seconds):
    """Effect op: let simulated time pass, so the server loops back to
    waiting for the connection's next request."""
    yield Sleep(seconds)


# -- HTTP ----------------------------------------------------------------------


def test_idle_http_connection_retains_no_response_sim():
    client, _app, store, _ = davix_world(bandwidth=1e9)
    store.put(PATH, CONTENT)

    def read_then_idle():
        chunks = client.pread_vec(f"http://server{PATH}", RANGES)
        client.runtime.run(pause(1.0))
        return sum(map(len, chunks))

    received, _, held = traced_peak(read_then_idle)
    assert received == 8 * MIB
    assert client.context.pool.idle_count() == 1  # still kept alive
    assert held < MIB


def test_idle_http_connection_retains_no_response_sockets():
    store = ObjectStore()
    store.put(PATH, CONTENT)
    client = DavixClient(ThreadRuntime())
    with real_server(StorageApp(store)) as server:
        url = f"http://127.0.0.1:{server.port}{PATH}"
        received, _, held = traced_peak(
            lambda: sum(map(len, client.pread_vec(url, RANGES))), settled
        )
        assert client.context.pool.idle_count() == 1
        client.context.pool.clear()
    assert received == 8 * MIB
    assert held < MIB


# -- XRootD --------------------------------------------------------------------


def readv_left_open(endpoint):
    """Effect op: open ``PATH`` and readv ``RANGES`` on one connection,
    dropping each reply frame as it arrives; the connection is left
    open and idle. Returns ``(channel, payload bytes received)``."""
    channel = yield Connect(endpoint)
    reader = proto.FrameReader()
    received = 0
    for request in (
        proto.encode_request(1, proto.KXR_OPEN, proto.encode_open(PATH)),
        proto.encode_request(
            2,
            proto.KXR_READV,
            proto.encode_readv([(1, o, n) for o, n in RANGES]),
        ),
    ):
        yield Send(channel, request)
        status = proto.STATUS_OKSOFAR
        while status == proto.STATUS_OKSOFAR:
            frame = reader.next_pieces()
            if frame is None:
                reader.feed((yield Recv(channel)))
                continue
            _, status, pieces = frame
            received += sum(map(len, pieces))
    return channel, received


def test_idle_xrootd_connection_retains_no_response_sim():
    client_rt, server_rt = sim_world(bandwidth=1e9)
    store = ObjectStore()
    store.put(PATH, CONTENT)
    serve_xrootd(server_rt, XrdServer(store), port=1094)

    def read_then_idle():
        opened = client_rt.run(readv_left_open(("server", 1094)))
        client_rt.run(pause(1.0))
        return opened

    (channel, received), _, held = traced_peak(read_then_idle)
    assert received > 8 * MIB
    assert not channel.closed
    assert held < MIB


def test_idle_xrootd_connection_retains_no_response_sockets():
    store = ObjectStore()
    store.put(PATH, CONTENT)
    runtime = ThreadRuntime()
    loop = serve_xrootd(runtime, XrdServer(store), port=0)
    try:
        (channel, received), _, held = traced_peak(
            lambda: runtime.run(readv_left_open(("127.0.0.1", loop.port))),
            settled,
        )
        assert received > 8 * MIB
        channel.close()
    finally:
        loop.stop()
    assert held < MIB


# -- XRootD client ---------------------------------------------------------------
#
# The twin on the other end: the client's demultiplexer sits in ``Recv``
# for the next frame once a reply is handed over, and must not keep it.


def client_readv_left_open(endpoint):
    """Effect op: the same readv through :class:`XrdClient`, its result
    dropped; the client stays connected. Returns ``(client, bytes)``."""
    client = yield from XrdClient.connect(endpoint)
    remote = yield from client.open(PATH)
    pieces = yield from client.readv(remote, RANGES)
    return client, sum(map(len, pieces))


def test_idle_xrootd_client_retains_no_response_sim():
    client_rt, server_rt = sim_world(bandwidth=1e9)
    store = ObjectStore()
    store.put(PATH, CONTENT)
    serve_xrootd(server_rt, XrdServer(store), port=1094)

    def read_then_idle():
        opened = client_rt.run(client_readv_left_open(("server", 1094)))
        client_rt.run(pause(1.0))
        return opened

    (client, received), _, held = traced_peak(read_then_idle)
    assert received == 8 * MIB
    assert not client.channel.closed
    assert held < MIB


def test_idle_xrootd_client_retains_no_response_sockets():
    store = ObjectStore()
    store.put(PATH, CONTENT)
    runtime = ThreadRuntime()
    loop = serve_xrootd(runtime, XrdServer(store), port=0)
    try:
        (client, received), _, held = traced_peak(
            lambda: runtime.run(
                client_readv_left_open(("127.0.0.1", loop.port))
            ),
            settled,
        )
        assert received == 8 * MIB
        runtime.run(client.disconnect())
    finally:
        loop.stop()
    assert held < MIB
