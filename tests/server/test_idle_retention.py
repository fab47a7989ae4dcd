"""An idle kept-alive connection pins nothing of what it already sent.

Session recycling (paper §2.2) means many connections that sit idle
between requests. Each must be back to its floor once a response is
out: the request, the response and its pieces are the peer's now. Both
servers, and the XRootD client's demultiplexer, are held to that on
both runtimes, after an 8 MiB two-range read whose result the client
has dropped while the connection stays open.
"""

import time
import tracemalloc
from contextlib import contextmanager

from repro.concurrency import Connect, Recv, Send, Sleep, ThreadRuntime
from repro.core import DavixClient
from repro.server import ObjectStore, StorageApp, real_server
from repro.xrootd import XrdClient, XrdServer, serve_xrootd
from repro.xrootd import protocol as proto

from tests.helpers import davix_world, sim_world

MIB = 1 << 20
#: Two 4 MiB ranges a MiB apart: never coalesced, an 8 MiB response.
RANGES = [(0, 4 * MIB), (5 * MIB, 4 * MIB)]
CONTENT = bytes(9 * MIB)
PATH = "/data/blob"


@contextmanager
def traced():
    """Yields a function that reads the bytes traced now."""
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[0]
    finally:
        if started_here:
            tracemalloc.stop()


def settled(now, before, seconds=5.0):
    """Traced growth over ``before`` once it is under a MiB, or after
    ``seconds``: a server thread may still be finishing the request it
    has just answered."""
    deadline = time.monotonic() + seconds
    grown = now() - before
    while grown >= MIB and time.monotonic() < deadline:
        time.sleep(0.01)
        grown = now() - before
    return grown


def pause(seconds):
    """Effect op: let simulated time pass, so the server loops back to
    waiting for the connection's next request."""
    yield Sleep(seconds)


# -- HTTP ----------------------------------------------------------------------


def test_idle_http_connection_retains_no_response_sim():
    client, _app, store, _ = davix_world(bandwidth=1e9)
    store.put(PATH, CONTENT)
    with traced() as now:
        before = now()
        chunks = client.pread_vec(f"http://server{PATH}", RANGES)
        assert sum(map(len, chunks)) == 8 * MIB
        del chunks
        client.runtime.run(pause(1.0))
        grown = now() - before
    assert client.context.pool.idle_count() == 1  # still kept alive
    assert grown < MIB


def test_idle_http_connection_retains_no_response_sockets():
    store = ObjectStore()
    store.put(PATH, CONTENT)
    client = DavixClient(ThreadRuntime())
    with real_server(StorageApp(store)) as server:
        url = f"http://127.0.0.1:{server.port}{PATH}"
        with traced() as now:
            before = now()
            chunks = client.pread_vec(url, RANGES)
            assert sum(map(len, chunks)) == 8 * MIB
            del chunks
            grown = settled(now, before)
        assert client.context.pool.idle_count() == 1
        client.context.pool.clear()
    assert grown < MIB


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
    with traced() as now:
        before = now()
        channel, received = client_rt.run(readv_left_open(("server", 1094)))
        client_rt.run(pause(1.0))
        grown = now() - before
    assert received > 8 * MIB
    assert not channel.closed
    assert grown < MIB


def test_idle_xrootd_connection_retains_no_response_sockets():
    store = ObjectStore()
    store.put(PATH, CONTENT)
    runtime = ThreadRuntime()
    loop = serve_xrootd(runtime, XrdServer(store), port=0)
    try:
        with traced() as now:
            before = now()
            channel, received = runtime.run(
                readv_left_open(("127.0.0.1", loop.port))
            )
            grown = settled(now, before)
        assert received > 8 * MIB
        channel.close()
    finally:
        loop.stop()
    assert grown < MIB


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
    with traced() as now:
        before = now()
        client, received = client_rt.run(
            client_readv_left_open(("server", 1094))
        )
        client_rt.run(pause(1.0))
        grown = now() - before
    assert received == 8 * MIB
    assert not client.channel.closed
    assert grown < MIB


def test_idle_xrootd_client_retains_no_response_sockets():
    store = ObjectStore()
    store.put(PATH, CONTENT)
    runtime = ThreadRuntime()
    loop = serve_xrootd(runtime, XrdServer(store), port=0)
    try:
        with traced() as now:
            before = now()
            client, received = runtime.run(
                client_readv_left_open(("127.0.0.1", loop.port))
            )
            grown = settled(now, before)
        assert received == 8 * MIB
        runtime.run(client.disconnect())
    finally:
        loop.stop()
    assert grown < MIB
