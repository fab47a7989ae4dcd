"""A received HTTP body is held once, on both ends and both runtimes.

A sized body lands in one buffer on the receiving side and the store
adopts what the server received, so a 16 MiB PUT or GET peaks at about
one body. A peer's declared length alone allocates nothing: a head
claiming a terabyte, followed by a KiB and a close, costs a KiB and
ends in the parser's typed error.
"""

import random

import pytest

from repro.concurrency import Accept, Close, Connect, Recv, Send, ThreadRuntime
from repro.core import DavixClient, open_session
from repro.errors import ConnectionClosed, HttpParseError
from repro.http import HttpParser, Request
from repro.net import TcpOptions
from repro.server import ObjectStore, StorageApp, real_server
from repro.server.app import _read_request

from tests.helpers import davix_world, put, sim_world, traced_peak

MIB = 1 << 20
BODY = random.Random(7).randbytes(16 * MIB)
#: A terabyte declared, one KiB sent.
HOSTILE_LENGTH = 1 << 40
TAIL = bytes(1024)


# -- a 16 MiB PUT and GET -----------------------------------------------------


def put_then_get(client, url):
    """Footprints of a PUT of ``BODY`` to ``url`` and a GET of it back."""
    stored = traced_peak(lambda: client.put(url, BODY))
    fetched = traced_peak(lambda: client.get(url))
    assert fetched.result == BODY
    return stored.peak, fetched.peak


def test_a_16_mib_put_and_get_peak_at_one_body_sim():
    """On SimRuntime the TCP model's own buffers are Python bytes and
    traced too; on sockets the kernel holds them. Up to a window of
    bursts is in flight, and the model's send buffer is unbounded, so
    the server streams a GET's whole response into it before the first
    byte arrives. Past those, each side holds one body."""
    client, _app, store, _ = davix_world(bandwidth=1e9)
    put_peak, get_peak = put_then_get(client, "http://server/bulk")
    assert store.read("/bulk") == BODY
    in_flight = TcpOptions().max_window
    assert put_peak <= 1.1 * len(BODY) + in_flight
    assert get_peak <= 1.1 * len(BODY) + len(BODY)


def test_a_16_mib_put_and_get_peak_at_one_body_sockets():
    store = ObjectStore()
    client = DavixClient(ThreadRuntime())
    with real_server(StorageApp(store)) as server:
        put_peak, get_peak = put_then_get(
            client, f"http://127.0.0.1:{server.port}/bulk"
        )
        client.context.pool.clear()
    assert store.read("/bulk") == BODY
    assert put_peak <= 1.1 * len(BODY)
    assert get_peak <= 1.1 * len(BODY)


# -- hostile declared lengths -------------------------------------------------


def runtimes(kind):
    """``(client runtime, server runtime, listener, endpoint)``."""
    if kind == "sim":
        client_rt, server_rt = sim_world()
        return client_rt, server_rt, server_rt.listen(80), ("server", 80)
    runtime = ThreadRuntime()
    listener = runtime.listen(0)
    return runtime, runtime, listener, ("127.0.0.1", listener.port)


def exchange(kind, server, client):
    """Run ``server(channel)`` on the first accepted connection and
    ``client(endpoint)`` against it; returns what each ended with (a
    raised error is returned as itself), with the traced footprint."""
    client_rt, server_rt, listener, endpoint = runtimes(kind)

    def ended(op):
        try:
            return (yield from op)
        except (ConnectionClosed, HttpParseError) as exc:
            return exc

    def accept_one():
        channel = yield Accept(listener)
        try:
            return (yield from ended(server(channel)))
        finally:
            yield Close(channel)

    def both():
        task = server_rt.spawn(accept_one())
        client_ended = client_rt.run(ended(client(endpoint)))
        return server_rt.join(task), client_ended

    try:
        return traced_peak(both)
    finally:
        if kind == "sockets":
            listener.close()


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_a_hostile_request_length_costs_what_was_sent(kind):
    def client(endpoint):
        channel = yield Connect(endpoint)
        yield Send(
            channel,
            b"PUT /x HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s"
            % (HOSTILE_LENGTH, TAIL),
        )
        yield Close(channel)

    def server(channel):
        return (yield from _read_request(channel, HttpParser("server")))

    (server_ended, _), peak, _ = exchange(kind, server, client)
    # What handle_connection catches to drop the connection.
    assert isinstance(server_ended, HttpParseError)
    assert peak <= MIB


@pytest.mark.parametrize("kind", ["sim", "sockets"])
def test_a_hostile_response_length_costs_what_was_sent(kind):
    def server(channel):
        yield Recv(channel)  # the request
        yield Send(
            channel,
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
            % (HOSTILE_LENGTH, TAIL),
        )

    def client(endpoint):
        session = yield from open_session(
            ("http", endpoint[0], endpoint[1]), endpoint, now=0.0
        )
        return (
            yield from session.request(
                Request("GET", "/x", {"Host": endpoint[0]})
            )
        )

    (_, client_ended), peak, _ = exchange(kind, server, client)
    assert isinstance(client_ended, (ConnectionClosed, HttpParseError))
    assert peak <= MIB


# -- a striped (Content-Range) upload -----------------------------------------


def test_the_completing_chunk_of_a_ranged_put_stores_its_buffer():
    """The upload buffer, once the last span lands, is the object: the
    completing chunk allocates nothing near the object's size."""
    app = StorageApp(ObjectStore())
    half = len(BODY) // 2
    total = len(BODY)
    first = put("/striped", BODY[:half],
                {"Content-Range": f"bytes 0-{half - 1}/{total}"})
    last = put("/striped", BODY[half:],
               {"Content-Range": f"bytes {half}-{total - 1}/{total}"})
    assert app.handle(first).response.status == 202
    served, peak, _ = traced_peak(lambda: app.handle(last))
    assert served.response.status == 201
    assert app.store.read("/striped") == BODY
    assert peak <= MIB
